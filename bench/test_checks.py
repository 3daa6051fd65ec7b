"""Tests of the benchmark's own checks, tracer and metadata.

Run from the repository root:  python3 -m pytest bench
Each check is fed a real output of a small instance, which must pass, and
then the same output with one value altered, which must fail.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import wreathcalc  # noqa: E402
from wreathcalc import cyclic_group, symmetric_group  # noqa: E402


def _bump(rows, pick):
    """Copy of series rows with the first row matching pick changed by one."""
    rows = copy.deepcopy(rows)
    row = next(r for r in rows if pick(r))
    row["num"] += row["den"]
    return rows


def test_report_check_passes_then_catches_each_alteration():
    report = wreathcalc.verify("hanlon", cyclic_group(2), 3).to_dict()
    assert checks.check_report(report, "ok") == []
    skipped = copy.deepcopy(report)
    skipped["degrees"][2]["status"] = "skipped"
    assert checks.check_report(skipped, "ok")
    mismatch = copy.deepcopy(report)
    mismatch["degrees"][1]["status"] = "mismatch"
    mismatch["ok"] = False
    assert checks.check_report(mismatch, "ok")
    missing = copy.deepcopy(report)
    del missing["degrees"][3]
    assert checks.check_report(missing, "ok")
    assert checks.check_report(report, "skipped")


def test_p1_power_check_catches_one_changed_coefficient():
    G = symmetric_group(3)
    rows = wreathcalc.series_terms(wreathcalc.closed_form("hanlon", G, 4))
    assert checks.check_p1_powers(rows, G.identity_class, 6, 4, "s3") == []
    bad = _bump(rows, lambda r: r["vars"] == [[1, G.identity_class, 3]])
    assert checks.check_p1_powers(bad, G.identity_class, 6, 4, "s3")


def test_binomial_coefficients_of_inverse_square_root():
    assert checks.binomial_coefficients(Fraction(-1, 2), 3) == [
        1, Fraction(-1, 2), Fraction(3, 8), Fraction(-5, 16)]


def test_relabel_check_accepts_relabeling_and_catches_a_change():
    groups, original = workloads.make_groups(7)
    f = wreathcalc.closed_form("hanlon", groups["s3"], 4)
    g = wreathcalc.closed_form("hanlon", original["s3"], 4)
    rows, ref = wreathcalc.series_terms(f), wreathcalc.series_terms(g)
    assert checks.check_relabel(rows, ref, 4, "s3") == []
    bad = _bump(rows, lambda r: sum(v[0] * v[2] for v in r["vars"]) == 4)
    assert checks.check_relabel(bad, ref, 4, "s3")


def test_relabeled_group_keeps_identity_and_class_sizes():
    for seed in range(5):
        groups, original = workloads.make_groups(seed)
        for label in ("c3", "s3"):
            G, H = groups[label], original[label]
            assert G.identity == 0
            assert sorted(c.size for c in G.classes) == sorted(
                c.size for c in H.classes)


def _cli(argv):
    rc, payload = workloads._cli_json(argv + ["--format", "json"])
    assert rc == 0
    return payload


def test_homology_check_catches_a_moved_betti_number():
    payload = _cli(["poset", "--family", "r", "--group", "c2", "--n", "4",
                    "--emit", "mobius,homology"])
    assert checks.check_homology(payload, "r", 2, 4) == []
    moved = copy.deepcopy(payload)
    moved["homology"]["1"] = moved["homology"].pop("2")
    moved["homology"]["2"] = 0
    assert checks.check_homology(moved, "r", 2, 4)
    wrong_mu = dict(payload, mobius=payload["mobius"] - 1)
    assert checks.check_homology(wrong_mu, "r", 2, 4)
    pi = _cli(["poset", "--family", "pi", "--group", "c1", "--n", "5",
               "--emit", "mobius,homology"])
    assert checks.check_homology(pi, "pi", 1, 5) == []
    pi["homology"]["2"] += 1
    assert checks.check_homology(pi, "pi", 1, 5)


def test_charpoly_check_catches_one_changed_coefficient():
    assert checks.expand_roots([1, 3]) == {0: 1, 1: -4, 2: 3}
    payload = _cli(["poset", "--family", "q", "--group", "c3", "--n", "3",
                    "--emit", "charpoly"])
    assert checks.check_charpoly(payload, 3, 3) == []
    payload["charpoly"]["2"] += 1
    assert checks.check_charpoly(payload, 3, 3)


def test_tracer_attributes_self_time_and_restores_bindings():
    import wreathcalc.plethysm as plethysm
    import wreathcalc.theorems as theorems
    original = theorems.compose
    tracer = tracing.Tracer().install()
    try:
        assert theorems.compose is not original
        assert plethysm.compose is theorems.compose
        wreathcalc.closed_form("hanlon", cyclic_group(2), 4)
    finally:
        tracer.remove()
    assert theorems.compose is original and plethysm.compose is original
    assert tracer.unbound == []
    layers = tracer.metrics()
    assert set(layers) == set(tracing.metric_names())
    assert layers["plethysm.compose_calls"] == 1
    assert layers["series.mul_calls"] > 0
    spans = tracer.spans()
    cf = spans["theorems.closed_form"]
    assert cf["calls"] == 1 and 0 <= cf["self_s"] <= cf["total_s"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    import run
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])

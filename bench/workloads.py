"""The benchmark's workloads: fixed instances, seeded group labelings.

A workload is a fixed list of operations on the public API -- ``verify``,
``closed_form``, ``build_family``-backed CLI calls through
``wreathcalc.cli.main`` -- each paired with an independent check from
``checks``.  The seed only relabels the element indices of S3 and C3 (the
identity stays at 0), so the amount of work does not depend on it.  C1 and
C2 have no nontrivial relabeling and are used as built.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks

# group label -> (constructor in wreathcalc, argument)
_GROUPS = {"c1": ("cyclic_group", 1), "c2": ("cyclic_group", 2),
           "c3": ("cyclic_group", 3), "s3": ("symmetric_group", 3)}
_RELABELED = ("c3", "s3")


@dataclass(frozen=True)
class Verify:
    theorem: str
    group: str
    n_max: int
    d: Optional[int] = None
    degree: Optional[int] = None
    force: bool = False
    natural: str = "ok"          # expected status of the one-variable check


@dataclass(frozen=True)
class ClosedForm:
    theorem: str
    group: str
    degree: int
    p1_powers: bool = False      # check p_1(e)^k against (1+x)^(-1/|G|)
    relabel_degree: int = 0      # compare with the original labeling up to here


@dataclass(frozen=True)
class Cli:
    argv: tuple[str, ...]
    check: str                   # "p1_powers", "homology" or "charpoly"
    group: str
    n: int
    family: str = ""


WORKLOADS = {
    # series ring and plethysm; the posets stay tiny
    "closed_forms": (
        Verify("product_form_F", "s3", 8),
        Verify("product_form_F", "c3", 8),
        Verify("third", "s3", 3, degree=8),
        Verify("one_mod_d", "c3", 3, d=2, degree=8),
        Verify("zero_mod_d", "s3", 3, d=2, degree=8),
        ClosedForm("product_form_F", "s3", 8, p1_powers=True, relabel_degree=5),
        ClosedForm("hanlon", "c3", 6, p1_powers=True, relabel_degree=6),
        Cli(("series", "--theorem", "hanlon", "--group", "s3", "--degree", "6"),
            "p1_powers", "s3", 6),
    ),
    # Moebius traces cross-checked by Hall's chain count, and homology
    "poset_traces": (
        Verify("hanlon", "c2", 6, force=True),
        Verify("hanlon", "c3", 5, force=True),
        Verify("second", "c3", 5, force=True),
        Verify("third", "c1", 7, force=True),
        Verify("stanley", "c1", 7, force=True),
        Cli(("poset", "--family", "r", "--group", "c2", "--n", "5",
             "--emit", "mobius,homology"), "homology", "c2", 5, "r"),
        Cli(("poset", "--family", "pi", "--group", "c1", "--n", "6",
             "--emit", "mobius,homology"), "homology", "c1", 6, "pi"),
        ClosedForm("hanlon", "c2", 6, p1_powers=True),
        ClosedForm("hanlon", "c3", 5, p1_powers=True, relabel_degree=5),
    ),
    # t-graded Whitney identities: Moebius recursion only, no chains
    "graded_chars": (
        Verify("whitney_hanlon", "c2", 6, force=True),
        Verify("whitney_Qsim", "c2", 6, force=True),
        Verify("whitney_R", "c2", 6, force=True),
        Verify("whitney_1modd", "c2", 6, d=2, force=True),
        Verify("whitney_0modd", "c2", 6, d=2, force=True),
        Verify("bn_whitney", "c2", 6, force=True),
        Verify("whitney_hanlon", "c3", 5, force=True),
        Verify("whitney_hanlon", "s3", 3, degree=6),
        # no one-variable form is on record for the modular families at d != 2
        Verify("whitney_1modd", "s3", 3, d=3, degree=6, natural="skipped"),
        Cli(("poset", "--family", "q", "--group", "c3", "--n", "5",
             "--emit", "charpoly"), "charpoly", "c3", 5, "q"),
        ClosedForm("whitney_hanlon", "s3", 4, relabel_degree=4),
    ),
}


def relabel(G, perm: list[int]):
    """The same group with element a renamed perm[a]."""
    from wreathcalc import group_from_table
    m = G.order
    table = [[0] * m for _ in range(m)]
    names = [""] * m
    for a in range(m):
        names[perm[a]] = G.names[a]
        for b in range(m):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return group_from_table(table, names)


def make_groups(seed: int) -> tuple[dict, dict]:
    """(groups the workload runs on, groups with their original labeling)."""
    import wreathcalc
    rng = random.Random(seed)
    original = {label: getattr(wreathcalc, ctor)(arg)
                for label, (ctor, arg) in _GROUPS.items()}
    used = dict(original)
    for label in _RELABELED:
        G = original[label]
        rest = list(range(1, G.order))
        rng.shuffle(rest)
        used[label] = relabel(G, [0] + rest)
    return used, original


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _cli_json(argv: list[str]) -> tuple[int, Optional[dict]]:
    import wreathcalc.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = wreathcalc.cli.main(argv)
    return rc, json.loads(buf.getvalue()) if rc == 0 else None


def build_ops(workload: str, groups: dict, original: dict) -> list[Op]:
    """The workload's operations, each calling the API through its module
    attribute at run time so that trace wrappers installed later apply."""
    import wreathcalc
    ops = []
    for spec in WORKLOADS[workload]:
        G = groups[spec.group]
        if isinstance(spec, Verify):
            label = "verify %s %s n=%d" % (spec.theorem, spec.group, spec.n_max)

            def run(s=spec, G=G):
                return wreathcalc.verify(s.theorem, G, s.n_max, d=s.d,
                                         N=s.degree, force=s.force,
                                         group_label=s.group)

            def check(report, s=spec):
                return checks.check_report(report.to_dict(), s.natural)
        elif isinstance(spec, ClosedForm):
            label = "closed_form %s %s N=%d" % (spec.theorem, spec.group,
                                                 spec.degree)

            def run(s=spec, G=G):
                return wreathcalc.closed_form(s.theorem, G, s.degree)

            def check(f, s=spec, G=G, lab=label):
                rows = wreathcalc.series_terms(f)
                out = []
                if s.p1_powers:
                    out += checks.check_p1_powers(rows, G.identity_class,
                                                  G.order, s.degree, lab)
                if s.relabel_degree:
                    ref = wreathcalc.closed_form(s.theorem, original[s.group],
                                                 s.relabel_degree)
                    out += checks.check_relabel(rows,
                                                wreathcalc.series_terms(ref),
                                                s.relabel_degree, lab)
                return out
        else:
            label = "cli " + " ".join(spec.argv)
            argv = list(spec.argv) + ["--format", "json"]

            def run(argv=argv):
                return _cli_json(argv)

            def check(result, s=spec, G=original[spec.group], lab=label):
                rc, payload = result
                if rc != 0:
                    return ["%s: exit status %d" % (lab, rc)]
                if s.check == "p1_powers":
                    return checks.check_p1_powers(
                        payload["terms"], G.identity_class, G.order, s.n, lab)
                if s.check == "homology":
                    return checks.check_homology(payload, s.family, G.order,
                                                 s.n)
                return checks.check_charpoly(payload, G.order, s.n)
        ops.append(Op(label, run, check))
    return ops

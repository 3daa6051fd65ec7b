"""Command-line interface: output formats, exit codes, determinism."""

import io
import json

import pytest

from wreathcalc import cli
from wreathcalc.theorems import DegreeResult, VerificationReport


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_text_output_and_exit_zero(capsys):
    code, out, err = run_cli(
        ["verify", "--theorem", "hanlon", "--group", "c2", "--n-max", "2"],
        capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("theorem hanlon")
    assert "degree 0: ok" in lines
    assert "degree 2: ok" in lines
    assert lines[-1] == "result: verified"


def test_verify_json_output_parses(capsys):
    code, out, _ = run_cli(
        ["verify", "--theorem", "zero_mod_d", "--group", "c2", "--n-max", "3",
         "--d", "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["theorem"] == "zero_mod_d"
    assert data["ok"] is True
    assert data["d"] == 2
    assert [row["status"] for row in data["degrees"]] == ["ok"] * 4
    assert data["natural"]["status"] == "ok"


def test_verify_csv_output_shape(capsys):
    code, out, _ = run_cli(
        ["verify", "--theorem", "second", "--group", "c1", "--n-max", "2",
         "--format", "csv"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["kind", "degree", "status", "note"]
    assert rows[1][:3] == ["degree", "0", "ok"]
    assert rows[-1][0] == "result"
    assert rows[-1][2] == "verified"


def test_verify_exit_one_on_mismatch(monkeypatch, capsys):
    report = VerificationReport("hanlon", "c2", 2, 1, None, 1)
    report.degrees.append(DegreeResult(0, "ok"))
    report.degrees.append(DegreeResult(
        1, "mismatch",
        mismatch={"monomial": [[1, 0, 1]], "t": "0/1",
                  "closed": "1", "brute": "2"}))
    monkeypatch.setattr(cli, "verify",
                        lambda *args, **kwargs: report)
    code, out, _ = run_cli(
        ["verify", "--theorem", "hanlon", "--group", "c2", "--n-max", "1"],
        capsys)
    assert code == 1
    assert "result: mismatch" in out
    assert "closed 1 brute 2" in out


def test_verify_usage_errors_exit_two(capsys):
    code, _, err = run_cli(
        ["verify", "--theorem", "stanley", "--group", "c2", "--n-max", "2"],
        capsys)
    assert code == 2
    assert "trivial group" in err
    code, _, err = run_cli(
        ["verify", "--theorem", "hanlon", "--group", "c9", "--n-max", "2"],
        capsys)
    assert code == 2
    assert "unknown group" in err


def test_verify_budget_exit_three(capsys):
    code, _, err = run_cli(
        ["verify", "--theorem", "hanlon", "--group", "c2", "--n-max", "6"],
        capsys)
    assert code == 3
    assert "budget" in err


def test_series_text_and_csv(capsys):
    code, out, _ = run_cli(
        ["series", "--theorem", "second", "--group", "c1", "--degree", "3"],
        capsys)
    assert code == 0
    assert "p_1" in out
    code, out, _ = run_cli(
        ["series", "--theorem", "second", "--group", "c1", "--degree", "3",
         "--format", "csv"], capsys)
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["num", "den", "t_num", "t_den", "vars"]
    assert rows[1] == ["-1", "1", "0", "1", "1:0:1"]
    assert len(rows) == 2


def test_series_at_degree_zero_is_the_constant_one(capsys):
    for theorem, group in (("one_mod_d", "c3"), ("whitney_1modd", "s3"),
                           ("bn_whitney", "c2"), ("dn_series", "c2")):
        code, out, err = run_cli(
            ["series", "--theorem", theorem, "--group", group, "--degree",
             "0", "--format", "csv"], capsys)
        assert code == 0, err
        (num, den, t_num, _t_den, variables), = (
            row.split(",") for row in out.splitlines()[1:])
        assert (num, den, t_num, variables) == ("1", "1", "0", "")


def test_series_json_terms_sorted(capsys):
    code, out, _ = run_cli(
        ["series", "--theorem", "hanlon", "--group", "c2", "--degree", "2",
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    degrees = [sum(i * e for i, _c, e in term["vars"])
               for term in data["terms"]]
    assert degrees == sorted(degrees)
    assert data["t_den"] == 1


def test_poset_emits_all_sections(capsys):
    code, out, _ = run_cli(
        ["poset", "--family", "q", "--group", "c2", "--n", "2",
         "--emit", "mobius,ranks,homology,charpoly"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family q  group c2  n 2  elements 6"
    assert "mobius 3" in lines
    assert "length 2" in lines
    assert "homology -1:0 0:3" in lines
    assert "charpoly 0:1 1:-4 2:3" in lines


def test_poset_json_default_d(capsys):
    code, out, _ = run_cli(
        ["poset", "--family", "q0modd", "--group", "c2", "--n", "3",
         "--emit", "mobius", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 2
    assert data["elements"] == 8
    assert data["mobius"] == 5


def test_poset_homology_budget(capsys):
    code, _, err = run_cli(
        ["poset", "--family", "q", "--group", "c2", "--n", "5",
         "--emit", "homology"], capsys)
    assert code == 3
    assert "homology budget" in err


def test_poset_bad_emit_exits_two(capsys):
    code, _, err = run_cli(
        ["poset", "--family", "q", "--group", "c2", "--n", "2",
         "--emit", "mobius,nonsense"], capsys)
    assert code == 2
    assert "unknown emit item" in err


def test_group_cyclic_classes_and_powmap(capsys):
    code, out, _ = run_cli(
        ["group", "--cyclic", "4", "--emit", "classes,powmap",
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    assert data["num_classes"] == 4
    assert data["powmap"]["1"] == [1, 2, 3, 0]
    assert data["classes"][2]["representative"] == "g^2"


def test_group_requires_exactly_one_source(capsys):
    code, _, err = run_cli(["group", "--emit", "classes"], capsys)
    assert code == 2
    assert "exactly one" in err
    code, _, err = run_cli(
        ["group", "--cyclic", "2", "--table", "x", "--emit", "classes"],
        capsys)
    assert code == 2


def test_group_from_table_file(tmp_path, capsys):
    path = tmp_path / "klein.txt"
    path.write_text("4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\ne a b c\n")
    code, out, _ = run_cli(
        ["group", "--table", str(path), "--emit", "classes",
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    assert data["num_classes"] == 4
    assert data["classes"][1]["members"] == ["a"]


def test_verify_with_file_group(tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_text("2\n0 1\n1 0\n")
    code, out, _ = run_cli(
        ["verify", "--theorem", "hanlon", "--group", "file:%s" % path,
         "--n-max", "2"], capsys)
    assert code == 0
    assert "result: verified" in out


def test_missing_group_file_exits_two(capsys):
    code, _, err = run_cli(
        ["verify", "--theorem", "hanlon",
         "--group", "file:/no/such/file.txt", "--n-max", "2"], capsys)
    assert code == 2
    assert "cannot read group table" in err


def test_output_is_deterministic(capsys):
    argv = ["verify", "--theorem", "whitney_hanlon", "--group", "c2",
            "--n-max", "3", "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    first = json.loads(first)
    second = json.loads(second)
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second


def test_poset_element_budget(capsys):
    argv = ["poset", "--family", "q", "--group", "c2", "--n", "6",
            "--emit", "mobius"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert "4088 elements (budget 3000)" in err
    code, out, _ = run_cli(argv + ["--force"], capsys)
    assert code == 0
    assert "elements 4088" in out


def test_budget_refusals_name_the_cli_switch(capsys):
    for argv in (["poset", "--family", "q", "--group", "c2", "--n", "6"],
                 ["verify", "--theorem", "hanlon", "--group", "c2",
                  "--n-max", "5"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert "force=True" in err and "--force" in err


def test_unreadable_group_table_exits_two(capsys):
    code, out, err = run_cli(
        ["group", "--table", "/no/such/file.txt", "--emit", "classes"],
        capsys)
    assert code == 2
    assert out == ""
    assert "cannot read group table /no/such/file.txt" in err


def test_poset_charpoly_builds_the_family_once(monkeypatch, capsys):
    from collections import OrderedDict

    from wreathcalc import dowling, theorems
    calls = []
    original = dowling.build_family

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (dowling, theorems, cli):
        if getattr(module, "build_family", None) is original:
            monkeypatch.setattr(module, "build_family", counting)
    monkeypatch.setattr(theorems, "_poset_cache", OrderedDict())
    code, out, _ = run_cli(
        ["poset", "--family", "q", "--group", "c3", "--n", "3",
         "--emit", "mobius,charpoly"], capsys)
    assert code == 0
    assert "charpoly 0:1" in out
    assert len(calls) == 1

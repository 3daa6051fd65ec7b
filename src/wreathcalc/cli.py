"""Command-line interface.

Subcommands:
  verify  compare the closed and brute-force sides of a named identity
  series  print the closed-form series of a named identity
  poset   build one family poset and print its invariants
  group   print conjugacy data for a group

Exit codes: 0 verified or printed, 1 coefficient mismatch, 2 usage error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .dowling import FAMILIES, FamilyError
from .groups import (FiniteGroup, GroupTableError, class_power, cyclic_group,
                     read_table_text, symmetric_group)
from .posets import PosetError, order_complex_homology
from .series import SeriesError, format_series, series_terms
from .theorems import (THEOREM_IDS, BudgetError, HOMOLOGY_ELEMENT_BUDGET,
                       UsageError, _OVERRIDE, _acted_poset, closed_form,
                       identity_char_poly, verify)

_GROUP_NAMES = {
    "c1": lambda: cyclic_group(1),
    "c2": lambda: cyclic_group(2),
    "c3": lambda: cyclic_group(3),
    "s3": lambda: symmetric_group(3),
}


def resolve_group(name: str) -> tuple[str, FiniteGroup]:
    """Turn c1|c2|c3|s3|file:PATH into a labeled group."""
    low = name.lower()
    if low in _GROUP_NAMES:
        return low, _GROUP_NAMES[low]()
    if name.startswith("file:"):
        path = name[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError("cannot read group table %s: %s" % (path, exc))
        return path, read_table_text(text)
    raise UsageError(
        "unknown group %r; expected c1, c2, c3, s3, or file:PATH" % name)


def _emit(payload: dict, fmt: str, text_lines: list[str],
          csv_rows: list[list], out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True))
        out.write("\n")
    elif fmt == "csv":
        for row in csv_rows:
            out.write(",".join(_csv_cell(v) for v in row))
            out.write("\n")
    else:
        for line in text_lines:
            out.write(line)
            out.write("\n")


def _csv_cell(value) -> str:
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _vars_cell(rows: list) -> str:
    return ";".join("%d:%d:%d" % tuple(v) for v in rows)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args, out) -> int:
    label, G = resolve_group(args.group)
    report = verify(args.theorem, G, args.n_max, d=args.d, N=args.degree,
                    force=args.force, group_label=label)
    data = report.to_dict()
    lines = ["theorem %s  group %s  n_max %d%s" % (
        report.theorem, report.group_label, report.n_max,
        "  d %d" % report.d if report.d else "")]
    csv_rows = [["kind", "degree", "status", "note"]]
    for r in report.degrees:
        note = r.note
        if r.mismatch:
            note = ("monomial %s t %s closed %s brute %s"
                    % (_vars_cell(r.mismatch["monomial"]), r.mismatch["t"],
                       r.mismatch["closed"], r.mismatch["brute"]))
        lines.append("degree %d: %s%s"
                     % (r.degree, r.status, "  (%s)" % note if note else ""))
        csv_rows.append(["degree", r.degree, r.status, note])
    lines.append("natural: %s%s" % (report.natural_status,
                                    "  (%s)" % report.natural_note
                                    if report.natural_note else ""))
    csv_rows.append(["natural", "", report.natural_status,
                     report.natural_note])
    lines.append("result: %s" % ("verified" if report.ok else "mismatch"))
    csv_rows.append(["result", "", "verified" if report.ok else "mismatch",
                     ""])
    _emit(data, args.format, lines, csv_rows, out)
    return 0 if report.ok else 1


def _cmd_series(args, out) -> int:
    label, G = resolve_group(args.group)
    f = closed_form(args.theorem, G, args.degree, args.d)
    terms = series_terms(f)
    payload = {
        "theorem": args.theorem,
        "group": label,
        "trunc": args.degree,
        "t_den": f.t_den,
        "terms": terms,
    }
    lines = ["theorem %s  group %s  truncated at degree %d"
             % (args.theorem, label, args.degree),
             format_series(f)]
    csv_rows = [["num", "den", "t_num", "t_den", "vars"]]
    for term in terms:
        csv_rows.append([term["num"], term["den"], term["t_num"],
                         term["t_den"], _vars_cell(term["vars"])])
    _emit(payload, args.format, lines, csv_rows, out)
    return 0


def _cmd_poset(args, out) -> int:
    label, G = resolve_group(args.group)
    wanted = [item.strip() for item in args.emit.split(",") if item.strip()]
    allowed = ("mobius", "ranks", "homology", "charpoly")
    for item in wanted:
        if item not in allowed:
            raise UsageError("unknown emit item %r; expected subset of %s"
                             % (item, ",".join(allowed)))
    if not wanted:
        raise UsageError("nothing to emit")
    d = args.d
    if d is None and args.family in ("q1modd", "q0modd"):
        d = 2
    P, _act = _acted_poset(args.family, G, args.n, d, args.force)
    payload: dict = {"family": args.family, "group": label, "n": args.n,
                     "d": d, "elements": P.n}
    lines = ["family %s  group %s  n %d%s  elements %d"
             % (args.family, label, args.n,
                "  d %d" % d if d else "", P.n)]
    csv_rows: list[list] = [["section", "key", "value"]]
    csv_rows.append(["elements", "", P.n])
    if "mobius" in wanted:
        mu = P.mobius_bottom_top()
        payload["mobius"] = mu
        lines.append("mobius %d" % mu)
        csv_rows.append(["mobius", "", mu])
    if "ranks" in wanted:
        ranks = P.ranks()
        payload["ranks"] = ranks
        payload["length"] = P.length()
        lines.append("length %d" % P.length())
        lines.append("ranks " + " ".join(str(r) for r in ranks))
        csv_rows.append(["length", "", P.length()])
        for i, r in enumerate(ranks):
            csv_rows.append(["rank", i, r])
    if "homology" in wanted:
        proper = P.proper_part()
        if proper.n > HOMOLOGY_ELEMENT_BUDGET and not args.force:
            raise BudgetError(
                "proper part has %d elements (homology budget %d); %s"
                % (proper.n, HOMOLOGY_ELEMENT_BUDGET, _OVERRIDE),
                estimate=proper.n)
        betti = order_complex_homology(proper)
        payload["homology"] = {str(k): v for k, v in sorted(betti.items())}
        lines.append("homology " + " ".join("%d:%d" % (k, v)
                                            for k, v in sorted(betti.items())))
        for k, v in sorted(betti.items()):
            csv_rows.append(["homology", k, v])
    if "charpoly" in wanted:
        cp = identity_char_poly(args.family, G, args.n, d,
                                force=args.force)
        payload["charpoly"] = {str(k): v for k, v in sorted(cp.items())}
        lines.append("charpoly " + " ".join("%d:%d" % (k, v)
                                            for k, v in sorted(cp.items())))
        for k, v in sorted(cp.items()):
            csv_rows.append(["charpoly", k, v])
    _emit(payload, args.format, lines, csv_rows, out)
    return 0


def _cmd_group(args, out) -> int:
    if (args.cyclic is None) == (args.table is None):
        raise UsageError("give exactly one of --cyclic R or --table PATH")
    if args.cyclic is not None:
        if args.cyclic < 1:
            raise UsageError("cyclic order must be positive")
        G = cyclic_group(args.cyclic)
        label = "c%d" % args.cyclic
    else:
        label, G = resolve_group("file:" + args.table)
    wanted = [item.strip() for item in args.emit.split(",") if item.strip()]
    for item in wanted:
        if item not in ("classes", "powmap"):
            raise UsageError("unknown emit item %r; expected classes,powmap"
                             % item)
    if not wanted:
        raise UsageError("nothing to emit")
    payload: dict = {"group": label, "order": G.order,
                     "num_classes": G.num_classes}
    lines = ["group %s  order %d  classes %d"
             % (label, G.order, G.num_classes)]
    csv_rows: list[list] = [["section", "class", "values"]]
    if "classes" in wanted:
        payload["classes"] = [
            {"class_id": c.class_id, "size": c.size,
             "representative": G.names[c.representative],
             "members": [G.names[m] for m in c.members]}
            for c in G.classes
        ]
        for c in G.classes:
            lines.append("class %d  size %d  rep %s  members %s"
                         % (c.class_id, c.size, G.names[c.representative],
                            " ".join(G.names[m] for m in c.members)))
            csv_rows.append(["class", c.class_id,
                             " ".join(G.names[m] for m in c.members)])
    if "powmap" in wanted:
        table = {}
        for c in G.classes:
            table[str(c.class_id)] = [class_power(G, c.class_id, j)
                                      for j in range(1, G.order + 1)]
        payload["powmap"] = table
        for cid, row in sorted(table.items(), key=lambda kv: int(kv[0])):
            lines.append("powmap %s  %s" % (cid, " ".join(map(str, row))))
            csv_rows.append(["powmap", cid, " ".join(map(str, row))])
    _emit(payload, args.format, lines, csv_rows, out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathcalc",
        description="Exact verification of wreath-product series identities "
                    "against explicitly built posets.")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = {"choices": ("json", "csv", "text"), "default": "text",
           "help": "output format (default text)"}
    group_help = "group: c1, c2, c3, s3, or file:PATH with a Cayley table"

    pv = sub.add_parser("verify", help="verify one identity degree by degree")
    pv.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    pv.add_argument("--group", required=True, help=group_help)
    pv.add_argument("--n-max", dest="n_max", type=int, required=True,
                    help="largest degree to verify")
    pv.add_argument("--d", type=int, default=None,
                    help="modulus for the modular families (default 2)")
    pv.add_argument("--degree", type=int, default=None,
                    help="series truncation degree (default n-max)")
    pv.add_argument("--format", **fmt)
    pv.add_argument("--force", action="store_true",
                    help="override the resource budgets")

    ps = sub.add_parser("series", help="print a closed-form series")
    ps.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    ps.add_argument("--group", required=True, help=group_help)
    ps.add_argument("--degree", type=int, default=6,
                    help="truncation degree (default 6)")
    ps.add_argument("--d", type=int, default=None)
    ps.add_argument("--format", **fmt)

    pp = sub.add_parser("poset", help="build a family poset and print "
                                      "invariants")
    pp.add_argument("--family", required=True, choices=FAMILIES)
    pp.add_argument("--group", required=True, help=group_help)
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--d", type=int, default=None)
    pp.add_argument("--emit", default="mobius,ranks",
                    help="comma list from mobius,ranks,homology,charpoly")
    pp.add_argument("--format", **fmt)
    pp.add_argument("--force", action="store_true",
                    help="override the resource budgets")

    pg = sub.add_parser("group", help="print conjugacy data for a group")
    pg.add_argument("--cyclic", type=int, default=None,
                    help="order of a cyclic group")
    pg.add_argument("--table", default=None,
                    help="path to a Cayley table file")
    pg.add_argument("--emit", default="classes",
                    help="comma list from classes,powmap")
    pg.add_argument("--format", **fmt)

    return parser


_HANDLERS = {
    "verify": _cmd_verify,
    "series": _cmd_series,
    "poset": _cmd_poset,
    "group": _cmd_group,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, sys.stdout)
    except BudgetError as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return 3
    except (UsageError, FamilyError, SeriesError, GroupTableError,
            PosetError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

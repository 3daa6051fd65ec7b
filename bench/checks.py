"""Independent output checks for the benchmark.

Every check takes plain data -- a verify report as ``to_dict()`` gives it,
series rows in the ``series --format json`` layout, a ``poset --format json``
payload -- and recomputes the expected value here with ``Fraction`` and
integer arithmetic, without calling into ``wreathcalc``.  Each returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod


def check_report(report: dict, natural: str) -> list[str]:
    """A verify report is ok, every degree 0..n_max is ok (none skipped),
    and the one-variable check has the expected status."""
    label = "verify %s over %s" % (report.get("theorem"), report.get("group"))
    problems = []
    if report.get("ok") is not True:
        problems.append("%s: report is not ok" % label)
    degrees = report.get("degrees", [])
    listed = [row.get("degree") for row in degrees]
    if listed != list(range(report.get("n_max", -1) + 1)):
        problems.append("%s: degrees %s do not run 0..n_max" % (label, listed))
    for row in degrees:
        if row.get("status") != "ok":
            problems.append("%s: degree %s is %s"
                            % (label, row.get("degree"), row.get("status")))
    got = report.get("natural", {}).get("status")
    if got != natural:
        problems.append("%s: natural check is %s, expected %s"
                        % (label, got, natural))
    return problems


def binomial_coefficients(alpha: Fraction, k_max: int) -> list[Fraction]:
    """Coefficients of x^0..x^k_max in (1 + x)^alpha."""
    out = []
    c = Fraction(1)
    for k in range(k_max + 1):
        out.append(c)
        c = c * (alpha - k) / (k + 1)
    return out


def p1_power_coefficients(rows: list[dict], ident: int) -> dict[int, Fraction]:
    """{k: coefficient of p_1(ident)^k} among the t-free rows of a series."""
    out = {}
    for row in rows:
        if row["t_num"] != 0:
            continue
        v = row["vars"]
        if not v:
            out[0] = Fraction(row["num"], row["den"])
        elif len(v) == 1 and v[0][0] == 1 and v[0][1] == ident:
            out[v[0][2]] = Fraction(row["num"], row["den"])
    return out


def check_p1_powers(rows: list[dict], ident: int, order: int, k_max: int,
                    label: str) -> list[str]:
    """The p_1(e)^k coefficients equal those of (1 + x)^(-1/|G|)."""
    got = p1_power_coefficients(rows, ident)
    want = binomial_coefficients(Fraction(-1, order), k_max)
    return ["%s: p_1(e)^%d coefficient %s, expected %s"
            % (label, k, got.get(k, Fraction(0)), want[k])
            for k in range(k_max + 1) if got.get(k, Fraction(0)) != want[k]]


def degree_multisets(rows: list[dict], max_degree: int) -> dict[int, Counter]:
    """Per monomial degree <= max_degree, the multiset of (t-exponent,
    coefficient) pairs: what survives a relabeling of the group."""
    out: dict[int, Counter] = {n: Counter() for n in range(max_degree + 1)}
    for row in rows:
        deg = sum(i * e for i, _c, e in row["vars"])
        if deg <= max_degree:
            out[deg][(Fraction(row["t_num"], row["t_den"]),
                      Fraction(row["num"], row["den"]))] += 1
    return out


def check_relabel(relabeled: list[dict], original: list[dict],
                  max_degree: int, label: str) -> list[str]:
    """Relabeling the group keeps the coefficient multiset of every degree."""
    a = degree_multisets(relabeled, max_degree)
    b = degree_multisets(original, max_degree)
    return ["%s: degree %d coefficients differ from the original labeling"
            % (label, n) for n in range(max_degree + 1) if a[n] != b[n]]


def top_betti_formula(family: str, order: int, n: int) -> tuple[int, int]:
    """(top degree, Betti number) of the proper part's order complex:
    prod_{k=1}^{n-1} (k|G| - 1) in degree n-2 for r, and (n-1)! in degree n-3
    for the partition lattice pi."""
    if family == "r":
        return n - 2, prod(k * order - 1 for k in range(1, n))
    if family == "pi":
        return n - 3, factorial(n - 1)
    raise ValueError("no homology formula for family %r" % family)


def check_homology(payload: dict, family: str, order: int, n: int) -> list[str]:
    """Homology sits in the top degree only, and equals |mobius| there and
    the family's product formula."""
    label = "poset %s n=%d" % (family, n)
    betti = {int(k): v for k, v in payload["homology"].items()}
    top, value = top_betti_formula(family, order, n)
    problems = []
    nonzero = sorted(k for k, v in betti.items() if v)
    if nonzero != [top] or max(betti) != top:
        problems.append("%s: homology %s is not concentrated in degree %d"
                        % (label, betti, top))
    got = betti.get(top, 0)
    if got != abs(payload["mobius"]):
        problems.append("%s: top Betti number %d != |mobius| %d"
                        % (label, got, abs(payload["mobius"])))
    if got != value:
        problems.append("%s: top Betti number %d != product formula %d"
                        % (label, got, value))
    return problems


def expand_roots(roots: list[int]) -> dict[int, int]:
    """prod (t - root) as {r: coefficient of t^(len(roots) - r)}, zeros dropped."""
    coeffs = [1]
    for root in roots:
        nxt = coeffs + [0]
        for r, c in enumerate(coeffs):
            nxt[r + 1] -= c * root
        coeffs = nxt
    return {r: c for r, c in enumerate(coeffs) if c}


def check_charpoly(payload: dict, order: int, n: int) -> list[str]:
    """The identity characteristic polynomial of q is prod_{k<n} (t - (1 + k|G|))."""
    got = {int(k): v for k, v in payload["charpoly"].items()}
    want = expand_roots([1 + k * order for k in range(n)])
    if got != want:
        return ["poset q n=%d: charpoly %s, expected %s" % (n, got, want)]
    return []

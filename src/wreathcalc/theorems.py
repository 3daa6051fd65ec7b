"""Verification engine for the identity catalogue.

Each named identity has a closed-form symmetric-function side and, where a
poset model exists, a brute-force side computed from explicitly constructed
posets: fixed-point Mobius values feed the ungraded character sums, and
equivariant characteristic polynomials feed the t-graded ones.  verify()
compares the two series degree by degree in exact rational arithmetic and
reports the first discrepancy.  Univariate shadows of the closed forms are
checked against classical one-variable series at rational t values.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .dowling import build_family, count_family
from .groups import FiniteGroup, cyclic_group
from .plethysm import (_mod_inverse, average_p1, compose, exp_compose,
                       product_form_inverse, uni_analytic)
from .posets import (Poset, equivariant_char_poly, fixed_point_mobius,
                     lefschetz_top_trace, order_complex_homology)
from .series import (GradedSeries, Mono, ONE_MONO, SeriesError, _TRIVIAL,
                     _by_degree, _rational, exp_series, l_series, mod_filter,
                     natural_spec, one, pow1p_of, series_terms, t_monomial,
                     uni_const, uni_one, uni_x, zero)
from .wreath import (WreathType, centralizer_order, enumerate_class_types,
                     type_representative)


@dataclass(frozen=True)
class _Statement:
    """One identity: what its brute-force side sums, and where it applies."""

    summary: str
    deg0: int                        # degree-0 value of the poset side
    family: Optional[str] = None     # poset family of the brute-force side
    graded: bool = False             # t-graded: Whitney characters
    # alternating sign (n, d) of the ungraded Moebius traces
    sign: Optional[Callable[[int, Optional[int]], int]] = None
    needs_d: bool = False            # takes the modulus d (default 2)
    order: Optional[int] = None      # group order it is stated over, if fixed


def _alternating(n: int, d: Optional[int]) -> int:
    return (-1) ** n


_STATEMENTS = {
    "stanley": _Statement(
        "alternating partition-lattice homology sum equals the logarithmic "
        "inverse series", 0, "pi", sign=lambda n, d: (-1) ** (n - 1),
        order=1),
    "hanlon": _Statement(
        "alternating full-family homology sum equals the plethystic inverse "
        "of the group exponential", 1, "q", sign=_alternating),
    "second": _Statement(
        "alternating restricted-family homology sum equals one minus the "
        "composed group exponential", 0, "r", sign=_alternating),
    "third": _Statement(
        "alternating simple-family homology sum carries an extra linear "
        "factor", 1, "qsim", sign=_alternating),
    "one_mod_d": _Statement(
        "blocks congruent to one mod d: alternating homology sum in closed "
        "plethystic form", 1, "q1modd",
        sign=lambda n, d: (-1) ** ((n + d - 1) // d), needs_d=True),
    "zero_mod_d": _Statement(
        "blocks congruent to zero mod d: alternating homology sum in closed "
        "plethystic form", 0, "q0modd",
        sign=lambda n, d: (-1) ** (n // d + 1), needs_d=True),
    "fibre_corollary": _Statement(
        "product of the full and restricted alternating sums telescopes to "
        "one", 1),
    "qsim_corollary": _Statement(
        "simple-family sum factors through the full-family sum", 0),
    "whitney_hanlon": _Statement(
        "t-graded Whitney characters of the full family in closed form", 1,
        "q", graded=True),
    "whitney_R": _Statement(
        "t-graded Whitney characters of the restricted family", 0, "r",
        graded=True),
    "whitney_Qsim": _Statement(
        "t-graded Whitney characters of the simple family", 1, "qsim",
        graded=True),
    "whitney_1modd": _Statement(
        "t-graded Whitney characters, blocks one mod d", 1, "q1modd",
        graded=True, needs_d=True),
    "whitney_0modd": _Statement(
        "t-graded Whitney characters, blocks zero mod d", 1, "q0modd",
        graded=True, needs_d=True),
    "bn_whitney": _Statement(
        "t-graded Whitney characters of the signed-partition family for the "
        "order-two group", 1, "bn", graded=True, order=2),
    "dn_series": _Statement(
        "series variant of the signed-partition identity with a degree-two "
        "correction factor", 1, graded=True, order=2),
    "product_form_F": _Statement(
        "the inverse of the composed group exponential as an explicit "
        "infinite product", 1),
}

THEOREM_IDS = tuple(_STATEMENTS)
THEOREM_SUMMARIES = {th: spec.summary for th, spec in _STATEMENTS.items()}
_NEEDS_D = {th for th, spec in _STATEMENTS.items() if spec.needs_d}
_STATED_OVER = {1: "the trivial group", 2: "the order-two group"}

# default resource ceilings, overridable with force=True
POSET_ELEMENT_BUDGET = 3000
HOMOLOGY_ELEMENT_BUDGET = 300
TRACE_N_BUDGET = 4
GROUP_ORDER_BUDGET = 6
DEGREE_BUDGET = 8
# the end of every budget refusal, naming the keyword and the CLI switch
_OVERRIDE = "pass force=True (--force on the command line) to override"

_T_SAMPLES = (Fraction(1), Fraction(2), Fraction(1, 2))


class UsageError(ValueError):
    """Bad argument combination for a theorem (wrong group, missing d, ...)."""


class BudgetError(RuntimeError):
    """Requested computation exceeds the default resource ceilings."""

    def __init__(self, message: str, estimate: Optional[int] = None):
        super().__init__(message)
        self.estimate = estimate


def _statement(theorem: str, G: FiniteGroup,
               d: Optional[int]) -> tuple[_Statement, Optional[int]]:
    """The theorem's record, checked against G, and its resolved d."""
    spec = _STATEMENTS.get(theorem)
    if spec is None:
        raise UsageError("unknown theorem %r; expected one of %s"
                         % (theorem, ", ".join(THEOREM_IDS)))
    if spec.order is not None and G.order != spec.order:
        raise UsageError("%s is stated over %s"
                         % (theorem, _STATED_OVER[spec.order]))
    if not spec.needs_d:
        return spec, None
    if d is None:
        return spec, 2
    if d < 2:
        raise UsageError("d must be at least two")
    return spec, d


# ---------------------------------------------------------------------------
# closed forms


def closed_form(theorem: str, G: FiniteGroup, N: int,
                d: Optional[int] = None) -> GradedSeries:
    """The closed series side of the named identity, truncated at degree N."""
    _spec, d = _statement(theorem, G, d)
    if theorem == "stanley":
        return l_series(G, N)
    if theorem == "product_form_F":
        return product_form_inverse(G, N)
    L = l_series(_TRIVIAL, N)
    if theorem == "hanlon":
        return exp_compose(G, N, L.neg())
    if theorem == "second":
        return one(G, N) - exp_compose(G, N, L)
    if theorem == "third":
        return (one(G, N) + average_p1(G, N)) * exp_compose(G, N, L.neg())
    if theorem == "one_mod_d":
        X = exp_compose(G, N, _mod_inverse(N, d))
        x_zero = mod_filter(X, 0, d)
        return (one(G, N) - X + x_zero) * x_zero.invert()
    if theorem in ("zero_mod_d", "whitney_0modd"):
        E = exp_series(G, N)
        M = compose(L, mod_filter(exp_series(_TRIVIAL, N), 0, d)
                    - one(_TRIVIAL, N))
        if theorem == "zero_mod_d":
            return one(G, N) - E * exp_compose(G, N, M.neg())
        M = M.attach_t(1, d)
        comb = zero(G, N)
        for j in range(d):
            comb = comb + mod_filter(E, j, d).attach_t(1, d).scale_t(d - j, d)
        return (E + t_monomial(G, N, 1)
                - comb * exp_compose(G, N, M.scale_t(-1) - M))
    if theorem == "whitney_hanlon":
        return _whitney_q_closed(G, N)
    if theorem == "whitney_R":
        Lt = L.attach_t(1)
        return exp_compose(G, N, Lt.scale_t(-1)) - exp_compose(G, N, Lt)
    if theorem == "whitney_Qsim":
        lin = average_p1(G, N).scale_t(1)
        return (one(G, N) + lin) * _whitney_q_closed(G, N)
    if theorem == "whitney_1modd":
        B = _mod_inverse(N, d).attach_t(1, d)
        X = exp_compose(G, N, B)
        acc = exp_compose(G, N, B.scale_t(-1, d))
        for j in range(1, d):
            acc = acc - mod_filter(X, j, d).scale_t(d - j, d)
        return acc * mod_filter(X, 0, d).invert()
    if theorem == "bn_whitney":
        return _bn_closed(G, N)
    if theorem == "dn_series":
        deg2 = exp_series(G, N).homogeneous_part(2)
        return (one(G, N) + deg2.scale_t(1)) * _bn_closed(G, N)
    if theorem == "fibre_corollary":
        return one(G, N)
    return zero(G, N)   # qsim_corollary


def _whitney_q_closed(G: FiniteGroup, N: int) -> GradedSeries:
    Lt = l_series(_TRIVIAL, N).attach_t(1)
    return exp_compose(G, N, Lt.scale_t(-1) - Lt)


def _bn_closed(G: FiniteGroup, N: int) -> GradedSeries:
    B = _mod_inverse(N, 2).attach_t(1, 2)
    return (mod_filter(exp_compose(G, N, B), 0, 2).invert()
            * exp_compose(G, N, B.scale_t(-1, 2)))


# ---------------------------------------------------------------------------
# brute-force sides

# Posets by (family, Cayley table, n, d), least recently used evicted first.
# Every value pins its poset, so the cache is bounded; the cap covers the
# two families times n_max degrees that a corollary check revisits.
_POSET_CACHE_SIZE = 16
_poset_cache: OrderedDict = OrderedDict()


def _acted_poset(family: str, G: FiniteGroup, n: int, d: Optional[int],
                 force: bool = False) -> tuple[Poset, Callable]:
    """Poset for the family plus a map from wreath elements to the bitmasks
    of the elements they fix.

    bn is q1modd at d=2, less its top for odd n: it takes the q1modd entry,
    as it is at even n and restricted to the subposet without the top at odd
    n.  d is dropped for the families that take none.  Families above
    POSET_ELEMENT_BUDGET elements are refused, before anything is built,
    unless forced.
    """
    built, d = (("q1modd", 2) if family == "bn" else
                (family, d if family in ("q1modd", "q0modd") else None))
    size = count_family(built, G, n, d)
    if size > POSET_ELEMENT_BUDGET and not force:
        raise BudgetError(
            "family %s at n=%d has %d elements (budget %d); %s"
            % (family, n, size, POSET_ELEMENT_BUDGET, _OVERRIDE),
            estimate=size)
    key = (built, G.table, n, d)
    hit = _poset_cache.get(key)
    if hit is None:
        fp = build_family(built, G, n, d)
        hit = _poset_cache[key] = (fp.poset, fp.fixed_mask)
        if len(_poset_cache) > _POSET_CACHE_SIZE:
            _poset_cache.popitem(last=False)
    else:
        _poset_cache.move_to_end(key)
    if family == "bn" and n % 2 == 1:
        # the canonical sort puts the top, the only element with the full
        # i_mask, last; the fixed elements of the rest are a prefix
        P, act = hit
        last = P.n - 1
        assert P.top() == last
        rest = (1 << last) - 1
        return P.subposet(range(last)), lambda w: act(w) & rest
    return hit


def brute_force_side(theorem: str, G: FiniteGroup, n: int,
                     d: Optional[int] = None,
                     force: bool = False) -> Optional[GradedSeries]:
    """Degree-n slice of the statement's brute-force series; a statement
    with a family builds only its degree-n poset.  Returns None when the
    statement has no finite model at this degree (the series-only identity
    beyond its declared low-degree terms).
    """
    spec, d = _statement(theorem, G, d)
    if n < 0:
        raise UsageError("degree must be nonnegative")
    if spec.family is not None and n > 0:
        return GradedSeries(G, n, 1, _poset_terms(theorem, G, n, d, force))
    series, last = _brute_force_series(theorem, G, n, d, force)
    return series.homogeneous_part(n).truncate(n) if n <= last else None


def _brute_force_series(theorem: str, G: FiniteGroup, n_max: int,
                        d: Optional[int],
                        force: bool) -> tuple[GradedSeries, int]:
    """The statement's brute-force side through degree n_max, and the last
    degree it models; theorem, G and d are already checked."""
    if theorem == "product_form_F":
        return exp_compose(G, n_max, l_series(_TRIVIAL, n_max).neg()), n_max
    if theorem == "dn_series":
        return (one(G, n_max) + average_p1(G, n_max)
                + exp_series(G, n_max).homogeneous_part(2)), 2
    if theorem == "fibre_corollary":
        Q, R = (_brute_force_series(th, G, n_max, None, force)[0]
                for th in ("hanlon", "second"))
        return Q * (one(G, n_max) - R), n_max
    if theorem == "qsim_corollary":
        Qs, Q = (_brute_force_series(th, G, n_max, None, force)[0]
                 for th in ("third", "hanlon"))
        return Qs - (one(G, n_max) + average_p1(G, n_max)) * Q, n_max
    terms = {(ONE_MONO, 0): Fraction(_STATEMENTS[theorem].deg0)}
    for n in range(1, n_max + 1):
        terms.update(_poset_terms(theorem, G, n, d, force))
    return GradedSeries(G, n_max, 1, terms), n_max


def _poset_terms(theorem: str, G: FiniteGroup, n: int, d: Optional[int],
                 force: bool) -> dict[tuple[Mono, int], Fraction]:
    """The degree-n terms of a family statement, from its poset."""
    if theorem == "third" and n == 1:
        return {}
    spec = _STATEMENTS[theorem]
    P, act = _acted_poset(spec.family, G, n, d, force)
    # graded: the rank-indexed fixed-point Moebius sums; ungraded: the signed
    # top trace, in t-degree 0.  Either is divided by the centralizer order.
    # Classes with the same fixed set share their values, computed once.
    terms: dict[tuple[Mono, int], Fraction] = {}
    values_of: dict[int, dict[int, int]] = {}
    for tau in enumerate_class_types(G, n):
        W = act(type_representative(G, tau))
        values = values_of.get(W)
        if values is None:
            values = values_of[W] = (
                equivariant_char_poly(P, W) if spec.graded
                else {0: spec.sign(n, d) * lefschetz_top_trace(P, W)})
        z = centralizer_order(G, tau)
        for r, v in values.items():
            terms[(tau, r)] = Fraction(v, z)
    return terms


# ---------------------------------------------------------------------------
# univariate shadows


def natural_form(theorem: str, G: FiniteGroup, N: int,
                 d: Optional[int] = None,
                 t_value=None) -> Optional[GradedSeries]:
    """Closed one-variable series the natural specialization must match.

    For t-graded identities t_value fixes the rational value assigned to
    t^(1/t_den).  Returns None when no one-variable form is on record
    (corollaries, and modular families at d other than two).
    """
    spec, d = _statement(theorem, G, d)
    o = G.order
    s = _rational(1 if t_value is None else t_value)
    if theorem in ("fibre_corollary", "qsim_corollary"):
        return None
    if spec.needs_d and d != 2:
        return None
    if theorem == "stanley":
        return uni_analytic("log1p", N)
    if theorem in ("hanlon", "product_form_F"):
        return uni_analytic("pow1p", N, Fraction(-1, o))
    if theorem == "second":
        return uni_one(N) - uni_analytic("pow1p", N, Fraction(1, o))
    if theorem == "third":
        lin = uni_one(N) + uni_x(N).scale(Fraction(1, o))
        return lin * uni_analytic("pow1p", N, Fraction(-1, o))
    if theorem == "one_mod_d":
        arc = uni_analytic("arcsinh", N).scale(Fraction(1, o))
        return (compose(uni_analytic("sech", N), arc)
                - compose(uni_analytic("tanh", N), arc))
    if theorem == "zero_mod_d":
        return uni_one(N) - compose(uni_analytic("pow1p", N, Fraction(1, o)),
                                    uni_analytic("tanh", N))
    if s == 0:
        raise SeriesError("t_value must be nonzero: %s divides by it" % theorem)
    x = uni_x(N)
    sx = x.scale(s)
    if theorem == "whitney_hanlon":
        return compose(uni_analytic("pow1p", N, (1 / s - 1) / o), sx)
    if theorem == "whitney_R":
        return (compose(uni_analytic("pow1p", N, Fraction(1, o) / s), sx)
                - compose(uni_analytic("pow1p", N, Fraction(1, o)), sx))
    if theorem == "whitney_Qsim":
        lin = uni_one(N) + x.scale(s / o)
        return lin * compose(uni_analytic("pow1p", N, (1 / s - 1) / o), sx)
    if theorem == "whitney_1modd":
        u = compose(uni_analytic("arcsinh", N), sx)
        head = compose(uni_analytic("tanh", N),
                       u.scale(Fraction(1, o))).scale(-s)
        tail = (compose(uni_analytic("sech", N), u.scale(Fraction(1, o)))
                * compose(uni_analytic("exp", N), u.scale(1 / (s * o))))
        return head + tail
    if theorem == "whitney_0modd":
        even = compose(uni_analytic("cosh", N), x.scale(s / o))
        odd = compose(uni_analytic("sinh", N), x.scale(s / o))
        hull = pow1p_of(compose(uni_analytic("cosh", N), sx) - uni_one(N),
                        (1 / s ** 2 - 1) / o)
        return (compose(uni_analytic("exp", N), x.scale(Fraction(1, o)))
                + uni_const(N, s ** 2)
                - (even.scale(s ** 2) + odd.scale(s)) * hull)
    # bn_whitney and dn_series
    u = compose(uni_analytic("arcsinh", N), sx)
    bn = (compose(uni_analytic("sech", N), u.scale(Fraction(1, 2)))
          * compose(uni_analytic("exp", N), u.scale(1 / (2 * s))))
    if theorem == "bn_whitney":
        return bn
    quad = uni_one(N) + x.mul(x).scale(s ** 2 / 8)
    return quad * bn


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class DegreeResult:
    degree: int
    status: str                      # "ok", "mismatch", or "skipped"
    note: str = ""
    mismatch: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"degree": self.degree, "status": self.status}
        if self.note:
            out["note"] = self.note
        if self.mismatch is not None:
            out["mismatch"] = self.mismatch
        return out


@dataclass
class VerificationReport:
    theorem: str
    group_label: str
    group_order: int
    n_max: int
    d: Optional[int]
    trunc: int
    degrees: list[DegreeResult] = field(default_factory=list)
    natural_status: str = "skipped"
    natural_note: str = ""
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        if any(r.status == "mismatch" for r in self.degrees):
            return False
        return self.natural_status != "mismatch"

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "group": self.group_label,
            "group_order": self.group_order,
            "n_max": self.n_max,
            "d": self.d,
            "trunc": self.trunc,
            "ok": self.ok,
            "degrees": [r.to_dict() for r in self.degrees],
            "natural": {"status": self.natural_status,
                        "note": self.natural_note},
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def _first_difference(a: GradedSeries, b: GradedSeries) -> dict:
    """The first term, in canonical order, where two unequal series differ."""
    row = series_terms(a - b)[0]
    mono = tuple(((i, c), e) for i, c, e in row["vars"])
    return {
        "monomial": row["vars"],
        "t": "%d/%d" % (row["t_num"], row["t_den"]),
        "closed": str(a.coefficient(mono, row["t_num"], row["t_den"])),
        "brute": str(b.coefficient(mono, row["t_num"], row["t_den"])),
    }


def verify(theorem: str, G: FiniteGroup, n_max: int,
           d: Optional[int] = None, N: Optional[int] = None,
           force: bool = False,
           group_label: Optional[str] = None) -> VerificationReport:
    """Compare closed and brute-force sides through degree n_max.

    Every comparison is exact.  The univariate shadow of the closed form is
    checked against its classical series at rational t values when one is on
    record.  Degrees with no finite model are reported as skipped, never as
    passes.
    """
    spec, d = _statement(theorem, G, d)
    if n_max < 0:
        raise UsageError("n_max must be nonnegative")
    if N is None:
        N = n_max
    if N < n_max:
        raise UsageError("truncation degree must cover n_max")
    if not force:
        if theorem not in ("product_form_F",) and n_max > TRACE_N_BUDGET:
            raise BudgetError(
                "trace computations are budgeted to n_max <= %d; %s"
                % (TRACE_N_BUDGET, _OVERRIDE))
        if G.order > GROUP_ORDER_BUDGET:
            raise BudgetError(
                "group order %d exceeds the budget %d; %s"
                % (G.order, GROUP_ORDER_BUDGET, _OVERRIDE))
        if N > DEGREE_BUDGET:
            raise BudgetError(
                "truncation degree %d exceeds the budget %d; %s"
                % (N, DEGREE_BUDGET, _OVERRIDE))
    start = time.perf_counter()
    label = group_label or ("order-%d group" % G.order)
    report = VerificationReport(theorem, label, G.order, n_max, d, N)
    closed = closed_form(theorem, G, N, d)
    brute, last = _brute_force_series(theorem, G, n_max, d, force)
    sides = [(f.t_den, _by_degree(f.terms)) for f in (closed, brute)]
    for n in range(n_max + 1):
        if n > last:
            report.degrees.append(DegreeResult(
                n, "skipped",
                "series-side identity; no poset model beyond degree two"))
            continue
        want, got = (GradedSeries._trusted(G, n, den, parts.get(n, {}))
                     for den, parts in sides)
        if want == got:
            report.degrees.append(DegreeResult(n, "ok"))
        else:
            report.degrees.append(DegreeResult(
                n, "mismatch", mismatch=_first_difference(want, got)))
    samples = _T_SAMPLES if spec.graded else _T_SAMPLES[:1]
    forms = [natural_form(theorem, G, N, d, s) for s in samples]
    if forms[0] is None:
        report.natural_status = "skipped"
        report.natural_note = "no one-variable form on record"
    else:
        shadow = natural_spec(closed)
        bad = next((s for s, form in zip(samples, forms)
                    if shadow.substitute_t(s) != form), None)
        if bad is None:
            report.natural_status = "ok"
            if spec.graded:
                report.natural_note = ("checked at t-values "
                                       + ", ".join(str(s) for s in samples))
        else:
            report.natural_status = "mismatch"
            report.natural_note = "differs at t-value %s" % bad
    report.elapsed_seconds = time.perf_counter() - start
    return report


def corollary_checks(G: FiniteGroup, n_max: int,
                     force: bool = False,
                     group_label: Optional[str] = None
                     ) -> dict[str, VerificationReport]:
    """Both corollaries with every factor built from brute-force characters."""
    out = {}
    for theorem in ("fibre_corollary", "qsim_corollary"):
        out[theorem] = verify(theorem, G, n_max, None, None, force,
                              group_label)
    return out


# ---------------------------------------------------------------------------
# dimension and characteristic-polynomial cross-checks


def family_dimension_formula(family: str, order: int, n: int) -> Optional[int]:
    """Product formula for the single nonvanishing Betti number, if on record."""
    if family == "q":
        out = 1
        for k in range(1, n):
            out *= k * order + 1
        return out
    if family == "r":
        out = 1
        for k in range(1, n):
            out *= k * order - 1
        return out
    if family == "qsim":
        if n < 2:
            return None
        out = (n - 1) * (order - 1)
        for k in range(1, n - 1):
            out *= k * order + 1
        return out
    return None


def bn_dimension_formula(n: int) -> int:
    """Closed form for the signed-partition top Betti number (order two)."""
    from math import factorial
    if n % 2 == 0:
        return factorial(2 * n) // (2 ** n * factorial(n + 1))
    half = (n + 1) // 2
    return (factorial(n) * factorial(n - 1)
            // (factorial(half) * factorial(half - 1)))


def mobius_dimension(family: str, G: FiniteGroup, n: int,
                     d: Optional[int] = None, force: bool = False) -> int:
    """|mu(bottom, top)| of the family poset, built explicitly."""
    P, _act = _acted_poset(family, G, n, d, force)
    return abs(P.mobius_bottom_top())


def bn_dimension(n: int, force: bool = False) -> int:
    """Top reduced Betti number of the signed-partition poset, from homology
    for odd n (no top element) and from the Mobius function for even n."""
    G = cyclic_group(2)
    P, _act = _acted_poset("bn", G, n, 2, force)
    if n % 2 == 0:
        return abs(P.mobius_bottom_top())
    bottom = P.bottom()
    open_part = P.subposet([i for i in range(P.n) if i != bottom])
    if open_part.n > HOMOLOGY_ELEMENT_BUDGET and not force:
        raise BudgetError("homology budget exceeded; " + _OVERRIDE,
                          estimate=open_part.n)
    betti = order_complex_homology(open_part)
    top = max(k for k, v in betti.items() if v)
    return betti[top]


def identity_char_poly(family: str, G: FiniteGroup, n: int,
                       d: Optional[int] = None,
                       force: bool = False) -> dict[int, int]:
    """Rank-indexed Mobius sums of the full poset (identity automorphism)."""
    P, _act = _acted_poset(family, G, n, d, force)
    return equivariant_char_poly(P, (1 << P.n) - 1)


def char_poly_product_formula(family: str, order: int, n: int) -> dict[int, int]:
    """Closed product form of the identity characteristic polynomial."""
    if family == "q":
        coeffs = {0: 1}
        for k in range(n):
            root = k * order + 1
            nxt: dict[int, int] = {}
            for deg, c in coeffs.items():
                nxt[deg] = nxt.get(deg, 0) + c
                nxt[deg + 1] = nxt.get(deg + 1, 0) - c * root
            coeffs = nxt
        return {k: v for k, v in coeffs.items() if v}
    if family == "r":
        coeffs = {0: 1}
        tail = 1
        for k in range(1, n):
            root = k * order
            tail *= k * order - 1
            nxt = {}
            for deg, c in coeffs.items():
                nxt[deg] = nxt.get(deg, 0) + c
                nxt[deg + 1] = nxt.get(deg + 1, 0) - c * root
            coeffs = nxt
        coeffs[n] = coeffs.get(n, 0) + (-1) ** n * tail
        return {k: v for k, v in coeffs.items() if v}
    raise UsageError("no product formula on record for family %r" % family)


def dimension_tables(groups: Sequence[tuple[str, FiniteGroup]], n_max: int,
                     force: bool = False) -> list[dict]:
    """Product-formula dimensions against brute-force Mobius values."""
    rows = []
    for family in ("q", "r", "qsim"):
        for label, G in groups:
            for n in range(1, n_max + 1):
                expected = family_dimension_formula(family, G.order, n)
                if expected is None:
                    continue
                got = mobius_dimension(family, G, n, None, force)
                rows.append({
                    "family": family,
                    "group": label,
                    "n": n,
                    "formula": expected,
                    "mobius": got,
                    "ok": expected == got,
                })
    return rows


# ---------------------------------------------------------------------------
# per-automorphism oracles


def sundaram_balance(family: str, G: FiniteGroup, n: int,
                     d: Optional[int] = None,
                     force: bool = False) -> list[WreathType]:
    """Class types whose fixed-point Mobius sums fail to vanish.

    Over a bounded poset with at least two elements the sum of mu(bottom, x)
    over the whole fixed subposet is zero for every automorphism; the
    returned list is empty exactly when that balance holds here.
    """
    P, act = _acted_poset(family, G, n, d, force)
    if P.n < 2:
        raise UsageError("balance check needs at least two elements")
    balanced: dict[int, bool] = {}   # by fixed mask
    bad = []
    for tau in enumerate_class_types(G, n):
        W = act(type_representative(G, tau))
        if W not in balanced:
            balanced[W] = sum(equivariant_char_poly(P, W).values()) == 0
        if not balanced[W]:
            bad.append(tau)
    return bad


def lefschetz_two_routes(P: Poset, perm) -> tuple[int, int]:
    """Top trace via the Mobius recursion and via signed chain counts.

    perm is an index permutation or the bitmask of the elements it fixes.
    """
    sign = (-1) ** P.length()
    via_mobius, via_chains = fixed_point_mobius(P, perm)
    return sign * via_mobius, sign * via_chains

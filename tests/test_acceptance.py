"""Acceptance suite: ten end-to-end checks, every assertion exact.

Each test covers one numbered criterion, prints a single pass/fail line
with its elapsed time, and enforces a wall-clock ceiling.  Run with -s to
watch the lines appear; under default capture pytest shows them on failure
and in the captured-output section.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import action_of
from wreathcalc import (
    GradedSeries, atom_order_condition, average_p1, bn_dimension,
    bn_dimension_formula, build_family, char_poly_product_formula,
    closed_form, compose, count_family, cyclic_group, dimension_tables,
    enumerate_class_types, exp_series, identity_char_poly, l_series,
    lefschetz_two_routes, natural_spec, one, order_complex_homology, p,
    sundaram_balance, symmetric_group, type_representative, uni_analytic,
    uni_one, uni_x, verify, verify_rank_formulas, zero_mod_atom_key,
)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
C3 = cyclic_group(3)
S3 = symmetric_group(3)


@contextmanager
def criterion(num: int, limit: float, detail: str):
    started = time.monotonic()
    try:
        yield
    except Exception:
        print("criterion %d: FAIL (%s)" % (num, detail))
        raise
    elapsed = time.monotonic() - started
    status = "PASS" if elapsed < limit else "FAIL"
    print("criterion %d: %s (%s; %.1fs)" % (num, status, detail, elapsed))
    assert elapsed < limit, "criterion %d took %.1fs, limit %gs" % (
        num, elapsed, limit)


def _verified(theorem, G, n_max, d=None, label=""):
    """Run one verification and insist every degree genuinely matched."""
    rep = verify(theorem, G, n_max, d=d, group_label=label or None)
    assert rep.ok, (theorem, label, rep.to_dict())
    assert all(r.status == "ok" for r in rep.degrees), (theorem, label,
                                                        rep.to_dict())
    assert rep.natural_status in ("ok", "skipped")
    return rep


def _sparse_series(G, rng, allow_const):
    """A small random series over G; constant-free and t-free inner args."""
    terms = {}
    for _ in range(rng.randrange(2, 5)):
        nvars = rng.randrange(0 if allow_const else 1, 3)
        mono = {}
        for _ in range(nvars):
            v = (rng.randrange(1, 4), rng.randrange(G.num_classes))
            mono[v] = mono.get(v, 0) + 1
        t_num = rng.randrange(0, 2) if allow_const else 0
        key = (tuple(sorted(mono.items())), t_num)
        terms[key] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    f = GradedSeries(G, 6, 1, terms)
    if not allow_const:
        f = f - f.homogeneous_part(0)
    return f


def test_criterion_01_plethysm_kernel():
    with criterion(1, 30.0, "inverse pair, exponential bridge, associativity"):
        N = 8
        L = l_series(C1, N)
        E1 = exp_series(C1, N) - one(C1, N)
        x = p(C1, N, 1, 0)
        assert compose(L, E1) == x
        assert compose(E1, L) == x
        for G in (C1, C2, C3, S3):
            assert exp_series(G, N) == compose(exp_series(C1, N),
                                               average_p1(G, N))
        rng = random.Random(20260819)
        groups = (C2, C3, S3)
        for k in range(20):
            slot = k % 3
            parts = [_sparse_series(C1, rng, allow_const=(j == 0))
                     for j in range(3)]
            parts[slot] = _sparse_series(groups[k % len(groups)], rng,
                                         allow_const=(slot == 0))
            f, g, h = parts
            assert compose(compose(f, g), h) == compose(f, compose(g, h)), k


def test_criterion_02_alternating_sum_inverse():
    with criterion(2, 180.0, "whole-lattice sums against the inverse series"):
        for G, label, nmax in ((C1, "c1", 4), (C2, "c2", 4),
                               (C3, "c3", 4), (S3, "s3", 3)):
            _verified("hanlon", G, nmax, label=label)
        for G, label in ((C1, "c1"), (C2, "c2"), (C3, "c3"), (S3, "s3")):
            _verified("product_form_F", G, 6, label=label)


def test_criterion_03_restricted_family_sums():
    with criterion(3, 300.0, "restricted families and signed-partition dims"):
        for G, label in ((C1, "c1"), (C2, "c2")):
            for theorem in ("second", "third"):
                _verified(theorem, G, 4, label=label)
            for theorem in ("one_mod_d", "zero_mod_d"):
                for d in (2, 3):
                    _verified(theorem, G, 4, d=d, label=label)
        assert bn_dimension(2) == bn_dimension_formula(2) == 1
        assert bn_dimension(3) == bn_dimension_formula(3) == 6
        assert bn_dimension(4) == bn_dimension_formula(4) == 21


def test_criterion_04_dimension_product_formulas():
    with criterion(4, 60.0, "Mobius magnitudes against product formulas"):
        rows = dimension_tables([("c1", C1), ("c2", C2), ("c3", C3)], 5)
        assert len(rows) == 42
        for row in rows:
            assert row["ok"], row
            assert row["mobius"] == row["formula"], row
        for n in (2, 4):
            assert bn_dimension(n) == bn_dimension_formula(n)


def test_criterion_05_homology_concentration():
    with criterion(5, 120.0, "Betti numbers concentrated in top degree"):
        checked = 0
        for family in ("q", "r", "qsim", "q1modd", "q0modd", "pi"):
            d = 2 if family in ("q1modd", "q0modd") else None
            for G in (C1, C2):
                if family == "pi" and G.order != 1:
                    continue
                for n in (1, 2, 3):
                    if count_family(family, G, n, d) < 2:
                        continue
                    fp = build_family(family, G, n, d)
                    P = fp.poset
                    top = P.length() - 2
                    mu = abs(P.mobius_bottom_top())
                    betti = order_complex_homology(P.proper_part())
                    for k, v in betti.items():
                        if k != top:
                            assert v == 0, (family, G.order, n, k, v)
                    assert betti.get(top, 0) == mu, (family, G.order, n)
                    checked += 1
        assert checked == 30


def test_criterion_06_graded_character_suite():
    with criterion(6, 300.0, "rank-graded characters and char polys"):
        for G, label in ((C1, "c1"), (C2, "c2")):
            for theorem, nmax in (("whitney_hanlon", 4), ("whitney_R", 4),
                                  ("whitney_Qsim", 3)):
                _verified(theorem, G, nmax, label=label)
            for theorem in ("whitney_1modd", "whitney_0modd"):
                for d in (2, 3):
                    _verified(theorem, G, 3, d=d, label=label)
        for G, o in ((C1, 1), (C2, 2)):
            for family in ("q", "r"):
                for n in range(1, 6):
                    assert identity_char_poly(family, G, n) == \
                        char_poly_product_formula(family, o, n), (family, o, n)
        _verified("bn_whitney", C2, 4, label="c2")


def test_criterion_07_fixed_subposet_balance():
    with criterion(7, 60.0, "Mobius balance on every fixed subposet"):
        checked = 0
        for family in ("q", "r", "qsim", "q1modd", "q0modd", "pi"):
            dvals = (2, 3) if family in ("q1modd", "q0modd") else (None,)
            for G in (C1, C2):
                if family == "pi" and G.order != 1:
                    continue
                for n in range(1, 5):
                    for d in dvals:
                        if count_family(family, G, n, d) < 2:
                            continue
                        assert sundaram_balance(family, G, n, d) == [], \
                            (family, G.order, n, d)
                        checked += 1
        assert checked >= 50


def test_criterion_08_dual_route_traces():
    with criterion(8, 120.0, "Mobius route equals signed chain route"):
        for family, nmax, d in (("q", 3, None), ("q0modd", 4, 2)):
            for n in range(1, nmax + 1):
                fp = build_family(family, C2, n, d)
                for tau in enumerate_class_types(C2, n):
                    w = type_representative(C2, tau)
                    a, b = lefschetz_two_routes(fp.poset, action_of(fp, w))
                    assert a == b, (family, n, tau)


def test_criterion_09_one_variable_specializations():
    with criterion(9, 30.0, "dimension series in one variable"):
        N = 8
        for G, o in ((C1, 1), (C2, 2), (C3, 3)):
            x = uni_x(N)
            assert natural_spec(closed_form("hanlon", G, N)) == \
                uni_analytic("pow1p", N, Fraction(-1, o))
            assert natural_spec(closed_form("second", G, N)) == \
                uni_one(N) - uni_analytic("pow1p", N, Fraction(1, o))
            assert natural_spec(closed_form("third", G, N)) == \
                (uni_one(N) + x.scale(Fraction(1, o))) * \
                uni_analytic("pow1p", N, Fraction(-1, o))
            arc = uni_analytic("arcsinh", N).scale(Fraction(1, o))
            assert natural_spec(closed_form("one_mod_d", G, N, 2)) == \
                compose(uni_analytic("sech", N), arc) - \
                compose(uni_analytic("tanh", N), arc)
            assert natural_spec(closed_form("zero_mod_d", G, N, 2)) == \
                uni_one(N) - compose(uni_analytic("pow1p", N, Fraction(1, o)),
                                     uni_analytic("tanh", N))
        signed = natural_spec(closed_form("bn_whitney", C2, N))
        for s in (Fraction(1), Fraction(2), Fraction(1, 2)):
            u = compose(uni_analytic("arcsinh", N), uni_x(N).scale(s))
            expected = (compose(uni_analytic("sech", N),
                                u.scale(Fraction(1, 2)))
                        * compose(uni_analytic("exp", N),
                                  u.scale(Fraction(1, 2) / s)))
            assert signed.substitute_t(s) == expected, s


def _expected_length(family, n, d):
    if family in ("q", "r"):
        return n
    if family == "qsim":
        return 0 if n == 1 else n
    if family == "q1modd":
        return -(-n // d)
    return n // d + 1


def test_criterion_10_rank_length_and_atom_order():
    with criterion(10, 120.0, "rank formulas, lengths, atom orderings"):
        for family in ("q", "r", "qsim", "q1modd", "q0modd"):
            dvals = (2, 3) if family in ("q1modd", "q0modd") else (None,)
            for G in (C1, C2):
                for n in range(1, 5):
                    for d in dvals:
                        fp = build_family(family, G, n, d)
                        verify_rank_formulas(fp)
                        assert fp.poset.length() == \
                            _expected_length(family, n, d), (family, n, d)
        for G, nmax in ((C2, 4), (C1, 5)):
            for n in range(1, nmax + 1):
                fp = build_family("q0modd", G, n, 2)
                P = fp.poset
                atoms = sorted(
                    P.covers_of(P.bottom()),
                    key=lambda i: zero_mod_atom_key(P.payloads[i], G, n))
                assert atom_order_condition(P, atoms), (G.order, n)

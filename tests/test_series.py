"""Graded and one-variable series arithmetic, filters, and serialization."""

import random
from fractions import Fraction

import pytest

from conftest import xpow
from wreathcalc.groups import cyclic_group, symmetric_group
from wreathcalc.plethysm import compose, uni_analytic, uni_reversion
from wreathcalc.series import (
    GradedSeries, NotInvertibleError, SeriesError, UniSeries,
    eq_to_degree, exp_of, exp_series, format_series, l_series, log1p_of,
    mod_filter, moebius_mu, mono_degree, natural_spec, one, p, pow1p_of,
    series_terms, t_monomial, uni_one, uni_pow1p_of, uni_x, zero,
)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
S3 = symmetric_group(3)


def random_series(G, N, rng, t_den=1, nterms=6, max_t=2):
    terms = {}
    for _ in range(nterms):
        nvars = rng.randrange(0, 3)
        mono = {}
        for _ in range(nvars):
            v = (rng.randrange(1, 4), rng.randrange(G.num_classes))
            mono[v] = mono.get(v, 0) + 1
        key = (tuple(sorted(mono.items())), rng.randrange(-max_t, max_t + 1))
        terms[key] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
    return GradedSeries(G, N, t_den, terms)


# -- basic ring structure ------------------------------------------------------


def test_zero_coefficients_never_stored():
    f = GradedSeries(C1, 4, 1, {((), 0): Fraction(0)})
    assert f.is_zero()
    g = p(C1, 4, 1, 0) - p(C1, 4, 1, 0)
    assert g.is_zero()


def test_truncation_enforced_on_construction_and_mul():
    f = p(C1, 3, 2, 0)
    g = f.mul(f)  # degree 4 > 3 vanishes
    assert g.is_zero()
    h = GradedSeries(C1, 2, 1, {((((3, 0), 1),), 0): Fraction(1)})
    assert h.is_zero()


def test_ring_axioms_randomized():
    rng = random.Random(2024)
    for G in (C1, C2, S3):
        for _ in range(8):
            a = random_series(G, 6, rng)
            b = random_series(G, 6, rng)
            c = random_series(G, 6, rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero(G, 6) == a
            assert a * one(G, 6) == a
            assert (a - a).is_zero()


def test_mixed_t_denominators_align():
    f = t_monomial(C1, 4, 1, 2)       # t^(1/2)
    g = t_monomial(C1, 4, 1, 3)       # t^(1/3)
    h = f * g
    assert h.coefficient((), 5, 6) == 1
    assert (f + g).coefficient((), 3, 6) == 1
    assert (f + g).coefficient((), 2, 6) == 1


def test_invert_two_sided_randomized():
    rng = random.Random(5)
    for G in (C1, C2):
        for _ in range(6):
            f = one(G, 5) + random_series(G, 5, rng, nterms=4)
            f = f - f.homogeneous_part(0) + one(G, 5)  # pin degree-0 part to 1
            inv = f.invert()
            assert f * inv == one(G, 5)
            assert inv * f == one(G, 5)


def test_invert_rejects_bad_constant_term():
    with pytest.raises(NotInvertibleError):
        p(C1, 3, 1, 0).invert()
    with pytest.raises(NotInvertibleError):
        (one(C1, 3) + t_monomial(C1, 3, 1)).invert()


def test_power_matches_repeated_mul():
    f = one(C2, 4) + p(C2, 4, 1, 0) + p(C2, 4, 1, 1).scale(Fraction(1, 2))
    assert f.power(3) == f * f * f
    assert f.power(0) == one(C2, 4)
    # t denominator 2, a negative t exponent and mixed coefficient denominators
    g = GradedSeries(C2, 6, 2, {((), 0): Fraction(2), ((), 1): Fraction(7, 3),
                                ((((1, 0), 1),), -1): Fraction(3, 4),
                                ((((1, 1), 1),), 3): Fraction(-5, 6),
                                ((((2, 0), 1),), 0): Fraction(1, 9)})
    acc = one(C2, 6, 2)
    for k in range(7):
        assert g.power(k) == acc
        assert g.power(k).t_den == 2
        acc = acc * g


# -- exp / log / pow -----------------------------------------------------------


def test_exp_log_inverse():
    rng = random.Random(31)
    f = random_series(C2, 5, rng, nterms=5)
    f = f - f.homogeneous_part(0)  # make constant-free
    assert log1p_of(exp_of(f) - one(C2, 5)) == f
    g = exp_of(log1p_of(f))
    assert g == one(C2, 5) + f


def test_exp_additivity():
    a = p(C1, 6, 1, 0)
    b = p(C1, 6, 2, 0).scale(Fraction(1, 3))
    assert exp_of(a + b) == exp_of(a) * exp_of(b)


def test_pow1p_matches_square_and_invert():
    f = p(C1, 6, 1, 0) + p(C1, 6, 3, 0)
    assert pow1p_of(f, 2) == (one(C1, 6) + f) * (one(C1, 6) + f)
    assert pow1p_of(f, -1) == (one(C1, 6) + f).invert()
    half = pow1p_of(f, Fraction(1, 2))
    assert half * half == one(C1, 6) + f


def test_exp_requires_constant_free():
    with pytest.raises(SeriesError):
        exp_of(one(C1, 3))


# -- the named series ----------------------------------------------------------


def test_exp_series_trivial_group_oracle():
    # over the one-element group: exp(sum p_i / i); degree 2 part is
    # p_1^2/2 + p_2/2 (the complete homogeneous sum over partitions, 1/z each)
    E = exp_series(C1, 4)
    assert E.coefficient(()) == 1
    assert E.coefficient((((1, 0), 1),)) == 1
    assert E.coefficient((((1, 0), 2),)) == Fraction(1, 2)
    assert E.coefficient((((2, 0), 1),)) == Fraction(1, 2)
    # degree 3: p_1^3/6 + p_1 p_2/2 + p_3/3
    assert E.coefficient((((1, 0), 3),)) == Fraction(1, 6)
    assert E.coefficient((((1, 0), 1), ((2, 0), 1))) == Fraction(1, 2)
    assert E.coefficient((((3, 0), 1),)) == Fraction(1, 3)


def test_exp_series_c2_oracle():
    # degree 1 part is (p_1(1) + p_1(g))/2; coefficient of p_1(1)p_1(g) is 1/4
    E = exp_series(C2, 3)
    assert E.coefficient((((1, 0), 1),)) == Fraction(1, 2)
    assert E.coefficient((((1, 1), 1),)) == Fraction(1, 2)
    assert E.coefficient((((1, 0), 1), ((1, 1), 1))) == Fraction(1, 4)
    assert E.coefficient((((2, 0), 1),)) == Fraction(1, 4)
    assert E.coefficient((((2, 1), 1),)) == Fraction(1, 4)


def test_exp_series_coefficient_is_inverse_centralizer():
    # each monomial's coefficient is 1/z for the standard centralizer order z
    E = exp_series(S3, 4)
    # type: one 2-cycle labeled by the transposition class (size 3), z = (6/3)*2 = 4
    assert E.coefficient((((2, 1), 1),)) == Fraction(1, 4)
    # type: two 1-cycles labeled identity, z = 6^2 * 2 / 1 = 72 -> (1/6)^2/2!
    assert E.coefficient((((1, 0), 2),)) == Fraction(1, 72)


def test_moebius_values():
    assert [moebius_mu(d) for d in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        moebius_mu(0)


def test_l_series_low_degrees():
    # L = p_1 - p_1^2/2 - p_2/2 + p_1^3/3 - p_3/3 + ...
    L = l_series(C1, 3)
    assert L.coefficient((((1, 0), 1),)) == 1
    assert L.coefficient((((1, 0), 2),)) == Fraction(-1, 2)
    assert L.coefficient((((2, 0), 1),)) == Fraction(-1, 2)
    assert L.coefficient((((1, 0), 3),)) == Fraction(1, 3)
    assert L.coefficient((((3, 0), 1),)) == Fraction(-1, 3)
    assert L.coefficient((((1, 0), 1), ((2, 0), 1))) == 0


def test_l_series_rejects_nontrivial_group():
    with pytest.raises(SeriesError):
        l_series(C2, 3)


# -- filters and t handling ----------------------------------------------------


def test_mod_filter_partitions_series():
    rng = random.Random(77)
    f = random_series(C2, 6, rng, nterms=10)
    for d in (2, 3):
        parts = [mod_filter(f, r, d, "equal") for r in range(d)]
        acc = zero(C2, 6)
        for part in parts:
            acc = acc + part
        assert acc == f
        for r in range(d):
            assert mod_filter(f, r, d, "equal") + mod_filter(f, r, d, "not-equal") == f


def test_mod_filter_at_least():
    f = one(C1, 5) + p(C1, 5, 1, 0) + p(C1, 5, 3, 0)
    g = mod_filter(f, 1, 2, "at-least")
    assert g.coefficient(()) == 0
    assert g.coefficient((((1, 0), 1),)) == 1
    assert g.coefficient((((3, 0), 1),)) == 1
    with pytest.raises(SeriesError):
        mod_filter(f, 0, 2, "sometimes")


def test_attach_t_shifts_by_degree():
    f = one(C1, 4) + p(C1, 4, 1, 0) + p(C1, 4, 3, 0)
    g = f.attach_t(1, 2)  # t^(n/2) on degree n
    assert g.coefficient((), 0, 1) == 1
    assert g.coefficient((((1, 0), 1),), 1, 2) == 1
    assert g.coefficient((((3, 0), 1),), 3, 2) == 1
    assert g.coefficient((((3, 0), 1),), 0, 1) == 0


def test_attach_t_then_substitute_one_is_identity():
    rng = random.Random(13)
    f = random_series(C2, 5, rng, max_t=0)
    assert f.attach_t(3, 2).substitute_t(1) == f.with_t_den(1)


def test_scale_t_is_global_shift():
    f = p(C1, 3, 1, 0)
    g = f.scale_t(-1, 2)
    assert g.coefficient((((1, 0), 1),), -1, 2) == 1
    assert g.scale_t(1, 2) == f.with_t_den(2)


def test_substitute_t_collapses():
    f = t_monomial(C1, 2, 1, 2) + t_monomial(C1, 2, -1, 2).scale(3)
    g = f.substitute_t(2)  # t^(1/2) -> 2
    assert g.coefficient(()) == 2 + Fraction(3, 2)
    assert g.t_den == 1


def test_p_derivative():
    f = p(C1, 5, 1, 0).power(3).scale(Fraction(1, 3)) + p(C1, 5, 2, 0)
    df = f.p_derivative(1, 0)
    assert df.coefficient((((1, 0), 2),)) == 1
    assert df.coefficient((((2, 0), 1),)) == 0
    d2 = f.p_derivative(2, 0)
    assert d2.coefficient(()) == 1


# -- one variable ----------------------------------------------------------------


def test_uni_ring_randomized():
    rng = random.Random(9)
    for _ in range(10):
        a = UniSeries(6, 2, {(rng.randrange(7), rng.randrange(-2, 3)):
                             Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                             for _ in range(5)})
        b = UniSeries(6, 2, {(rng.randrange(7), rng.randrange(-2, 3)):
                             Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                             for _ in range(5)})
        assert a + b == b + a
        assert a * b == b * a
        assert (a - a).is_zero()


def test_uni_invert():
    f = uni_one(5) + uni_x(5)
    inv = f.invert()
    for n in range(6):
        assert inv.coefficient(xpow(n)) == (-1) ** n
    assert f * inv == uni_one(5)
    with pytest.raises(NotInvertibleError):
        uni_x(4).invert()


def test_uni_analytic_oracles():
    e = uni_analytic("exp", 5)
    assert e.coefficient(xpow(3)) == Fraction(1, 6)
    s = uni_analytic("sinh", 7)
    assert s.coefficient(xpow(1)) == 1
    assert s.coefficient(xpow(5)) == Fraction(1, 120)
    assert s.coefficient(xpow(2)) == 0
    c = uni_analytic("cosh", 6)
    assert c.coefficient(xpow(0)) == 1
    assert c.coefficient(xpow(6)) == Fraction(1, 720)
    t = uni_analytic("tanh", 7)
    assert t.coefficient(xpow(1)) == 1
    assert t.coefficient(xpow(3)) == Fraction(-1, 3)
    assert t.coefficient(xpow(5)) == Fraction(2, 15)
    assert t.coefficient(xpow(7)) == Fraction(-17, 315)
    h = uni_analytic("sech", 6)
    assert h.coefficient(xpow(0)) == 1
    assert h.coefficient(xpow(2)) == Fraction(-1, 2)
    assert h.coefficient(xpow(4)) == Fraction(5, 24)


def test_cosh_sinh_pythagorean():
    N = 8
    s = uni_analytic("sinh", N)
    c = uni_analytic("cosh", N)
    assert c * c - s * s == uni_one(N)


def test_arcsinh_matches_binomial_formula():
    # arcsinh x = sum over k of (-1)^k (2k)! / (4^k (k!)^2 (2k+1)) x^(2k+1)
    from math import factorial
    a = uni_analytic("arcsinh", 9)
    for k in range(5):
        expected = Fraction((-1) ** k * factorial(2 * k),
                            4 ** k * factorial(k) ** 2 * (2 * k + 1))
        assert a.coefficient(xpow(2 * k + 1)) == expected
        assert a.coefficient(xpow(2 * k)) == 0


def test_arcsinh_inverts_sinh_both_ways():
    N = 8
    s = uni_analytic("sinh", N)
    a = uni_analytic("arcsinh", N)
    assert compose(s, a) == uni_x(N)
    assert compose(a, s) == uni_x(N)


def test_uni_reversion_rejects_bad_leading_terms():
    with pytest.raises(SeriesError):
        uni_reversion(uni_one(4))
    # a linear coefficient other than one is inverted, on both sides
    half = uni_reversion(uni_x(4).scale(2))
    assert half == uni_x(4).scale(Fraction(1, 2))
    assert compose(uni_x(4).scale(2), half) == uni_x(4)
    assert compose(half, uni_x(4).scale(2)) == uni_x(4)


def test_pow1p_series():
    h = uni_analytic("pow1p", 4, alpha=Fraction(1, 2))
    assert h.coefficient(xpow(0)) == 1
    assert h.coefficient(xpow(1)) == Fraction(1, 2)
    assert h.coefficient(xpow(2)) == Fraction(-1, 8)
    assert h.coefficient(xpow(3)) == Fraction(1, 16)
    assert h.coefficient(xpow(4)) == Fraction(-5, 128)
    with pytest.raises(SeriesError):
        uni_analytic("pow1p", 4)
    with pytest.raises(SeriesError):
        uni_analytic("gamma", 4)


def test_uni_pow1p_of_with_t():
    # (1 + t x)^alpha keeps t glued to x
    f = uni_x(4).scale_t(1)
    g = uni_pow1p_of(f, Fraction(1, 2))
    assert g.coefficient(xpow(2), 2, 1) == Fraction(-1, 8)
    assert g.coefficient(xpow(2), 0, 1) == 0


def test_uni_compose_takes_t_but_not_a_constant_term():
    f = uni_analytic("exp", 4)
    # x o t^q = t^q, so exp o (t x) is exp(t x)
    h = compose(f, uni_x(4).scale_t(1))
    assert h.coefficient(xpow(2), 2) == Fraction(1, 2)
    assert h.coefficient(xpow(2)) == 0
    with pytest.raises(SeriesError):
        compose(f, uni_one(4))


def test_uni_compose_t_coefficients_ride_along():
    f = uni_x(5).scale_t(1) + uni_x(5)  # (1 + t) x
    g = uni_x(5).scale(2)
    h = compose(f, g)
    assert h.coefficient(xpow(1), 0, 1) == 2
    assert h.coefficient(xpow(1), 1, 1) == 2


def test_substitute_x():
    f = compose(uni_analytic("exp", 4), uni_x(4).scale(Fraction(1, 2)))
    assert f.coefficient(xpow(2)) == Fraction(1, 8)


# -- natural specialization ------------------------------------------------------


def test_natural_spec_is_ring_homomorphism():
    rng = random.Random(21)
    for _ in range(6):
        a = random_series(C2, 5, rng)
        b = random_series(C2, 5, rng)
        assert natural_spec(a * b) == natural_spec(a) * natural_spec(b)
        assert natural_spec(a + b) == natural_spec(a) + natural_spec(b)


def test_natural_spec_kills_other_variables():
    f = p(C2, 4, 1, 0) + p(C2, 4, 1, 1) + p(C2, 4, 2, 0) + one(C2, 4)
    u = natural_spec(f)
    assert u.coefficient(xpow(0)) == 1
    assert u.coefficient(xpow(1)) == 1
    assert u.coefficient(xpow(2)) == 0


def test_natural_spec_of_exp_series():
    # Exp_G specializes to exp(x / |G|)
    for G in (C1, C2, S3):
        u = natural_spec(exp_series(G, 5))
        expected = compose(uni_analytic("exp", 5),
                           uni_x(5).scale(Fraction(1, G.order)))
        assert u == expected


# -- serialization ----------------------------------------------------------------


def test_series_terms_sorted_and_exact():
    f = p(C2, 3, 1, 1).scale(Fraction(1, 3)) + p(C2, 3, 2, 0) \
        + one(C2, 3).scale_t(1, 2)
    rows = series_terms(f)
    assert rows[0]["vars"] == [] and rows[0]["t_num"] == 1  # t^(1/2) scalar first
    assert [r["vars"] for r in rows[1:]] == [[[1, 1, 1]], [[2, 0, 1]]]
    assert rows[1]["num"] == 1 and rows[1]["den"] == 3
    degs = [sum(v[0] * v[2] for v in r["vars"]) for r in rows]
    assert degs == sorted(degs)


def test_format_series_readable():
    f = p(C2, 2, 1, 1) + one(C2, 2).scale(2)
    text = format_series(f)
    assert "p_1(g)" in text
    assert "2 * 1" in text
    assert format_series(zero(C2, 2)) == "0"


def test_eq_to_degree():
    a = exp_series(C1, 6)
    b = exp_series(C1, 6) + p(C1, 6, 1, 0).power(5)
    assert eq_to_degree(a, b, 4)
    assert not eq_to_degree(a, b, 5)


def test_coefficient_with_coarser_query_den():
    f = t_monomial(C1, 3, 1, 1).with_t_den(4)  # t^(4/4)
    assert f.coefficient((), 1, 1) == 1
    assert f.coefficient((), 1, 2) == 0
    assert f.coefficient((), 2, 2) == 1

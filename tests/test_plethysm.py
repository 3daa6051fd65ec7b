"""Plethysm rules, inverses, and the named composite series."""

import random
from fractions import Fraction

import pytest

from conftest import assert_clean, dihedral_8, oracle_compose, quaternion_8
from wreathcalc.groups import cyclic_group, symmetric_group
from wreathcalc.plethysm import (
    F_coefficient, arcsinh_series, average_p1, compose, plethystic_inverse,
    product_form_inverse, sech_series, tanh_series, uni_analytic,
)
from wreathcalc.series import (
    GradedSeries, SeriesError, exp_series, l_series, mod_filter, natural_spec,
    one, p, t_monomial, uni_x, zero,
)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
C4 = cyclic_group(4)
S3 = symmetric_group(3)


def random_constant_free(G, N, rng, nterms=5):
    terms = {}
    for _ in range(nterms):
        nvars = rng.randrange(1, 3)
        mono = {}
        for _ in range(nvars):
            v = (rng.randrange(1, 4), rng.randrange(G.num_classes))
            mono[v] = mono.get(v, 0) + 1
        key = (tuple(sorted(mono.items())), 0)
        terms[key] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    f = GradedSeries(G, N, 1, terms)
    return f - f.homogeneous_part(0)


# -- variable rules ------------------------------------------------------------


def test_left_rule_multiplies_cycle_lengths():
    f = p(C1, 8, 2, 0)
    g = p(C2, 8, 3, 1)
    h = compose(f, g)
    assert h.coefficient((((6, 1), 1),)) == 1
    assert len(h.terms) == 1


def test_left_rule_keeps_classes():
    f = p(C1, 6, 2, 0)
    g = p(S3, 6, 1, 2) + p(S3, 6, 2, 1).scale(3)
    h = compose(f, g)
    assert h.coefficient((((2, 2), 1),)) == 1
    assert h.coefficient((((4, 1), 1),)) == 3


def test_right_rule_raises_classes_to_powers():
    # in C_4 the element g has g^2 in the class of g^2 and g^3 staying a generator
    cls = C4.class_of
    f = p(C4, 8, 2, cls[1])
    h = compose(f, p(C1, 8, 3, 0))
    # p_2(g) o p_3 = p_6(g^3): class of element 3
    assert h.coefficient((((6, cls[3]), 1),)) == 1
    h2 = compose(f, p(C1, 8, 2, 0))
    assert h2.coefficient((((4, cls[2]), 1),)) == 1


def test_both_trivial_modes_agree():
    f = p(C1, 6, 2, 0) + p(C1, 6, 1, 0).power(2)
    g = p(C1, 6, 1, 0) + p(C1, 6, 3, 0).scale(Fraction(1, 2))
    assert compose(f, g) == compose(f, g)  # smoke: same object path
    # p_2 o g = g with indices doubled
    h = compose(p(C1, 6, 2, 0), g)
    assert h.coefficient((((2, 0), 1),)) == 1
    assert h.coefficient((((6, 0), 1),)) == Fraction(1, 2)


def test_two_nontrivial_groups_rejected():
    with pytest.raises(SeriesError):
        compose(p(C2, 4, 1, 0), p(C2, 4, 1, 0))


def test_constant_term_in_argument_rejected():
    with pytest.raises(SeriesError):
        compose(p(C1, 4, 1, 0), one(C1, 4))


def test_t_transforms_inside_right_argument():
    # p_2(c) o (t p_1) = t^2 p_2(c)
    f = p(C2, 6, 2, 1)
    g = p(C1, 6, 1, 0).attach_t(1)
    h = compose(f, g)
    assert h.coefficient((((2, 1), 1),), 2, 1) == 1
    assert h.coefficient((((2, 1), 1),), 0, 1) == 0


def test_t_prefactor_on_left_passes_through():
    f = p(C1, 4, 2, 0).scale_t(-1, 2)
    g = p(C2, 4, 1, 0)
    h = compose(f, g)
    assert h.coefficient((((2, 0), 1),), -1, 2) == 1


def test_compose_matches_attach_t():
    rng = random.Random(3)
    f = random_constant_free(C2, 5, rng) + one(C2, 5)
    arg = p(C1, 5, 1, 0).attach_t(1, 2)
    assert compose(f, arg) == f.attach_t(1, 2)


def test_compose_is_ring_homomorphism_in_f():
    rng = random.Random(17)
    g = random_constant_free(C1, 6, rng)
    for G in (C1, C2):
        a = random_constant_free(G, 6, rng) + one(G, 6).scale(2)
        b = random_constant_free(G, 6, rng)
        assert compose(a * b, g) == compose(a, g) * compose(b, g)
        assert compose(a + b, g) == compose(a, g) + compose(b, g)


def test_mixed_associativity_randomized():
    rng = random.Random(29)
    for _ in range(4):
        # f over G, g and h over the trivial group
        f = random_constant_free(C2, 6, rng, nterms=4)
        g = random_constant_free(C1, 6, rng, nterms=4)
        h = random_constant_free(C1, 6, rng, nterms=4)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        # f, g over the trivial group, h over G
        f2 = random_constant_free(C1, 6, rng, nterms=4)
        h2 = random_constant_free(S3, 6, rng, nterms=4)
        assert compose(compose(f2, g), h2) == compose(f2, compose(g, h2))


def test_p1_is_identity_both_sides():
    rng = random.Random(41)
    f = random_constant_free(C2, 5, rng)
    assert compose(f, p(C1, 5, 1, 0)) == f
    g = random_constant_free(C1, 5, rng)
    assert compose(p(C1, 5, 1, 0), g) == g


def test_natural_spec_commutes_with_compose():
    rng = random.Random(53)
    for _ in range(4):
        f = random_constant_free(C2, 5, rng) + one(C2, 5)
        g = random_constant_free(C1, 5, rng)
        lhs = natural_spec(compose(f, g))
        rhs = oracle_compose(natural_spec(f), natural_spec(g))
        assert lhs == rhs


# -- classic identities ----------------------------------------------------------


def test_average_p1_is_the_class_sum():
    for G in (C1, C2, S3, dihedral_8(), quaternion_8()):
        for N in (0, 1, 4):
            want = GradedSeries(G, N, 1, {
                ((((1, cl.class_id), 1),), 0): Fraction(cl.size, G.order)
                for cl in G.classes})
            got = average_p1(G, N)
            assert_clean(got)
            assert got == want


def test_exp_series_factors_through_average_p1():
    for G in (C2, S3):
        E = exp_series(G, 6)
        built = compose(exp_series(C1, 6), average_p1(G, 6))
        assert built == E


def test_l_inverts_exp_minus_one():
    N = 7
    E1 = exp_series(C1, N) - one(C1, N)
    L = l_series(C1, N)
    target = p(C1, N, 1, 0)
    assert compose(L, E1) == target
    assert compose(E1, L) == target


def test_plethystic_inverse_of_exp_minus_one_is_l():
    N = 6
    E1 = exp_series(C1, N) - one(C1, N)
    assert plethystic_inverse(E1) == l_series(C1, N)


def test_plethystic_inverse_rejects_bad_input():
    with pytest.raises(SeriesError):
        plethystic_inverse(p(C2, 4, 1, 0))
    with pytest.raises(SeriesError):
        plethystic_inverse(one(C1, 4))
    with pytest.raises(SeriesError):
        plethystic_inverse(p(C1, 4, 2, 0))  # no linear term
    with pytest.raises(SeriesError):
        plethystic_inverse(p(C1, 4, 1, 0).attach_t(1))  # not t-free


def test_plethystic_inverse_with_scaled_linear_term():
    N = 5
    f = p(C1, N, 1, 0).scale(2) + p(C1, N, 2, 0)
    g = plethystic_inverse(f)
    assert compose(f, g) == p(C1, N, 1, 0)
    assert compose(g, f) == p(C1, N, 1, 0)


# -- F exponents and the product form ---------------------------------------------


def test_f_coefficient_oracles():
    assert F_coefficient(C1, 1, 0) == -1
    assert F_coefficient(C1, 2, 0) == 0
    assert F_coefficient(C1, 3, 0) == 0
    # C2: class 1 is {-1}; F(1, {-1}) = -1/2; F(2, identity) = 1/4
    assert F_coefficient(C2, 1, 1) == Fraction(-1, 2)
    assert F_coefficient(C2, 1, 0) == Fraction(-1, 2)
    assert F_coefficient(C2, 2, 0) == Fraction(1, 4)
    assert F_coefficient(C2, 2, 1) == Fraction(-1, 4)
    with pytest.raises(ValueError):
        F_coefficient(C2, 0, 0)
    with pytest.raises(ValueError):
        F_coefficient(C2, 1, 9)


def test_product_form_matches_inverse_of_composite():
    for G in (C1, C2):
        N = 5
        lhs = product_form_inverse(G, N)
        rhs = compose(exp_series(G, N), l_series(C1, N)).invert()
        assert lhs == rhs


def test_product_form_trivial_group_is_geometric():
    # over the trivial group the product collapses to (1 + p_1)^(-1)
    N = 6
    f = product_form_inverse(C1, N)
    for n in range(N + 1):
        assert f.coefficient((((1, 0), n),) if n else ()) == (-1) ** n


# -- hyperbolic lifts --------------------------------------------------------------


def test_sech_tanh_consistency():
    for G in (C1, C2):
        N = 6
        E = exp_series(G, N)
        even = mod_filter(E, 0, 2, "equal")
        assert sech_series(G, N) * even == one(G, N)
        assert tanh_series(G, N) * even == mod_filter(E, 0, 2, "not-equal")


def test_arcsinh_series_naturalizes_to_arcsinh():
    N = 7
    A = arcsinh_series(C1, N)
    assert natural_spec(A) == uni_analytic("arcsinh", N)


def test_arcsinh_series_inverts_odd_exp():
    N = 6
    odd = mod_filter(exp_series(C1, N), 1, 2, "equal")
    assert compose(odd, arcsinh_series(C1, N)) == p(C1, N, 1, 0)


def test_sech_natural_spec():
    # sech_series over G specializes to sech(x/|G|)
    for G in (C1, C2):
        u = natural_spec(sech_series(G, 6))
        expected = compose(uni_analytic("sech", 6),
                           uni_x(6).scale(Fraction(1, G.order)))
        assert u == expected


def test_uni_analytic_pow1p_refuses_exponents_that_are_not_rational():
    for bad in (0.1, 0.5, "1/2"):
        with pytest.raises(SeriesError):
            uni_analytic("pow1p", 2, bad)
    assert (uni_analytic("pow1p", 2, Fraction(1, 2))
            == GradedSeries(C1, 2, 1, {((), 0): 1,
                                       ((((1, 0), 1),), 0): Fraction(1, 2),
                                       ((((1, 0), 2),), 0): Fraction(-1, 8)}))
    assert uni_analytic("pow1p", 2, 2) == uni_analytic("pow1p", 2, Fraction(2))

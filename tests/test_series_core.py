"""The fast series core against its straightforward oracles, and its laws.

compose, exp_of, log1p_of, pow1p_of and invert are compared with the
oracles in conftest.py on seeded random series over C1, C2 and S3, with
t-graded arguments and t denominators above one.  Hypothesis checks the
algebraic laws the fast paths rely on.  Every result is also checked for
the term-dict invariants that GradedSeries._trusted takes on trust.
"""

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_clean, dihedral_8, oracle_compose, oracle_exp,
                      oracle_invert, oracle_log1p, oracle_mul, oracle_pow1p,
                      quaternion_8)
from wreathcalc.groups import cyclic_group, symmetric_group
from wreathcalc.plethysm import (F_coefficient, _mod_inverse, compose,
                                 exp_compose, product_form_inverse)
from wreathcalc.series import (GradedSeries, ONE_MONO, SeriesError, _Codec,
                               const, exp_arg, exp_of, exp_series, l_series,
                               log1p_of, mod_filter, mono_degree,
                               natural_spec, one, p, pow1p_of)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
S3 = symmetric_group(3)
GROUPS = (C1, C2, S3)
ALPHAS = (Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(-2, 3))


def random_series(G, N, rng, t_den=1, nterms=5, max_t=2,
                  constant_free=True):
    terms = {}
    for _ in range(nterms):
        mono = {}
        for _ in range(rng.randrange(1 if constant_free else 0, 3)):
            v = (rng.randrange(1, 4), rng.randrange(G.num_classes))
            mono[v] = mono.get(v, 0) + 1
        key = (tuple(sorted(mono.items())), rng.randrange(-max_t, max_t + 1))
        terms[key] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
    return GradedSeries(G, N, t_den, terms)


# -- differential tests ---------------------------------------------------------


def test_compose_matches_oracle_both_modes():
    rng = random.Random(20261018)
    for G in GROUPS:
        for t_den_f, t_den_g in ((1, 1), (2, 1), (1, 3), (2, 3)):
            for _ in range(3):
                # right mode: f over G, g over the trivial group
                f = random_series(G, 6, rng, t_den_f, constant_free=False)
                g = random_series(C1, 5, rng, t_den_g, nterms=3)
                h = compose(f, g)
                assert_clean(h)
                assert h == oracle_compose(f, g)
                # left mode: f over the trivial group, g over G
                f = random_series(C1, 6, rng, t_den_f, constant_free=False)
                g = random_series(G, 6, rng, t_den_g, nterms=3)
                h = compose(f, g)
                assert_clean(h)
                assert h == oracle_compose(f, g)


def test_compose_shared_prefixes_match_oracle():
    # many monomials with long common prefixes exercise the prefix stack
    rng = random.Random(7)
    for G in (C2, S3):
        E = exp_series(G, 6).scale_t(1)
        g = random_series(C1, 6, rng, 2, nterms=4)
        h = compose(E, g)
        assert_clean(h)
        assert h == oracle_compose(E, g)


def test_analytic_helpers_match_oracles():
    rng = random.Random(99)
    for G in GROUPS:
        for t_den in (1, 2):
            for _ in range(3):
                f = random_series(G, 5, rng, t_den)
                for got, want in ((exp_of(f), oracle_exp(f)),
                                  (log1p_of(f), oracle_log1p(f)),
                                  *((pow1p_of(f, a), oracle_pow1p(f, a))
                                    for a in ALPHAS)):
                    assert_clean(got)
                    assert got == want


def test_invert_matches_oracle():
    rng = random.Random(3)
    for G in GROUPS:
        for t_den in (1, 3):
            for c0 in (Fraction(1), Fraction(-2, 3)):
                f = random_series(G, 5, rng, t_den) + one(G, 5).scale(c0)
                inv = f.invert()
                assert_clean(inv)
                assert inv == oracle_invert(f)
                assert f * inv == one(G, 5)


def test_exp_compose_matches_composing_the_exponential():
    rng = random.Random(11)
    for G in GROUPS:
        N = 5
        for g in (l_series(C1, N), l_series(C1, N).attach_t(1, 2),
                  random_series(C1, N, rng, 3, nterms=3)):
            got = exp_compose(G, N, g)
            assert_clean(got)
            assert got == oracle_compose(exp_series(G, N), g)


def test_exp_compose_inverse_matches_inverting_it():
    rng = random.Random(12)
    for G in GROUPS + (cyclic_group(3),):
        N = 6
        for g in (l_series(C1, N), l_series(C1, N).attach_t(1, 2),
                  random_series(C1, N, rng, 3, nterms=3)):
            got = exp_compose(G, N, g.neg())
            assert_clean(got)
            assert got == exp_compose(G, N, g).invert()


def residue_one_series(N, d, rng, t_den=1):
    """A random trivial-group series whose degrees are all 1 mod d."""
    g = random_series(C1, N, rng, t_den, nterms=8)
    g = mod_filter(g, 1, d)
    return g + p(C1, N, 1, 0, t_den)


def test_compose_commutes_with_mod_filter_when_degrees_are_one_mod_d():
    rng = random.Random(13)
    for G in GROUPS:
        N = 6
        for d in (2, 3):
            E = exp_series(G, N)
            for B in (_mod_inverse(N, d), _mod_inverse(N, d).attach_t(1, d),
                      residue_one_series(N, d, rng),
                      residue_one_series(N, d, rng, 2).attach_t(1, d)):
                assert all(mono_degree(m) % d == 1 for m, _t in B.terms)
                f = random_series(G, N, rng, 2, nterms=6,
                                  constant_free=False)
                for h in (E, f):
                    whole = compose(h, B)
                    for j in range(d):
                        assert (compose(mod_filter(h, j, d), B)
                                == mod_filter(whole, j, d)), (G.order, d, j)


def test_compose_and_mod_filter_differ_once_a_degree_is_not_one_mod_d():
    # a degree-2 term at d = 2 moves degree-1 terms of E into even degrees
    for G in (C1, C2, S3):
        N = 4
        B = p(C1, N, 1, 0) + p(C1, N, 1, 0).power(2)
        E = exp_series(G, N)
        assert (compose(mod_filter(E, 1, 2), B)
                != mod_filter(compose(E, B), 1, 2))


def test_exp_series_is_exp_of_its_argument():
    for G in GROUPS:
        A = exp_arg(G, 5)
        assert_clean(A)
        assert exp_series(G, 5) == oracle_exp(A)


# -- laws ----------------------------------------------------------------------

LAWS = settings(deadline=None, max_examples=25, derandomize=True,
                database=None)


@st.composite
def series(draw, group=None, constant_free=True, nterms=4):
    G = group if group is not None else draw(st.sampled_from(GROUPS))
    N = draw(st.integers(2, 5))
    t_den = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_series(G, N, random.Random(seed), t_den, nterms=nterms,
                         constant_free=constant_free)


@LAWS
@given(st.data())
def test_law_compose_is_multiplicative(data):
    if data.draw(st.booleans()):
        G = data.draw(st.sampled_from(GROUPS))
        f = data.draw(series(G, constant_free=False))
        g = data.draw(series(G, constant_free=False))
        h = data.draw(series(C1, nterms=3))
    else:
        f = data.draw(series(C1, constant_free=False))
        g = data.draw(series(C1, constant_free=False))
        h = data.draw(series(nterms=3))
    lhs = compose(f * g, h)
    assert_clean(lhs)
    assert lhs == compose(f, h) * compose(g, h)


@LAWS
@given(st.sampled_from((C2, S3)).flatmap(
           lambda G: series(G, constant_free=False)),
       series(C1, nterms=3), st.fractions(-3, 3, max_denominator=4))
def test_law_natural_spec_commutes_with_compose(f, g, a):
    # a t-graded tower in p_1(identity) keeps the shadow of f nonconstant
    x = p(f.group, f.trunc, 1, f.group.identity_class)
    f = f + pow1p_of(x.scale_t(1), a)
    lhs = natural_spec(compose(f, g))
    assert_clean(lhs)
    assert lhs == compose(natural_spec(f), natural_spec(g))


@LAWS
@given(series(), series(C1, nterms=3))
def test_law_compose_commutes_with_exp(A, g):
    lhs = compose(exp_of(A), g)
    assert_clean(lhs)
    assert lhs == exp_of(compose(A, g))


@LAWS
@given(series())
def test_law_log_inverts_exp(A):
    E = exp_of(A)
    assert_clean(E)
    back = log1p_of(E - one(A.group, A.trunc))
    assert_clean(back)
    assert back == A


@LAWS
@given(series(), st.fractions(-3, 3, max_denominator=4),
       st.fractions(-3, 3, max_denominator=4))
def test_law_powers_add(f, a, b):
    pa, pb = pow1p_of(f, a), pow1p_of(f, b)
    assert_clean(pa)
    assert pa * pb == pow1p_of(f, a + b)


@LAWS
@given(series(), st.fractions(-3, 3, max_denominator=4).filter(bool))
def test_law_invert_is_an_involution(f, c0):
    f = f + one(f.group, f.trunc, f.t_den).scale(c0)
    inv = f.invert()
    assert_clean(inv)
    back = inv.invert()
    assert_clean(back)
    assert back == f


# -- the integer-slice kernel against the pairwise Fraction product -------------
#
# The oracles above multiply through GradedSeries.mul, which runs on the same
# integer-slice kernel as the fast paths.  The `pairwise` fixture evaluates
# them with GradedSeries.mul routed through oracle_mul instead, so both sides
# share no product code.  Coefficient denominators are distinct primes, so the
# lcm a slice is carried over grows with every product.

PRIMES = (7, 11, 13, 101)


def prime_series(G, N, rng, t_den=1, nterms=6, constant_free=True):
    """random_series's terms with numerators in -9..9 over the primes above."""
    keys = random_series(G, N, rng, t_den, nterms, constant_free=constant_free)
    return GradedSeries(G, N, t_den,
                        {k: Fraction(rng.randrange(1, 10) * rng.choice((-1, 1)),
                                     rng.choice(PRIMES))
                         for k in keys.terms})


@pytest.fixture
def pairwise(monkeypatch):
    """Call fn(*args) with GradedSeries.mul routed through oracle_mul."""
    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(GradedSeries, "mul", oracle_mul)
            return fn(*args)
    return run


def test_mul_matches_the_pairwise_product():
    rng = random.Random(20261020)
    for G in GROUPS:
        for t_den_a, t_den_b in ((1, 1), (2, 3), (3, 2)):
            for _ in range(3):
                a = prime_series(G, 6, rng, t_den_a, constant_free=False)
                b = prime_series(G, 5, rng, t_den_b, constant_free=False)
                got = a * b
                assert_clean(got)
                assert got == oracle_mul(a, b)


def test_analytic_helpers_match_pairwise_oracles(pairwise):
    rng = random.Random(20261021)
    for G in GROUPS:
        for t_den in (1, 2, 3):
            f = prime_series(G, 5, rng, t_den)
            for got, oracle, args in (
                    (exp_of(f), oracle_exp, (f,)),
                    (log1p_of(f), oracle_log1p, (f,)),
                    *((pow1p_of(f, a), oracle_pow1p, (f, a))
                      for a in ALPHAS + (Fraction(5, 101),))):
                assert_clean(got)
                assert got == pairwise(oracle, *args)


def test_invert_matches_the_pairwise_oracle(pairwise):
    rng = random.Random(20261022)
    for G in GROUPS:
        for t_den in (2, 3):
            for c0 in (Fraction(1), Fraction(-7, 11)):
                f = prime_series(G, 5, rng, t_den) + one(G, 5).scale(c0)
                inv = f.invert()
                assert_clean(inv)
                assert inv == pairwise(oracle_invert, f)


def test_compose_matches_the_pairwise_oracle(pairwise):
    rng = random.Random(20261023)
    for G in GROUPS:
        for t_den_f, t_den_g in ((2, 3), (3, 2)):
            # right mode: f over G, g over the trivial group
            f = prime_series(G, 6, rng, t_den_f, constant_free=False)
            g = prime_series(C1, 5, rng, t_den_g, nterms=3)
            h = compose(f, g)
            assert_clean(h)
            assert h == pairwise(oracle_compose, f, g)
            # left mode: f over the trivial group, g over G
            f = prime_series(C1, 6, rng, t_den_f, constant_free=False)
            g = prime_series(G, 6, rng, t_den_g, nterms=3)
            h = compose(f, g)
            assert_clean(h)
            assert h == pairwise(oracle_compose, f, g)


def test_a_product_that_cancels_a_whole_degree():
    # (1 + f)(1 - f) = 1 - f^2: every product landing in degree 1 cancels
    rng = random.Random(20261024)
    for G in GROUPS:
        for t_den in (1, 2, 3):
            N = 5
            f = (prime_series(G, N, rng, t_den)
                 + p(G, N, 1, G.identity_class, t_den).scale(Fraction(3, 7)))
            got = (one(G, N) + f) * (one(G, N) - f)
            assert_clean(got)
            assert got.homogeneous_part(1).is_zero()
            assert got == oracle_mul(one(G, N) + f, one(G, N) - f)
            assert got == one(G, N) - oracle_mul(f, f)


def test_every_kernel_sum_is_in_lowest_terms(monkeypatch):
    # the gcd pass keeps the numerators that feed the next product small;
    # Fractions at the boundary would hide its absence
    from wreathcalc import plethysm, series
    real, seen = series._sum_of_products, []

    def checked(products):
        den, part = real(products)
        seen.append(den)
        assert den > 0 and gcd(den, *part.values()) == 1, (den, part)
        return den, part

    monkeypatch.setattr(series, "_sum_of_products", checked)
    monkeypatch.setattr(plethysm, "_sum_of_products", checked)
    rng = random.Random(20261041)
    for G in GROUPS:
        f = prime_series(G, 5, rng, 2)
        g = prime_series(C1, 5, rng, 3)
        compose(f + one(G, 5), g)
        compose(prime_series(C1, 5, rng, 1, constant_free=False),
                prime_series(G, 5, rng, 2))
        exp_of(f)
        (one(G, 5) + f) * (one(G, 5) - f)
    assert any(den > 1 for den in seen)


def test_pow1p_where_the_recurrence_weights_vanish():
    # alpha = 1 zeroes the weights at k = n / 2, alpha = 0 those at k = n
    rng = random.Random(20261025)
    for G in GROUPS:
        for t_den in (1, 2, 3):
            f = prime_series(G, 6, rng, t_den)
            once = pow1p_of(f, 1)
            assert_clean(once)
            assert once == one(G, 6) + f
            assert pow1p_of(f, 0) == one(G, 6)


def test_series_entry_points_refuse_values_that_are_not_rational():
    x = one(C1, 2)
    for bad in (0.1, 0.5, 0.0, Decimal("0.5"), "1/2", 1j):
        with pytest.raises(SeriesError):
            const(C1, 2, bad)
        with pytest.raises(SeriesError):
            GradedSeries(C1, 2, 1, {(ONE_MONO, 0): bad})
        with pytest.raises(SeriesError):
            x.scale(bad)
        with pytest.raises(SeriesError):
            x.substitute_t(bad)
        with pytest.raises(SeriesError):
            pow1p_of(p(C1, 2, 1, 0), bad)
    # ints and Fractions still go through, and come back as Fractions
    assert const(C1, 2, 3).terms == {(ONE_MONO, 0): Fraction(3)}
    assert x.scale(Fraction(1, 3)) == const(C1, 2, Fraction(1, 3))
    assert_clean(GradedSeries(C1, 2, 1, {(ONE_MONO, 0): 2}))


@pytest.mark.parametrize("entry", [
    lambda f: f.with_t_den(0),
    lambda f: f.with_t_den(-2),
    lambda f: f.attach_t(1, 0),
    lambda f: f.scale_t(1, 0),
    lambda f: f.coefficient(ONE_MONO, 1, 0),
    lambda f: mod_filter(f, 1, 0),
    lambda f: mod_filter(f, 1, 0, "not-equal"),
], ids=["with_t_den_0", "with_t_den_negative", "attach_t", "scale_t",
        "coefficient", "mod_filter", "mod_filter_not_equal"])
def test_series_entry_points_refuse_bad_denominators(entry):
    f = one(C2, 3) + p(C2, 3, 1, 1)
    with pytest.raises(SeriesError):
        entry(f)


def test_a_negative_t_denominator_keeps_the_exponent_value():
    f = one(C2, 3, 2) + p(C2, 3, 1, 1).scale_t(-1, 2)
    assert f.attach_t(1, -2) == f.attach_t(-1, 2)
    assert f.scale_t(3, -2) == f.scale_t(-3, 2)
    assert f.coefficient((((1, 1), 1),), 1, -2) == 1
    # "at-least" ignores d
    assert mod_filter(f, 1, 0, "at-least") == f - one(C2, 3)


def t_map_oracle(f, t_den, shift):
    """The checking constructor applied to (m, t) -> (m, t' ) with t' in units
    of 1/t_den: t' = t_den * (t / f.t_den + shift(degree of m))."""
    out = {}
    for (m, t), c in f.terms.items():
        q = (Fraction(t, f.t_den) + shift(mono_degree(m))) * t_den
        assert q.denominator == 1
        k = (m, int(q))
        out[k] = out.get(k, 0) + c
    return GradedSeries(f.group, f.trunc, t_den, out)


def test_t_maps_and_mod_filter_build_clean_series():
    rng = random.Random(20261040)
    for G in GROUPS:
        for t_den in (1, 2, 3):
            f = prime_series(G, 5, rng, t_den, constant_free=False)
            for num, den in ((-3, 2), (-1, 1), (1, 2), (2, 3), (1, -2)):
                t_out = lcm(t_den, den)
                for got, want in (
                        (f.attach_t(num, den),
                         t_map_oracle(f, t_out, lambda n: Fraction(n * num, den))),
                        (f.scale_t(num, den),
                         t_map_oracle(f, t_out, lambda n: Fraction(num, den)))):
                    assert_clean(got)
                    assert got.t_den == t_out
                    assert got.terms == want.terms
            for residue, d, mode in ((1, 2, "equal"), (0, 3, "not-equal"),
                                     (2, 0, "at-least"), (-1, 2, "equal")):
                got = mod_filter(f, residue, d, mode)
                keep = ((lambda n: n >= residue) if mode == "at-least" else
                        (lambda n: (n - residue) % d == 0) if mode == "equal"
                        else (lambda n: (n - residue) % d != 0))
                assert_clean(got)
                assert got == GradedSeries(G, 5, t_den, {
                    k: c for k, c in f.terms.items()
                    if keep(mono_degree(k[0]))})


# -- packed monomials ------------------------------------------------------------
#
# Inside the kernel a term (mono, t_num) is one int: the exponent of p_i(c)
# in bit field (i - 1) C + c of width N.bit_length(), t_num above all fields.
# A field overflows only if a term above the truncation is packed, so these
# cases put high exponents and high degrees next to low truncations, fill
# the widest fields (five classes at N = 8) and the top field (p_N), and
# make t_num negative.

D8 = dihedral_8()
Q8 = quaternion_8()
WIDE = (D8, Q8)


def dense_series(G, N, rng, t_den=1, nterms=8, max_t=2):
    """prime_series terms with single-variable powers up to degree N added."""
    f = prime_series(G, N, rng, t_den, nterms, constant_free=False)
    for _ in range(nterms):
        i = rng.randrange(1, N + 1)
        v = (i, rng.randrange(G.num_classes))
        mono = ((v, rng.randrange(1, N // i + 1)),)
        f = f + GradedSeries(G, N, t_den, {
            (mono, rng.randrange(-max_t, max_t + 1)):
                Fraction(rng.randrange(1, 10), rng.choice(PRIMES))})
    return f


def test_codec_round_trips_every_term_up_to_its_degree():
    rng = random.Random(20261030)
    for G in GROUPS + WIDE:
        for N in (0, 1, 3, 8):
            f = dense_series(G, max(N, 1), rng, 2).truncate(N)
            if N == 0:
                f = f + one(G, 0, 2).scale_t(-3, 2)
            codec = _Codec(G, N)
            back = codec.fractions(codec.slices(f.terms).values())
            assert back == f.terms
            assert all(type(m) is tuple and list(m) == sorted(m)
                       for m, _t in back)


def test_mul_drops_operand_terms_above_the_product_truncation():
    # trunc 8 x trunc 3: fields are 2 bits wide, p_1^8 would overflow one
    rng = random.Random(20261031)
    for G in GROUPS + WIDE:
        for t_den_a, t_den_b in ((1, 1), (2, 3)):
            x = p(G, 8, 1, G.identity_class, t_den_a)
            a = (dense_series(G, 8, rng, t_den_a) + x.power(8)
                 + x.power(5).scale_t(-1, 2))
            b = dense_series(G, 3, rng, t_den_b)
            for got, want in ((a * b, oracle_mul(a, b)),
                              (b * a, oracle_mul(b, a))):
                assert_clean(got)
                assert got.trunc == 3
                assert got == want


def test_compose_with_an_argument_truncated_above_the_result(pairwise):
    rng = random.Random(20261032)
    for G in GROUPS + WIDE:
        for t_den_f, t_den_g in ((1, 1), (2, 3)):
            # right mode: g over the trivial group, g.trunc 8 > f.trunc 3
            f = dense_series(G, 3, rng, t_den_f)
            g = dense_series(C1, 8, rng, t_den_g) + p(C1, 8, 1, 0).power(7)
            g = g - g.homogeneous_part(0)
            h = compose(f, g)
            assert_clean(h)
            assert h.trunc == 3
            assert h == pairwise(oracle_compose, f, g)
            # left mode: f over the trivial group, g over G
            f = dense_series(C1, 3, rng, t_den_f)
            g = dense_series(G, 8, rng, t_den_g)
            g = g - g.homogeneous_part(0)
            h = compose(f, g)
            assert_clean(h)
            assert h == pairwise(oracle_compose, f, g)


def test_the_highest_power_and_the_highest_variable_at_n_8(pairwise):
    N = 8
    for G in GROUPS + WIDE:
        for c in range(G.num_classes):
            x, top = p(G, N, 1, c), p(G, N, N, c)
            # p_1^N fills its field with N; p_N is the field just below t
            assert x.power(N).terms == {((((1, c), N),), 0): Fraction(1)}
            f = x.scale(Fraction(2, 7)) + top.scale_t(-1, 2)
            for got, want in ((pow1p_of(f, Fraction(-1, 3)),
                               pairwise(oracle_pow1p, f, Fraction(-1, 3))),
                              (exp_of(f), pairwise(oracle_exp, f)),
                              (compose(exp_arg(C1, N), f),
                               pairwise(oracle_compose, exp_arg(C1, N), f))):
                assert_clean(got)
                assert got == want
            assert (top * x).terms == {}
            assert (top * one(G, N)).terms == top.terms


def test_five_class_groups_at_n_8(pairwise):
    rng = random.Random(20261033)
    N = 8
    for G in WIDE:
        a, b = dense_series(G, N, rng, 2), dense_series(G, N, rng, 3)
        got = a * b
        assert_clean(got)
        assert got == oracle_mul(a, b)
        f = a - a.homogeneous_part(0)
        for got, want in ((exp_of(f), pairwise(oracle_exp, f)),
                          (log1p_of(f), pairwise(oracle_log1p, f)),
                          ((one(G, N) + f).invert(),
                           pairwise(oracle_invert, one(G, N) + f))):
            assert_clean(got)
            assert got == want
        g = dense_series(C1, N, rng, 2, nterms=3)
        g = g - g.homogeneous_part(0)
        got = compose(exp_arg(G, N), g)
        assert_clean(got)
        assert got == pairwise(oracle_compose, exp_arg(G, N), g)


def test_negative_t_exponents(pairwise):
    rng = random.Random(20261034)
    for G in GROUPS + WIDE:
        f = dense_series(G, 6, rng).scale_t(-1, 2)
        f = f - f.homogeneous_part(0)
        g = dense_series(G, 5, rng, 3).scale_t(-1, 2)
        assert any(t < 0 for _m, t in f.terms)
        h = dense_series(C1, 6, rng, 2).scale_t(-1, 2)
        h = h - h.homogeneous_part(0)
        for got, want in ((f * g, oracle_mul(f, g)),
                          (exp_of(f), pairwise(oracle_exp, f)),
                          (pow1p_of(f, Fraction(3, 2)),
                           pairwise(oracle_pow1p, f, Fraction(3, 2))),
                          (compose(g, h), pairwise(oracle_compose, g, h))):
            assert_clean(got)
            assert got == want


def test_product_form_inverse_is_the_pairwise_fold_of_its_factors():
    N = 6
    for G in (C2, S3):
        want = one(G, N)
        for l in range(1, N + 1):
            for cl in G.classes:
                expo = F_coefficient(G, l, cl.class_id)
                if expo:
                    want = oracle_mul(
                        want, pow1p_of(p(G, N, l, cl.class_id), expo))
        got = product_form_inverse(G, N)
        assert_clean(got)
        assert got == want

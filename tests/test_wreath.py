"""Wreath element arithmetic, class types, and Frobenius characteristics."""

import random
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest

from conftest import dihedral_8, oracle_centralizer_order, quaternion_8
from wreathcalc.groups import cyclic_group, symmetric_group
from wreathcalc.series import exp_series
from wreathcalc.wreath import (
    WreathElement, all_wreath_elements, centralizer_order, element_type,
    enumerate_class_types, frobenius_ch, induced_point_perm, trace_extract,
    type_degree, type_representative, wreath_identity, wreath_inverse,
    wreath_product,
)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
C3 = cyclic_group(3)
S3 = symmetric_group(3)


def random_element(G, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    labels = tuple(rng.randrange(G.order) for _ in range(n))
    return WreathElement(tuple(perm), labels)


# -- element arithmetic ----------------------------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        WreathElement((0, 0), (0, 0))
    with pytest.raises(ValueError):
        WreathElement((1, 0), (0,))


def test_product_matches_induced_point_permutations():
    rng = random.Random(97)
    for G in (C2, S3):
        for _ in range(25):
            w1 = random_element(G, 3, rng)
            w2 = random_element(G, 3, rng)
            prod = wreath_product(G, w1, w2)
            ind1 = induced_point_perm(G, w1)
            ind2 = induced_point_perm(G, w2)
            composed = tuple(ind1[ind2[i]] for i in range(len(ind2)))
            assert induced_point_perm(G, prod) == composed


def test_induced_perm_commutes_with_left_translation():
    # the action on (h, m) multiplies labels on the right, so left
    # multiplication by any fixed group element commutes with it
    rng = random.Random(13)
    G = S3
    w = random_element(G, 3, rng)
    ind = induced_point_perm(G, w)
    o = G.order
    for a in range(o):
        for m in range(3):
            for h in range(o):
                idx = m * o + h
                # translate then act
                t_idx = m * o + G.mul(a, h)
                acted = ind[t_idx]
                # act then translate
                am, ah = divmod(ind[idx], o)
                assert acted == am * o + G.mul(a, ah)


def test_inverse_and_identity():
    rng = random.Random(5)
    for G in (C2, C3, S3):
        e = wreath_identity(G, 4)
        for _ in range(10):
            w = random_element(G, 4, rng)
            assert wreath_product(G, w, wreath_inverse(G, w)) == e
            assert wreath_product(G, wreath_inverse(G, w), w) == e
            assert wreath_product(G, w, e) == w
            assert wreath_product(G, e, w) == w


def test_associativity_of_product():
    rng = random.Random(23)
    G = C3
    for _ in range(15):
        a, b, c = (random_element(G, 3, rng) for _ in range(3))
        assert wreath_product(G, wreath_product(G, a, b), c) == \
            wreath_product(G, a, wreath_product(G, b, c))


# -- types --------------------------------------------------------------------------


def test_enumerate_class_types_counts():
    # C2 wr S2 has 5 classes
    assert len(enumerate_class_types(C2, 2)) == 5
    # over the trivial group, types are partitions
    assert len(enumerate_class_types(C1, 5)) == 7
    assert len(enumerate_class_types(C1, 6)) == 11
    # degree 1: one type per class
    assert len(enumerate_class_types(S3, 1)) == S3.num_classes
    for tau in enumerate_class_types(C3, 4):
        assert type_degree(tau) == 4


def test_types_sorted_and_unique():
    taus = enumerate_class_types(C2, 4)
    assert taus == sorted(set(taus))


def test_class_sizes_sum_to_group_order():
    for G, n in ((C1, 4), (C2, 3), (C3, 2), (S3, 2)):
        total = G.order ** n * factorial(n)
        acc = 0
        for tau in enumerate_class_types(G, n):
            z = centralizer_order(G, tau)
            assert total % z == 0  # class sizes are integers
            acc += total // z
        assert acc == total


def test_element_type_constant_on_classes_and_exhaustive():
    # brute force over the whole group: the partition into type fibers must
    # match the computed class sizes exactly
    for G, n in ((C2, 3), (S3, 2)):
        fibers: dict = {}
        for w in all_wreath_elements(G, n):
            fibers.setdefault(element_type(G, w), 0)
            fibers[element_type(G, w)] += 1
        expected = {}
        total = G.order ** n * factorial(n)
        for tau in enumerate_class_types(G, n):
            expected[tau] = total // centralizer_order(G, tau)
        assert fibers == expected


def test_conjugation_preserves_type():
    rng = random.Random(71)
    for G, n in ((C3, 3), (S3, 3)):
        for _ in range(30):
            v = random_element(G, n, rng)
            w = random_element(G, n, rng)
            conj = wreath_product(G, wreath_product(G, w, v), wreath_inverse(G, w))
            assert element_type(G, conj) == element_type(G, v)


def test_representative_round_trip():
    for G, n in ((C1, 5), (C2, 4), (C3, 3), (S3, 3)):
        for tau in enumerate_class_types(G, n):
            w = type_representative(G, tau)
            assert element_type(G, w) == tau


def test_centralizer_oracle_values():
    # trivial group: z of the n-cycle type is n; of the all-fixed type is n!
    n_cycle = (((4, 0), 1),)
    assert centralizer_order(C1, n_cycle) == 4
    fixed = (((1, 0), 4),)
    assert centralizer_order(C1, fixed) == factorial(4)
    # C2, single 1-cycle labeled by the sign class: |G|/|c| * 1 = 2
    assert centralizer_order(C2, (((1, 1), 1),)) == 2


def test_centralizer_order_matches_the_fraction_product():
    for G in (C1, C2, C3, cyclic_group(4), S3, dihedral_8(), quaternion_8()):
        for n in range(1, 5):
            for tau in enumerate_class_types(G, n):
                z = centralizer_order(G, tau)
                assert type(z) is int
                assert z == oracle_centralizer_order(G, tau)


def test_centralizer_order_rejects_a_class_size_not_dividing_the_order():
    # no group has a class of 4 elements among 6; the size is made up
    fake = SimpleNamespace(order=6, classes=[SimpleNamespace(size=4)])
    for z_of in (centralizer_order, oracle_centralizer_order):
        with pytest.raises(ValueError, match="non-integral"):
            z_of(fake, (((1, 0), 1),))


# -- Frobenius characteristic --------------------------------------------------------


def test_trivial_character_gives_exp_slice():
    for G, n in ((C2, 2), (C2, 3), (S3, 2), (C3, 3)):
        ch = frobenius_ch(G, n, lambda tau: Fraction(1))
        assert ch == exp_series(G, n).homogeneous_part(n)


def test_frobenius_trace_round_trip():
    rng = random.Random(301)
    for G, n in ((C2, 3), (S3, 2)):
        taus = enumerate_class_types(G, n)
        values = {tau: Fraction(rng.randrange(-6, 7)) for tau in taus}
        ch = frobenius_ch(G, n, lambda tau: values[tau])
        for tau in taus:
            assert trace_extract(ch, G, tau) == values[tau]


def test_frobenius_of_sign_character_c1():
    # over the trivial group the sign of a permutation of type tau is
    # (-1)^(n - #cycles); its image under ch is e_n, whose p_n coefficient
    # is (-1)^(n-1)/n
    n = 4
    def sign(tau):
        cycles = sum(a for (_i, _c), a in tau)
        return Fraction((-1) ** (n - cycles))
    ch = frobenius_ch(C1, n, sign)
    assert ch.coefficient((((n, 0), 1),)) == Fraction((-1) ** (n - 1), n)
    assert ch.coefficient((((1, 0), n),)) == Fraction(1, factorial(n))


def test_element_count_by_brute_force_matches_z():
    G = C2
    n = 2
    # direct check that the identity's centralizer is the whole group
    ident_type = element_type(G, wreath_identity(G, n))
    assert centralizer_order(G, ident_type) == G.order ** n * factorial(n)

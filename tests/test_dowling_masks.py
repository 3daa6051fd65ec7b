"""Dowling posets on masks: relation masks by intersection and their
transpose, fixed-element masks without the permutation, and fixed-point
Moebius values and characteristic polynomials on the ambient masks, each
against the pairwise, action_of and materialized-subposet oracles in
conftest."""

import itertools
import random

import pytest

from conftest import (action_of, dihedral_8, down_masks, oracle_below_lists,
                      oracle_char_poly, oracle_fixed_mask, oracle_subposet,
                      oracle_top_trace, oracle_up_masks, quaternion_8,
                      random_poset, relabeled)
from wreathcalc.dowling import _build_up_masks, _element_masks, build_family
from wreathcalc.groups import cyclic_group, symmetric_group
from wreathcalc.posets import (PosetError, _iter_bits, equivariant_char_poly,
                               fixed_mask, lefschetz_top_trace)
from wreathcalc.theorems import _acted_poset, lefschetz_two_routes
from wreathcalc.wreath import (WreathElement, all_wreath_elements,
                               enumerate_class_types, type_representative)

C1, C2, C3, S3 = (cyclic_group(1), cyclic_group(2), cyclic_group(3),
                  symmetric_group(3))
S3_RELABELED = relabeled(S3, [3, 5, 0, 1, 4, 2])
C3_RELABELED = relabeled(C3, [2, 0, 1])
C4_RELABELED = relabeled(cyclic_group(4), [2, 0, 3, 1])

# (group, largest n) per group, kept small for the quadratic oracles
GROUP_SIZES = ((C1, 5), (C2, 4), (C3, 3), (S3, 2), (S3_RELABELED, 2),
               (C3_RELABELED, 3))
FAMILIES = (("q", None), ("r", None), ("qsim", None), ("q1modd", 2),
            ("q0modd", 2), ("q1modd", 3), ("q0modd", 3))


def family_posets():
    for G, n_max in GROUP_SIZES:
        for n in range(1, n_max + 1):
            for family, d in FAMILIES:
                yield build_family(family, G, n, d)
            if G.order == 1:
                yield build_family("pi", G, n)


def class_representatives(G, n):
    return [type_representative(G, tau) for tau in enumerate_class_types(G, n)]


def test_up_masks_match_pairwise_oracle():
    for fp in family_posets():
        P = fp.poset
        Z, C, _reps = _element_masks(P.payloads, fp.G, fp.n)
        assert _build_up_masks(P.payloads, fp.G.order, Z, C) == P.up
        assert P.up == oracle_up_masks(P.payloads, fp.G, fp.n)
        assert (P.up, down_masks(P)) == oracle_subposet(P, range(P.n))
    # parts of three or more points, where a part lies in one part of y
    # only through the pairs at its lowest point, over non-abelian groups
    # and identity labels other than 0
    for G, n in ((S3_RELABELED, 3), (dihedral_8(), 3), (quaternion_8(), 3),
                 (C4_RELABELED, 4)):
        for family, d in FAMILIES:
            P = build_family(family, G, n, d).poset
            assert P.up == oracle_up_masks(P.payloads, G, n)


def test_below_lists_match_the_oracles_on_multi_word_posets():
    for family, G, n in (("q", C2, 5), ("q", C3, 4), ("r", S3_RELABELED, 3),
                         ("q", S3_RELABELED, 3)):
        P = build_family(family, G, n).poset
        assert P.below_lists() == oracle_below_lists(P)
        assert (P.up, down_masks(P)) == oracle_subposet(P, range(P.n))
        # r over S3 at n = 3 has 56 elements, so its masks take one word
        assert (P.n > 64) == (family == "q")


def test_fixed_mask_matches_action_of_on_class_representatives():
    for fp in family_posets():
        for w in class_representatives(fp.G, fp.n):
            perm = action_of(fp, w)
            assert fp.fixed_mask(w) == oracle_fixed_mask(perm) \
                == fixed_mask(perm)


def test_masked_routes_match_fixed_subposet_on_class_representatives():
    for fp in family_posets():
        P = fp.poset
        for w in class_representatives(fp.G, fp.n):
            perm, mask = action_of(fp, w), fp.fixed_mask(w)
            trace = oracle_top_trace(P, perm)
            assert lefschetz_top_trace(P, mask) == trace
            assert lefschetz_top_trace(P, perm) == trace
            assert lefschetz_two_routes(P, mask) == (trace, trace)
            char_poly = oracle_char_poly(P, perm)
            assert equivariant_char_poly(P, mask) == char_poly
            assert equivariant_char_poly(P, perm) == char_poly


def test_every_wreath_element():
    for G, n in ((S3, 2), (C2, 3)):
        for family, d in (("q", None), ("r", None), ("qsim", None),
                          ("q1modd", 2), ("q0modd", 2)):
            fp = build_family(family, G, n, d)
            P = fp.poset
            for w in all_wreath_elements(G, n):
                perm, mask = action_of(fp, w), fp.fixed_mask(w)
                assert mask == oracle_fixed_mask(perm)
                assert lefschetz_top_trace(P, mask) \
                    == oracle_top_trace(P, perm)
                assert equivariant_char_poly(P, mask) \
                    == oracle_char_poly(P, perm)


@pytest.mark.parametrize("make_group", [dihedral_8, quaternion_8])
def test_orbit_fixed_masks_on_every_element_over_non_abelian_groups(
        make_group):
    # left translation and right multiplication of labels differ here, so
    # imaging one pair per orbit of the wrong action would show
    G = make_group()
    for family, d in FAMILIES:
        fp = build_family(family, G, 2, d)
        for w in all_wreath_elements(G, 2):
            assert fp.fixed_mask(w) == oracle_fixed_mask(action_of(fp, w))


def test_fixed_masks_where_pairs_and_parts_differ():
    # from n = 3 on a part can hold more than two points, so a pair mask is
    # a union of part masks; identity labels other than 0 and non-abelian
    # groups would show a wrong translate of a pair
    rng = random.Random(24)
    for G, n in ((S3_RELABELED, 3), (dihedral_8(), 3), (quaternion_8(), 3),
                 (C4_RELABELED, 4)):
        sample = [WreathElement(tuple(rng.sample(range(n), n)),
                                tuple(rng.randrange(G.order)
                                      for _ in range(n)))
                  for _ in range(4)]
        for family, d in FAMILIES:
            fp = build_family(family, G, n, d)
            for w in class_representatives(G, n) + sample:
                assert fp.fixed_mask(w) == oracle_fixed_mask(action_of(fp, w))


@pytest.mark.parametrize("G", [S3, C3_RELABELED])
@pytest.mark.parametrize("family, d", FAMILIES)
def test_pair_and_zone_masks_match_a_scan_of_the_payloads(G, family, d):
    # the pair masks are gathered under a translate of each pair; a pair
    # that a part holds only through a translate must still get its mask.
    # In q1modd at d = 2 every pair lies in a part of three points, and in
    # q1modd at d = 3 no part holds a pair
    o, n = G.order, 3
    fp = build_family(family, G, n, d)
    payloads = fp.poset.payloads
    for m in range(n):
        assert fp.zone[m] == sum(1 << y for y, (i_mask, _parts)
                                 in enumerate(payloads) if i_mask >> m & 1)
    held = {}
    for p, q in itertools.combinations(range(n * o), 2):
        if p // o == q // o:
            continue
        pair = 1 << p | 1 << q
        holding = sum(1 << y for y, (_i_mask, parts) in enumerate(payloads)
                      if any(pair & K == pair for K in parts))
        if holding:
            held[pair] = holding
    assert fp.pairs == held
    for pair, having in held.items():
        for g in range(o):
            gP = sum(1 << (p - p % o + G.mul(g, p % o))
                     for p in _iter_bits(pair))
            assert fp.pairs[gP] == having
    assert len(fp.pair_reps) * o == len(held)
    for having, p, q in fp.pair_reps:
        assert p % o == G.identity and fp.pairs[1 << p | 1 << q] == having


def test_fixed_mask_when_labels_keep_parts_in_their_orbit():
    # every label the same non-identity g: a central g moves each part
    # within its own G-orbit, a non-central one moves some out of it
    seen = set()
    for G, n_max in ((C3_RELABELED, 3), (S3_RELABELED, 2), (dihedral_8(), 2),
                     (quaternion_8(), 2)):
        for g in range(G.order):
            if g == G.identity:
                continue
            central = all(G.mul(g, x) == G.mul(x, g) for x in range(G.order))
            seen.add(central)
            for n in range(1, n_max + 1):
                for family, d in FAMILIES:
                    fp = build_family(family, G, n, d)
                    for perm in itertools.permutations(range(n)):
                        w = WreathElement(perm, (g,) * n)
                        mask = fp.fixed_mask(w)
                        assert mask == oracle_fixed_mask(action_of(fp, w))
                        if central and perm == tuple(range(n)):
                            assert mask == (1 << fp.poset.n) - 1
    assert seen == {True, False}


def test_bn_masks_match_the_permutation_route():
    # at odd n the top of q1modd is removed: it must be the last index, so
    # the fixed elements of the rest are a prefix of the full fixed mask
    for G, n_max in ((C1, 5), (C2, 5), (S3, 3)):
        for n in range(1, n_max + 1):
            P, act = _acted_poset("bn", G, n, 2)
            fp = build_family("q1modd", G, n, 2)
            keep = range(P.n)
            assert fp.poset.n == P.n + n % 2
            assert (P.up, down_masks(P)) == oracle_subposet(fp.poset, keep)
            for w in class_representatives(G, n):
                full = action_of(fp, w)
                perm = [full[i] for i in keep]
                assert act(w) == oracle_fixed_mask(perm)
                assert equivariant_char_poly(P, act(w)) \
                    == oracle_char_poly(P, perm)


def test_subposet_restricts_up_and_down():
    rng = random.Random(5)
    for n in range(12):
        for _ in range(4):
            P = random_poset(rng, n, rng.choice((0.2, 0.4, 0.7)))
            idx = rng.sample(range(n), rng.randint(0, n))
            sub = P.subposet(idx)
            assert (sub.up, down_masks(sub)) == oracle_subposet(P, idx)
            assert sub.payloads == [P.payloads[i] for i in idx]
    fp = build_family("q", C2, 3)
    proper = fp.poset.proper_part()
    assert (proper.up, down_masks(proper)) == oracle_subposet(
        fp.poset, fp.poset.proper_part_indices())


def test_masked_mobius_needs_its_start_in_the_mask():
    P = build_family("q", C2, 2).poset
    b, t = P.bottom(), P.top()
    assert P.mobius_from(b, 1 << b | 1 << t) == {b: 1, t: -1}
    with pytest.raises(PosetError):
        P.mobius_from(b, 1 << t)


def test_validate_rejects_a_corrupted_relation_mask(monkeypatch):
    from wreathcalc import dowling
    from wreathcalc.dowling import FamilyError

    def corrupted(payloads, o, Z, C):
        up = _build_up_masks(payloads, o, Z, C)
        up[1] ^= 1 << 2   # one relation bit flipped
        return up

    monkeypatch.setattr(dowling, "_build_up_masks", corrupted)
    build_family("q", C2, 2)   # unchecked without validate
    with pytest.raises(FamilyError):
        build_family("q", C2, 2, validate=True)

"""Family posets: enumeration, order, ranks, actions, and structure checks."""

import itertools
import random

import pytest

from conftest import (action_of, bell_number, oracle_free_partitions,
                      partition_lattice, relabeled, transform_payload)
from wreathcalc import dowling

from wreathcalc.dowling import (
    FamilyError, build_family, count_family, dowling_leq_factory,
    enumerate_family, family_rank_formula, verify_rank_formulas,
    zero_mod_atom_key,
)
from wreathcalc.groups import cyclic_group, symmetric_group
from wreathcalc.posets import atom_order_condition, is_automorphism
from wreathcalc.wreath import (
    WreathElement, all_wreath_elements, induced_point_perm, wreath_product,
)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
C3 = cyclic_group(3)
S3 = symmetric_group(3)


# -- counts -------------------------------------------------------------------------


def test_frozen_counts_big_family():
    assert len(enumerate_family("q", C2, 2)) == 6
    assert len(enumerate_family("q", C3, 2)) == 7
    assert len(enumerate_family("q", C2, 3)) == 24
    assert len(enumerate_family("q", C2, 5)) == 648
    assert len(enumerate_family("q", C3, 5)) == 1523


def test_trivial_group_gives_bell_counts():
    # adding the absorbed zone as an extra block: |Q_n(C1)| = Bell(n+1)
    for n in range(1, 6):
        assert len(enumerate_family("q", C1, n)) == bell_number(n + 1)


def test_frozen_counts_other_families():
    assert len(enumerate_family("r", C1, 3)) == 6
    assert len(enumerate_family("r", C2, 5)) == 258
    assert len(enumerate_family("q0modd", C2, 4, 2)) == 34
    assert len(enumerate_family("q1modd", C2, 4, 2)) == 24


def test_count_recursion_matches_enumeration():
    cases = [
        ("q", C1, 4, None), ("q", C2, 4, None), ("q", C3, 3, None),
        ("q", S3, 3, None), ("r", C2, 4, None), ("r", S3, 3, None),
        ("qsim", C2, 4, None), ("qsim", C3, 3, None),
        ("q1modd", C2, 5, 2), ("q1modd", C3, 4, 3), ("q1modd", C2, 6, 3),
        ("q0modd", C2, 5, 2), ("q0modd", C3, 4, 3), ("q0modd", C2, 6, 2),
        ("pi", C1, 5, None),
    ]
    for family, G, n, d in cases:
        assert len(enumerate_family(family, G, n, d)) == \
            count_family(family, G, n, d)


def test_enumeration_matches_the_recursive_oracle(monkeypatch):
    families = (("q", None), ("r", None), ("qsim", None), ("q1modd", 2),
                ("q0modd", 2), ("q1modd", 3), ("q0modd", 3), ("pi", None))
    cases = [(family, G, n, d)
             for G, n_max in ((C1, 5), (C2, 4),
                              (relabeled(C3, [2, 0, 1]), 3),
                              (relabeled(S3, [3, 5, 0, 1, 4, 2]), 3))
             for n in range(1, n_max + 1)
             for family, d in families
             if family != "pi" or G.order == 1]
    got = [enumerate_family(*case) for case in cases]

    def unmemoized(G, positions, size_ok, memo):
        return [tuple(sorted(parts))
                for parts in oracle_free_partitions(G, positions, size_ok)]

    with monkeypatch.context() as m:
        m.setattr(dowling, "_free_partitions", unmemoized)
        expected = [enumerate_family(*case) for case in cases]
    assert got == expected


def test_qsim_count_degree_two():
    # at n = 2 the simplified poset drops |I| = 1; size (|G|-1) extra over
    # the partition count: blocks {12} have |G| sections, plus bottom, plus top
    for G in (C2, C3, S3):
        got = len(enumerate_family("qsim", G, 2))
        assert got == G.order + 2


def test_bad_arguments_rejected():
    with pytest.raises(FamilyError):
        enumerate_family("nope", C2, 3)
    with pytest.raises(FamilyError):
        enumerate_family("q1modd", C2, 3)  # missing d
    with pytest.raises(FamilyError):
        enumerate_family("q0modd", C2, 3, 1)
    with pytest.raises(FamilyError):
        enumerate_family("pi", C2, 3)
    with pytest.raises(FamilyError):
        enumerate_family("q", C2, 0)


# -- order structure ------------------------------------------------------------------


def test_q2_c2_structure():
    fp = build_family("q", C2, 2, validate=True)
    P = fp.poset
    assert P.n == 6
    assert sorted(P.ranks()) == [0, 1, 1, 1, 1, 2]
    assert P.mobius_bottom_top() == 3
    verify_rank_formulas(fp)


def test_q3_c2_mobius():
    fp = build_family("q", C2, 3, validate=True)
    assert fp.poset.mobius_bottom_top() == -15
    verify_rank_formulas(fp)


def test_q_c1_matches_partition_lattice():
    # Q_n over the trivial group is the partition lattice on n+1 elements:
    # same size, same rank generating function, same Moebius number
    for n in (2, 3):
        fp = build_family("q", C1, n, validate=True)
        oracle = partition_lattice(n + 1)
        assert fp.poset.n == oracle.n
        assert sorted(fp.poset.ranks()) == sorted(oracle.ranks())
        assert fp.poset.mobius_bottom_top() == oracle.mobius_bottom_top()


def test_pi_family_is_partition_lattice():
    for n in (3, 4):
        fp = build_family("pi", C1, n, validate=True)
        oracle = partition_lattice(n)
        assert fp.poset.n == oracle.n
        assert fp.poset.mobius_bottom_top() == oracle.mobius_bottom_top()
        assert sorted(fp.poset.ranks()) == sorted(oracle.ranks())
        verify_rank_formulas(fp)


def test_rank_formulas_across_families():
    cases = [
        ("q", C2, 4, None), ("q", C3, 3, None), ("q", S3, 2, None),
        ("r", C2, 4, None), ("r", C1, 4, None),
        ("qsim", C2, 4, None), ("qsim", C3, 3, None),
        ("q1modd", C2, 4, 2), ("q1modd", C2, 5, 2), ("q1modd", C3, 5, 3),
        ("q0modd", C2, 4, 2), ("q0modd", C2, 5, 2), ("q0modd", C3, 6, 3),
    ]
    for family, G, n, d in cases:
        verify_rank_formulas(build_family(family, G, n, d, validate=True))


def test_family_lengths():
    assert build_family("q", C2, 3).poset.length() == 3
    assert build_family("r", C2, 4).poset.length() == 4
    assert build_family("qsim", C2, 3).poset.length() == 3
    assert build_family("q1modd", C2, 5, 2).poset.length() == 3  # ceil(5/2)
    assert build_family("q0modd", C2, 5, 2).poset.length() == 3  # floor(5/2)+1
    assert build_family("pi", C1, 4).poset.length() == 3


def test_q_is_a_lattice_small():
    for G, n in ((C2, 2), (C2, 3), (C3, 2)):
        P = build_family("q", G, n).poset
        full = (1 << P.n) - 1
        for x in range(P.n):
            for y in range(P.n):
                uppers = P.up[x] & P.up[y]
                assert uppers  # common upper bound exists
                # a unique minimal one
                mins = [z for z in range(P.n)
                        if (uppers >> z) & 1 and not (
                            P.strict_down(z) & uppers)]
                assert len(mins) == 1


def test_qsim_join_closed_in_q():
    G = C2
    n = 3
    big = build_family("q", G, n)
    P = big.poset
    member = set(enumerate_family("qsim", G, n))
    idx = [i for i, payload in enumerate(P.payloads) if payload in member]
    for x in idx:
        for y in idx:
            uppers = P.up[x] & P.up[y]
            mins = [z for z in range(P.n)
                    if (uppers >> z) & 1 and not (P.strict_down(z) & uppers)]
            assert len(mins) == 1
            assert P.payloads[mins[0]] in member


def test_zero_mod_family_is_upper_ideal():
    # above any nonbottom element of the 0 mod d family, everything in the
    # big poset stays in the family
    G = C2
    n = 4
    big = build_family("q", G, n)
    member = set(enumerate_family("q0modd", G, n, 2))
    P = big.poset
    bottom_payload = P.payloads[P.bottom()]
    for i, payload in enumerate(P.payloads):
        if payload not in member or payload == bottom_payload:
            continue
        for j in range(P.n):
            if P.leq(i, j):
                assert P.payloads[j] in member


def test_zero_mod_atoms_have_exact_blocks():
    G = C2
    for n, d in ((4, 2), (5, 2), (6, 3)):
        fp = build_family("q0modd", G, n, d)
        P = fp.poset
        for a in P.covers_of(P.bottom()):
            i_mask, parts = P.payloads[a]
            assert bin(i_mask).count("1") == n - d * (n // d)
            o = G.order
            for K in parts:
                assert bin(K).count("1") == d
            assert len(parts) // o == n // d


def test_zero_mod_atom_order_condition():
    for G, n, d in ((C2, 4, 2), (C2, 5, 2), (C3, 4, 2), (C2, 6, 3)):
        fp = build_family("q0modd", G, n, d)
        P = fp.poset
        atoms = P.covers_of(P.bottom())
        atoms.sort(key=lambda a: zero_mod_atom_key(P.payloads[a], G, n))
        assert atom_order_condition(P, atoms)


def test_one_mod_family_contains_bottom_and_top():
    fp = build_family("q1modd", C2, 5, 2)
    P = fp.poset
    assert P.bottom() is not None and P.top() is not None
    assert P.payloads[P.top()] == ((1 << 5) - 1, ())
    i_mask, parts = P.payloads[P.bottom()]
    assert i_mask == 0 and len(parts) == 5 * C2.order


# -- actions ------------------------------------------------------------------------


def test_action_is_automorphism_and_homomorphism():
    rng = random.Random(12)
    for G, n, family, d in ((C2, 3, "q", None), (C3, 2, "q", None),
                            (C2, 4, "q0modd", 2), (C2, 3, "r", None)):
        fp = build_family(family, G, n, d)
        elems = []
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            labels = tuple(rng.randrange(G.order) for _ in range(n))
            elems.append(WreathElement(tuple(perm), labels))
        acts = [action_of(fp, w) for w in elems]
        for act in acts:
            assert is_automorphism(fp.poset, act)
        w12 = wreath_product(G, elems[0], elems[1])
        a12 = action_of(fp, w12)
        composed = [acts[0][acts[1][i]] for i in range(fp.poset.n)]
        assert a12 == composed


def test_action_fixes_bottom_and_top():
    fp = build_family("q", C2, 3)
    P = fp.poset
    for w in itertools.islice(all_wreath_elements(C2, 3), 0, 48, 7):
        act = action_of(fp, w)
        assert act[P.bottom()] == P.bottom()
        assert act[P.top()] == P.top()


def test_transform_payload_consistency():
    # transforming the bottom keeps it the bottom
    G = C2
    fp = build_family("q", G, 2)
    P = fp.poset
    b = P.payloads[P.bottom()]
    w = WreathElement((1, 0), (0, 1))
    pp = induced_point_perm(G, w)
    assert transform_payload(b, w.perm, pp) == b


def test_leq_factory_basic_relations():
    G = C2
    leq = dowling_leq_factory(G, 2)
    payloads = enumerate_family("q", G, 2)
    bottom = (0, tuple(sorted([0b0001, 0b0010, 0b0100, 0b1000])))
    top = (0b11, ())
    assert bottom in payloads and top in payloads
    for x in payloads:
        assert leq(bottom, x)
        assert leq(x, top)
        assert leq(x, x)

def test_pruned_masks_match_naive_relation():
    # the mask builder, which intersects per-position and per-part masks,
    # must agree with the direct double loop
    from wreathcalc.dowling import _build_up_masks

    cases = [
        ("q", C2, 3, None),
        ("r", C2, 3, None),
        ("qsim", C2, 3, None),
        ("q1modd", C2, 4, 2),
        ("q0modd", C2, 4, 2),
        ("pi", C1, 4, None),
        ("q", relabeled(S3, [3, 5, 0, 1, 4, 2]), 3, None),
        ("q", C3, 3, None),
        ("q1modd", C2, 4, 3),
        ("q0modd", C2, 4, 3),
        ("q1modd", C3, 3, 3),
        ("q0modd", C3, 3, 3),
    ]
    for family, G, n, d in cases:
        payloads = enumerate_family(family, G, n, d)
        leq = dowling_leq_factory(G, n)
        naive = []
        for a in payloads:
            mask = 0
            for j, b in enumerate(payloads):
                if leq(a, b):
                    mask |= 1 << j
            naive.append(mask)
        assert _build_up_masks(payloads, G, n) == naive

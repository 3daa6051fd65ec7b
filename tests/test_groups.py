"""Group tables, conjugacy classes, and the class power map."""

import random

import pytest

from conftest import dihedral_8, quaternion_8
from wreathcalc.groups import (
    FiniteGroup, GroupTableError, class_power, cyclic_group,
    group_from_table, read_table_text, symmetric_group,
)


KLEIN_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def test_cyclic_orders():
    for r in (1, 2, 3, 4, 6):
        G = cyclic_group(r)
        assert G.order == r
        assert G.identity == 0
        # every element is a power of the generator
        if r > 1:
            seen = {0}
            g = 1
            x = g
            while x not in seen or len(seen) < r:
                seen.add(x)
                x = G.mul(x, g)
            assert len(seen) == r


def test_cyclic_classes_are_singletons():
    G = cyclic_group(5)
    assert G.num_classes == 5
    assert all(c.size == 1 for c in G.classes)
    assert G.identity_class == 0


def test_cyclic_rejects_bad_order():
    with pytest.raises(GroupTableError):
        cyclic_group(0)


def test_symmetric_group_s3_class_sizes():
    # oracle: S_3 has classes of sizes 1 (identity), 3 (transpositions), 2 (3-cycles)
    G = symmetric_group(3)
    assert G.order == 6
    assert sorted(c.size for c in G.classes) == [1, 2, 3]
    assert G.classes[G.identity_class].size == 1
    assert sum(c.size for c in G.classes) == G.order


def test_symmetric_group_s4_class_count():
    # oracle: number of classes of S_4 = number of partitions of 4 = 5
    G = symmetric_group(4)
    assert G.order == 24
    assert G.num_classes == 5
    assert sorted(c.size for c in G.classes) == [1, 3, 6, 6, 8]


def test_klein_four_group_is_abelian_with_singleton_classes():
    G = group_from_table(KLEIN_TABLE)
    assert G.order == 4
    assert G.num_classes == 4
    assert all(c.size == 1 for c in G.classes)
    assert all(G.inverse[x] == x for x in range(4))


def test_class_members_partition_group():
    for G in (cyclic_group(4), symmetric_group(3), symmetric_group(4)):
        seen = sorted(m for c in G.classes for m in c.members)
        assert seen == list(range(G.order))
        for c in G.classes:
            assert c.representative == min(c.members)
            assert c.size == len(c.members)


def test_class_ids_deterministic():
    a = symmetric_group(3)
    b = symmetric_group(3)
    assert [c.members for c in a.classes] == [c.members for c in b.classes]
    assert a.class_of == b.class_of


def test_conjugation_stays_in_class():
    G = symmetric_group(4)
    rng = random.Random(7)
    for _ in range(100):
        x = rng.randrange(G.order)
        g = rng.randrange(G.order)
        # conjugate(x, g) is x g x^{-1}, so it stays in the class of g
        assert G.class_of[G.conjugate(x, g)] == G.class_of[g]


def test_broken_associativity_reported_with_witness():
    # a Latin square of order 5 with two-sided identity 0 that is not a group
    # table: element 1 would have order 2, impossible by Lagrange, so some
    # triple must break associativity and the error should name one
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(GroupTableError) as err:
        FiniteGroup(bad)
    assert "associativity fails at triple" in str(err.value)


def test_non_latin_table_rejected():
    with pytest.raises(GroupTableError):
        FiniteGroup([[0, 1], [1, 1]])


def test_missing_identity_rejected():
    # Latin square where 0 is a left identity but nothing is a right identity
    table = [
        [0, 1, 2],
        [2, 0, 1],
        [1, 2, 0],
    ]
    with pytest.raises(GroupTableError) as err:
        FiniteGroup(table)
    assert "identity" in str(err.value)


def test_identity_found_at_any_index():
    # Klein four-group written with the identity at index 1
    table = [
        [1, 0, 3, 2],
        [0, 1, 2, 3],
        [3, 2, 1, 0],
        [2, 3, 0, 1],
    ]
    G = FiniteGroup(table)
    assert G.identity == 1
    assert G.num_classes == 4


def test_power_matches_repeated_multiplication():
    G = symmetric_group(4)
    rng = random.Random(11)
    for _ in range(60):
        g = rng.randrange(G.order)
        k = rng.randrange(0, 13)
        acc = G.identity
        for _ in range(k):
            acc = G.mul(acc, g)
        assert G.power(g, k) == acc


def test_class_power_composition_law():
    # raising to j then to k is raising to j*k, on class representatives
    for G in (cyclic_group(6), symmetric_group(3), symmetric_group(4)):
        for c in range(G.num_classes):
            for j in (1, 2, 3):
                for k in (1, 2, 4):
                    assert class_power(G, class_power(G, c, j), k) == \
                        class_power(G, c, j * k)


def test_class_power_is_well_defined_across_members():
    G = symmetric_group(4)
    for c in G.classes:
        for j in (2, 3, 5):
            images = {G.class_of[G.power(m, j)] for m in c.members}
            assert images == {class_power(G, c.class_id, j)}


def test_class_power_oracle_c4():
    G = cyclic_group(4)
    # classes are singletons {g^k}; squaring sends g -> g^2, g^3 -> g^2
    cls_of_elem = G.class_of
    assert class_power(G, cls_of_elem[1], 2) == cls_of_elem[2]
    assert class_power(G, cls_of_elem[3], 2) == cls_of_elem[2]
    assert class_power(G, cls_of_elem[2], 2) == cls_of_elem[0]


def test_order_eight_groups_share_class_sizes_not_square_maps():
    D4, Q8 = dihedral_8(), quaternion_8()
    for G in (D4, Q8):
        assert G.order == 8
        assert [cl.size for cl in G.classes] == [1, 2, 2, 2, 1]
    assert [class_power(D4, c, 2) for c in range(5)] == [0, 0, 0, 4, 0]
    assert [class_power(Q8, c, 2) for c in range(5)] == [0, 4, 4, 4, 0]


def test_class_power_rejects_bad_arguments():
    G = cyclic_group(3)
    with pytest.raises(ValueError):
        class_power(G, 5, 2)
    with pytest.raises(ValueError):
        class_power(G, 0, 0)


def test_read_table_text_round_trip():
    text = """3
0 1 2
1 2 0
2 0 1
e a b
"""
    G = read_table_text(text)
    assert G.order == 3
    assert G.names == ("e", "a", "b")
    assert G.table == cyclic_group(3).table


def test_read_table_text_without_names():
    text = "2\n0 1\n1 0\n"
    G = read_table_text(text)
    assert G.order == 2
    assert G.mul(1, 1) == 0


def test_read_table_text_requires_identity_first():
    # this is C_2 written with the identity at index 1
    text = "2\n1 0\n0 1\n"
    with pytest.raises(GroupTableError):
        read_table_text(text)


def test_read_table_text_rejects_garbage():
    with pytest.raises(GroupTableError):
        read_table_text("not a number\n")
    with pytest.raises(GroupTableError):
        read_table_text("2\n0 1\n")  # missing a row

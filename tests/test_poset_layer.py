"""Poset layer: chain counts by size, Hall's formula without listed chains,
fraction-free homology ranks and the memoized group action, each against
the listing, level-by-level and Fraction oracles in conftest; and guards
that the trace check lists no chains, builds no subposet or permutation,
and evaluates each distinct fixed set once."""

import random
from collections import OrderedDict
from math import comb

import pytest

from conftest import (action_of, boolean_lattice, bounded, chain_poset,
                      oracle_chain_counts, oracle_fixed_mask,
                      oracle_hall_mobius, oracle_sparse_rank,
                      partition_lattice, random_poset, transform_payload)
from wreathcalc import posets, theorems
from wreathcalc.dowling import build_family
from wreathcalc.groups import cyclic_group, symmetric_group
from wreathcalc.posets import (Poset, chain_counts, fixed_subposet,
                               mobius_via_chains, order_complex_homology)
from wreathcalc.theorems import lefschetz_two_routes, verify
from wreathcalc.wreath import (enumerate_class_types, induced_point_perm,
                               type_representative)

C1, C2, C3, S3 = (cyclic_group(1), cyclic_group(2), cyclic_group(3),
                  symmetric_group(3))


def homology_by_oracle(P, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(posets, "_sparse_rank", oracle_sparse_rank)
        return order_complex_homology(P)


def random_posets():
    rng = random.Random(2024)
    for n in range(12):
        for _ in range(4):
            yield random_poset(rng, n, rng.choice((0.2, 0.4, 0.7)))


def fixed_subposets():
    """Fixed subposets of small r, q and pi posets under every class
    representative."""
    for family, G, n in (("r", C2, 3), ("r", S3, 2), ("q", C2, 3),
                         ("q", S3, 2), ("pi", C1, 4)):
        fp = build_family(family, G, n)
        for tau in enumerate_class_types(G, n):
            w = type_representative(G, tau)
            sub, _orig = fixed_subposet(fp.poset, action_of(fp, w))
            yield sub


def test_chain_counts_match_listed_chains():
    for P in list(random_posets()) + list(fixed_subposets()):
        assert chain_counts(P) == {k: len(v) for k, v in P.chains().items()}
    assert chain_counts(Poset.from_masks([], [])) == {}


def test_packed_chain_counts_match_the_level_oracle():
    # tall posets: fields too narrow for C(m, k) would carry into the next
    rng = random.Random(15)
    tall = [chain_poset(64), boolean_lattice(6), partition_lattice(5)]
    for P in tall + list(random_posets()):
        masks = [None, (1 << P.n) - 1] + [rng.getrandbits(P.n)
                                          for _ in range(3)]
        for W in masks:
            assert chain_counts(P, W) == oracle_chain_counts(P, W)
    assert chain_counts(chain_poset(64)) == {k: comb(64, k)
                                             for k in range(1, 65)}


def test_hall_count_matches_listing_oracle():
    for P in list(random_posets()) + [partition_lattice(4)]:
        B = bounded(P)
        assert mobius_via_chains(B) == oracle_hall_mobius(B) \
            == B.mobius_bottom_top()
    for sub in fixed_subposets():
        assert mobius_via_chains(sub) == oracle_hall_mobius(sub) \
            == sub.mobius_bottom_top()


def test_homology_matches_fraction_oracle(monkeypatch):
    for P in random_posets():
        assert order_complex_homology(P) == homology_by_oracle(P, monkeypatch)
    for sub in fixed_subposets():
        proper = sub.proper_part()
        assert order_complex_homology(proper) \
            == homology_by_oracle(proper, monkeypatch)


def test_sparse_rank_on_random_integer_matrices():
    # entries in -3..3 make non-unit pivots common; boundary matrices reach
    # that branch only through fill-in
    rng = random.Random(7)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = [{c: v for c in range(ncols)
                 if (v := rng.randint(-3, 3)) and rng.random() < 0.6}
                for _ in range(rng.randint(0, 7))]
        for _ in range(rng.randint(0, 3)):   # dependent rows
            if not rows:
                break
            combo = {}
            for r in rng.sample(rows, min(len(rows), 2)):
                a = rng.choice((-2, -1, 1, 3))
                for c, v in r.items():
                    combo[c] = combo.get(c, 0) + a * v
            rows.insert(rng.randrange(len(rows) + 1),
                        {c: v for c, v in combo.items() if v})
        before = [dict(r) for r in rows]
        assert posets._sparse_rank(rows) == oracle_sparse_rank(rows)
        assert rows == before


def test_action_of_matches_transform_payload():
    for G, n in ((C2, 4), (S3, 3)):
        fp = build_family("q", G, n)
        index_of = {x: i for i, x in enumerate(fp.poset.payloads)}
        for tau in enumerate_class_types(G, n):
            w = type_representative(G, tau)
            point_perm = induced_point_perm(G, w)
            expected = [index_of[transform_payload(x, w.perm, point_perm)]
                        for x in fp.poset.payloads]
            assert action_of(fp, w) == expected


def test_trace_check_lists_no_chains(monkeypatch):
    def refuse(self):
        raise AssertionError("the trace check listed chains")

    monkeypatch.setattr(Poset, "chains", refuse)
    assert verify("hanlon", C2, 4, force=True).ok
    fp = build_family("q", C2, 3)
    for tau in enumerate_class_types(C2, 3):
        via_mobius, via_chains = lefschetz_two_routes(
            fp.poset, action_of(fp, type_representative(C2, tau)))
        assert via_mobius == via_chains
    with pytest.raises(AssertionError):
        order_complex_homology(fp.poset)


def test_traces_build_no_subposet_and_no_permutation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the trace check left the ambient masks")

    monkeypatch.setattr(Poset, "subposet", refuse)
    monkeypatch.setattr(theorems, "_poset_cache", OrderedDict())
    assert verify("whitney_hanlon", C2, 4, force=True).ok
    assert verify("hanlon", C2, 4, force=True).ok
    P = build_family("q", C2, 2).poset
    with pytest.raises(AssertionError):
        fixed_subposet(P, list(range(P.n)))


def test_poset_terms_evaluate_each_fixed_set_once(monkeypatch):
    calls = {"equivariant_char_poly": 0, "lefschetz_top_trace": 0}
    for name in calls:
        def counted(P, W, name=name, original=getattr(theorems, name)):
            calls[name] += 1
            return original(P, W)

        monkeypatch.setattr(theorems, name, counted)
    assert verify("hanlon", C3, 4, force=True).ok
    assert verify("whitney_hanlon", C3, 4, force=True).ok
    distinct = types = 0
    for n in range(1, 5):
        fp = build_family("q", C3, n)
        reps = [type_representative(C3, tau)
                for tau in enumerate_class_types(C3, n)]
        distinct += len({oracle_fixed_mask(action_of(fp, w)) for w in reps})
        types += len(reps)
    assert calls == {"equivariant_char_poly": distinct,
                     "lefschetz_top_trace": distinct}
    assert distinct < types

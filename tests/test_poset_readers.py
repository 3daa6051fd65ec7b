"""The order queries a Poset answers from its up masks alone -- top and
bottom of a within mask, covers, strict_down and _validate -- against the
transpose that oracle_subposet in conftest computes, on seeded random
posets and on every family poset over C2 up to n = 4; and the bit decoder
they all read masks through, against a per-position test."""

import random

import pytest

from conftest import (bounded, down_masks, oracle_bits, oracle_subposet,
                      random_poset)
from wreathcalc.dowling import FAMILIES, build_family
from wreathcalc.groups import cyclic_group
from wreathcalc.posets import Poset, PosetError, _iter_bits
from wreathcalc.theorems import _acted_poset
from wreathcalc.wreath import enumerate_class_types, type_representative

C2 = cyclic_group(2)


def test_iter_bits_matches_the_per_bit_oracle():
    masks = [0, 1, 1 << 63, 1 << 64, 1 << 127, 1 << 128,
             (1 << 63) | (1 << 64), (1 << 127) | (1 << 128),
             (1 << 64) - 1, (1 << 65) - 1, (1 << 129) - 1,
             (1 << 63) | (1 << 64) | (1 << 127) | (1 << 128)]
    # widths that are not a multiple of 64, with a zero word in between
    masks += [((1 << width) - 1) ^ (((1 << 64) - 1) << 64)
              for width in (130, 191, 200, 257)]
    rng = random.Random(21)
    for _ in range(300):
        width = rng.randint(1, 5000)
        density = rng.choice((0.001, 0.01, 0.1, 0.5, 0.9))
        masks.append(sum(1 << i for i in range(width)
                         if rng.random() < density))
    for mask in masks:
        assert list(_iter_bits(mask)) == oracle_bits(mask), hex(mask)


def two_maximal_masks(P, down, limit=6):
    """Unions of the down-sets of incomparable pairs: masks with exactly
    two maximal elements, so with no top."""
    out = []
    for i in range(P.n):
        for j in range(i + 1, P.n):
            if not P.leq(i, j) and not P.leq(j, i):
                out.append(down[i] | down[j])
                if len(out) == limit:
                    return out
    return out


def check_readers(P, masks):
    """Every reader of P against the transpose oracle; returns how many
    masks had a top and how many had none."""
    up, down = oracle_subposet(P, range(P.n))
    assert P.up == up
    assert down_masks(P) == down
    for i in range(P.n):
        above = up[i] & ~(1 << i)
        assert P.covers_of(i) == [j for j in _iter_bits(above)
                                  if not above & down[j] & ~(1 << j)]
    P._validate()
    tops = {True: 0, False: 0}
    for within in [None, 0] + masks + two_maximal_masks(P, down):
        W = (1 << P.n) - 1 if within is None else within
        elems = list(_iter_bits(W))
        assert P.bottom(within) == next(
            (i for i in elems if up[i] & W == W), None)
        top = next((j for j in elems if down[j] & W == W), None)
        assert P.top(within) == top
        tops[top is not None] += 1
    return tops


def test_readers_match_the_transpose_on_random_posets():
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for n in range(12):
        for _ in range(4):
            P = random_poset(rng, n, rng.choice((0.2, 0.4, 0.7)))
            for Q in (P, bounded(P)):
                masks = [rng.getrandbits(Q.n) for _ in range(6)]
                for flag, count in check_readers(Q, masks).items():
                    seen[flag] += count
    assert seen[True] and seen[False]


def family_posets_over_c2():
    """Every family over C2 (pi needs the trivial group), at d = 2 and 3
    for the modular ones."""
    for n in range(1, 5):
        for family in FAMILIES:
            if family == "pi":
                continue
            for d in ((2, 3) if family.endswith("modd") else (None,)):
                yield build_family(family, C2, n, d)


def test_readers_match_the_transpose_on_families_over_c2():
    for fp in family_posets_over_c2():
        masks = [fp.fixed_mask(type_representative(C2, tau))
                 for tau in enumerate_class_types(C2, fp.n)]
        check_readers(fp.poset, masks)
    for n in range(1, 5):
        P, act = _acted_poset("bn", C2, n, 2)
        check_readers(P, [act(type_representative(C2, tau))
                          for tau in enumerate_class_types(C2, n)])


def transitive_closure(up):
    up = list(up)
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(up):
            closed = mask
            for j in _iter_bits(mask):
                closed |= up[j]
            if closed != mask:
                up[i], changed = closed, True
    return up


def is_order_by_transpose(up):
    down = oracle_subposet(Poset.from_masks(range(len(up)), up),
                           range(len(up)))[1]
    return all((up[i] >> i) & 1 and up[i] & down[i] == 1 << i
               and all(not up[j] & ~up[i] for j in _iter_bits(up[i]))
               for i in range(len(up)))


def test_validate_matches_the_transpose_on_broken_relations():
    rng = random.Random(11)
    outcomes = set()
    cycles = 0
    for n in range(1, 10):
        for _ in range(8):
            P = random_poset(rng, n, rng.choice((0.2, 0.4, 0.7)))
            up = list(P.up)
            strict = [(i, j) for i in range(n) for j in _iter_bits(up[i])
                      if i != j]
            if strict and rng.random() < 0.5:
                # close a cycle: reflexive and transitive, not antisymmetric
                i, j = rng.choice(strict)
                up[j] |= 1 << i
                up = transitive_closure(up)
                cycles += 1
            else:
                up[rng.randrange(n)] ^= 1 << rng.randrange(n)
            Q = Poset.from_masks(range(n), up)
            ok = is_order_by_transpose(up)
            outcomes.add(ok)
            if ok:
                Q._validate()
            else:
                with pytest.raises(PosetError):
                    Q._validate()
    assert outcomes == {True, False} and cycles

"""Builders for the group-labeled partition posets and their relatives.

Ground data: n positions and a finite group G.  Points are pairs (g, m)
encoded as the bit m*|G| + g.  An element of the big poset is a pair

    (i_mask, parts)

where i_mask marks the positions making up the absorbed zone J = G x I, and
parts is the sorted tuple of point bitmasks forming a partition of the
remaining points that is stable under left translation by G, with every
translate of a part either equal to it or disjoint (free).  Freeness forces
each part to pick exactly one group label per position it touches, so a part
is a position block plus a section, and its G-orbit has exactly |G| parts.

The order: (I, pi) <= (I', pi') iff I is contained in I' and every part of pi
either sits inside G x I' or inside a single part of pi'.  The relation and
the fixed points of a wreath element are computed as bitmasks over element
indices, by intersecting a few per-position and per-part masks.

Families select which elements are kept:

    q       everything
    r       only I = empty or I = all positions
    qsim    |I| != 1
    q1modd  all block sizes = 1 mod d, and |I| = 0 mod d or I full
    q0modd  the bottom, plus all elements whose block sizes are = 0 mod d
    pi      I = empty over the trivial group: the plain partition lattice

Element counts are cross-checked by an independent binomial recursion that
never materializes masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

from .groups import FiniteGroup
from .posets import Poset, _iter_bits, _mask_of
from .wreath import WreathElement, induced_point_perm

FAMILIES = ("q", "r", "qsim", "q1modd", "q0modd", "pi")

Payload = tuple[int, tuple[int, ...]]


class FamilyError(ValueError):
    pass


def _size_predicate(family: str, d: Optional[int]) -> Callable[[int], bool]:
    if family == "q1modd":
        return lambda s: s % d == 1
    if family == "q0modd":
        return lambda s: s % d == 0
    return lambda s: True


def _i_size_allowed(family: str, n: int, d: Optional[int], i_size: int) -> bool:
    if family == "r":
        return i_size in (0, n)
    if family == "qsim":
        return i_size != 1
    if family == "q1modd":
        return i_size % d == 0 or i_size == n
    if family == "pi":
        return i_size == 0
    return True


def _check_args(family: str, G: FiniteGroup, n: int, d: Optional[int]) -> int:
    if family not in FAMILIES:
        raise FamilyError("unknown family %r" % family)
    if n < 1:
        raise FamilyError("need n >= 1")
    if family in ("q1modd", "q0modd"):
        if d is None or d < 2:
            raise FamilyError("family %s needs d >= 2" % family)
        return d
    if family == "pi" and G.order != 1:
        raise FamilyError("the partition-lattice family needs the trivial group")
    return 0


def _orbit_parts(G: FiniteGroup, block: tuple[int, ...],
                 section: tuple[int, ...]) -> list[int]:
    o = G.order
    parts = []
    for a in range(o):
        mask = 0
        for m, s in zip(block, section):
            mask |= 1 << (m * o + G.mul(a, s))
        parts.append(mask)
    return parts


def _free_partitions(G: FiniteGroup, positions: tuple[int, ...],
                     size_ok: Callable[[int], bool],
                     memo: dict) -> list[tuple[int, ...]]:
    """All free partitions of G x positions with allowed block sizes, as
    sorted part tuples.

    The first position's block is chosen, then the rest is partitioned
    recursively; memo maps each position tuple already partitioned to its
    part tuples, so that every remaining set is enumerated once per memo.
    """
    if not positions:
        return [()]
    done = memo.get(positions)
    if done is not None:
        return done
    first, rest = positions[0], positions[1:]
    out: list[tuple[int, ...]] = []
    for k in range(len(rest) + 1):
        if not size_ok(k + 1):
            continue
        for others in itertools.combinations(rest, k):
            tails = _free_partitions(
                G, tuple(p for p in rest if p not in others), size_ok, memo)
            if not tails:
                continue
            block = (first,) + others
            for section in itertools.product(range(G.order), repeat=k):
                orbit = tuple(_orbit_parts(G, block, (G.identity,) + section))
                out.extend([tuple(sorted(orbit + tail)) for tail in tails])
    memo[positions] = out
    return out


def enumerate_family(family: str, G: FiniteGroup, n: int,
                     d: Optional[int] = None) -> list[Payload]:
    """All family elements, sorted canonically.

    The free partitions of each set of remaining positions are enumerated
    once per call and shared by every I that leaves that set.
    """
    d = _check_args(family, G, n, d) or d
    size_ok = _size_predicate(family, d)
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    out: list[Payload] = []
    if family == "q0modd":
        bottom = (0, tuple(sorted(
            part for m in range(n)
            for part in _orbit_parts(G, (m,), (G.identity,)))))
        out.append(bottom)
    for i_size in range(n + 1):
        if not _i_size_allowed(family, n, d, i_size):
            continue
        for I in itertools.combinations(range(n), i_size):
            i_mask = 0
            for m in I:
                i_mask |= 1 << m
            rest = tuple(m for m in range(n) if m not in I)
            for parts in _free_partitions(G, rest, size_ok, memo):
                out.append((i_mask, parts))
    return sorted(set(out))


def count_family(family: str, G: FiniteGroup, n: int,
                 d: Optional[int] = None) -> int:
    """Element count by binomial recursion; independent of enumerate_family."""
    d = _check_args(family, G, n, d) or d
    size_ok = _size_predicate(family, d)
    o = G.order
    memo = {0: 1}

    def free_count(m: int) -> int:
        if m in memo:
            return memo[m]
        total = 0
        for s in range(1, m + 1):
            if size_ok(s):
                total += comb(m - 1, s - 1) * o ** (s - 1) * free_count(m - s)
        memo[m] = total
        return total

    total = 0
    for i_size in range(n + 1):
        if not _i_size_allowed(family, n, d, i_size):
            continue
        total += comb(n, i_size) * free_count(n - i_size)
    if family == "q0modd":
        total += 1  # the bottom element is adjoined separately
    return total


def dowling_leq_factory(G: FiniteGroup, n: int) -> Callable[[Payload, Payload], bool]:
    o = G.order
    pos_mask = [((1 << o) - 1) << (m * o) for m in range(n)]

    def j_mask_of(i_mask: int) -> int:
        mask = 0
        for m in _iter_bits(i_mask):
            mask |= pos_mask[m]
        return mask

    def leq(x: Payload, y: Payload) -> bool:
        xi, xparts = x
        yi, yparts = y
        if xi & ~yi:
            return False
        yj = j_mask_of(yi)
        for K in xparts:
            outside = K & ~yj
            if not outside:
                continue
            lowest = outside & -outside
            target = 0
            for Ky in yparts:
                if Ky & lowest:
                    target = Ky
                    break
            if K & ~target:
                return False
        return True

    return leq


@dataclass
class FamilyPoset:
    family: str
    G: FiniteGroup
    n: int
    d: Optional[int]
    poset: Poset
    # part_masks[K]: the elements that have K as a part
    part_masks: dict = field(default_factory=dict)
    # _zone[m]: the elements with m in I.  _pairs[1 << p | 1 << q]: the
    # elements with p and q in one part, for every pair some part holds.
    # _pair_reps: (that mask, p, q) for one pair per G-orbit, the one whose
    # first point p carries the identity label
    _zone: list = field(init=False, repr=False, compare=False)
    _pairs: dict = field(init=False, repr=False, compare=False)
    _pair_reps: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # m is in I iff no part touches m.  Read one part K per G-orbit, the
        # one whose lowest point has the identity label: a pair in K lies,
        # translated, in every translate of K, so its mask is gathered under
        # the translate whose first point has the identity label
        G, o, e = self.G, self.G.order, self.G.identity
        touching = [0] * self.n
        gathered: dict[tuple[int, int], int] = {}
        for K, having in self.part_masks.items():
            if ((K & -K).bit_length() - 1) % o != e:
                continue
            points = tuple(_iter_bits(K))
            for i, p in enumerate(points):
                touching[p // o] |= having
                back = G.table[G.inverse[p % o]]
                for q in points[i + 1:]:
                    key = (p - p % o + e, q - q % o + back[q % o])
                    gathered[key] = gathered.get(key, 0) | having
        full = (1 << self.poset.n) - 1
        self._zone = [full & ~mask for mask in touching]
        self._pairs = {1 << (p - e + g) | 1 << (q - q % o + G.mul(g, q % o)):
                       having
                       for (p, q), having in gathered.items()
                       for g in range(o)}
        self._pair_reps = [(having, p, q)
                           for (p, q), having in gathered.items()]

    def fixed_mask(self, w: WreathElement) -> int:
        """The bitmask of the elements w fixes, without the permutation.

        w fixes x = (I, pi) iff it maps I onto I and keeps which pairs of
        points share a part: then w and its inverse keep the same pairs, so
        every part goes onto a part.  Points at one position never share a
        free part.  So x is fixed iff it is in no Z[m] ^ Z[sigma(m)] and no
        C[P] ^ C[wP], over the positions m and the pairs P at two positions.
        A pair no part holds needs no term: an x in some but not all C[P]
        along a cycle of pairs under w is caught where C[P] holds it.

        One pair per G-orbit suffices.  G acts on points by left
        translation and w by right multiplication of labels, so the two
        commute: w(gP) = g(wP).  Every element is G-stable, so C[gP] = C[P]
        and C[g(wP)] = C[wP], and the condition at gP is the condition at
        P.  That is at most n + C(n, 2) |G| mask operations per call.
        """
        if len(w.perm) != self.n:
            raise FamilyError("element acts on %d positions, poset has %d"
                              % (len(w.perm), self.n))
        zone, pairs = self._zone, self._pairs
        image_of = [1 << q for q in induced_point_perm(self.G, w)]
        bad = 0
        for m, image in enumerate(w.perm):
            bad |= zone[m] ^ zone[image]
        for having, p, q in self._pair_reps:
            bad |= having ^ pairs.get(image_of[p] | image_of[q], 0)
        full = (1 << self.poset.n) - 1
        return full & ~bad


def _element_masks(payloads: list[Payload], G: FiniteGroup,
                   n: int) -> tuple[list[int], dict[int, int]]:
    """Per-position masks Z[m] of the elements with m in I, and per-part
    masks H[K] of the elements that have K as a part.

    Every element is G-stable, so the parts of one G-orbit have the same
    mask: it is built once, for the part whose lowest point carries the
    identity label, and shared.  Within an element, the orbit of a part
    is the set of its parts with the same lowest position.
    """
    o, e = G.order, G.identity
    count = len(payloads)
    z_idx: list[list[int]] = [[] for _ in range(n)]
    h_idx: dict[int, list[int]] = {}
    rep_of: dict[int, int] = {}
    for y, (i_mask, parts) in enumerate(payloads):
        for m in _iter_bits(i_mask):
            z_idx[m].append(y)
        for K in parts:
            R = rep_of.get(K)
            if R is None:
                low = (K & -K).bit_length() - 1
                point = 1 << (low - low % o + e)
                R = rep_of[K] = next(part for part in parts if part & point)
            if R == K:
                h_idx.setdefault(K, []).append(y)
    rep_masks = {K: _mask_of(ix, count) for K, ix in h_idx.items()}
    return ([_mask_of(ix, count) for ix in z_idx],
            {K: rep_masks[R] for K, R in rep_of.items()})


def _build_up_masks(payloads: list[Payload], G: FiniteGroup, n: int,
                    element_masks=None) -> list[int]:
    """Relation masks by intersection: y is above x iff I_y holds I_x and
    every part K of x lies in G x I_y or inside one part of y, so

        up[x] = AND_{m in I_x} Z[m] & AND_{K in x} (Z(pos K) | P[K])

    where Z(S) is the intersection of Z[m] over m in S and P[K] the union
    of H[K'] over the parts K' containing K.  Every nonempty subset of a
    free part is a free part, so P is filled from the subsets of each part.
    """
    o = G.order
    Z, H = element_masks or _element_masks(payloads, G, n)
    full = (1 << len(payloads)) - 1
    covering = {0: full}   # position mask S -> Z(S)

    def over(S: int) -> int:
        mask = covering.get(S)
        if mask is None:
            low = S & -S
            mask = covering[S] = over(S ^ low) & Z[low.bit_length() - 1]
        return mask

    containing: dict[int, int] = {}   # K -> P[K]
    for big, having in H.items():
        K = big
        while K:
            if K in H:
                containing[K] = containing.get(K, 0) | having
            K = (K - 1) & big
    part_up = {}
    for K, mask in containing.items():
        positions = 0
        for pnt in _iter_bits(K):
            positions |= 1 << (pnt // o)
        part_up[K] = over(positions) | mask
    up = []
    for i_mask, parts in payloads:
        mask = over(i_mask)
        for K in parts:
            mask &= part_up[K]
        up.append(mask)
    return up


def build_family(family: str, G: FiniteGroup, n: int, d: Optional[int] = None,
                 validate: bool = False) -> FamilyPoset:
    """The family poset, its relation set by masks; with validate, the
    masks are checked against the pairwise order, itself checked to be a
    partial order."""
    payloads = enumerate_family(family, G, n, d)
    if len(payloads) != count_family(family, G, n, d):
        raise FamilyError("enumeration disagrees with the counting recursion")
    Z, H = _element_masks(payloads, G, n)
    poset = Poset.from_masks(payloads, _build_up_masks(payloads, G, n, (Z, H)))
    if validate:
        pairwise = Poset(payloads, dowling_leq_factory(G, n), validate=True)
        if pairwise.up != poset.up:
            raise FamilyError("relation masks disagree with the pairwise "
                              "order")
    return FamilyPoset(family, G, n, d, poset, H)


def family_rank_formula(fp: FamilyPoset, payload: Payload) -> int:
    """The closed-form rank of an element in its family poset."""
    i_mask, parts = payload
    o = fp.G.order
    n, d = fp.n, fp.d
    blocks = len(parts) // o
    if fp.family in ("q", "r", "qsim", "pi"):
        return n - blocks
    if fp.family == "q1modd":
        if i_mask == (1 << n) - 1:
            return -(-n // d)
        return (n - blocks) // d
    if fp.family == "q0modd":
        if i_mask == 0 and blocks == n:
            return 0
        return n // d + 1 - blocks
    raise FamilyError("no rank formula for %r" % fp.family)


def verify_rank_formulas(fp: FamilyPoset) -> None:
    """Check gradedness and the closed-form rank of every element."""
    if not fp.poset.is_graded():
        raise FamilyError("%s poset is not graded" % fp.family)
    ranks = fp.poset.ranks()
    for i, payload in enumerate(fp.poset.payloads):
        expected = family_rank_formula(fp, payload)
        if ranks[i] != expected:
            raise FamilyError("rank formula fails at element %d: %d vs %d"
                              % (i, ranks[i], expected))


def zero_mod_atom_key(payload: Payload, G: FiniteGroup, n: int):
    """Sort key for q0modd atoms: the concatenated position word, then the
    orbit partitions blockwise as tie-breaker."""
    i_mask, parts = payload
    blocks: dict[tuple[int, ...], list[int]] = {}
    o = G.order
    for K in parts:
        positions = tuple(sorted({pnt // o for pnt in _iter_bits(K)}))
        blocks.setdefault(positions, []).append(K)
    ordered = sorted(blocks.items(), key=lambda kv: kv[0][0])
    word = tuple(sorted(_iter_bits(i_mask)))
    for positions, _orbit in ordered:
        word += positions
    ties = tuple(tuple(sorted(orbit)) for _positions, orbit in ordered)
    return (word, ties)

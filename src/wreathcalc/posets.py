"""Finite posets as bitmask relation tables, with exact topological invariants.

A Poset stores, for each element index i, the bitmask up[i] of all j with
i <= j: its one copy of the order.  The lists of the elements below each j
are read off these masks on first use.  Everything downstream -- covers,
Moebius values, rank functions, order-complex homology, fixed subposets
under an automorphism -- works on these masks with integer arithmetic only,
so results are exact.  A subposet can also be given as a mask W over the
same indices: the fixed-point Moebius sweep, the chain counts of Hall's
check and the equivariant characteristic polynomial keep one value per
ambient element, zero outside W, and sum it along the ambient lists of
elements below, so the fixed subposet is never built.

Homology is reduced rational homology of the order complex (the simplicial
complex of chains), from the ranks of sparse integer boundary matrices
computed by fraction-free echelon reduction, including the augmentation, so
the empty poset correctly reports one dimension in degree -1.  Philip Hall's
chain-count check on Moebius values counts chains by size without listing
them, in one sweep that packs the counts of every size into one integer per
element, in fields wide enough that none carries into the next.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence


class PosetError(ValueError):
    pass


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _mask_of(indices: Iterable[int], size: int) -> int:
    """The bitmask of the given indices, all below size, set in a byte buffer."""
    buf = bytearray((size + 7) >> 3)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class Poset:
    """A finite poset over payload elements, compared once at construction."""

    __slots__ = ("payloads", "n", "up", "_below", "_ranks")

    def __init__(self, payloads: Sequence, leq: Callable, validate: bool = False):
        self.payloads = list(payloads)
        self.n = len(self.payloads)
        up = []
        for i, a in enumerate(self.payloads):
            mask = 0
            for j, b in enumerate(self.payloads):
                if leq(a, b):
                    mask |= 1 << j
            up.append(mask)
        self.up = up
        self._below: Optional[list[list[int]]] = None
        self._ranks: Optional[list[int]] = None
        if validate:
            self._validate()

    @classmethod
    def from_masks(cls, payloads: Sequence, up: list[int]) -> "Poset":
        """A poset from its up masks."""
        self = cls.__new__(cls)
        self.payloads = list(payloads)
        self.n = len(self.payloads)
        self.up = list(up)
        self._below = None
        self._ranks = None
        return self

    def below_lists(self) -> list[list[int]]:
        """For each j, the increasing list of the indices i < j; built once.

        The sweeps over a subposet sum values kept in a full-length list
        along these ambient lists, where elements outside it hold zero.
        """
        if self._below is None:
            below: list[list[int]] = [[] for _ in range(self.n)]
            for i, mask in enumerate(self.up):
                for j in _iter_bits(mask & ~(1 << i)):
                    below[j].append(i)
            self._below = below
        return self._below

    def _validate(self) -> None:
        for i in range(self.n):
            if not (self.up[i] >> i) & 1:
                raise PosetError("relation is not reflexive at %d" % i)
            for j in _iter_bits(self.up[i]):
                if j != i and (self.up[j] >> i) & 1:
                    raise PosetError(
                        "relation is not antisymmetric at %d, %d" % (i, j))
                if self.up[j] & ~self.up[i]:
                    raise PosetError(
                        "relation is not transitive through %d <= %d" % (i, j))

    # -- relation queries ------------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def strict_up(self, i: int) -> int:
        return self.up[i] & ~(1 << i)

    def strict_down(self, i: int) -> int:
        return _mask_of(self.below_lists()[i], self.n)

    def bottom(self, within: Optional[int] = None) -> Optional[int]:
        """The least element, of the subposet on the mask within if given:
        the element of within whose up mask holds all of within.

        Candidates are tried from the lowest index up."""
        W = (1 << self.n) - 1 if within is None else within
        for i in _iter_bits(W):
            if self.up[i] & W == W:
                return i
        return None

    def top(self, within: Optional[int] = None) -> Optional[int]:
        """The greatest element, of the subposet on the mask within if given.

        The elements of within above all of within are the AND of their up
        masks; by antisymmetry that is the top alone or nothing."""
        W = (1 << self.n) - 1 if within is None else within
        common = W
        for i in _iter_bits(W):
            common &= self.up[i]
        return common.bit_length() - 1 if common else None

    def covers_of(self, i: int) -> list[int]:
        """Elements covering i: those above i and above nothing above i."""
        above = self.strict_up(i)
        beyond = 0
        for j in _iter_bits(above):
            beyond |= self.strict_up(j)
        return list(_iter_bits(above & ~beyond))

    def cover_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in self.covers_of(i)]

    # -- subposets ---------------------------------------------------------------

    def subposet(self, indices: Sequence[int]) -> "Poset":
        """Restriction to the given indices (payloads carried over)."""
        idx = list(indices)
        keep = _mask_of(idx, self.n)
        pos = [0] * self.n
        for k, orig in enumerate(idx):
            pos[orig] = k
        return Poset.from_masks(
            [self.payloads[i] for i in idx],
            [_mask_of([pos[j] for j in _iter_bits(self.up[orig] & keep)],
                      len(idx)) for orig in idx])

    def proper_part_indices(self) -> list[int]:
        b, t = self.bottom(), self.top()
        if b is None or t is None:
            raise PosetError("proper part needs a bottom and a top")
        return [i for i in range(self.n) if i != b and i != t]

    def proper_part(self) -> "Poset":
        return self.subposet(self.proper_part_indices())

    def open_interval(self, i: int, j: int) -> "Poset":
        mask = self.strict_up(i) & self.strict_down(j)
        return self.subposet(list(_iter_bits(mask)))

    # -- Moebius function -----------------------------------------------------------

    def mobius_from(self, i: int, within: Optional[int] = None) -> dict[int, int]:
        """mu(i, j) for every j >= i, by one sweep in a linear extension.

        With a mask within (holding i), the values are those of the subposet
        on within.
        """
        above = self.up[i] if within is None else self.up[i] & within
        if not (above >> i) & 1:
            raise PosetError("the subposet does not hold element %d" % i)
        below = self.below_lists()
        order = sorted(_iter_bits(above), key=self.ranks().__getitem__)
        values = [0] * self.n   # zero outside above and until swept
        values[i] = 1
        get = values.__getitem__
        for j in order[1:]:
            values[j] = -sum(map(get, below[j]))
        return {j: values[j] for j in order}

    def mobius(self, i: int, j: int) -> int:
        if not self.leq(i, j):
            return 0
        return self.mobius_from(i)[j]

    def mobius_bottom_top(self) -> int:
        b, t = self.bottom(), self.top()
        if b is None or t is None:
            raise PosetError("needs a bottom and a top")
        return self.mobius(b, t)

    # -- rank ----------------------------------------------------------------------

    def ranks(self) -> list[int]:
        """Longest-chain-from-minimal rank of each element."""
        if self._ranks is not None:
            return self._ranks
        below = self.below_lists()
        r = [0] * self.n
        get = r.__getitem__
        for j in sorted(range(self.n), key=lambda j: len(below[j])):
            r[j] = max(map(get, below[j]), default=-1) + 1
        self._ranks = r
        return r

    def is_graded(self) -> bool:
        """Every cover step raises the longest-chain rank by exactly one."""
        r = self.ranks()
        return all(r[j] == r[i] + 1 for i, j in self.cover_pairs())

    def length(self) -> int:
        return max(self.ranks(), default=0)

    # -- chains ----------------------------------------------------------------------

    def chains(self) -> dict[int, list[tuple[int, ...]]]:
        """All nonempty chains, grouped by size.

        Only order-complex homology lists chains, because it needs the
        simplices; Hall's formula uses chain_counts instead.
        """
        by_size: dict[int, list[tuple[int, ...]]] = {}

        def extend(chain: tuple[int, ...], top_elt: int) -> None:
            by_size.setdefault(len(chain), []).append(chain)
            for j in _iter_bits(self.strict_up(top_elt)):
                extend(chain + (j,), j)

        for i in range(self.n):
            extend((i,), i)
        return by_size


def chain_counts(P: Poset, within: Optional[int] = None) -> dict[int, int]:
    """Number of nonempty chains of P (or of its subposet on the mask
    within) by size, without listing them.

    One sweep in a linear extension keeps one packed integer per element,
    c(j) = (1 + sum of c(i) over i < j) << B, whose field k (bits kB to
    kB + B - 1) is the number of chains of size k with top element j; the
    same field of the sum of c(j) over all j counts the chains of size k.
    With m elements and chains of at most h = max rank + 1 of them, no
    field exceeds C(m, k) <= m^k < 2^B for B = h bit_length(m) + 1, so no
    field carries into the next and every count is exact.
    """
    W = (1 << P.n) - 1 if within is None else within
    ranks = P.ranks()
    elems = sorted(_iter_bits(W), key=ranks.__getitem__)
    if not elems:
        return {}
    width = (ranks[elems[-1]] + 1) * len(elems).bit_length() + 1
    below = P.below_lists()
    packed = [0] * P.n   # zero outside within
    get = packed.__getitem__
    total = 0
    for j in elems:
        c = packed[j] = (1 + sum(map(get, below[j]))) << width
        total += c
    field_mask = (1 << width) - 1
    counts: dict[int, int] = {}
    size = 1
    total >>= width
    while total:
        counts[size] = total & field_mask
        total >>= width
        size += 1
    return counts


def _sparse_rank(rows: list[dict[int, int]]) -> int:
    """Exact rank over Q of a sparse integer matrix, without fractions.

    Each row is reduced against the pivot rows found so far, which are kept
    by their leading (largest) column: with pivot entry p and row entry v,
    r <- r - (v p) row when p = +-1, else r <- p r - v row.  A row that
    survives becomes a pivot row, divided by the gcd of its entries.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = dict(row)
        while r:
            col = max(r)
            prow = pivots.get(col)
            if prow is None:
                g = gcd(*r.values())
                pivots[col] = {c: v // g for c, v in r.items()} if g != 1 else r
                break
            v, p = r[col], prow[col]
            if p == 1 or p == -1:
                f = v * p
            else:
                f = v
                r = {c: p * x for c, x in r.items()}
            for c, x in prow.items():
                nv = r.get(c, 0) - f * x
                if nv:
                    r[c] = nv
                else:
                    del r[c]
    return len(pivots)


def order_complex_homology(P: Poset) -> dict[int, int]:
    """Reduced rational Betti numbers of the order complex of P (all of P).

    Callers pass the open interval or proper part themselves.  The empty
    poset has one reduced class in degree -1.
    """
    chains = P.chains()
    max_size = max(chains, default=0)
    # dimension k chains have k+1 elements; include the empty chain at k = -1
    dims = {-1: [()]}
    for size, chs in chains.items():
        dims[size - 1] = chs
    index_of = {k: {c: i for i, c in enumerate(cs)} for k, cs in dims.items()}
    boundary_rank: dict[int, int] = {}
    for k in range(0, max_size):
        rows = []
        lower = index_of.get(k - 1, {})
        for chain in dims.get(k, []):
            row: dict[int, int] = {}
            for drop in range(len(chain)):
                face = chain[:drop] + chain[drop + 1:]
                row[lower[face]] = -1 if drop & 1 else 1
            rows.append(row)
        boundary_rank[k] = _sparse_rank(rows)
    betti = {}
    for k in range(-1, max_size):
        dim_k = len(dims.get(k, []))
        b = dim_k - boundary_rank.get(k, 0) - boundary_rank.get(k + 1, 0)
        betti[k] = b
    return betti


def mobius_via_chains(P: Poset, within: Optional[int] = None) -> int:
    """mu(bottom, top) as the signed count of chains of the proper part
    (of the subposet on the mask within, if given).

    Philip Hall's formula, used as an implementation-independent check on
    the Moebius recursion: the chains are counted unsigned and by size
    (chain_counts), and only the final sum carries signs.
    """
    b, t = P.bottom(within), P.top(within)
    if b is None or t is None:
        raise PosetError("proper part needs a bottom and a top")
    W = (1 << P.n) - 1 if within is None else within
    return _hall_mobius(P, W, b, t)


def _hall_mobius(P: Poset, W: int, b: int, t: int) -> int:
    """Hall's signed chain count for mu(b, t) on the subposet on the mask W,
    whose bottom b and top t the caller has found."""
    if b == t:
        return 1
    total = -1  # the empty chain
    for size, count in chain_counts(P, W & ~(1 << b) & ~(1 << t)).items():
        total -= (-1) ** size * count
    return total


def fixed_mask(perm: Sequence[int]) -> int:
    """The bitmask of the indices an index permutation fixes."""
    return _mask_of([i for i, j in enumerate(perm) if i == j], len(perm))


def _fixed(perm) -> int:
    """A fixed-element mask, given either as one or as the permutation."""
    return perm if isinstance(perm, int) else fixed_mask(perm)


def fixed_subposet(P: Poset, perm: Sequence[int]) -> tuple[Poset, list[int]]:
    """Subposet of elements fixed by the automorphism, with their original indices."""
    fixed = [i for i in range(P.n) if perm[i] == i]
    return P.subposet(fixed), fixed


def fixed_point_mobius(P: Poset, perm) -> tuple[int, int]:
    """mu(0, 1) of the fixed subposet by the Moebius recursion and by Hall's
    chain count, both on the ambient masks restricted to the fixed elements.

    perm is the automorphism as an index permutation, or the bitmask of the
    elements it fixes.
    """
    W = _fixed(perm)
    b, t = P.bottom(W), P.top(W)
    if b is None or t is None:
        raise PosetError("needs a bottom and a top")
    return P.mobius_from(b, W)[t], _hall_mobius(P, W, b, t)


def is_automorphism(P: Poset, perm: Sequence[int]) -> bool:
    if sorted(perm) != list(range(P.n)):
        return False
    for i in range(P.n):
        mapped = 0
        for j in _iter_bits(P.up[i]):
            mapped |= 1 << perm[j]
        if mapped != P.up[perm[i]]:
            return False
    return True


def lefschetz_top_trace(P: Poset, perm) -> int:
    """(-1)^length(P) * mu(0,1) of the fixed subposet: the trace of the
    automorphism on the top reduced homology of the proper part when P is
    Cohen-Macaulay.  Checked against the signed fixed-chain count.

    perm is an index permutation or the bitmask of the elements it fixes.
    """
    via_mobius, via_chains = fixed_point_mobius(P, perm)
    if via_mobius != via_chains:
        raise PosetError("Moebius recursion and chain count disagree")
    sign = (-1) ** P.length()
    return sign * via_mobius


def equivariant_char_poly(P: Poset, perm) -> dict[int, int]:
    """Coefficients {ambient rank r: sum of mu_fixed(0, x) over fixed x of rank r}.

    Moebius values are taken in the fixed subposet, ranks in the ambient
    poset.  perm is an index permutation or the bitmask of the elements it
    fixes.
    """
    W = _fixed(perm)
    b = P.bottom(W)
    if b is None:
        raise PosetError("fixed subposet lost the bottom element")
    ambient_rank = P.ranks()
    out: dict[int, int] = {}
    for j, value in P.mobius_from(b, W).items():
        r = ambient_rank[j]
        out[r] = out.get(r, 0) + value
    return {r: v for r, v in out.items() if v != 0}


def atom_order_condition(P: Poset, atom_order: Sequence[int]) -> bool:
    """Shellability-style condition on an ordering of the atoms.

    For every pair of atoms a_i, a_j (i < j in the given order) below a common
    element y, there must be some z <= y covering a_j that also covers an
    earlier atom a_k, k < j.
    """
    b = P.bottom()
    if b is None:
        raise PosetError("atom condition needs a bottom element")
    atoms = set(P.covers_of(b))
    if set(atom_order) != atoms:
        raise PosetError("atom_order must list exactly the atoms")
    pos = {a: k for k, a in enumerate(atom_order)}
    covers_mask = {a: 0 for a in atom_order}
    earlier_covered: dict[int, int] = {}  # z -> bitmask of atom positions covered
    for a in atom_order:
        for z in P.covers_of(a):
            covers_mask[a] |= 1 << z
            earlier_covered[z] = earlier_covered.get(z, 0) | (1 << pos[a])
    for j, aj in enumerate(atom_order):
        before = (1 << j) - 1
        for i in range(j):
            ai = atom_order[i]
            common = P.up[ai] & P.up[aj]
            for y in _iter_bits(common):
                ok = False
                for z in _iter_bits(covers_mask[aj]):
                    if (P.up[z] >> y) & 1 \
                            and earlier_covered.get(z, 0) & before:
                        ok = True
                        break
                if not ok:
                    return False
    return True


def poset_dump_lines(P: Poset, payload_str: Callable = str) -> list[str]:
    """Deterministic text dump: element lines then cover-pair lines."""
    lines = ["elements %d" % P.n]
    for i in range(P.n):
        lines.append("%d %s" % (i, payload_str(P.payloads[i])))
    pairs = P.cover_pairs()
    lines.append("covers %d" % len(pairs))
    for i, j in sorted(pairs):
        lines.append("%d %d" % (i, j))
    return lines

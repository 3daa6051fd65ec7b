"""Shared independent oracle builders for the test suite.

These constructions deliberately avoid the package's own Dowling-family
code paths so they can serve as cross-checks.  The series oracles are the
straightforward algorithms the series core used before its fast paths:
plethysm term by term through the public ring operations, and exp, log,
powers and inverses by repeated full products.  The poset oracles are the
ones the poset layer used before it stopped listing chains: Hall's sum over
the listed chains, chain counts one size at a time, and rank by elimination
over Fraction entries.  The centralizer order z_tau is the product of
Fraction factors it was computed as before it stayed in integers.  The
Dowling oracles are the ones it used before it
worked on masks: relation masks by a pairwise test of payloads level by
level, the poset permutation of a wreath element by transforming payloads
(action_of), fixed elements read off that permutation, and fixed-point
traces and characteristic polynomials on the materialized fixed subposet.
The free partitions of the remaining positions are enumerated by plain
recursion, as before they were memoized, and the set bits of a mask are
read one position at a time.
The closed-form oracles are the mod-d closed sides as written before they
applied the group exponential E = exp_series(G) only through exp_compose:
generic plethysm of mod_filter(E, j, d) / mod_filter(E, 0, d), of
sech_series and of the dense E itself.
"""

import itertools
from fractions import Fraction
from math import factorial, gcd, lcm

from wreathcalc.dowling import FamilyError, _orbit_parts
from wreathcalc.groups import class_power, cyclic_group, group_from_table
from wreathcalc.plethysm import (arcsinh_series, compose, plethystic_inverse,
                                 sech_series)
from wreathcalc.posets import Poset, PosetError, _iter_bits
from wreathcalc.series import (GradedSeries, ONE_MONO, SeriesError, const,
                               exp_series, mod_filter, mono_degree, one,
                               zero)
from wreathcalc.wreath import induced_point_perm


def chain_poset(n):
    return Poset(list(range(n)), lambda a, b: a <= b)


def antichain(n):
    return Poset(list(range(n)), lambda a, b: a == b)


def boolean_lattice(n):
    subsets = [frozenset(s) for k in range(n + 1)
               for s in itertools.combinations(range(n), k)]
    return Poset(subsets, lambda a, b: a <= b)


def partition_lattice(n):
    """Set partitions of {0..n-1} under refinement, built recursively."""
    def parts(elems):
        elems = list(elems)
        if not elems:
            yield []
            return
        first, rest = elems[0], elems[1:]
        for sub in parts(rest):
            for k in range(len(sub)):
                yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]
            yield [[first]] + sub
    payloads = [frozenset(frozenset(b) for b in p) for p in parts(range(n))]
    def refines(a, b):
        return all(any(block <= big for big in b) for block in a)
    return Poset(payloads, refines, validate=True)


def random_poset(rng, n, density=0.4):
    """A random poset on n elements: the transitive closure of random edges
    i < j, relabeled by a random permutation."""
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= up[j]
    label = list(range(n))
    rng.shuffle(label)
    relabeled = [0] * n
    for i, mask in enumerate(up):
        relabeled[label[i]] = sum(1 << label[j] for j in range(n)
                                  if (mask >> j) & 1)
    return Poset.from_masks(list(range(n)), relabeled)


def bounded(P):
    """P with a new bottom and a new top adjoined."""
    n = P.n
    top = 1 << (n + 1)
    up = [(1 << (n + 2)) - 1] + [(m << 1) | top for m in P.up] + [top]
    return Poset.from_masks(["0"] + list(P.payloads) + ["1"], up)


def bell_number(n):
    """Bell numbers by the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# -- series oracles -----------------------------------------------------------


def xpow(n):
    """The monomial x^n of a one-variable series, x = p_1 over the trivial group."""
    return (((1, 0), n),) if n else ONE_MONO


def mono_mul(a, b):
    """The product of two monomials as sorted ((i, c), exponent) tuples."""
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def oracle_mul(a, b):
    """a * b one pair of terms at a time, each pair a Fraction multiply-add.

    This is the product the series core used before its integer-slice
    kernel.  Routed in as GradedSeries.mul, it makes the other series
    oracles independent of that kernel.
    """
    den = lcm(a.t_den, b.t_den)
    a, b = a.with_t_den(den), b.with_t_den(den)
    n = min(a.trunc, b.trunc)
    acc = {}
    for (ma, ta), ca in a.terms.items():
        for (mb, tb), cb in b.terms.items():
            mono = mono_mul(ma, mb)
            if mono_degree(mono) <= n:
                k = (mono, ta + tb)
                acc[k] = acc.get(k, Fraction(0)) + ca * cb
    return GradedSeries(a.group, n, den, acc)


def oracle_compose(f, g):
    """Plethysm f o g, one term of f at a time, through public ring operations."""
    left_mode = f.group.order == 1
    if not (left_mode or g.group.order == 1):
        raise SeriesError("plethysm needs the trivial group on one side")
    if not g.homogeneous_part(0).is_zero():
        raise SeriesError("plethysm argument must have no degree-0 part")
    out_group = g.group if left_mode else f.group
    N = min(f.trunc, g.trunc)
    t_den = f.t_den * g.t_den

    def image(i, c):
        terms = {}
        for (mono, t_num), coeff in g.terms.items():
            if i * mono_degree(mono) > N:
                continue
            if left_mode:
                new_mono = tuple(sorted(((i * j, cid), e)
                                        for (j, cid), e in mono))
            else:
                new_mono = tuple(sorted(
                    ((i * j, class_power(f.group, c, j)), e)
                    for (j, _z), e in mono))
            key = (new_mono, i * t_num)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return GradedSeries(out_group, N, g.t_den, terms)

    acc = zero(out_group, N, t_den)
    for (mono, t_num), coeff in f.terms.items():
        piece = one(out_group, N, f.t_den).scale(coeff).scale_t(t_num,
                                                                f.t_den)
        for (i, c), e in mono:
            for _ in range(e):
                piece = piece.mul(image(i, c))
        acc = acc.add(piece)
    return acc


def oracle_exp(f):
    """exp(f) as the sum of f^k / k!, for constant-free f."""
    acc = term = one(f.group, f.trunc, f.t_den)
    for k in range(1, f.trunc + 1):
        term = term.mul(f).scale(Fraction(1, k))
        acc = acc.add(term)
    return acc


def oracle_log1p(f):
    """log(1 + f) as the sum of (-1)^(k-1) f^k / k, for constant-free f."""
    acc = zero(f.group, f.trunc, f.t_den)
    power = one(f.group, f.trunc, f.t_den)
    for k in range(1, f.trunc + 1):
        power = power.mul(f)
        acc = acc.add(power.scale(Fraction((-1) ** (k - 1), k)))
    return acc


def oracle_pow1p(f, alpha):
    """(1 + f)^alpha by the generalized binomial series, for constant-free f."""
    alpha = Fraction(alpha)
    acc = term = one(f.group, f.trunc, f.t_den)
    for k in range(1, f.trunc + 1):
        term = term.mul(f).scale((alpha - (k - 1)) / k)
        acc = acc.add(term)
    return acc


def oracle_invert(f):
    """1/f degree by degree: g_m = -(1/c0) sum_{k>=1} f_k g_{m-k}."""
    c0 = f.coefficient(ONE_MONO)
    n = f.trunc
    slices = [f.homogeneous_part(k) for k in range(n + 1)]
    parts = [const(f.group, n, 1 / c0, f.t_den)]
    for m in range(1, n + 1):
        s = zero(f.group, n, f.t_den)
        for k in range(1, m + 1):
            s = s.add(slices[k].mul(parts[m - k]))
        parts.append(s.scale(-1 / c0))
    acc = zero(f.group, n, f.t_den)
    for part in parts:
        acc = acc.add(part)
    return acc


def _oracle_mod_inverse(N, d):
    return plethystic_inverse(mod_filter(exp_series(cyclic_group(1), N), 1, d))


def oracle_one_mod_d(G, N, d):
    """(1 - E_rest) / E_0 composed with the inverse of the trivial E_1."""
    E = exp_series(G, N)
    e_zero = mod_filter(E, 0, d)
    e_rest = mod_filter(E, 0, d, "not-equal")
    outer = (one(G, N) - e_rest) * e_zero.invert()
    return compose(outer, _oracle_mod_inverse(N, d))


def oracle_whitney_1modd(G, N, d):
    """Each E_j / E_0 composed with B = t^(1/d) A_d on its own, plus the tail."""
    E = exp_series(G, N)
    B = _oracle_mod_inverse(N, d).attach_t(1, d)
    e_zero = mod_filter(E, 0, d)
    head = zero(G, N)
    for j in range(1, d):
        piece = compose(mod_filter(E, j, d) * e_zero.invert(), B)
        head = head - piece.scale_t(d - j, d)
    tail = compose(e_zero, B).invert() * compose(E, B.scale_t(-1, d))
    return head + tail


def oracle_bn_closed(G, N):
    """sech_series composed with B = t^(1/2) arcsinh, times E o (B / t^(1/2))."""
    B = arcsinh_series(cyclic_group(1), N).attach_t(1, 2)
    return (compose(sech_series(G, N), B)
            * compose(exp_series(G, N), B.scale_t(-1, 2)))


def assert_clean(s):
    """The term-dict invariants every series must keep (and _trusted assumes)."""
    assert isinstance(s, GradedSeries)
    for (mono, t_num), c in s.terms.items():
        assert type(c) is Fraction, (mono, t_num, c)
        assert c != 0, (mono, t_num)
        assert c.denominator > 0, (mono, t_num, c)
        assert gcd(c.numerator, c.denominator) == 1, (mono, t_num, c)
        assert mono_degree(mono) <= s.trunc, (mono, s.trunc)
        assert list(mono) == sorted(mono), mono
        assert len({v for v, _e in mono}) == len(mono), mono
        assert all(e >= 1 for _v, e in mono), mono
        assert type(t_num) is int, t_num


# -- poset oracles ------------------------------------------------------------


def oracle_hall_mobius(P):
    """mu(bottom, top) by Hall's formula over the listed chains of the proper part."""
    if P.bottom() is not None and P.bottom() == P.top():
        return 1
    total = -1  # the empty chain
    for size, chs in P.proper_part().chains().items():
        total += (-1) ** size * len(chs) * (-1)
    return total


def oracle_chain_counts(P, within=None):
    """Chains of P (or of its subposet on the mask within) by size, one size
    at a time: c_1(j) = 1, and c_k(j) is the sum of c_{k-1}(i) over i < j."""
    elems = range(P.n) if within is None else list(_iter_bits(within))
    below = P.below_lists()
    counts = {}
    level = [0] * P.n   # zero outside within
    for j in elems:
        level[j] = 1
    size = 1
    while any(level):
        counts[size] = sum(level)
        get = level.__getitem__
        nxt = [0] * P.n
        for j in elems:
            nxt[j] = sum(map(get, below[j]))
        level = nxt
        size += 1
    return counts


def oracle_bits(mask):
    """The set bits of a mask, increasing, testing one position at a time."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def oracle_below_lists(P):
    """For each j, the indices i < j, by testing every pair of indices."""
    return [[i for i in range(P.n) if i != j and P.up[i] >> j & 1]
            for j in range(P.n)]


def oracle_sparse_rank(rows):
    """Rank of a sparse matrix by elimination over Fraction, smallest rows first."""
    live = [{c: Fraction(v) for c, v in r.items()} for r in rows if r]
    rank = 0
    while live:
        k = min(range(len(live)), key=lambda idx: len(live[idx]))
        row = live.pop(k)
        col = min(row, key=lambda c: (abs(row[c].numerator)
                                      + abs(row[c].denominator), c))
        pivot = row[col]
        rank += 1
        nxt = []
        for r in live:
            v = r.get(col)
            if v is not None:
                factor = v / pivot
                for c, rv in row.items():
                    nv = r.get(c, Fraction(0)) - factor * rv
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
            if r:
                nxt.append(r)
        live = nxt
    return rank


# -- wreath oracles --------------------------------------------------------------


def oracle_centralizer_order(G, tau):
    """z_tau as a product of Fraction factors ((|G|/|c|) i)^a * a!."""
    z = Fraction(1)
    for (i, c), a in tau:
        z *= Fraction(G.order * i, G.classes[c].size) ** a * factorial(a)
    if z.denominator != 1:
        raise ValueError("centralizer order came out non-integral")
    return int(z)


# -- Dowling oracles -------------------------------------------------------------


def _group_by_rule(elements, mul, names):
    index = {x: i for i, x in enumerate(elements)}
    return group_from_table([[index[mul(x, y)] for y in elements]
                             for x in elements], names)


def dihedral_8():
    """D4 = <r, s>, r^a s^b stored as (a, b) and listed so that the classes
    are {1}, {s, r^2 s}, {rs, r^3 s}, {r, r^3} and {r^2}."""
    elements = [(0, 0), (0, 1), (1, 1), (1, 0), (2, 1), (3, 1), (3, 0), (2, 0)]

    def mul(x, y):
        return ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2)

    return _group_by_rule(elements, mul,
                          ["1", "s", "rs", "r", "r2s", "r3s", "r3", "r2"])


def quaternion_8():
    """Q8, sign * unit stored as (sign, unit) with units 0..3 = 1, i, j, k,
    listed so that the classes are {1}, {+-i}, {+-j}, {+-k} and {-1}."""
    elements = [(1, 0), (1, 1), (1, 2), (1, 3), (-1, 1), (-1, 2), (-1, 3),
                (-1, 0)]

    def mul(x, y):
        (a, u), (b, v) = x, y
        if u == 0 or v == 0:
            return (a * b, u + v)
        if u == v:
            return (-a * b, 0)
        # ij = k, jk = i, ki = j, and the reversed products negate
        return (a * b * (1 if (v - u) % 3 == 1 else -1), 6 - u - v)

    return _group_by_rule(elements, mul,
                          ["1", "i", "j", "k", "-i", "-j", "-k", "-1"])


def relabeled(G, perm):
    """The same group with element a renamed perm[a]."""
    m = G.order
    table = [[0] * m for _ in range(m)]
    names = [""] * m
    for a in range(m):
        names[perm[a]] = G.names[a]
        for b in range(m):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return group_from_table(table, names)


def action_of(fp, w):
    """The poset permutation a wreath element induces on a family poset.

    Payloads share parts and i_masks, so each distinct mask is transformed
    once per call; the payload index is built per call too.
    """
    if len(w.perm) != fp.n:
        raise FamilyError("element acts on %d positions, poset has %d"
                          % (len(w.perm), fp.n))
    point_perm = induced_point_perm(fp.G, w)
    index_of = {x: i for i, x in enumerate(fp.poset.payloads)}
    i_images = {}
    part_images = {}
    out = []
    for i_mask, parts in fp.poset.payloads:
        new_i = i_images.get(i_mask)
        if new_i is None:
            new_i = i_images[i_mask] = mask_image(i_mask, w.perm)
        new_parts = []
        for K in parts:
            img = part_images.get(K)
            if img is None:
                img = part_images[K] = mask_image(K, point_perm)
            new_parts.append(img)
        new_parts.sort()
        out.append(index_of[(new_i, tuple(new_parts))])
    return out


def mask_image(mask, perm):
    """The image of a bitmask under an index permutation."""
    image = 0
    for b in _iter_bits(mask):
        image |= 1 << perm[b]
    return image


def transform_payload(payload, perm, point_perm):
    """The image of an (i_mask, parts) payload, one mask at a time."""
    i_mask, parts = payload
    return (mask_image(i_mask, perm),
            tuple(sorted(mask_image(K, point_perm) for K in parts)))


def oracle_free_partitions(G, positions, size_ok):
    """All free partitions of G x positions with allowed block sizes, as
    part lists, by plain recursion on the block of the first position:
    every remaining position set is enumerated again wherever it recurs."""
    if not positions:
        yield []
        return
    first, rest = positions[0], positions[1:]
    for k in range(len(rest) + 1):
        if not size_ok(k + 1):
            continue
        for others in itertools.combinations(rest, k):
            block = (first,) + others
            remaining = tuple(p for p in rest if p not in others)
            for section in itertools.product(range(G.order), repeat=k):
                orbit = _orbit_parts(G, block, (G.identity,) + section)
                for tail in oracle_free_partitions(G, remaining, size_ok):
                    yield orbit + tail


def oracle_up_masks(payloads, G, n):
    """Relation masks by a pairwise test, level by level: x <= y forces the
    ambient rank n - #blocks to grow and I to be contained."""
    o = G.order
    npoints = n * o
    count = len(payloads)
    pos_mask = [((1 << o) - 1) << (m * o) for m in range(n)]
    j_mask = []
    part_at = []
    rank = []
    for i_mask, parts in payloads:
        jm = 0
        for m in _iter_bits(i_mask):
            jm |= pos_mask[m]
        j_mask.append(jm)
        pa = [0] * npoints
        for K in parts:
            for pnt in _iter_bits(K):
                pa[pnt] = K
        part_at.append(pa)
        rank.append(n - len(parts) // o)
    levels = {}
    for idx, r in enumerate(rank):
        levels.setdefault(r, []).append(idx)
    up = [1 << i for i in range(count)]
    for x in range(count):
        xi, xparts = payloads[x]
        for ry in range(rank[x] + 1, n + 1):
            for y in levels.get(ry, ()):
                if xi & ~payloads[y][0]:
                    continue
                jy = j_mask[y]
                pay = part_at[y]
                ok = True
                for K in xparts:
                    out = K & ~jy
                    if not out:
                        continue
                    tgt = pay[(out & -out).bit_length() - 1]
                    if K & ~tgt:
                        ok = False
                        break
                if ok:
                    up[x] |= 1 << y
    return up


def oracle_subposet(P, indices):
    """Restriction by a dict lookup per bit, with down transposed again."""
    idx = list(indices)
    pos = {orig: k for k, orig in enumerate(idx)}
    up = []
    for orig in idx:
        mask = 0
        for j in _iter_bits(P.up[orig]):
            if j in pos:
                mask |= 1 << pos[j]
        up.append(mask)
    down = [0] * len(idx)
    for i, mask in enumerate(up):
        for j in _iter_bits(mask):
            down[j] |= 1 << i
    return up, down


def oracle_fixed_mask(perm):
    """The fixed elements of an index permutation, one bit at a time."""
    mask = 0
    for i, j in enumerate(perm):
        if i == j:
            mask |= 1 << i
    return mask


def down_masks(P):
    """The down masks of P as its strict_down reads them, to compare with
    the transpose of oracle_subposet."""
    return [P.strict_down(j) | 1 << j for j in range(P.n)]


def _oracle_fixed_subposet(P, perm):
    fixed = [i for i in range(P.n) if perm[i] == i]
    up, _down = oracle_subposet(P, fixed)
    return Poset.from_masks([P.payloads[i] for i in fixed], up), fixed


def oracle_top_trace(P, perm):
    """(-1)^length * mu(0, 1) of the materialized fixed subposet, with Hall's
    sum over its listed chains as the second route."""
    sub, _fixed = _oracle_fixed_subposet(P, perm)
    via_mobius = sub.mobius_bottom_top()
    if via_mobius != oracle_hall_mobius(sub):
        raise PosetError("Moebius recursion and chain count disagree")
    return (-1) ** P.length() * via_mobius


def oracle_char_poly(P, perm):
    """Rank-indexed Moebius sums over the materialized fixed subposet."""
    sub, fixed = _oracle_fixed_subposet(P, perm)
    b = sub.bottom()
    if b is None:
        raise PosetError("fixed subposet lost the bottom element")
    ranks = P.ranks()
    out = {}
    for local, value in sub.mobius_from(b).items():
        r = ranks[fixed[local]]
        out[r] = out.get(r, 0) + value
    return {r: v for r, v in out.items() if v != 0}

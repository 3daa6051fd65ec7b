"""Wreath-product elements, their cycle types, and Frobenius characteristics.

An element of G wr S_n is stored as (perm, labels): a permutation sigma of
{0..n-1} and a tuple of n group elements, acting on pairs (h, m) in G x [n] by

    w . (h, m) = (h * labels[m], sigma(m)).

With that convention the product w1 * w2 (first apply w2) has permutation
sigma1 o sigma2 and labels c_m = a_m * b_{sigma2(m)}, writing w1 = (sigma1; b)
and w2 = (sigma2; a).  The type of an element records, for each cycle of
sigma, the cycle length together with the conjugacy class of the cycle
product labels[m] * labels[sigma(m)] * ... around the cycle; types classify
conjugacy in G wr S_n.

A type is stored in exactly the monomial format of series.py: a sorted tuple
of ((length, class_id), multiplicity).  The Frobenius characteristic of a
class function phi on types is then sum over types of phi(tau)/z_tau times
the monomial tau, an element of the graded series ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator

from .groups import FiniteGroup
from .series import GradedSeries, Mono

WreathType = Mono  # sorted ((cycle length, class id), multiplicity)


@dataclass(frozen=True)
class WreathElement:
    perm: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.labels) != n:
            raise ValueError("need a permutation of 0..n-1 and n labels")


def wreath_identity(G: FiniteGroup, n: int) -> WreathElement:
    return WreathElement(tuple(range(n)), (G.identity,) * n)


def wreath_product(G: FiniteGroup, w1: WreathElement, w2: WreathElement) -> WreathElement:
    """w1 * w2, the element acting as w2 first."""
    n = len(w1.perm)
    perm = tuple(w1.perm[w2.perm[m]] for m in range(n))
    labels = tuple(G.mul(w2.labels[m], w1.labels[w2.perm[m]]) for m in range(n))
    return WreathElement(perm, labels)


def wreath_inverse(G: FiniteGroup, w: WreathElement) -> WreathElement:
    n = len(w.perm)
    inv_perm = [0] * n
    for m, im in enumerate(w.perm):
        inv_perm[im] = m
    labels = tuple(G.inverse[w.labels[inv_perm[m]]] for m in range(n))
    return WreathElement(tuple(inv_perm), labels)


def induced_point_perm(G: FiniteGroup, w: WreathElement) -> tuple[int, ...]:
    """The permutation of G x [n] as point indices m*|G| + g."""
    n = len(w.perm)
    o = G.order
    out = [0] * (n * o)
    for m in range(n):
        for g in range(o):
            out[m * o + g] = w.perm[m] * o + G.mul(g, w.labels[m])
    return tuple(out)


def element_type(G: FiniteGroup, w: WreathElement) -> WreathType:
    """Cycle lengths of perm paired with classes of the cycle label products."""
    n = len(w.perm)
    seen = [False] * n
    counts: dict[tuple[int, int], int] = {}
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        product = G.identity
        m = start
        while not seen[m]:
            seen[m] = True
            product = G.mul(product, w.labels[m])
            m = w.perm[m]
            length += 1
        key = (length, G.class_of[product])
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def type_degree(tau: WreathType) -> int:
    return sum(i * a for (i, _c), a in tau)


def enumerate_class_types(G: FiniteGroup, n: int) -> list[WreathType]:
    """All conjugacy class types of G wr S_n, sorted."""
    variables = [(i, c) for i in range(1, n + 1) for c in range(G.num_classes)]
    out: list[WreathType] = []

    def walk(idx: int, remaining: int, chosen: list) -> None:
        if remaining == 0:
            out.append(tuple(chosen))
            return
        if idx == len(variables):
            return
        i, c = variables[idx]
        walk(idx + 1, remaining, chosen)
        max_mult = remaining // i
        for a in range(1, max_mult + 1):
            chosen.append(((i, c), a))
            walk(idx + 1, remaining - i * a, chosen)
            chosen.pop()

    walk(0, n, [])
    return sorted(out)


def centralizer_order(G: FiniteGroup, tau: WreathType) -> int:
    """z_tau = product over (i, c) of ((|G|/|c|) i)^a * a!."""
    z = 1
    for (i, c), a in tau:
        centralizer, rest = divmod(G.order, G.classes[c].size)
        if rest:
            raise ValueError("centralizer order came out non-integral")
        z *= (centralizer * i) ** a * factorial(a)
    return z


def type_representative(G: FiniteGroup, tau: WreathType) -> WreathElement:
    """Consecutive cycles, class representative on the first spot of each cycle."""
    n = type_degree(tau)
    perm = list(range(n))
    labels = [G.identity] * n
    pos = 0
    for (i, c), a in tau:
        for _ in range(a):
            for j in range(i - 1):
                perm[pos + j] = pos + j + 1
            perm[pos + i - 1] = pos
            labels[pos] = G.classes[c].representative
            pos += i
    return WreathElement(tuple(perm), tuple(labels))


def all_wreath_elements(G: FiniteGroup, n: int) -> Iterator[WreathElement]:
    for perm in itertools.permutations(range(n)):
        for labels in itertools.product(range(G.order), repeat=n):
            yield WreathElement(perm, labels)


def frobenius_ch(G: FiniteGroup, n: int, phi: Callable[[WreathType], Fraction],
                 trunc: int | None = None) -> GradedSeries:
    """sum over degree-n types of phi(tau)/z_tau times the monomial tau."""
    N = n if trunc is None else trunc
    terms = {}
    for tau in enumerate_class_types(G, n):
        value = Fraction(phi(tau))
        if value != 0:
            terms[(tau, 0)] = value / centralizer_order(G, tau)
    return GradedSeries(G, N, 1, terms)


def trace_extract(f: GradedSeries, G: FiniteGroup, tau: WreathType,
                  t_num: int = 0, t_den: int = 1) -> Fraction:
    """Recover the class-function value at tau from a Frobenius characteristic."""
    return f.coefficient(tau, t_num, t_den) * centralizer_order(G, tau)

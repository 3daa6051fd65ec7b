"""Plethystic composition for class-variable series.

The composition f o g is defined whenever at least one side lives over the
one-element group:

* left mode, f over the trivial group: p_i o p_j(c) = p_{ij}(c), and any
  t-power inside g transforms as p_i o t^q = t^{iq};
* right mode, g over the trivial group: p_i(c) o p_j = p_{ij}(c^j) where
  c^j is the conjugacy class of j-th powers, with the same t rule.

Both rules fix rational scalars, and a t-power multiplying f on the left
passes through untouched: (t^a f) o g = t^a (f o g).  When both sides are
trivial the two modes agree.  The result lives over whichever group is
nontrivial and is truncated to the smaller truncation degree.

The right argument must have no degree-0 part; otherwise the substitution
would need infinitely many terms of f per output degree.

Each p_i is additive, so E o (-g) = 1/(E o g) for E = exp_series(G), the
negative alphabet H[-X] = 1/H[X] (Macdonald, I.8).  If every degree of B is
1 mod d, with or without a t-power attached, f's degree-k terms go to degrees
k mod d: compose(mod_filter(f, j, d), B) = mod_filter(compose(f, B), j, d).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .groups import FiniteGroup, class_power, cyclic_group
from .series import (
    GradedSeries, Mono, SeriesError, UniSeries, _Codec, _by_degree,
    _mul_by_degree, _product, _rational, _sum_of_products, exp_arg, exp_of,
    exp_series, mod_filter, moebius_mu, mono_degree, p, pow1p_of, zero,
)


def compose(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Plethysm f o g; see the module docstring for the variable rules.

    f o g is a ring map in f, so each monomial of f goes to the product of
    its variables' images.  f's monomials are visited in sorted order of
    their variable sequences (p_1^2 p_2 reads p_1, p_1, p_2); a stack holds
    the images of the current sequence's prefixes, so monomials sharing a
    prefix share its product, and the stack never holds more than N + 1
    images.  Images and prefix products are the series kernel's packed
    integer slices, and each output degree is one kernel sum of
    coefficient x image x t-shift over the monomials of f; a Fraction is
    built once per result term.
    """
    left_mode = f.group.order == 1
    right_mode = g.group.order == 1
    if not (left_mode or right_mode):
        raise SeriesError("plethysm needs the trivial group on one side")
    if not g.homogeneous_part(0).is_zero():
        raise SeriesError("plethysm argument must have no degree-0 part")
    out_group = g.group if left_mode else f.group
    N = min(f.trunc, g.trunc)
    t_den = lcm(f.t_den, g.t_den)
    codec = _Codec(out_group, N)
    g_parts = _by_degree(g.with_t_den(t_den).terms)

    def image(i: int, c: int) -> dict[int, tuple]:
        """p_i(c) o g truncated to N, as integer slices, t in units of 1/t_den.

        (j, cid) -> (i j, cid) and (j, 0) -> (i j, c^j) keep monomials sorted
        and distinct.
        """
        return codec.slices({
            (tuple(((i * j, cid if left_mode
                     else class_power(f.group, c, j)), e)
                   for (j, cid), e in mono), i * t_num): coeff
            for deg, part in g_parts.items() if i * deg <= N
            for (mono, t_num), coeff in part.items()})

    words = []
    for (mono, t_num), coeff in f.with_t_den(t_den).terms.items():
        if mono_degree(mono) <= N:
            word = tuple(v for v, e in mono for _ in range(e))
            words.append((word, t_num << codec.shift, coeff))
    words.sort(key=lambda w: w[0])

    images: dict[tuple[int, int], dict[int, tuple]] = {}
    stack = [{0: (1, {0: 1})}]   # stack[j]: image of word[:j]
    prev: tuple = ()
    products: dict[int, list] = {}   # by output degree
    for word, t_shift, coeff in words:
        j = 0
        while j < len(prev) and j < len(word) and prev[j] == word[j]:
            j += 1
        del stack[j + 1:]
        for v in word[j:]:
            img = images.get(v)
            if img is None:
                img = images[v] = image(*v)
            stack.append(_mul_by_degree(stack[-1], img, N))
        prev = word
        shift = (1, {t_shift: 1})
        for deg, part in stack[-1].items():
            products.setdefault(deg, []).append((coeff, part, shift))
    return GradedSeries._trusted(out_group, N, t_den, codec.fractions(
        _sum_of_products(prods) for prods in products.values()))


def exp_compose(G: FiniteGroup, N: int, g: GradedSeries) -> GradedSeries:
    """exp_series(G, N) o g, computed as exp(exp_arg(G, N) o g).

    Plethysm by g is a ring map that respects truncation, so it commutes
    with exp; the argument exp_arg has one term per variable.
    """
    return exp_of(compose(exp_arg(G, N), g))


def plethystic_inverse(f: GradedSeries) -> GradedSeries:
    """Compositional inverse of a t-free trivial-group series f = a*p_1 + higher.

    Returns the g with f o g = g o f = p_1 (both directions are checked).
    """
    if f.group.order != 1:
        raise SeriesError("plethystic inverse is computed over the trivial group")
    if any(t != 0 for (_m, t) in f.terms):
        raise SeriesError("plethystic inverse needs a t-free series")
    if not f.homogeneous_part(0).is_zero():
        raise SeriesError("plethystic inverse needs a series with no degree-0 part")
    N = f.trunc
    G = f.group
    if N == 0:
        return zero(G, 0)      # every constant-free series is zero here
    p1: Mono = (((1, 0), 1),)
    alpha = f.coefficient(p1)
    deg1 = f.homogeneous_part(1)
    if alpha == 0 or len(deg1.terms) != 1:
        raise SeriesError("plethystic inverse needs a nonzero p_1 coefficient")
    g = p(G, N, 1, 0).scale(1 / alpha)
    target = p(G, N, 1, 0)
    for n in range(2, N + 1):
        defect = compose(f, g).homogeneous_part(n).sub(target.homogeneous_part(n))
        if not defect.is_zero():
            g = g.sub(defect.scale(1 / alpha))
    if compose(f, g) != target or compose(g, f) != target:
        raise SeriesError("plethystic inverse failed its two-sided check")
    return g


uni_reversion = plethystic_inverse


def average_p1(G: FiniteGroup, N: int) -> GradedSeries:
    """sum over classes of (|c|/|G|) p_1(c): the degree-1 part of exp_series."""
    return exp_arg(G, N).homogeneous_part(1)


def F_coefficient(G: FiniteGroup, l: int, class_id: int) -> Fraction:
    """The exponent F(l, c) = -(1/(|G| l)) sum over d | l of mu(d) #{g : g^d in c}."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if not (0 <= class_id < G.num_classes):
        raise ValueError("class id out of range")
    total = 0
    for d in range(1, l + 1):
        if l % d != 0:
            continue
        mu = moebius_mu(d)
        if mu == 0:
            continue
        count = sum(1 for g in range(G.order) if G.class_of[G.power(g, d)] == class_id)
        total += mu * count
    return Fraction(-total, G.order * l)


def product_form_inverse(G: FiniteGroup, N: int) -> GradedSeries:
    """The product over l, c of (1 + p_l(c))^(F(l, c)), truncated."""
    factors = []
    for l in range(1, N + 1):
        for cl in G.classes:
            expo = F_coefficient(G, l, cl.class_id)
            if expo:
                factors.append(pow1p_of(p(G, N, l, cl.class_id), expo))
    return _product(G, N, 1, factors)


def sech_series(G: FiniteGroup, N: int) -> GradedSeries:
    """Inverse of the even-degree part of exp_series(G)."""
    return mod_filter(exp_series(G, N), 0, 2, "equal").invert()


def tanh_series(G: FiniteGroup, N: int) -> GradedSeries:
    """Odd part of exp_series(G) divided by its even part."""
    E = exp_series(G, N)
    return mod_filter(E, 0, 2, "not-equal").mul(
        mod_filter(E, 0, 2, "equal").invert())


def arcsinh_series(trivial: FiniteGroup, N: int) -> GradedSeries:
    """Plethystic inverse of the odd-degree part of the trivial-group exp_series."""
    if trivial.order != 1:
        raise SeriesError("the arcsinh lift lives over the trivial group")
    return _mod_inverse(N, 2)


def _mod_inverse(N: int, d: int) -> GradedSeries:
    """Plethystic inverse of the degrees 1 mod d of the trivial-group exp_series."""
    # every degree of the result is 1 mod d, as the mod-d filter rule needs
    return plethystic_inverse(mod_filter(exp_series(cyclic_group(1), N), 1, d))


def uni_analytic(name: str, N: int, alpha=None) -> GradedSeries:
    """Maclaurin series in x = p_1 over the one-element group, exact coefficients.

    Supported names: exp, log1p, sinh, cosh, tanh, sech, arcsinh, pow1p
    (pow1p takes the exponent through the alpha argument).  The coefficients
    are written down directly rather than derived from exp_series, so the
    natural check in theorems.verify stays independent of the closed forms.
    """
    if name == "exp":
        return UniSeries(N, 1, {(n, 0): Fraction(1, factorial(n))
                                for n in range(N + 1)})
    if name == "log1p":
        return UniSeries(N, 1, {(n, 0): Fraction((-1) ** (n - 1), n)
                                for n in range(1, N + 1)})
    if name == "sinh":
        return UniSeries(N, 1, {(n, 0): Fraction(1, factorial(n))
                                for n in range(1, N + 1, 2)})
    if name == "cosh":
        return UniSeries(N, 1, {(n, 0): Fraction(1, factorial(n))
                                for n in range(0, N + 1, 2)})
    if name == "sech":
        return uni_analytic("cosh", N).invert()
    if name == "tanh":
        return uni_analytic("sinh", N).mul(uni_analytic("cosh", N).invert())
    if name == "arcsinh":
        return plethystic_inverse(uni_analytic("sinh", N))
    if name == "pow1p":
        if alpha is None:
            raise SeriesError("pow1p needs the exponent alpha")
        alpha = _rational(alpha)
        coeffs = {}
        c = Fraction(1)
        for n in range(N + 1):
            if c != 0:
                coeffs[(n, 0)] = c
            c = c * (alpha - n) / (n + 1)
        return UniSeries(N, 1, coeffs)
    raise SeriesError("unknown analytic series %r" % name)

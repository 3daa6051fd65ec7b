"""Truncated graded series in the class variables p_i(c), with a t-grading.

A series lives over a fixed finite group G and a fixed truncation degree N.
Terms are stored sparsely::

    terms: {(mono, t_num): Fraction}
    mono:  tuple of ((i, class_id), exponent), sorted by (i, class_id)

where the variable (i, class_id) has degree i, and the t-exponent of a term
is t_num / t_den with one declared denominator t_den per series (so t^{1/2}
is representable exactly without symbolic roots).  The zero series has an
empty term dict; no zero coefficients are ever stored; no stored monomial
exceeds degree N.  All coefficients are exact Fractions -- there is no
floating point anywhere in this package.  The public constructor enforces
these invariants and refuses values that are not rational; the ring
operations, the t maps and mod_filter build term dicts that already satisfy
them and wrap them with GradedSeries._trusted, which does not check again.

Every product runs through one kernel on integer slices: the terms of one
degree as integer numerators over one common denominator, each term's
monomial and t exponent packed into one int, so the product of two terms
is one integer add.  mul, power, the exp/log/pow/invert recurrences and
plethysm.compose all sum through it.  The packing is internal to each call;
Fractions and Mono tuples are built only at the GradedSeries boundary, once
per output term, and a chain of products crosses it once, at the end.

Operations never extend the truncation degree: combining two series
truncates to the smaller N, and t denominators are refined to the lcm.

One-variable series are GradedSeries over the one-element group in the
single variable x = p_1 (UniSeries and uni_* build them).  The natural
specialization p_1(identity) -> x, other p_i(c) -> 0 produces them; the
standard Maclaurin series live in plethysm.uni_analytic().
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional

from .groups import FiniteGroup, cyclic_group

Var = tuple[int, int]                      # (cycle length i, class id)
Mono = tuple[tuple[Var, int], ...]         # sorted ((i, c), exponent)

ONE_MONO: Mono = ()


class SeriesError(ValueError):
    """Incompatible operands or violated preconditions on series."""


class NotInvertibleError(SeriesError):
    """The degree-0 part is not a nonzero scalar."""


def mono_degree(mono: Mono) -> int:
    return sum(i * e for (i, _c), e in mono)


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a is b or a.table == b.table


def _nonzero_den(den: int) -> None:
    if den == 0:
        raise SeriesError("a denominator or modulus must be nonzero")


def _rational(q) -> Fraction:
    """q as a Fraction; floats and other values that are not rational are refused."""
    from numbers import Rational    # loaded with fractions already
    if not isinstance(q, Rational):
        raise SeriesError("coefficients must be exact rationals, not %r" % (q,))
    return Fraction(q)


# -- term dicts split by monomial degree ----------------------------------------
#
# The fast paths work on "slices": the terms of one monomial degree each, kept
# in a {degree: slice} map.  Products of slices need no truncation test per
# term, and homogeneous recurrences read slices directly.  The product kernel
# carries integer slices (den, {key: num}), coefficients num / den over one
# den > 0 per slice, each key a term (mono, t_num) packed into one int.

def _by_degree(terms: dict) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for key, c in terms.items():
        d = mono_degree(key[0])
        part = out.get(d)
        if part is None:
            out[d] = {key: c}
        else:
            part[key] = c
    return out


class _Codec:
    """Terms of degree <= n over a group's classes packed into ints, for one call.

    The exponent of p_i(c) takes bit field (i - 1) C + c of width
    n.bit_length(), C the number of classes, and t_num sits above all the
    fields: key = mono + (t_num << shift).  No exponent of a monomial of
    degree <= n overflows its field, so the product of two terms is the sum
    of their keys.  Decoded monomials, and their ((i, c), e) items, are
    shared within the call.
    """

    __slots__ = ("n", "classes", "width", "shift", "monos", "items")

    def __init__(self, group: FiniteGroup, n: int):
        self.n = n
        self.classes = group.num_classes
        self.width = n.bit_length()
        self.shift = self.width * n * self.classes
        self.monos: dict[int, Mono] = {0: ONE_MONO}
        self.items: dict[int, tuple[Var, int]] = {}

    def slices(self, terms: dict) -> dict[int, tuple[int, dict]]:
        """A Fraction term dict as integer slices by degree, each over the lcm of its denominators.

        Terms above degree n, whose exponents need not fit the fields, are
        dropped.
        """
        n, width, classes, shift = self.n, self.width, self.classes, self.shift
        parts: dict[int, dict] = {}
        for (mono, t), c in terms.items():
            d = 0
            key = t << shift
            for (i, cl), e in mono:
                d += i * e
                key += e << width * ((i - 1) * classes + cl)
            if d <= n:
                part = parts.get(d)
                if part is None:
                    parts[d] = {key: c}
                else:
                    part[key] = c
        for d, part in parts.items():
            den = lcm(*[c.denominator for c in part.values()])
            parts[d] = (den, {k: c.numerator * (den // c.denominator)
                              for k, c in part.items()})
        return parts

    def fractions(self, slices) -> dict:
        """The term dict of integer slices: one Fraction per nonzero term."""
        shift, low = self.shift, (1 << self.shift) - 1
        return {(self.mono(key & low), key >> shift): Fraction(num, den)
                for den, part in slices for key, num in part.items() if num}

    def mono(self, m: int) -> Mono:
        """The monomial packed in m: the monomial of its lower fields, then its top field."""
        mono = self.monos.get(m)
        if mono is None:
            f = (m.bit_length() - 1) // self.width
            rest = m & ((1 << f * self.width) - 1)
            item = self.items.get(m - rest)
            if item is None:
                item = self.items[m - rest] = (
                    (f // self.classes + 1, f % self.classes),
                    m >> f * self.width)
            mono = self.monos[m] = self.mono(rest) + (item,)
        return mono


def _sum_of_products(products: list) -> tuple[int, dict]:
    """The integer slice sum of w A B over products [(w, A, B), ...].

    w is an int or a Fraction, A and B are integer slices of one codec.  Each
    pair of terms costs one integer add and one multiply-add; zeros are
    dropped and one gcd pass reduces the common denominator.
    """
    den = lcm(*[w.denominator * a[0] * b[0] for w, a, b in products])
    acc: dict = {}
    get = acc.get
    for w, (a_den, a_part), (b_den, b_part) in products:
        scale = w.numerator * (den // (w.denominator * a_den * b_den))
        for ka, na in a_part.items():
            na *= scale
            for kb, nb in b_part.items():
                k = ka + kb
                acc[k] = get(k, 0) + na * nb
    g = gcd(den, *acc.values())
    return den // g, {k: c // g for k, c in acc.items() if c}


def _mul_by_degree(a: dict[int, tuple], b: dict[int, tuple],
                   n: int) -> dict[int, tuple]:
    """Product of two integer-slice maps, truncated at degree n, empty slices dropped."""
    products: dict[int, list] = {}
    for da, part_a in a.items():
        for db, part_b in b.items():
            if da + db <= n:
                products.setdefault(da + db, []).append((1, part_a, part_b))
    return {d: part for d, prods in products.items()
            if (part := _sum_of_products(prods))[1]}


def _product(group: FiniteGroup, n: int, t_den: int,
             factors) -> "GradedSeries":
    """The product of series over group and t_den, truncated at n.

    The running product stays in integer slices; a Fraction is built once
    per output term, at the end.
    """
    codec = _Codec(group, n)
    acc = {0: (1, {0: 1})}
    for f in factors:
        acc = _mul_by_degree(acc, codec.slices(f.terms), n)
    return GradedSeries._trusted(group, n, t_den, codec.fractions(acc.values()))


class GradedSeries:
    """Sparse exact series over a group's class variables; immutable by convention."""

    __slots__ = ("group", "trunc", "t_den", "terms")

    def __init__(self, group: FiniteGroup, trunc: int, t_den: int = 1,
                 terms: Optional[dict] = None):
        if trunc < 0:
            raise SeriesError("truncation degree must be >= 0")
        if t_den < 1:
            raise SeriesError("t denominator must be >= 1")
        self.group = group
        self.trunc = trunc
        self.t_den = t_den
        clean: dict[tuple[Mono, int], Fraction] = {}
        if terms:
            for (mono, t_num), coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = _rational(coeff)
                if coeff == 0 or mono_degree(mono) > trunc:
                    continue
                clean[(mono, t_num)] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, group: FiniteGroup, trunc: int, t_den: int,
                 terms: dict) -> "GradedSeries":
        """Take ownership of a clean term dict without checking it.

        Clean means: every value is a Fraction, none is zero, and no monomial
        has degree above trunc.  Callers build such dicts themselves.
        """
        self = object.__new__(cls)
        self.group = group
        self.trunc = trunc
        self.t_den = t_den
        self.terms = terms
        return self

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Mono, t_num: int = 0, t_den: int = 1) -> Fraction:
        """Coefficient of mono * t^(t_num/t_den); exact, defaults to the t-free part."""
        _nonzero_den(t_den)
        if self.t_den % t_den == 0:
            return self.terms.get((mono, t_num * (self.t_den // t_den)), Fraction(0))
        # query denominator finer than storage: representable only if it reduces
        scaled = Fraction(t_num, t_den) * self.t_den
        if scaled.denominator != 1:
            return Fraction(0)
        return self.terms.get((mono, int(scaled)), Fraction(0))

    def homogeneous_part(self, n: int) -> "GradedSeries":
        keep = {k: c for k, c in self.terms.items() if mono_degree(k[0]) == n}
        return GradedSeries._trusted(self.group, self.trunc, self.t_den, keep)

    def degrees(self) -> set[int]:
        return {mono_degree(m) for (m, _t) in self.terms}

    def truncate(self, n: int) -> "GradedSeries":
        keep = {k: c for k, c in self.terms.items() if mono_degree(k[0]) <= n}
        return GradedSeries._trusted(self.group, min(self.trunc, n), self.t_den,
                                     keep)

    def with_t_den(self, t_den: int) -> "GradedSeries":
        """Re-express with a finer t denominator (must be a multiple of the current one)."""
        if t_den == self.t_den:
            return self
        if t_den < 1:
            raise SeriesError("t denominator must be >= 1")
        if t_den % self.t_den != 0:
            raise SeriesError("cannot coarsen t denominator %d to %d" % (self.t_den, t_den))
        f = t_den // self.t_den
        return GradedSeries._trusted(self.group, self.trunc, t_den,
                                     {(m, t * f): c
                                      for (m, t), c in self.terms.items()})

    # -- ring operations -----------------------------------------------------

    def _align(self, other: "GradedSeries") -> tuple["GradedSeries", "GradedSeries", int]:
        if not isinstance(other, GradedSeries):
            raise SeriesError("expected a GradedSeries operand")
        if not _same_group(self.group, other.group):
            raise SeriesError("series live over different groups")
        den = lcm(self.t_den, other.t_den)
        return self.with_t_den(den), other.with_t_den(den), min(self.trunc, other.trunc)

    def add(self, other: "GradedSeries") -> "GradedSeries":
        a, b, n = self._align(other)
        acc = dict(a.terms)
        for k, c in b.terms.items():
            prev = acc.get(k)
            if prev is None:
                acc[k] = c
                continue
            total = prev + c
            if total:
                acc[k] = total
            else:
                del acc[k]
        if max(a.trunc, b.trunc) > n:
            acc = {k: c for k, c in acc.items() if mono_degree(k[0]) <= n}
        return GradedSeries._trusted(self.group, n, a.t_den, acc)

    def neg(self) -> "GradedSeries":
        return GradedSeries._trusted(self.group, self.trunc, self.t_den,
                                     {k: -c for k, c in self.terms.items()})

    def sub(self, other: "GradedSeries") -> "GradedSeries":
        return self.add(other.neg())

    def scale(self, q) -> "GradedSeries":
        q = _rational(q)
        terms = {k: c * q for k, c in self.terms.items()} if q else {}
        return GradedSeries._trusted(self.group, self.trunc, self.t_den, terms)

    def mul(self, other: "GradedSeries") -> "GradedSeries":
        a, b, n = self._align(other)
        return _product(self.group, n, a.t_den, (a, b))

    def power(self, k: int) -> "GradedSeries":
        if k < 0:
            raise SeriesError("negative power; use invert() first")
        return _product(self.group, self.trunc, self.t_den, [self] * k)

    def invert(self) -> "GradedSeries":
        """Multiplicative inverse; needs the whole degree-0 part to be one nonzero scalar."""
        deg0 = self.homogeneous_part(0)
        c0 = deg0.terms.get((ONE_MONO, 0))
        if c0 is None or len(deg0.terms) != 1:
            raise NotInvertibleError(
                "degree-0 part must be a single nonzero t-free scalar to invert")
        # self = c0 (1 + F); (1 + F)^-1 has n P_n = -n sum_k F_k P_{n-k}
        return _euler(self.scale(1 / c0), lambda n, k: -n).scale(1 / c0)

    # -- t handling ----------------------------------------------------------

    def attach_t(self, num: int, den: int = 1) -> "GradedSeries":
        """Right-compose with t^(num/den) * p_1: each degree-n term gains t^(n*num/den)."""
        _nonzero_den(den)
        t_den = lcm(self.t_den, den)
        f_self = t_den // self.t_den
        f_new = t_den // den
        return GradedSeries._trusted(
            self.group, self.trunc, t_den,
            {(m, t * f_self + mono_degree(m) * num * f_new): c
             for (m, t), c in self.terms.items()})

    def scale_t(self, num: int, den: int = 1) -> "GradedSeries":
        """Multiply the whole series by the monomial t^(num/den)."""
        _nonzero_den(den)
        t_den = lcm(self.t_den, den)
        f_self = t_den // self.t_den
        f_new = t_den // den
        return GradedSeries._trusted(self.group, self.trunc, t_den,
                                     {(m, t * f_self + num * f_new): c
                                      for (m, t), c in self.terms.items()})

    def substitute_t(self, s) -> "GradedSeries":
        """Set t^(1/t_den) to the rational s, collapsing t into the coefficients."""
        s = _rational(s)
        out: dict[tuple[Mono, int], Fraction] = {}
        for (m, t), c in self.terms.items():
            k = (m, 0)
            out[k] = out.get(k, Fraction(0)) + c * s ** t
        return GradedSeries(self.group, self.trunc, 1, out)

    # -- calculus ------------------------------------------------------------

    def p_derivative(self, i: int = 1, class_id: Optional[int] = None) -> "GradedSeries":
        """Formal d/dp_i(c); defaults to the identity class.  Truncation drops by i."""
        c_id = self.group.identity_class if class_id is None else class_id
        var = (i, c_id)
        out: dict[tuple[Mono, int], Fraction] = {}
        for (m, t), coeff in self.terms.items():
            md = dict(m)
            e = md.get(var, 0)
            if e == 0:
                continue
            if e == 1:
                del md[var]
            else:
                md[var] = e - 1
            k = (tuple(sorted(md.items())), t)
            out[k] = out.get(k, Fraction(0)) + coeff * e
        return GradedSeries(self.group, max(self.trunc - i, 0), self.t_den, out)

    # -- dunders -------------------------------------------------------------

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __neg__(self):
        return self.neg()

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        if not _same_group(self.group, other.group) or self.trunc != other.trunc:
            return False
        den = lcm(self.t_den, other.t_den)
        return self.with_t_den(den).terms == other.with_t_den(den).terms

    __hash__ = None  # mutable dict inside; series compare by value

    def __repr__(self):
        return "GradedSeries(N=%d, %d terms)" % (self.trunc, len(self.terms))


def eq_to_degree(a: GradedSeries, b: GradedSeries, n: int) -> bool:
    """Exact equality of all terms of monomial degree <= n."""
    return a.truncate(n) == b.truncate(n)


# -- constructors -------------------------------------------------------------

def zero(G: FiniteGroup, N: int, t_den: int = 1) -> GradedSeries:
    return GradedSeries(G, N, t_den, {})

def one(G: FiniteGroup, N: int, t_den: int = 1) -> GradedSeries:
    return GradedSeries(G, N, t_den, {(ONE_MONO, 0): Fraction(1)})

def const(G: FiniteGroup, N: int, q, t_den: int = 1) -> GradedSeries:
    return GradedSeries(G, N, t_den, {(ONE_MONO, 0): q})

def p(G: FiniteGroup, N: int, i: int, class_id: int, t_den: int = 1) -> GradedSeries:
    """The variable p_i(c) as a series."""
    if not (1 <= i):
        raise SeriesError("cycle length must be >= 1")
    if not (0 <= class_id < G.num_classes):
        raise SeriesError("class id %d out of range" % class_id)
    mono: Mono = (((i, class_id), 1),)
    return GradedSeries(G, N, t_den, {(mono, 0): Fraction(1)})

def t_monomial(G: FiniteGroup, N: int, num: int, den: int = 1) -> GradedSeries:
    """The bare scalar t^(num/den) as a degree-0 series."""
    return one(G, N, den).scale_t(num, den)


# -- analytic helpers on constant-free series ---------------------------------

def _require_constant_free(f: GradedSeries, what: str) -> None:
    if not f.homogeneous_part(0).is_zero():
        raise SeriesError("%s needs a series with no degree-0 part" % what)


def _euler(f: GradedSeries, weight: Callable[[int, int], Fraction],
           start: int = 0) -> GradedSeries:
    """R_start + ... + R_N for R_0 = 1, n R_n = sum_{k=1..n} weight(n, k) F_k R_{n-k}.

    F_k is the degree-k slice of f; f's degree-0 part is ignored.  Applying
    the degree derivation D (a monomial of degree n goes to n times itself)
    to R = exp(F), (1 + F)^a and log(1 + F) gives DR = DF R,
    (1 + F) DR = a DF R and (1 + F) DR = DF; read off in degree n these are
    such recurrences, so each R_n costs one pass of slice products and no
    full series product is formed (Brent and Kung, JACM 1978).
    """
    codec = _Codec(f.group, f.trunc)
    F = codec.slices(f.terms)
    R = [(1, {0: 1})]
    for n in range(1, f.trunc + 1):
        products = []
        for k in range(1, n + 1):
            if k in F and R[n - k][1]:
                w = Fraction(weight(n, k), n)
                if w:
                    products.append((w, F[k], R[n - k]))
        R.append(_sum_of_products(products))
    return GradedSeries._trusted(f.group, f.trunc, f.t_den,
                                 codec.fractions(R[start:]))


def exp_of(f: GradedSeries) -> GradedSeries:
    """exp(f) truncated, for constant-free f: n E_n = sum_k k F_k E_{n-k}."""
    _require_constant_free(f, "exp")
    return _euler(f, lambda n, k: k)


def log1p_of(f: GradedSeries) -> GradedSeries:
    """log(1 + f) truncated, for constant-free f.

    With S = 1 + log(1 + f): n S_n = n F_n - sum_{k<n} (n - k) F_k S_{n-k}.
    """
    _require_constant_free(f, "log1p")
    return _euler(f, lambda n, k: n if k == n else k - n, 1)


def pow1p_of(f: GradedSeries, alpha) -> GradedSeries:
    """(1 + f)^alpha for constant-free f: n P_n = sum_k (alpha k - (n - k)) F_k P_{n-k}."""
    _require_constant_free(f, "pow1p")
    alpha = _rational(alpha)
    return _euler(f, lambda n, k: alpha * k - (n - k))


# -- the named global series ---------------------------------------------------

def exp_arg(G: FiniteGroup, N: int) -> GradedSeries:
    """sum over i, c of |c| p_i(c) / (|G| i), the exponent of exp_series(G, N)."""
    terms = {((((i, cl.class_id), 1),), 0): Fraction(cl.size, G.order * i)
             for i in range(1, N + 1) for cl in G.classes}
    return GradedSeries._trusted(G, N, 1, terms)


def exp_series(G: FiniteGroup, N: int) -> GradedSeries:
    """exp(exp_arg(G, N)): the trivial-character generating series."""
    return exp_of(exp_arg(G, N))


def moebius_mu(d: int) -> int:
    """Number-theoretic Moebius function by trial factorization (desk-scale d)."""
    if d < 1:
        raise ValueError("mu is defined for d >= 1")
    result = 1
    q = 2
    while q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            result = -result
        q += 1
    if d > 1:
        result = -result
    return result


def l_series(trivial: FiniteGroup, N: int) -> GradedSeries:
    """sum over d of (mu(d)/d) log(1 + p_d), over the one-element group."""
    if trivial.order != 1:
        raise SeriesError("the logarithm series lives over the trivial group")
    acc = zero(trivial, N)
    for d in range(1, N + 1):
        mu = moebius_mu(d)
        if mu == 0:
            continue
        acc = acc.add(log1p_of(p(trivial, N, d, 0)).scale(Fraction(mu, d)))
    return acc


def mod_filter(f: GradedSeries, residue: int, d: int, mode: str = "equal") -> GradedSeries:
    """Keep terms by monomial-degree predicate.

    mode "equal": degree == residue mod d; "not-equal": degree != residue mod d;
    "at-least": degree >= residue (d is ignored).
    """
    if mode == "equal":
        pred: Callable[[int], bool] = lambda n: n % d == residue % d
    elif mode == "not-equal":
        pred = lambda n: n % d != residue % d
    elif mode == "at-least":
        pred = lambda n: n >= residue
    else:
        raise SeriesError("unknown mod_filter mode %r" % mode)
    if mode != "at-least":
        _nonzero_den(d)
    keep = {k: c for k, c in f.terms.items() if pred(mono_degree(k[0]))}
    return GradedSeries._trusted(f.group, f.trunc, f.t_den, keep)


# -- one-variable series --------------------------------------------------------
#
# A one-variable series is a GradedSeries over the one-element group in the
# single variable x = p_1, with the same t bookkeeping.  For f in p_1 alone the
# plethysm plethysm.compose(f, g) is ordinary substitution of g for x.

_TRIVIAL = cyclic_group(1)


def _x_power(n: int) -> Mono:
    return (((1, 0), n),) if n else ONE_MONO


def UniSeries(trunc: int, t_den: int = 1,
              coeffs: Optional[dict] = None) -> GradedSeries:
    """The series sum of c x^n t^(t_num/t_den) over coeffs {(n, t_num): c}."""
    return GradedSeries(_TRIVIAL, trunc, t_den,
                        {(_x_power(n), t): c
                         for (n, t), c in (coeffs or {}).items()})


def uni_zero(N: int, t_den: int = 1) -> GradedSeries:
    return zero(_TRIVIAL, N, t_den)

def uni_one(N: int, t_den: int = 1) -> GradedSeries:
    return one(_TRIVIAL, N, t_den)

def uni_const(N: int, q, t_den: int = 1) -> GradedSeries:
    return const(_TRIVIAL, N, q, t_den)

def uni_x(N: int, t_den: int = 1) -> GradedSeries:
    return p(_TRIVIAL, N, 1, 0, t_den)


uni_pow1p_of = pow1p_of


def natural_spec(f: GradedSeries) -> GradedSeries:
    """Set p_1(identity class) to x and every other variable to 0; t rides along."""
    ident = (1, f.group.identity_class)
    out: dict[tuple[Mono, int], Fraction] = {}
    for (mono, t), c in f.terms.items():
        if mono == ONE_MONO:
            out[(ONE_MONO, t)] = c
        elif len(mono) == 1 and mono[0][0] == ident:
            out[(_x_power(mono[0][1]), t)] = c
    return GradedSeries._trusted(_TRIVIAL, f.trunc, f.t_den, out)


# -- serialization --------------------------------------------------------------

def series_terms(f: GradedSeries) -> list[dict]:
    """Canonical JSON-ready term list, sorted by (degree, monomial, t exponent)."""
    rows = []
    for (mono, t), c in f.terms.items():
        rows.append({
            "num": c.numerator,
            "den": c.denominator,
            "t_num": t,
            "t_den": f.t_den,
            "vars": [[i, cid, e] for (i, cid), e in mono],
        })
    rows.sort(key=lambda r: (sum(v[0] * v[2] for v in r["vars"]),
                             tuple((v[0], v[1], v[2]) for v in r["vars"]),
                             r["t_num"]))
    return rows


def format_series(f: GradedSeries, max_degree: Optional[int] = None) -> str:
    """Human-readable rendering, one term per line, canonical order."""
    G = f.group
    lines = []
    for row in series_terms(f):
        deg = sum(v[0] * v[2] for v in row["vars"])
        if max_degree is not None and deg > max_degree:
            continue
        coeff = Fraction(row["num"], row["den"])
        bits = []
        for i, cid, e in row["vars"]:
            label = G.names[G.classes[cid].representative]
            bits.append("p_%d(%s)%s" % (i, label, "^%d" % e if e > 1 else ""))
        if row["t_num"]:
            tq = Fraction(row["t_num"], row["t_den"])
            bits.append("t" if tq == 1 else "t^(%s)" % tq)
        body = "*".join(bits) if bits else "1"
        lines.append("%s %s * %s" % ("deg %d:" % deg, coeff, body))
    return "\n".join(lines) if lines else "0"

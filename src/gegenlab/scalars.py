"""Exact scalar arithmetic: rational functions of the coupling parameter kappa.

The scalar tower is

    Q  ->  KappaPolynomial  ->  KappaRational

with ``Q`` the rationals (``fractions.Fraction``), and ``KappaRational`` is
the coefficient field used by every polynomial layer in the package.  Every
scalar is real: the operator engine folds its factors of the imaginary unit
into one real sign per term shape.

Every value is immutable and kept in a canonical form, so equality of
representations is equality of values.  Canonical form of ``num/den``:

* gcd(num, den) = 1 as polynomials over the rationals,
* a polynomial value has den = 1; a constant den is divided out without a
  polynomial gcd,
* otherwise num and den are jointly scaled by one positive rational so that
  their coefficients are coprime integers and den's leading coefficient is
  positive.

This module is the only one that knows how a κ-scalar is represented.  It
also holds the fraction-free layer (Collins 1967) that the operator engine
runs on: an integer κ-polynomial is a tuple of Python ints (``IntPoly``);
``_padd`` and ``_pmul`` are the coefficient loops ``KappaPolynomial``
shares; ``_cleared`` splits a KappaRational into an integer numerator and
denominator; ``_lcm`` and ``_pdiv_exact`` give a common denominator in ℤ[κ]
and the cofactors over it; ``_pack`` and ``_unpack`` move an integer
κ-polynomial to and from one integer at κ = 2^W (Kronecker substitution),
at a width ``_width`` takes from a bound on the coefficients.  The
eigen-solve, the closed forms and the step operators' σ run on factored
values: an integer numerator over an integer scale times a multiset of
primitive affine factors a + bκ.  ``_factored`` builds one from affine
factors, ``_fmul`` multiplies and ``_fadd`` adds two over the max of their
multisets; ``_reduced`` cancels each factor by trial division and divides
out the joint integer content, ``_canonical`` builds the KappaRational of a
reduced value, and ``_from_factored`` does both.  None of them takes a
polynomial gcd.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Union

Q = Fraction

_F0 = Q(0)
_F1 = Q(1)


def _to_q(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class KappaZeroDivision(ZeroDivisionError):
    """Raised on division by the zero element of the kappa field."""


class KappaPole(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its
    denominator.  Carries the vanishing denominator factor."""

    def __init__(self, factor: "KappaPolynomial", point: Fraction):
        self.factor = factor
        self.point = point
        super().__init__(f"κ-pole: denominator {factor} vanishes at κ={point}")

    def __reduce__(self):
        return KappaPole, (self.factor, self.point)


class SpectralDegeneracy(ArithmeticError):
    """Raised by numeric-kappa generation when two eigenvalues collide."""


ScalarLike = Union[int, Fraction]


def _content(fractions: Iterable[Fraction]) -> Fraction:
    """Positive rational c with entries/c coprime integers; 0 for no entries."""
    num = 0
    den = 1
    for f in fractions:
        num = math.gcd(num, f.numerator)
        den = math.lcm(den, f.denominator)
    if num == 0:
        return Fraction(0)
    return Fraction(num, den)


# -- integer κ-polynomials -----------------------------------------------

IntPoly = tuple  # a κ-polynomial as ascending Python ints, no trailing zeros


def _padd(a: tuple, b: tuple) -> tuple:
    """Sum of two coefficient tuples (ints or Fractions), trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pmul(a: tuple, b: tuple) -> tuple:
    """Product of two coefficient tuples without trailing zeros; a zero
    coefficient keeps the type of a's, so Fraction inputs give Fractions."""
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        s = b[0]
        return tuple(c * s for c in a)
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _width(bound: int) -> int:
    """The packing width for coefficients at most bound in absolute value:
    2 + its bit length, rounded up to a multiple of 64.  The difference of
    two such polynomials then has coefficients below 2^(W-1), so it decodes
    (``_unpack``) and is zero exactly when its packed value is."""
    return -(-(bound.bit_length() + 2) // 64) * 64


def _pack(p: IntPoly, W: int) -> int:
    """p at κ = 2^W: a ring map ℤ[κ] → ℤ at every W."""
    x = 0
    for c in reversed(p):
        x = (x << W) + c
    return x


def _unpack(x: int, W: int) -> IntPoly:
    """The integer κ-polynomial packed as x at width W, read off x's
    balanced base-2^W digits in [-2^(W-1), 2^(W-1)): exact when every
    coefficient lies in that range, as the balanced digits are unique."""
    half, mask = 1 << (W - 1), (1 << W) - 1
    out = []
    while x:
        d = ((x + half) & mask) - half
        out.append(d)
        x = (x - d) >> W
    return tuple(out)


def _pdiv_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b for integer κ-polynomials; ArithmeticError unless b divides a
    in ℤ[κ]."""
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        q = quot[i - db] = rem[i] // b[-1]
        for j, c in enumerate(b):
            rem[i - db + j] -= q * c
    if any(rem):
        raise ArithmeticError("inexact integer polynomial division")
    return tuple(quot)


def _cleared(c: "KappaRational") -> tuple[IntPoly, IntPoly]:
    """c as an integer numerator over an integer denominator: its own when
    it has a κ-denominator (canonical form makes both integral), else the
    lcm of its numerator's coefficient denominators."""
    num = c.num.coeffs
    if c.den != _KP_ONE:
        return tuple(map(int, num)), tuple(map(int, c.den.coeffs))
    s = math.lcm(*(x.denominator for x in num))
    return tuple(x.numerator * (s // x.denominator) for x in num), (s,)


def _lcm(dens) -> IntPoly:
    """The lcm in ℤ[κ] of integer κ-polynomials with positive leading
    coefficients: the lcm of their contents times the primitive part of
    their lcm over ℚ (Gauss's lemma keeps every cofactor integral)."""
    P = _KP_ONE
    for d in dens:
        if len(d) > 1:
            d = KappaPolynomial(d)
            P = P * d.exact_div(KappaPolynomial.gcd(P, d))
    content = P.content()
    scale = math.lcm(*(math.gcd(*d) for d in dens))
    return tuple(int(c / content) * scale for c in P.coeffs)


# -- factored denominators -----------------------------------------------
#
# A factored value (num, scale, factors) is num / (scale · Π f^k) for an
# integer numerator, a nonzero int scale and a Counter of primitive affine
# factors f = a + bκ with b > 0.  Distinct such factors are coprime, so sums
# need only the max of two multisets and the canonical form only trial
# division: no polynomial gcd.

def _affine(a: int, b: int) -> tuple[int, IntPoly]:
    """a + bκ, b != 0, as c · f with f primitive and of positive slope."""
    g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
    return g, (a // g, b // g)


def _factored(c: int, nums=(), dens=()) -> tuple:
    """The factored value c · Π(a + bκ) / Π(a' + b'κ) of an integer and the
    affine (a, b) of nums and (a', b') of dens, every b and b' nonzero."""
    num = (c,) if c else ()
    for f in nums:
        num = _pmul(num, f)
    scale, factors = 1, Counter()
    for a, b in dens:
        g, f = _affine(a, b)
        scale *= g
        factors[f] += 1
    return num, scale, factors


def _fmul(*values: tuple) -> tuple:
    """The product of factored values."""
    num, scale, factors = (1,), 1, Counter()
    for n, s, f in values:
        num, scale, factors = _pmul(num, n), scale * s, factors + f
    return num, scale, factors


def _cofactor(c: int, factors: Counter) -> IntPoly:
    out = (c,)
    for f in factors.elements():
        out = _pmul(out, f)
    return out


def _fadd(x: tuple, y: tuple) -> tuple:
    """The sum of two factored values, over the max of their multisets."""
    (n1, s1, f1), (n2, s2, f2) = x, y
    if s1 == s2 and f1 == f2:
        return _padd(n1, n2), s1, f1
    s = math.lcm(s1, s2)
    f = f1 | f2
    return (_padd(_pmul(n1, _cofactor(s // s1, f - f1)),
                  _pmul(n2, _cofactor(s // s2, f - f2))), s, f)


def _reduced(num: IntPoly, scale: int, factors) -> tuple:
    """num / (scale · Π f^k) in lowest terms with a positive scale: each f is
    cancelled by trial division (over ℚ iff over ℤ, by Gauss); a product of
    primitive factors is primitive, so one integer gcd fixes the content."""
    if not num:
        return (), 1, Counter()
    left = Counter()
    for f, k in factors.items():
        j = 0
        while j < k and len(num) >= len(f):
            try:
                num = _pdiv_exact(num, f)
            except ArithmeticError:
                break
            j += 1
        if j < k:
            left[f] = k - j
    g = math.gcd(scale, *num) if scale > 0 else -math.gcd(scale, *num)
    return tuple(c // g for c in num), scale // g, left


def _canonical(num: IntPoly, scale: int, factors) -> "KappaRational":
    """The canonical KappaRational of a reduced factored value (``_reduced``)."""
    if not num:
        return _KR_ZERO
    if not factors:
        return KappaRational._raw(
            KappaPolynomial._raw(tuple(Fraction(c, scale) for c in num)), _KP_ONE)
    den = KappaPolynomial._raw(tuple(map(Fraction, _cofactor(scale, factors))))
    return KappaRational._raw(KappaPolynomial._raw(tuple(map(Fraction, num))), den)


def _from_factored(num: IntPoly, scale: int, factors) -> "KappaRational":
    """The factored value num / (scale · Π f^k) in canonical form."""
    return _canonical(*_reduced(num, scale, factors))


class KappaPolynomial:
    """Polynomial in κ with rational coefficients, ascending powers, no
    trailing zeros (the zero polynomial has an empty coefficient tuple)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [_to_q(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("KappaPolynomial is immutable")

    def __reduce__(self):
        return KappaPolynomial, (self.coeffs,)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def _raw(coeffs: tuple) -> "KappaPolynomial":
        """Trusted constructor: coeffs already Q, no trailing zeros."""
        p = KappaPolynomial.__new__(KappaPolynomial)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @staticmethod
    def zero() -> "KappaPolynomial":
        return _KP_ZERO

    @staticmethod
    def one() -> "KappaPolynomial":
        return _KP_ONE

    @staticmethod
    def kappa() -> "KappaPolynomial":
        return _KP_KAPPA

    @staticmethod
    def const(x: ScalarLike) -> "KappaPolynomial":
        return KappaPolynomial([x])

    @staticmethod
    def linear(c0: ScalarLike, c1: ScalarLike) -> "KappaPolynomial":
        """The affine polynomial c0 + c1*κ."""
        return KappaPolynomial([c0, c1])

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "KappaPolynomial") -> "KappaPolynomial":
        return KappaPolynomial._raw(_padd(self.coeffs, other.coeffs))

    def __sub__(self, other: "KappaPolynomial") -> "KappaPolynomial":
        return self + (-other)

    def __neg__(self) -> "KappaPolynomial":
        return KappaPolynomial._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "KappaPolynomial") -> "KappaPolynomial":
        return KappaPolynomial._raw(_pmul(self.coeffs, other.coeffs))

    def scale(self, s: ScalarLike) -> "KappaPolynomial":
        s = _to_q(s)
        if not s:
            return _KP_ZERO
        return KappaPolynomial._raw(tuple(c * s for c in self.coeffs))

    def __pow__(self, n: int) -> "KappaPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _KP_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "KappaPolynomial"):
        """Polynomial division over the rationals."""
        if other.is_zero:
            raise KappaZeroDivision("division by zero in κ-field")
        rem = list(self.coeffs)
        dn = other.coeffs
        dd = len(dn) - 1
        lead_inv = _F1 / dn[-1]
        if len(rem) - 1 < dd:
            return _KP_ZERO, self
        quot = [_F0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c * lead_inv
            quot[i - dd] = q
            for j, d in enumerate(dn):
                rem[i - dd + j] = rem[i - dd + j] - q * d
        return KappaPolynomial(quot), KappaPolynomial(rem)

    def __mod__(self, other: "KappaPolynomial") -> "KappaPolynomial":
        return self.divmod(other)[1]

    def exact_div(self, other: "KappaPolynomial") -> "KappaPolynomial":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "KappaPolynomial":
        if self.is_zero:
            return self
        return self.scale(_F1 / self.leading)

    @staticmethod
    def gcd(a: "KappaPolynomial", b: "KappaPolynomial") -> "KappaPolynomial":
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def content(self) -> Fraction:
        """Positive rational content of the coefficients."""
        return _content(self.coeffs)

    # -- evaluation --------------------------------------------------------
    def __call__(self, x: ScalarLike):
        x = _to_q(x)
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, KappaPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*κ")
            else:
                parts.append(f"{c}*κ^{i}")
        return " + ".join(parts)


_KP_ZERO = KappaPolynomial.__new__(KappaPolynomial)
object.__setattr__(_KP_ZERO, "coeffs", ())
_KP_ONE = KappaPolynomial.__new__(KappaPolynomial)
object.__setattr__(_KP_ONE, "coeffs", (_F1,))
_KP_KAPPA = KappaPolynomial.__new__(KappaPolynomial)
object.__setattr__(_KP_KAPPA, "coeffs", (_F0, _F1))

# names only: typing caches every Union it builds, so a Union over a class
# object would keep each re-imported copy of this module alive
KappaLike = Union["int", "Fraction", "KappaPolynomial", "KappaRational"]


def _to_poly(x) -> KappaPolynomial:
    if isinstance(x, KappaPolynomial):
        return x
    return KappaPolynomial.const(x)


class KappaRational:
    """Reduced ratio of KappaPolynomials; the universal scalar of the package."""

    __slots__ = ("num", "den")

    def __init__(self, num: KappaLike = 0, den: KappaLike = 1):
        if isinstance(num, KappaRational) or isinstance(den, KappaRational):
            a = num if isinstance(num, KappaRational) else KappaRational(num)
            b = den if isinstance(den, KappaRational) else KappaRational(den)
            r = a / b
            object.__setattr__(self, "num", r.num)
            object.__setattr__(self, "den", r.den)
            return
        n, d = _normalize(_to_poly(num), _to_poly(den))
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("KappaRational is immutable")

    def __reduce__(self):
        return KappaRational, (self.num, self.den)

    @staticmethod
    def _raw(num: KappaPolynomial, den: KappaPolynomial) -> "KappaRational":
        """Internal constructor for values already in canonical form."""
        r = KappaRational.__new__(KappaRational)
        object.__setattr__(r, "num", num)
        object.__setattr__(r, "den", den)
        return r

    @staticmethod
    def zero() -> "KappaRational":
        return _KR_ZERO

    @staticmethod
    def one() -> "KappaRational":
        return _KR_ONE

    @staticmethod
    def kappa() -> "KappaRational":
        return KappaRational._raw(_KP_KAPPA, _KP_ONE)

    @staticmethod
    def const(x: ScalarLike) -> "KappaRational":
        return KappaRational(_to_poly(x), _KP_ONE)

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other) -> "KappaRational":
        o = _coerce_kr(other)
        if o is None:
            return NotImplemented
        if self.den is _KP_ONE and o.den is _KP_ONE:
            return KappaRational._raw(self.num + o.num, _KP_ONE)
        return KappaRational(self.num * o.den + o.num * self.den,
                             self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> "KappaRational":
        o = _coerce_kr(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "KappaRational":
        o = _coerce_kr(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "KappaRational":
        return KappaRational._raw(-self.num, self.den)

    def __mul__(self, other) -> "KappaRational":
        o = _coerce_kr(other)
        if o is None:
            return NotImplemented
        if self.den is _KP_ONE and o.den is _KP_ONE:
            return KappaRational._raw(self.num * o.num, _KP_ONE)
        return KappaRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "KappaRational":
        o = _coerce_kr(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise KappaZeroDivision("division by zero in κ-field")
        return KappaRational(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "KappaRational":
        o = _coerce_kr(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "KappaRational":
        if n < 0:
            return _KR_ONE / (self ** (-n))
        out = _KR_ONE
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation --------------------------------------------------------
    def __call__(self, kappa0: int | Fraction):
        d = self.den(kappa0)
        if not d:
            raise KappaPole(self.den, Fraction(kappa0))
        return self.num(kappa0) / d

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other) -> bool:
        o = _coerce_kr(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den is _KP_ONE or self.den == _KP_ONE:
            return f"({self.num})"
        return f"({self.num})/({self.den})"


def _coerce_kr(x) -> KappaRational | None:
    if isinstance(x, KappaRational):
        return x
    if isinstance(x, (int, Fraction)):
        return KappaRational.const(x)
    if isinstance(x, KappaPolynomial):
        return KappaRational(x, _KP_ONE)
    return None


def _normalize(num: KappaPolynomial, den: KappaPolynomial):
    if den.is_zero:
        raise KappaZeroDivision("division by zero in κ-field")
    if num.is_zero:
        return _KP_ZERO, _KP_ONE
    if len(den.coeffs) == 1:
        d = den.coeffs[0]
        return (num if d == 1 else num.scale(_F1 / d)), _KP_ONE
    g = KappaPolynomial.gcd(num, den)
    if g.degree > 0:
        num = num.exact_div(g)
        den = den.exact_div(g)
    lam = _F1 / den.leading
    num = num.scale(lam)
    den = den.scale(lam)
    if den == _KP_ONE:
        return num, _KP_ONE
    c = _content(num.coeffs + den.coeffs)
    if c != 1:
        inv = 1 / c
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


_KR_ZERO = KappaRational._raw(_KP_ZERO, _KP_ONE)
_KR_ONE = KappaRational._raw(_KP_ONE, _KP_ONE)


# -- spec-level operation surface ------------------------------------------

def kr_eval(r: KappaRational, kappa0: int | Fraction):
    """Exact substitution κ -> kappa0; raises KappaPole at a denominator zero."""
    return r(Fraction(kappa0))


def kappa() -> KappaRational:
    """The coordinate function κ as a KappaRational."""
    return KappaRational.kappa()


def kr(num: int | Fraction, den: int | Fraction = 1) -> KappaRational:
    """Shorthand for a constant rational value."""
    return KappaRational.const(_to_q(num) / _to_q(den))


def lin(c0: int | Fraction, c1: int | Fraction = 1) -> KappaRational:
    """Shorthand for the affine value c0 + c1*κ."""
    return KappaRational(KappaPolynomial.linear(c0, c1))

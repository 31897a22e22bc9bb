"""Multivariate polynomial layer.

Two polynomial rings and the bridge between them:

* ``ZPolynomial`` lives in the independent symmetric coordinates
  z_1..z_n (n = N-1), exponent vectors are weights of A_n;
* ``XPolynomial`` lives in the underlying variables x_1..x_N and is where
  the operator engine works;
* ``lift`` substitutes z_i -> e_i(x), the elementary symmetric functions,
  and ``project`` inverts it by leading-term elimination, fixing e_N = 1.

``XRational`` carries the intermediate fractions produced by the gauge
potential and the curvature, whose denominators are products of pairwise
differences (x_j - x_k); ``divide_exact`` recovers the polynomial quotient
and treats a nonzero remainder as an engine bug.

``ZPolynomial`` coefficients are KappaRational.  The x-space classes keep
the coefficients they are given, Python ints on the engine's path (one
power of kappa at a time) and KappaRational through ``lift``; a coefficient
is zero when it tests false.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Optional

from .scalars import KappaPolynomial, KappaRational, kr

Weight = tuple[int, ...]


class RankMismatch(ValueError):
    """Raised when a polynomial's rank disagrees with the requested N."""


class NonSymmetricInput(ValueError):
    """Raised by project() on input that is not permutation invariant."""


class NonPolynomialOutput(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder; this signals
    an operator-engine bug, not a user error."""


# ---------------------------------------------------------------------------
# weights and the dominance cone
# ---------------------------------------------------------------------------

def weighted_degree(w: Weight) -> int:
    """Degree of z^w after lifting: sum of i * w_i."""
    return sum((i + 1) * e for i, e in enumerate(w))


def weight_partition(w: Weight) -> tuple[int, ...]:
    """Partition rows p_j = sum_{k>=j} w_k, padded with a final zero row."""
    n = len(w)
    rows = [0] * (n + 1)
    acc = 0
    for j in range(n - 1, -1, -1):
        acc += w[j]
        rows[j] = acc
    return tuple(rows)


def partition_weight(p: Iterable[int]) -> Weight:
    """Inverse of weight_partition; defined on partitions with last part 0."""
    rows = tuple(p)
    if not rows or rows[-1] != 0:
        raise ValueError("partition must end with a zero row")
    w = tuple(rows[j] - rows[j + 1] for j in range(len(rows) - 1))
    if any(e < 0 for e in w):
        raise ValueError(f"{rows} is not weakly decreasing")
    return w


def dominance_key(w: Weight):
    """Sort key compatible with the dominance cone: any strictly dominated
    weight compares strictly smaller."""
    return (weighted_degree(w), weight_partition(w))


def grlex_key(w: Weight):
    return (sum(w), w)


def inverse_cartan(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of the fundamental weights, entries min(j,k) - jk/N."""
    N = n + 1
    return tuple(
        tuple(Fraction(min(j, k) * N - j * k, N) for k in range(1, n + 1))
        for j in range(1, n + 1)
    )


def _cartan_columns(n: int) -> list[Weight]:
    cols = []
    for j in range(n):
        col = [0] * n
        col[j] = 2
        if j > 0:
            col[j - 1] = -1
        if j < n - 1:
            col[j + 1] = -1
        cols.append(tuple(col))
    return cols


def dominated_weights(lam: Weight) -> list[Weight]:
    """All non-negative weights mu with lam - mu a non-negative integer
    combination of simple-root columns; includes lam, sorted leading-first."""
    n = len(lam)
    if n < 1 or any(e < 0 for e in lam):
        raise ValueError(f"invalid dominant weight {lam}")
    ainv = inverse_cartan(n)
    cols = _cartan_columns(n)
    bounds = [int(sum(ainv[j][k] * lam[k] for k in range(n))) for j in range(n)]
    found = []
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        mu = list(lam)
        for j, c in enumerate(combo):
            if c:
                for k in range(n):
                    mu[k] -= c * cols[j][k]
        if all(e >= 0 for e in mu):
            found.append(tuple(mu))
    found.sort(key=dominance_key, reverse=True)
    return found


# ---------------------------------------------------------------------------
# z-space polynomials
# ---------------------------------------------------------------------------

def _add_term(out: dict, key, c) -> None:
    """Sum c into out[key], dropping the entry when the sum is zero."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _coerce_scalar(c) -> KappaRational:
    if isinstance(c, KappaRational):
        return c
    if isinstance(c, KappaPolynomial):
        return KappaRational(c)
    return KappaRational.const(Fraction(c))


class ZPolynomial:
    """Sparse polynomial in z_1..z_n with KappaRational coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Optional[Mapping[Weight, KappaRational]] = None):
        clean: dict[Weight, KappaRational] = {}
        if terms:
            for w, c in terms.items():
                c = _coerce_scalar(c)
                if len(w) != rank:
                    raise RankMismatch(f"exponent {w} has length != rank {rank}")
                if not c.is_zero:
                    clean[tuple(w)] = c
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ZPolynomial is immutable; build a new one")

    def __reduce__(self):
        return ZPolynomial, (self.rank, self.terms)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def _raw(rank: int, terms: dict) -> "ZPolynomial":
        """Trusted constructor: keys are clean tuples, values nonzero."""
        p = ZPolynomial.__new__(ZPolynomial)
        object.__setattr__(p, "rank", rank)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def zero(rank: int) -> "ZPolynomial":
        return ZPolynomial(rank)

    @staticmethod
    def one(rank: int) -> "ZPolynomial":
        return ZPolynomial(rank, {(0,) * rank: KappaRational.one()})

    @staticmethod
    def variable(rank: int, i: int) -> "ZPolynomial":
        """The coordinate z_i, 1-based."""
        if not 1 <= i <= rank:
            raise ValueError(f"z_{i} out of range for rank {rank}")
        w = [0] * rank
        w[i - 1] = 1
        return ZPolynomial(rank, {tuple(w): KappaRational.one()})

    @staticmethod
    def monomial(rank: int, w: Weight, coeff=1) -> "ZPolynomial":
        return ZPolynomial(rank, {tuple(w): _coerce_scalar(coeff)})

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: Weight) -> KappaRational:
        return self.terms.get(tuple(w), KappaRational.zero())

    def leading_weight(self) -> Weight:
        """Maximal exponent in the dominance-compatible order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading weight")
        return max(self.terms, key=dominance_key)

    def sorted_terms(self):
        """The (weight, coefficient) pairs, leading weight first in the
        dominance-compatible order."""
        return sorted(self.terms.items(), key=lambda t: dominance_key(t[0]),
                      reverse=True)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "ZPolynomial"):
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return ZPolynomial._raw(self.rank, out)

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        return self + (-other)

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial._raw(self.rank, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "ZPolynomial") -> "ZPolynomial":
        self._check(other)
        out: dict[Weight, KappaRational] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                _add_term(out, tuple(a + b for a, b in zip(wa, wb)), ca * cb)
        return ZPolynomial._raw(self.rank, out)

    def scale(self, s) -> "ZPolynomial":
        s = _coerce_scalar(s)
        if s.is_zero:
            return ZPolynomial(self.rank)
        out = {}
        for w, c in self.terms.items():
            c = c * s
            if not c.is_zero:
                out[w] = c
        return ZPolynomial._raw(self.rank, out)

    def derivative(self, i: int) -> "ZPolynomial":
        """d/dz_i, 1-based."""
        out: dict[Weight, KappaRational] = {}
        for w, c in self.terms.items():
            e = w[i - 1]
            if e == 0:
                continue
            nw = list(w)
            nw[i - 1] = e - 1
            _add_term(out, tuple(nw), c * kr(e))
        return ZPolynomial(self.rank, out)

    # -- evaluation --------------------------------------------------------
    def substitute_kappa(self, kappa0: Fraction) -> "ZPolynomial":
        """Exact substitution of a numeric coupling into all coefficients."""
        out: dict[Weight, KappaRational] = {}
        for w, c in self.terms.items():
            v = c(kappa0)
            if v:
                out[w] = KappaRational.const(v)
        return ZPolynomial(self.rank, out)

    def eval(self, point: Iterable[Fraction], kappa0: Fraction) -> Fraction:
        zs = [Fraction(v) for v in point]
        if len(zs) != self.rank:
            raise RankMismatch(f"point length {len(zs)} != rank {self.rank}")
        total = Fraction(0)
        for w, c in self.terms.items():
            term = c(kappa0)
            for z, e in zip(zs, w):
                if e:
                    term *= z ** e
            total += term
        return Fraction(total)

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "ZPolynomial(0)"
        bits = [f"{c!r}*z^{w}" for w, c in self.sorted_terms()]
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# x-space polynomials
# ---------------------------------------------------------------------------

class XPolynomial:
    """Sparse polynomial in x_1..x_N; coefficients are ints on the engine's
    path and may be any ring element (KappaRational for ``lift``)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[tuple, object]] = None):
        clean: dict[tuple, object] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[tuple(e)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("XPolynomial is immutable; build a new one")

    def __reduce__(self):
        return XPolynomial, (self.nvars, self.terms)

    @staticmethod
    def _raw(nvars: int, terms: dict) -> "XPolynomial":
        """Trusted constructor: keys are clean tuples, values nonzero."""
        p = XPolynomial.__new__(XPolynomial)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def zero(nvars: int) -> "XPolynomial":
        return XPolynomial(nvars)

    @staticmethod
    def one(nvars: int) -> "XPolynomial":
        return XPolynomial(nvars, {(0,) * nvars: 1})

    @staticmethod
    def monomial(nvars: int, expo: tuple, coeff=1) -> "XPolynomial":
        return XPolynomial(nvars, {tuple(expo): coeff})

    @staticmethod
    def variable(nvars: int, j: int) -> "XPolynomial":
        """The coordinate x_j, 1-based."""
        e = [0] * nvars
        e[j - 1] = 1
        return XPolynomial(nvars, {tuple(e): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "XPolynomial") -> "XPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(out, e, c)
        return XPolynomial._raw(self.nvars, out)

    def __sub__(self, other: "XPolynomial") -> "XPolynomial":
        return self + (-other)

    def __neg__(self) -> "XPolynomial":
        return XPolynomial._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "XPolynomial") -> "XPolynomial":
        out: dict[tuple, object] = {}
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        for eb, cb in b.items():
            for ea, ca in a.items():
                _add_term(out, tuple(map(add, ea, eb)), ca * cb)
        return XPolynomial._raw(self.nvars, out)

    def scale(self, s) -> "XPolynomial":
        return XPolynomial(self.nvars, {e: c * s for e, c in self.terms.items()})

    def swap_violation(self, swaps: Optional[Iterable[int]] = None) -> Optional[tuple[int, int]]:
        """First adjacent transposition (j, j+1), 1-based, for j in swaps
        (default: every j), that does not fix the polynomial; None if there
        is none."""
        for j in range(1, self.nvars) if swaps is None else swaps:
            for e, c in self.terms.items():
                se = list(e)
                se[j - 1], se[j] = se[j], se[j - 1]
                if self.terms.get(tuple(se), 0) != c:
                    return (j, j + 1)
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "XPolynomial(0)"
        bits = [f"{c!r}*x^{e}" for e, c in sorted(self.terms.items(), reverse=True)]
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# x-space fractions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _binomial_power(nvars: int, a: int, b: int, k: int) -> XPolynomial:
    """(x_a - x_b)^k with a < b, 1-based, cached."""
    base = XPolynomial.variable(nvars, a) - XPolynomial.variable(nvars, b)
    out = XPolynomial.one(nvars)
    for _ in range(k):
        out = out * base
    return out


class XRational:
    """XPolynomial numerator over a denominator of pairwise differences
    (x_j - x_k)^e, a < b; divide_exact recovers the quotient."""

    __slots__ = ("num", "den_pairs")

    def __init__(self, num: XPolynomial,
                 den_pairs: Optional[Mapping[tuple[int, int], int]] = None):
        pairs: dict[tuple[int, int], int] = {}
        if den_pairs:
            for (a, b), e in den_pairs.items():
                if e < 0:
                    raise ValueError("negative denominator exponent")
                if e:
                    if not 1 <= a < b <= num.nvars:
                        raise ValueError(f"bad pair ({a},{b})")
                    pairs[(a, b)] = e
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den_pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("XRational is immutable; build a new one")

    def __reduce__(self):
        return XRational, (self.num, self.den_pairs)

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def __mul__(self, other: "XRational") -> "XRational":
        pairs = dict(self.den_pairs)
        for key, e in other.den_pairs.items():
            pairs[key] = pairs.get(key, 0) + e
        return XRational(self.num * other.num, pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XRational):
            return NotImplemented
        return self.num == other.num and self.den_pairs == other.den_pairs

    def __repr__(self):
        return f"XRational({self.num!r}, pairs={self.den_pairs})"


def xr_sum(items: Iterable[XRational], nvars: int) -> XRational:
    """Sum over one common denominator: numerators over equal denominators
    are added first, then each such sum is raised to the largest power of
    every pair factor and the results are added."""
    pairs: dict[tuple[int, int], int] = {}
    by_den: dict[tuple, dict] = {}
    for it in items:
        for key, e in it.den_pairs.items():
            pairs[key] = max(pairs.get(key, 0), e)
        acc = by_den.setdefault(tuple(sorted(it.den_pairs.items())), {})
        for e, c in it.num.terms.items():
            _add_term(acc, e, c)
    total: dict = {}
    for den_key, acc in by_den.items():
        num, den = XPolynomial._raw(nvars, acc), dict(den_key)
        for (a, b), e in pairs.items():
            if e > den.get((a, b), 0):
                num = num * _binomial_power(nvars, a, b, e - den.get((a, b), 0))
        for e, c in num.terms.items():
            _add_term(total, e, c)
    return XRational(XPolynomial._raw(nvars, total), pairs)


def _div_binomial(p: XPolynomial, a: int, b: int) -> XPolynomial:
    """Exact quotient p / (x_a - x_b), a,b 1-based; synthetic division in x_a."""
    ai = a - 1
    bi = b - 1
    if p.is_zero:
        return p
    # group terms by the exponent of x_a
    layers: dict[int, dict] = {}
    top = 0
    for e, c in p.terms.items():
        d = e[ai]
        top = max(top, d)
        reduced = list(e)
        reduced[ai] = 0
        layers.setdefault(d, {})[tuple(reduced)] = c
    quot: dict = {}
    carry: dict = {}
    for d in range(top, 0, -1):
        # quotient layer at x_a^(d-1) = P_d + x_b * (previous layer)
        layer: dict = {}
        for e, c in layers.get(d, {}).items():
            _add_term(layer, e, c)
        for e, c in carry.items():
            ne = list(e)
            ne[bi] += 1
            _add_term(layer, tuple(ne), c)
        for e, c in layer.items():
            qe = list(e)
            qe[ai] = d - 1
            quot[tuple(qe)] = c
        carry = layer
    # remainder = P_0 + x_b * carry must vanish
    rem: dict = {}
    for e, c in layers.get(0, {}).items():
        _add_term(rem, e, c)
    for e, c in carry.items():
        ne = list(e)
        ne[bi] += 1
        _add_term(rem, tuple(ne), c)
    if rem:
        raise NonPolynomialOutput("non-polynomial operator output")
    return XPolynomial._raw(p.nvars, quot)


def divide_exact(f: XRational) -> XPolynomial:
    """Exact quotient of f's numerator by its recorded denominator factors."""
    num = f.num
    for (a, b), e in sorted(f.den_pairs.items()):
        for _ in range(e):
            num = _div_binomial(num, a, b)
    return num


# ---------------------------------------------------------------------------
# the elementary-symmetric bridge
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def elementary(nvars: int, i: int) -> XPolynomial:
    """e_i(x_1..x_N)."""
    if not 0 <= i <= nvars:
        raise ValueError(f"e_{i} undefined for {nvars} variables")
    if i == 0:
        return XPolynomial.one(nvars)
    terms = {}
    for combo in itertools.combinations(range(nvars), i):
        e = [0] * nvars
        for j in combo:
            e[j] = 1
        terms[tuple(e)] = 1
    return XPolynomial(nvars, terms)


@functools.lru_cache(maxsize=None)
def _elementary_power(nvars: int, i: int, k: int) -> XPolynomial:
    if k == 0:
        return XPolynomial.one(nvars)
    return _elementary_power(nvars, i, k - 1) * elementary(nvars, i)


def _elementary_product(nvars: int, expo: tuple[int, ...]) -> XPolynomial:
    out = XPolynomial.one(nvars)
    for i, k in enumerate(expo, start=1):
        if k:
            out = out * _elementary_power(nvars, i, k)
    return out


def lift(p: ZPolynomial, nvars: int) -> XPolynomial:
    """Substitute z_i -> e_i(x) for i = 1..n; requires rank = N - 1."""
    if p.rank != nvars - 1:
        raise RankMismatch(f"rank {p.rank} polynomial cannot lift to {nvars} variables")
    out = XPolynomial.zero(nvars)
    for w, c in p.terms.items():
        out = out + _elementary_product(nvars, w).scale(c)
    return out


def project(f: XPolynomial) -> ZPolynomial:
    """Unique expression of a symmetric polynomial in e_1..e_N, with e_N = 1.

    Uses leading-term elimination under lexicographic order; raises
    NonSymmetricInput naming a violating transposition when the input is
    not symmetric.
    """
    viol = f.swap_violation()
    if viol is not None:
        raise NonSymmetricInput(
            f"input not symmetric under x_{viol[0]} <-> x_{viol[1]}")
    nvars = f.nvars
    rank = nvars - 1
    work = dict(f.terms)
    out: dict = {}
    while work:
        alpha = max(work)
        c = work[alpha]
        if any(alpha[i] < alpha[i + 1] for i in range(nvars - 1)):
            raise NonSymmetricInput(
                f"leading exponent {alpha} is not weakly decreasing")
        e_expo = tuple(alpha[i] - alpha[i + 1] for i in range(nvars - 1)) + (alpha[-1],)
        _add_term(out, e_expo[:rank], c)
        for e, ec in _elementary_product(nvars, e_expo).scale(-c).terms.items():
            _add_term(work, e, ec)
    return ZPolynomial(rank, out)

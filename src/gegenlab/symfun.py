"""Multivariate polynomial layer.

Weights of A_n and the dominance cone, and two polynomial rings:

* ``ZPolynomial`` lives in the independent symmetric coordinates
  z_1..z_n (n = N-1), exponent vectors are weights of A_n; its
  coefficients are KappaRational;
* ``XPolynomial`` lives in the underlying variables x_1..x_N, where the
  operator engine lifts a z-monomial z^w to the product of elementary
  symmetric functions e_i(x)^(w_i) (``_elementary_product``).  Its
  coefficients are Python ints on the engine's path (one power of kappa at
  a time); a coefficient is zero when it tests false.

The engine reads its images back into the z_i through Schur polynomials,
so this layer has no projection and no x-space fractions.
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
    """Raised by the operator engine when a derivative image that must be
    permutation invariant is not."""


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


def dominated_weights(lam: Weight) -> list[Weight]:
    """All non-negative weights mu with lam - mu a non-negative integer
    combination c of simple roots; includes lam, sorted leading-first.  The
    simple roots of A_n are the columns of the Cartan matrix, so
    mu_k = lam_k - 2 c_k + c_(k-1) + c_(k+1), and c_j is at most the
    j-th fundamental-weight coordinate of lam, whose Gram matrix is
    min(j, k) - jk/N."""
    n = len(lam)
    if n < 1 or any(e < 0 for e in lam):
        raise ValueError(f"invalid dominant weight {lam}")
    N = n + 1
    bounds = [sum((min(j, k) * N - j * k) * e for k, e in enumerate(lam, start=1)) // N
              for j in range(1, N)]
    found = []
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        c = (0,) + combo + (0,)
        mu = tuple(lam[k] - 2 * c[k + 1] + c[k] + c[k + 2] for k in range(n))
        if min(mu) >= 0:
            found.append(mu)
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
    path and may be any ring element."""

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
    def one(nvars: int) -> "XPolynomial":
        return XPolynomial(nvars, {(0,) * nvars: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "XPolynomial") -> "XPolynomial":
        out: dict[tuple, object] = {}
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        for eb, cb in b.items():
            for ea, ca in a.items():
                _add_term(out, tuple(map(add, ea, eb)), ca * cb)
        return XPolynomial._raw(self.nvars, out)

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
# products of elementary symmetric functions
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

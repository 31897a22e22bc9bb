"""Generalized Gegenbauer polynomials of A_n type and their spectral data.

Two independent generation routes are provided:

* ``gen_eigen`` solves the order-2 eigenproblem triangularly over the
  dominance cone of the target weight on its closed form, which the x-space
  engine checks (works for every N >= 2);
* ``gen_recurrence`` builds the family inductively from the closed-form
  multiplication rules for z_1, z_2, z_3 (N = 3 and 4).

On top of these sit the spectral vectors of the characteristic operator,
the closed-form recurrence coefficients, and the raising/lowering (step)
operators together with their proportionality factors.
"""
from __future__ import annotations

import functools
import itertools
import math
import types
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .scalars import (
    KappaPolynomial,
    KappaRational,
    SpectralDegeneracy,
    _affine,
    _fadd,
    _from_factored,
    _pmul,
    kr,
    lin,
)
from .symfun import (
    Weight,
    ZPolynomial,
    dominated_weights,
)
from . import integrals as _integrals


class ShiftNotTabulated(ValueError):
    """Raised when a step-operator shift has no closed-form entry."""


def _require_dominant(m: Weight):
    if len(m) < 1 or any((e < 0 or not isinstance(e, int)) for e in m):
        raise ValueError(f"{m} is not a dominant weight")


# ---------------------------------------------------------------------------
# eigenvalues and spectral vectors
# ---------------------------------------------------------------------------

def epsilon2(m: Weight, N: int) -> KappaPolynomial:
    """Excitation eigenvalue of the order-2 integral: affine in κ."""
    _require_dominant(m)
    n = N - 1
    if len(m) != n:
        raise ValueError(f"weight {m} has rank {len(m)}, expected {n}")
    const, slope = _scaled_epsilon2(m, N)
    return KappaPolynomial.linear(Fraction(const, N), Fraction(slope, N))


def _scaled_epsilon2(m: Weight, N: int) -> tuple[int, int]:
    """N * epsilon2(m, N) as the integers (constant, slope)."""
    # 2<m, m> in the Gram form min(j,k) - jk/N of the fundamental weights
    const = sum(2 * min(j, k) * (N - max(j, k)) * m[j - 1] * m[k - 1]
                for j in range(1, N) for k in range(1, N))
    slope = sum(2 * k * (N - k) * m[k - 1] for k in range(1, N))
    return const, N * slope


def ground_energy(N: int) -> KappaPolynomial:
    """Ground-state energy N(N+1)(N-1)/6 * κ^2."""
    if N < 2:
        raise ValueError("need at least two particles")
    return KappaPolynomial([0, 0, Fraction(N * (N + 1) * (N - 1), 6)])


@dataclass(frozen=True)
class LVector:
    """Spectral vector of the characteristic operator: N components, each
    affine in κ as (constant, slope); the components sum to zero."""
    N: int
    entries: tuple[tuple[Fraction, Fraction], ...]

    def component(self, j: int) -> KappaRational:
        """1-based affine component as a scalar."""
        return lin(*self.entries[j - 1])

    def polynomials(self) -> tuple[KappaPolynomial, ...]:
        return tuple(KappaPolynomial.linear(c, s) for c, s in self.entries)

    def __iter__(self):
        return iter(self.entries)


def l_vector(m: Weight, N: int) -> LVector:
    """Spectral vector: twice the κ-shifted weight in the N-dim realization."""
    _require_dominant(m)
    n = N - 1
    if len(m) != n:
        raise ValueError(f"weight {m} has rank {len(m)}, expected {n}")
    base = sum((N - kk) * m[kk - 1] for kk in range(1, n + 1))
    entries = []
    for j in range(1, N + 1):
        head = sum(m[kk - 1] for kk in range(1, j))  # m_0 := 0
        const = Fraction(2 * (base - N * head), N)
        slope = Fraction(N + 1 - 2 * j)
        entries.append((const, slope))
    return LVector(N, tuple(entries))


def char_eigenvalue(m: Weight, N: int) -> list[KappaRational]:
    """Coefficients, ascending in t, of the spectral product
    prod_j (t - l_j) for the weight m."""
    lv = l_vector(m, N)
    coeffs = [KappaPolynomial.one()]
    for lp in lv.polynomials():
        nxt = [KappaPolynomial.zero()] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c * (-lp)
            nxt[i + 1] = nxt[i + 1] + c
        coeffs = nxt
    return [KappaRational(c) for c in coeffs]


def l_elementary(m: Weight, N: int, j: int) -> KappaRational:
    """Elementary symmetric function e_j of the spectral vector components."""
    coeffs = char_eigenvalue(m, N)
    val = coeffs[N - j]
    return val if j % 2 == 0 else -val


# ---------------------------------------------------------------------------
# shift vectors
# ---------------------------------------------------------------------------

def mu_vector(i: int, n: int) -> Weight:
    """The i-th elementary shift (i = 1..N): components δ_{k,i} - δ_{k,i-1}."""
    if not 1 <= i <= n + 1:
        raise ValueError(f"shift index {i} out of range")
    return _mu_sum((i,), n)


def _mu_sum(subset, n: int) -> Weight:
    """Sum over i in subset of the elementary shifts δ_{k,i} - δ_{k,i-1}:
    a +1 at k = i and a -1 at k = i - 1, where those lie in 1..n."""
    out = [0] * n
    for i in subset:
        if i <= n:
            out[i - 1] += 1
        if i >= 2:
            out[i - 2] -= 1
    return tuple(out)


def shift_decompose(s: Weight, N: int):
    """Write a shift as +/- a sum of r distinct elementary shifts of equal
    sign; returns (sign, subset, r).  A positive decomposition is preferred:
    the tabulated step operators realize every double shift through the
    raising-side spectral product."""
    n = N - 1
    if len(s) != n:
        raise ValueError(f"shift {s} has wrong rank")
    for r in range(1, N):
        for sign in (1, -1):
            for subset in itertools.combinations(range(1, N + 1), r):
                ms = _mu_sum(subset, n)
                if tuple(sign * e for e in ms) == s:
                    return (sign, subset, r)
    raise ShiftNotTabulated(f"{s} is not a signed sum of distinct elementary shifts")


def l_shift(m: Weight, s: Weight, N: int) -> LVector:
    """Spectral vector of m+s computed through the shift identity
    l'_j = l_j -/+ 2r/N +/- 2[j in subset]; agrees with l_vector(m+s)."""
    sign, subset, r = shift_decompose(s, N)
    target = tuple(a + b for a, b in zip(m, s))
    if any(e < 0 for e in target):
        raise ValueError(f"shifted weight {target} is not dominant")
    lv = l_vector(m, N)
    shift_all = Fraction(2 * r, N) * sign
    entries = []
    for j in range(1, N + 1):
        c, sl = lv.entries[j - 1]
        c = c - shift_all
        if j in subset:
            c = c + 2 * sign
        entries.append((c, sl))
    return LVector(N, tuple(entries))


# ---------------------------------------------------------------------------
# generation: eigen route
# ---------------------------------------------------------------------------

def gen_eigen(m: Weight, N: Optional[int] = None,
              kappa: Optional[Fraction] = None) -> ZPolynomial:
    """Monic eigenpolynomial of the order-2 integral with leading weight m.

    Solved on the closed-form operator, never the x-space engine; symbolic
    in κ by default, and memoized.  The solve is fraction-free: each
    coefficient is an integer κ-numerator over an integer scale times a
    product of the affine gaps N(ε(m) − ε(μ)), so no polynomial gcd is taken.
    With a numeric κ the solve still runs symbolically and the coupling is
    substituted at the end, unmemoized.  SpectralDegeneracy is raised when
    two eigenvalues of the dominance cone collide at that coupling.
    """
    m = tuple(m)
    _require_dominant(m)
    if N is None:
        N = len(m) + 1
    if len(m) != N - 1:
        raise ValueError(f"weight {m} has rank {len(m)}, expected {N - 1}")
    if kappa is None:
        return _symbolic_eigen(m, N)
    return _solve_eigen(m, N, Fraction(kappa))


@functools.lru_cache(maxsize=None)
def _symbolic_eigen(m: Weight, N: int) -> ZPolynomial:
    return _solve_eigen(m, N, None)


@functools.lru_cache(maxsize=None)
def _eigen_split(m: Weight, N: int):
    """P_m as read-only integer numerators over their common denominator."""
    nums, D = _integrals._split(_symbolic_eigen(m, N))
    return types.MappingProxyType(nums), D


def _solve_eigen(m: Weight, N: int, kappa: Optional[Fraction]) -> ZPolynomial:
    """Triangular solve on order2_terms(N): the diagonal entries are epsilon2,
    and each solved coefficient pushes the integer rest down the cone.  The
    pushes are factored values (scalars._fadd); solving μ divides by
    N(ε(m) − ε(μ)), which is an integer affine gap."""
    cone = dominated_weights(m)  # sorted leading-first
    top = _scaled_epsilon2(m, N)
    gaps = {w: tuple(a - b for a, b in zip(top, _scaled_epsilon2(w, N)))
            for w in cone[1:]}
    if kappa is not None and any(a + b * kappa == 0 for a, b in gaps.values()):
        raise SpectralDegeneracy(f"spectral degeneracy at κ={kappa}")
    lowering = [(c, mult, deriv) for (c, _), mult, deriv
                in _integrals.order2_terms(N) if mult != deriv]
    solved: dict[Weight, tuple] = {}
    pushed = {m: ((1,), 1, Counter())}
    for mu in cone:
        if mu not in pushed:
            continue
        num, scale, factors = pushed.pop(mu)
        if mu != m:
            g, f = _affine(*gaps[mu])
            num = _pmul(num, (N,))
            scale *= g
            factors = factors + Counter((f,))
        solved[mu] = num, scale, factors
        if not num:
            continue
        for c, mult, deriv in lowering:
            c *= math.prod(math.perm(a, d) for a, d in zip(mu, deriv))
            if c:
                nu = tuple(a - d + e for a, d, e in zip(mu, deriv, mult))
                term = _pmul(num, (c,)), scale, factors
                acc = pushed.get(nu)
                pushed[nu] = term if acc is None else _fadd(acc, term)
    if pushed:  # fed after its solve, or outside the cone
        raise _integrals.EngineError(f"triangularity violated: {m} feeds {sorted(pushed)}")
    poly = ZPolynomial(N - 1, {w: _from_factored(*v) for w, v in solved.items()})
    return poly if kappa is None else poly.substitute_kappa(kappa)


# ---------------------------------------------------------------------------
# closed-form recurrence coefficients
# ---------------------------------------------------------------------------

def recurrence_coefficient(kind: str, args) -> KappaRational:
    """Closed-form coefficient of the multiplication rules.

    Kinds: 'c' (1 index), 'a' (2 indices), 'd', 'f', 'g' (3 indices).
    Returns 0 whenever the leading index factor vanishes.
    """
    args = tuple(int(x) for x in args)
    if any(x < 0 for x in args):
        raise ValueError(f"negative index in {kind}{args}")
    if kind == "c":
        (m,) = args
        if m == 0:
            return KappaRational.zero()
        num = kr(m) * lin(m - 1, 2)
        den = lin(m) * lin(m - 1)
        return num / den
    if kind == "a":
        p, q = args
        if q == 0:
            return KappaRational.zero()
        num = kr(q) * lin(p + q) * lin(q - 1, 2) * lin(p + q - 1, 3)
        den = lin(q) * lin(q - 1) * lin(p + q, 2) * lin(p + q - 1, 2)
        return num / den
    if kind == "d":
        m, l, n = args
        if n == 0:
            return KappaRational.zero()
        num = (kr(n) * lin(l + n) * lin(n - 1, 2) * lin(m + l + n, 2)
               * lin(l + n - 1, 3) * lin(m + l + n - 1, 4))
        den = (lin(n) * lin(n - 1) * lin(l + n, 2) * lin(l + n - 1, 2)
               * lin(m + l + n, 3) * lin(m + l + n - 1, 3))
        return num / den
    if kind == "f":
        m, l, n = args
        if m == 0 or n == 0:
            return KappaRational.zero()
        num = (kr(m * n) * lin(m - 1, 2) * lin(n - 1, 2)
               * lin(m + l + n, 2) * lin(m + l + n - 1, 4))
        den = (lin(m) * lin(n) * lin(m - 1) * lin(n - 1)
               * lin(m + l + n, 3) * lin(m + l + n - 1, 3))
        return num / den
    if kind == "g":
        m, l, n = args
        if l == 0:
            return KappaRational.zero()
        num = (kr(l) * lin(m + l) * lin(l + n) * lin(l - 1, 2)
               * lin(m + l + n, 2) * lin(m + l - 1, 3) * lin(l + n - 1, 3)
               * lin(m + l + n - 1, 4))
        den = (lin(l) * lin(l - 1) * lin(m + l, 2) * lin(m + l - 1, 2)
               * lin(l + n, 2) * lin(l + n - 1, 2)
               * lin(m + l + n, 3) * lin(m + l + n - 1, 3))
        return num / den
    raise ValueError(f"unknown coefficient kind {kind!r}")


def _rc(kind: str, *args: int) -> KappaRational:
    return recurrence_coefficient(kind, args)


# Multiplication rules z_r * P_m = P_{m+e_r} + sum c * P_{m+shift}: N -> r ->
# the list of (shift, (kind, indices)) as a function of the components of m,
# where c is recurrence_coefficient(kind, indices).  The keys are the
# particle numbers the recurrence route covers.
RECURRENCE_ROWS: dict[int, dict[int, Callable[..., list]]] = {
    3: {
        1: lambda m, n: [((-1, 1), ("c", (m,))),
                         ((0, -1), ("a", (m, n)))],
        2: lambda m, n: [((1, -1), ("c", (n,))),
                         ((-1, 0), ("a", (n, m)))],
    },
    4: {
        1: lambda m, l, n: [((-1, 1, 0), ("c", (m,))),
                            ((0, -1, 1), ("a", (m, l))),
                            ((0, 0, -1), ("d", (m, l, n)))],
        # adjusted reading of the z_2 rule: the two order-one mixed terms
        # target P_{m-1,l,n+1} and P_{m+1,l,n-1} respectively
        2: lambda m, l, n: [((1, -1, 1), ("c", (l,))),
                            ((-1, 0, 1), ("a", (l, m))),
                            ((1, 0, -1), ("a", (l, n))),
                            ((-1, 1, -1), ("f", (m, l, n))),
                            ((0, -1, 0), ("g", (m, l, n)))],
        3: lambda m, l, n: [((0, 1, -1), ("c", (n,))),
                            ((1, -1, 0), ("a", (n, l))),
                            ((-1, 0, 0), ("d", (n, l, m)))],
    },
}


# ---------------------------------------------------------------------------
# generation: recurrence route
# ---------------------------------------------------------------------------

def gen_recurrence(m: Weight, N: Optional[int] = None) -> ZPolynomial:
    """Build P_m from P_0 = 1 by the closed-form multiplication rules,
    solving each rule for its top term; N in RECURRENCE_ROWS."""
    m = tuple(m)
    _require_dominant(m)
    if N is None:
        N = len(m) + 1
    _integrals.covered(RECURRENCE_ROWS, N, "recurrence generation")
    if len(m) != N - 1:
        raise ValueError(f"weight {m} has rank {len(m)}, expected {N - 1}")
    return _gen_recurrence_inner(m, N)


@functools.lru_cache(maxsize=None)
def _gen_recurrence_inner(m: Weight, N: int) -> ZPolynomial:
    rank = N - 1
    if all(e == 0 for e in m):
        return ZPolynomial.one(rank)
    # solve the rule for z_1, else z_rank, else z_2: its top term
    # P_{source + e_r} is P_m
    r = 1 if m[0] else rank if m[-1] else 2
    source = tuple(e - (i == r - 1) for i, e in enumerate(m))
    base = _gen_recurrence_inner(source, N)
    zr = ZPolynomial.variable(rank, r)
    acc = zr * base
    for shift, (kind, indices) in RECURRENCE_ROWS[N][r](*source):
        target = tuple(a + b for a, b in zip(source, shift))
        if any(e < 0 for e in target):
            continue  # labels with negative entries are the zero polynomial
        coeff = recurrence_coefficient(kind, indices)
        if not coeff.is_zero:
            acc = acc - _gen_recurrence_inner(target, N).scale(coeff)
    return acc


# ---------------------------------------------------------------------------
# multiplication expansion and its closed-form dual
# ---------------------------------------------------------------------------

class DecompositionError(ArithmeticError):
    """A product failed to decompose in the polynomial basis."""


def expand_product(r: int, m: Weight, N: int) -> dict[Weight, KappaRational]:
    """Exact decomposition of z_r * P_m in the P basis, keyed by the net
    shift; every admissible shift of r elementary steps gets an entry
    (zero when absent)."""
    m = tuple(m)
    _require_dominant(m)
    n = N - 1
    if not 1 <= r <= n:
        raise ValueError(f"z_{r} out of range for rank {n}")
    admissible = [_mu_sum(sub, n)
                  for sub in itertools.combinations(range(1, N + 1), r)]
    work = ZPolynomial.variable(n, r) * gen_eigen(m, N)
    result: dict[Weight, KappaRational] = {}
    while not work.is_zero:
        nu = work.leading_weight()
        shift = tuple(a - b for a, b in zip(nu, m))
        if shift not in admissible:
            raise DecompositionError(
                f"leading weight {nu} is not an admissible target of z_{r}*P_{m}"
                f" at N={N}")
        c = work.coefficient(nu)
        work = work - gen_eigen(nu, N).scale(c)
        result[shift] = c
    for shift in admissible:
        result.setdefault(shift, KappaRational.zero())
    return result


# ---------------------------------------------------------------------------
# step operators
# ---------------------------------------------------------------------------

def step(m: Weight, s: Weight, N: int) -> tuple[ZPolynomial, KappaRational]:
    """Apply the raising/lowering operator for the shift s to P_m.

    Returns (P_{m+s}, sigma) with sigma the proportionality factor; at a
    boundary where the target does not exist the result is (0, 0).
    """
    m = tuple(m)
    s = tuple(s)
    _require_dominant(m)
    _integrals.covered(_integrals.CALIBRATION_WEIGHT, N, "step operators")
    sign, subset, r = shift_decompose(s, N)
    rank = N - 1
    if sign > 0:
        zr = r
        t_shift = kr(-2 * r, N)
    else:
        zr = N - r
        t_shift = kr(2 * r, N)
    # z_r * P_m and each factor of the subset act on the numerators of P_m
    # over its common κ-denominator D; z_r only shifts their exponents
    lv = l_vector(m, N)
    nums, D = _eigen_split(m, N)
    nums = {w[:zr - 1] + (w[zr - 1] + 1,) + w[zr:]: c for w, c in nums.items()}
    for i in subset:
        nums, D = _integrals._delta_at(nums, D, N, lv.component(i) + t_shift)
    if not nums:
        return ZPolynomial.zero(rank), KappaRational.zero()
    where = f"shift {s} at {m}, N={N}"
    target = tuple(a + b for a, b in zip(m, s))
    if any(e < 0 for e in target):
        raise DecompositionError(
            f"nonzero step result for invalid target {target} ({where})")
    p_target = gen_eigen(target, N)
    sigma = _integrals._ratio(nums, D, p_target, target)
    if sigma is None:
        raise DecompositionError(
            f"step result for {where} is not proportional to one polynomial")
    return p_target, sigma


# ---------------------------------------------------------------------------
# closed-form step factors
# ---------------------------------------------------------------------------

def _prod(*factors: KappaRational) -> KappaRational:
    out = KappaRational.one()
    for f in factors:
        out = out * f
    return out


def _pair_norm(a: int, b: int) -> KappaRational:
    """8 (a+b+2κ)(a+κ): single-shift normalization for three particles."""
    return kr(8) * lin(a + b, 2) * lin(a)


def _pair_norm_mixed(a: int, b: int) -> KappaRational:
    """8 (a+κ)(b+κ): mixed single-shift normalization for three particles."""
    return kr(8) * lin(a) * lin(b)


def _chain_norm(m: int, l: int, n: int) -> KappaRational:
    """16 (m+κ)(m+l+2κ)(m+l+n+3κ): single-shift normalization, four particles."""
    return kr(16) * lin(m) * lin(m + l, 2) * lin(m + l + n, 3)


def _chain_norm_mixed(m: int, l: int, n: int) -> KappaRational:
    """16 (m+κ)(l+κ)(l+n+2κ): mixed single-shift normalization, four particles."""
    return kr(16) * lin(m) * lin(l) * lin(l + n, 2)


def _double_norm_adjacent(m: int, l: int, n: int) -> KappaRational:
    """256 (l+κ)(m+1+κ)(m-1+κ)(m+l+2κ)(l+n+2κ)(m+l+n+3κ)."""
    return _prod(kr(256), lin(l), lin(m + 1), lin(m - 1),
                 lin(m + l, 2), lin(l + n, 2), lin(m + l + n, 3))


def _double_norm_split(m: int, l: int, n: int) -> KappaRational:
    """256 (m+κ)(l+κ)(n+κ)(m+l+1+2κ)(m+l-1+2κ)(m+l+n+3κ)."""
    return _prod(kr(256), lin(m), lin(l), lin(n),
                 lin(m + l + 1, 2), lin(m + l - 1, 2), lin(m + l + n, 3))


def _double_norm_outer(m: int, l: int, n: int) -> KappaRational:
    """256 (m+κ)(n+κ)(m+l+2κ)(l+n+2κ)(m+l+n+1+3κ)(m+l+n-1+3κ)."""
    return _prod(kr(256), lin(m), lin(n), lin(m + l, 2), lin(l + n, 2),
                 lin(m + l + n + 1, 3), lin(m + l + n - 1, 3))


def _double_norm_inner(m: int, l: int, n: int) -> KappaRational:
    """256 (m+κ)(n+κ)(l+1+κ)(l-1+κ)(m+l+2κ)(l+n+2κ)."""
    return _prod(kr(256), lin(m), lin(n), lin(l + 1), lin(l - 1),
                 lin(m + l, 2), lin(l + n, 2))


# N -> shift -> closed-form step factor as a function of the components of
# m; the keys are the particle numbers the step tables cover.
SIGMA_TABLES: dict[int, dict[Weight, Callable[..., KappaRational]]] = {
    3: {
        (1, 0): lambda m, n: -_pair_norm(m, n),
        (-1, 1): lambda m, n: _pair_norm_mixed(m, n) * _rc("c", m),
        (0, -1): lambda m, n: -_pair_norm(n, m) * _rc("a", m, n),
        (-1, 0): lambda m, n: _pair_norm(m, n) * _rc("a", n, m),
        (1, -1): lambda m, n: -_pair_norm_mixed(m, n) * _rc("c", n),
        (0, 1): lambda m, n: _pair_norm(n, m),
    },
    # The two mixed double shifts carry the same adjusted reading as the z_2
    # multiplication rule: their order-one factors are a(l,n) and a(l,m).
    4: {
        (1, 0, 0): lambda m, l, n: -_chain_norm(m, l, n),
        (-1, 1, 0): lambda m, l, n: _chain_norm_mixed(m, l, n) * _rc("c", m),
        (0, -1, 1): lambda m, l, n: -_chain_norm_mixed(n, l, m) * _rc("a", m, l),
        (0, 0, -1): lambda m, l, n: _chain_norm(n, l, m) * _rc("d", m, l, n),
        (0, 0, 1): lambda m, l, n: -_chain_norm(n, l, m),
        (0, 1, -1): lambda m, l, n: _chain_norm_mixed(n, l, m) * _rc("c", n),
        (1, -1, 0): lambda m, l, n: -_chain_norm_mixed(m, l, n) * _rc("a", n, l),
        (-1, 0, 0): lambda m, l, n: _chain_norm(m, l, n) * _rc("d", n, l, m),
        (0, 1, 0): lambda m, l, n: -_double_norm_adjacent(m, l, n),
        (1, -1, 1): lambda m, l, n: _double_norm_split(m, l, n) * _rc("c", l),
        (1, 0, -1): lambda m, l, n: -_double_norm_outer(m, l, n) * _rc("a", l, n),
        (-1, 0, 1): lambda m, l, n: -_double_norm_inner(m, l, n) * _rc("a", l, m),
        (-1, 1, -1): lambda m, l, n: _double_norm_split(n, l, m) * _rc("f", m, l, n),
        (0, -1, 0): lambda m, l, n: -_double_norm_adjacent(n, l, m) * _rc("g", m, l, n),
    },
}


def tabulated_shifts(N: int) -> tuple[Weight, ...]:
    return tuple(_integrals.covered(SIGMA_TABLES, N, "step tables"))


def sigma_closed_form(m: Weight, s: Weight, N: int) -> KappaRational:
    """Closed-form proportionality factor of the step operator for shift s."""
    m = tuple(m)
    s = tuple(s)
    _require_dominant(m)
    fn = _integrals.covered(SIGMA_TABLES, N, "step tables").get(s)
    if fn is None:
        raise ShiftNotTabulated(f"shift {s} has no tabulated step operator")
    return fn(*m)

"""Generalized Gegenbauer polynomials of A_n type and their spectral data.

Two independent generation routes are provided:

* ``gen_eigen`` solves the order-2 eigenproblem triangularly over the
  dominance cone of the target weight on its closed form, which the x-space
  engine checks (works for every N >= 2);
* ``gen_recurrence`` builds the family inductively from the closed-form
  multiplication rules for z_1, z_2, z_3 (N = 3 and 4).

Both routes and ``expand_product``'s peel of z_r·P_m in the P basis run on
factored values (``scalars._fmul``); each cached P_m keeps its split into
reduced factored values beside its z-polynomial, so none takes a polynomial gcd.

On top of these sit the spectral vectors of the characteristic operator,
the closed-form recurrence coefficients, and the raising/lowering (step)
operators.  Their proportionality factors σ have a closed form that reads no
step code: a recurrence row's coefficient times the spectral product of the
operator's Δ factors (``sigma_closed_form``).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
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
    _canonical,
    _cofactor,
    _factored,
    _fadd,
    _fmul,
    _from_factored,
    _padd,
    _pmul,
    _reduced,
    lin,
)
from .symfun import (
    Weight,
    ZPolynomial,
    dominance_key,
    dominated_weights,
    weight_partition,
)
from . import integrals as _integrals


class ShiftNotTabulated(ValueError):
    """Raised when a step-operator shift has no closed-form entry."""


def _require_dominant(m: Weight, N: int):
    """A ValueError unless m is a dominant weight of rank N - 1."""
    if len(m) < 1 or any((e < 0 or not isinstance(e, int)) for e in m):
        raise ValueError(f"{m} is not a dominant weight")
    if len(m) != N - 1:
        raise ValueError(f"weight {m} has rank {len(m)}, expected {N - 1}")


# ---------------------------------------------------------------------------
# eigenvalues and spectral vectors
# ---------------------------------------------------------------------------

def epsilon2(m: Weight, N: int) -> KappaPolynomial:
    """Excitation eigenvalue of the order-2 integral: affine in κ."""
    _require_dominant(m, N)
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
        if not 1 <= j <= self.N:
            raise ValueError(f"component {j} out of range 1..{self.N}")
        return lin(*self.entries[j - 1])

    def __iter__(self):
        return iter(self.entries)


def l_vector(m: Weight, N: int) -> LVector:
    """Spectral vector: twice the κ-shifted weight in the N-dim realization."""
    _require_dominant(m, N)
    return LVector(N, tuple((Fraction(c, N), Fraction(s, N))
                            for c, s in _scaled_l(m, N)))


def _scaled_l(m: Weight, N: int) -> tuple[tuple[int, int], ...]:
    """N * l_vector(m, N) as integer (constant, slope) pairs."""
    base = sum((N - k) * e for k, e in enumerate(m, start=1))
    return tuple((2 * (base - N * sum(m[:j - 1])), N * (N + 1 - 2 * j))
                 for j in range(1, N + 1))


def char_eigenvalue(m: Weight, N: int) -> list[KappaRational]:
    """Coefficients, ascending in t, of the spectral product
    prod_j (t - l_j) for the weight m: N^-N prod_j (u - N l_j) in u = N t,
    multiplied out on the integer pairs of ``_scaled_l``, with the
    coefficient of u^k over N^(N-k) reduced once."""
    _require_dominant(m, N)
    coeffs: list[tuple] = [(1,)]
    for c, s in _scaled_l(m, N):
        root = _padd((-c,), (0, -s))
        coeffs = [_padd(_pmul(root, cf), low)
                  for cf, low in zip(coeffs + [()], [()] + coeffs)]
    return [_canonical(cf, N ** (N - k), ()) for k, cf in enumerate(coeffs)]


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
    sign; returns (sign, subset, r).

    The subset's indicator x has x_k − x_{k+1} = sign·s_k, so the tail sums
    of s with a 0 appended are sign·(x_k − x_N): they take exactly two
    adjacent values, and the subset is where they are largest when raising,
    the rest when lowering.  The smaller r is preferred, then raising: the
    step operators realize every double shift at N = 4 through the
    raising-side spectral product."""
    if len(s) != N - 1:
        raise ValueError(f"shift {s} has wrong rank")
    tails = tuple(itertools.accumulate(reversed((*s, 0))))[::-1]
    top = max(tails)
    if set(tails) != {top - 1, top}:
        raise ShiftNotTabulated(f"{s} is not a signed sum of distinct elementary shifts")
    subset = tuple(k for k, t in enumerate(tails, start=1) if t == top)
    if 2 * len(subset) <= N:
        return 1, subset, len(subset)
    return -1, tuple(k for k, t in enumerate(tails, start=1) if t != top), N - len(subset)


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
# generation: eigen route, on z-polynomials split into factored values
# ---------------------------------------------------------------------------

def _settle(rank: int, values: dict) -> tuple:
    """The z-polynomial of factored coefficients, each reduced once, and its
    read-only split into the reduced values: what the generation caches keep."""
    split = {w: _reduced(*v) for w, v in values.items() if v[0]}
    return (ZPolynomial._raw(rank, {w: _canonical(*v) for w, v in split.items()}),
            types.MappingProxyType(split))


def _times_z(r: int, split) -> dict:
    """z_r times a split z-polynomial: z_r only shifts the exponents."""
    return {w[:r - 1] + (w[r - 1] + 1,) + w[r:]: v for w, v in split.items()}


def _peel(work: dict, c: tuple, split) -> None:
    """work -= c · split, in place on factored values; zeros are dropped."""
    num, scale, factors = c
    c = num, -scale, factors
    for w, v in split.items():
        acc = _fmul(c, v) if w not in work else _fadd(work[w], _fmul(c, v))
        if acc[0]:
            work[w] = acc
        else:
            del work[w]


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
    N = len(m) + 1 if N is None else N
    _require_dominant(m, N)
    if kappa is None:
        return _symbolic_eigen(m, N)[0]
    kappa = Fraction(kappa)
    return _solve_eigen(m, N, kappa)[0].substitute_kappa(kappa)


@functools.lru_cache(maxsize=None)
def _symbolic_eigen(m: Weight, N: int) -> tuple:
    """P_m and its reduced split (``_settle``)."""
    return _solve_eigen(m, N, None)


def _solve_eigen(m: Weight, N: int, kappa: Optional[Fraction]) -> tuple:
    """Triangular solve on order2_terms(N): the diagonal entries are epsilon2,
    and each solved coefficient pushes the integer rest down the cone.  The
    pushes are factored values (scalars._fadd); solving μ divides by
    N(ε(m) − ε(μ)), an integer affine gap.  A numeric κ only checks the gaps."""
    cone = dominated_weights(m)
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
    return _settle(N - 1, solved)


# ---------------------------------------------------------------------------
# closed-form recurrence coefficients
# ---------------------------------------------------------------------------

def recurrence_coefficient(kind: str, args) -> KappaRational:
    """Closed-form coefficient of the multiplication rules.

    Kinds: 'c' (1 index), 'a' (2 indices), 'd', 'f', 'g' (3 indices).
    Returns 0 whenever the leading index factor vanishes.  Each kind is an
    integer times affine factors a + bκ over affine factors, a factored
    value (scalars._factored) reduced once by trial division: no polynomial
    gcd is taken.
    """
    return _from_factored(*_rc(kind, *args))


def _rc(kind: str, *args) -> tuple:
    """recurrence_coefficient(kind, args) as a factored value; its integer
    constant is the leading index factor, so it vanishes with it."""
    if any(not isinstance(x, int) or x < 0 for x in args):
        raise ValueError(f"index of {kind}{args} is not a non-negative int")
    if kind == "c":
        (m,) = args
        return _factored(m, [(m - 1, 2)], [(m, 1), (m - 1, 1)])
    if kind == "a":
        p, q = args
        return _factored(q, [(p + q, 1), (q - 1, 2), (p + q - 1, 3)],
                         [(q, 1), (q - 1, 1), (p + q, 2), (p + q - 1, 2)])
    if kind == "d":
        m, l, n = args
        return _factored(n, [(l + n, 1), (n - 1, 2), (m + l + n, 2),
                             (l + n - 1, 3), (m + l + n - 1, 4)],
                         [(n, 1), (n - 1, 1), (l + n, 2), (l + n - 1, 2),
                          (m + l + n, 3), (m + l + n - 1, 3)])
    if kind == "f":
        m, l, n = args
        return _factored(m * n, [(m - 1, 2), (n - 1, 2), (m + l + n, 2),
                                 (m + l + n - 1, 4)],
                         [(m, 1), (n, 1), (m - 1, 1), (n - 1, 1),
                          (m + l + n, 3), (m + l + n - 1, 3)])
    if kind == "g":
        m, l, n = args
        return _factored(l, [(m + l, 1), (l + n, 1), (l - 1, 2), (m + l + n, 2),
                             (m + l - 1, 3), (l + n - 1, 3), (m + l + n - 1, 4)],
                         [(l, 1), (l - 1, 1), (m + l, 2), (m + l - 1, 2),
                          (l + n, 2), (l + n - 1, 2), (m + l + n, 3),
                          (m + l + n - 1, 3)])
    raise ValueError(f"unknown coefficient kind {kind!r}")


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
    N = len(m) + 1 if N is None else N
    _require_dominant(m, N)
    _integrals.covered(RECURRENCE_ROWS, N, "recurrence generation")
    return _gen_recurrence_inner(m, N)[0]


@functools.lru_cache(maxsize=None)
def _gen_recurrence_inner(m: Weight, N: int) -> tuple:
    """P_m by recurrence and its reduced split (``_settle``)."""
    rank = N - 1
    if not any(m):
        return _settle(rank, {m: ((1,), 1, Counter())})
    # solve the rule for z_1, else z_rank, else z_2: its top term
    # P_{source + e_r} is P_m
    r = 1 if m[0] else rank if m[-1] else 2
    source = tuple(e - (i == r - 1) for i, e in enumerate(m))
    work = _times_z(r, _gen_recurrence_inner(source, N)[1])
    for shift, (kind, indices) in RECURRENCE_ROWS[N][r](*source):
        target = tuple(a + b for a, b in zip(source, shift))
        if any(e < 0 for e in target):
            continue  # labels with negative entries are the zero polynomial
        coeff = _reduced(*_rc(kind, *indices))
        if coeff[0]:
            _peel(work, coeff, _gen_recurrence_inner(target, N)[1])
    return _settle(rank, work)


# ---------------------------------------------------------------------------
# multiplication expansion and its closed-form dual
# ---------------------------------------------------------------------------

class DecompositionError(ArithmeticError):
    """A product failed to decompose in the polynomial basis."""


def expand_product(r: int, m: Weight, N: int) -> dict[Weight, KappaRational]:
    """Exact decomposition of z_r * P_m in the P basis, keyed by the net
    shift; every admissible shift of r elementary steps gets an entry
    (zero when absent).  Each coefficient is reduced once."""
    m = tuple(m)
    _require_dominant(m, N)
    n = N - 1
    if not 1 <= r <= n:
        raise ValueError(f"z_{r} out of range for rank {n}")
    admissible = [_mu_sum(sub, n)
                  for sub in itertools.combinations(range(1, N + 1), r)]
    work = _times_z(r, _symbolic_eigen(m, N)[1])
    result: dict[Weight, KappaRational] = {}
    while work:
        nu = max(work, key=dominance_key)
        shift = tuple(a - b for a, b in zip(nu, m))
        if shift not in admissible:
            raise DecompositionError(
                f"leading weight {nu} is not an admissible target of z_{r}*P_{m}"
                f" at N={N}")
        c = _reduced(*work[nu])
        _peel(work, c, _symbolic_eigen(nu, N)[1])  # P_nu is monic: work[nu] cancels
        result[shift] = _canonical(*c)
    for shift in admissible:
        result.setdefault(shift, KappaRational.zero())
    return result


# ---------------------------------------------------------------------------
# step operators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _shifted_delta(m: Weight, N: int, r: int, points: tuple):
    """The Δ(t) coefficients of Δ(p_1/N) ⋯ Δ(p_k/N) z_r · P_m for the integer
    κ-polynomials p of points, read-only: (coefficients of t^0 .. t^N, M,
    scale, factors), each coefficient a mapping of integer numerators over
    M · scale · Π f^k, where M is an integer and scale · Π f^k is the common
    denominator of P_m's reduced split, kept factored.  Each prefix of the
    points is its own key: the last point is evaluated on the cached
    coefficients of the prefix, so integrals._delta runs once per key."""
    if points:
        coeffs, M, scale, factors = _shifted_delta(m, N, r, points[:-1])
        nums, (M,) = _integrals._delta_at(coeffs, M, points[-1], (N,))
    else:
        split = _symbolic_eigen(m, N)[1]
        scale = math.lcm(*(c for _, c, _ in split.values()))
        joint = functools.reduce(operator.or_, (f for _, _, f in split.values()))
        nums = {w: _pmul(num, _cofactor(scale // c, joint - f))
                for w, (num, c, f) in _times_z(r, split).items()}
        M, factors = 1, types.MappingProxyType(joint)
    coeffs, more = _integrals._delta(nums, N)
    return tuple(map(types.MappingProxyType, coeffs)), M * more, scale, factors


def _ratio(nums: dict, split, w0: Weight) -> Optional[tuple]:
    """nums[w0] when nums == nums[w0] · P for the P of a reduced split
    (``_settle``) whose coefficient at w0 is 1, checked by cross-multiplication
    in ℤ[κ]; None when there is none."""
    top = nums.get(w0, ())
    if nums.keys() <= split.keys() and all(
            _pmul(nums.get(w, ()), _cofactor(c, f)) == _pmul(top, num)
            for w, (num, c, f) in split.items()):
        return top
    return None


def step(m: Weight, s: Weight, N: int) -> tuple[ZPolynomial, KappaRational]:
    """Apply the raising/lowering operator for the shift s to P_m.

    Returns (P_{m+s}, sigma) with sigma the proportionality factor; at a
    boundary where the target does not exist the result is (0, 0).

    The operator is z_r times a factor Δ(l_i + t_s) for each i of the shift's
    subset, with t_s = -2r/N when raising and +2r/N when lowering with
    z_{N-r}.  Each point is N · (l_i + t_s), an integer affine κ-polynomial
    over b = N, and each factor evaluates the cached Δ coefficients of the
    factors before it (``_shifted_delta``), which every shift of one sign,
    r and prefix shares.  σ is read off by cross-multiplication against the
    target's cached split (``_ratio``) and reduced with the denominator
    factored, so no KappaRational is built before σ and, with calibrate(N)
    warm, no polynomial gcd is taken.
    """
    m = tuple(m)
    s = tuple(s)
    _require_dominant(m, N)
    _integrals.covered(_integrals.CALIBRATION_WEIGHT, N, "step operators")
    sign, subset, r = shift_decompose(s, N)
    *prefix, last = (_padd((c - 2 * r * sign,), (0, slope))  # N · (l_i + t_s)
                     for i, (c, slope) in enumerate(_scaled_l(m, N), start=1)
                     if i in subset)
    coeffs, M, scale, factors = _shifted_delta(m, N, r if sign > 0 else N - r,
                                               tuple(prefix))
    nums, (multiplier,) = _integrals._delta_at(coeffs, M, last, (N,))
    if not nums:
        return ZPolynomial.zero(N - 1), KappaRational.zero()
    where = f"shift {s} at {m}, N={N}"
    target = tuple(a + b for a, b in zip(m, s))
    if any(e < 0 for e in target):
        raise DecompositionError(
            f"nonzero step result for invalid target {target} ({where})")
    p_target, split = _symbolic_eigen(target, N)
    top = _ratio(nums, split, target)
    if top is None:
        raise DecompositionError(
            f"step result for {where} is not proportional to one polynomial")
    return p_target, _from_factored(top, scale * multiplier, factors)


# ---------------------------------------------------------------------------
# closed-form step factors
# ---------------------------------------------------------------------------

# N -> the shifts of the step operators, in the order the tables print them
# (no rule gives it at both N); the keys are the particle numbers the step
# tables cover, each with the RECURRENCE_ROWS that sigma_closed_form reads.
STEP_SHIFTS: dict[int, tuple[Weight, ...]] = {
    3: ((1, 0), (-1, 1), (0, -1), (-1, 0), (1, -1), (0, 1)),
    4: ((1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1), (0, 0, 1), (0, 1, -1),
        (1, -1, 0), (-1, 0, 0), (0, 1, 0), (1, -1, 1), (1, 0, -1), (-1, 0, 1),
        (-1, 1, -1), (0, -1, 0)),
}


def tabulated_shifts(N: int) -> tuple[Weight, ...]:
    return _integrals.covered(STEP_SHIFTS, N, "step tables")


def sigma_closed_form(m: Weight, s: Weight, N: int) -> KappaRational:
    """Closed-form proportionality factor σ(m, s) of the step operator.

    The operator is z_j followed by the factors Δ(l_i + t_s) for i in the
    shift's subset S (``step``), with j = r when raising and N − r when
    lowering.  So σ is the coefficient c of P_{m+s} in z_j·P_m, read from
    RECURRENCE_ROWS[N][j] (1 for the top shift e_j), times the value of
    those factors on P_{m+s}: with λ = weight_partition(m),

        Π_{i∈S} Π_{k=1..N} 2(λ_i − λ_k + (k − i)κ − sign·[k∈S]),

    whose factor at k = i is the constant −2·sign.  The product is one
    factored value, reduced once by trial division: no polynomial gcd.
    """
    m = tuple(m)
    s = tuple(s)
    _require_dominant(m, N)
    _integrals.covered(STEP_SHIFTS, N, "step tables")
    sign, subset, r = shift_decompose(s, N)
    lam = weight_partition(m)
    value = _factored((-2 * sign) ** r * 2 ** (r * (N - 1)),
                      [(lam[i - 1] - lam[k - 1] - sign * (k in subset), k - i)
                       for i in subset for k in range(1, N + 1) if k != i])
    j = r if sign > 0 else N - r
    if s != tuple(int(k == j) for k in range(1, N)):
        kind, indices = dict(RECURRENCE_ROWS[N][j](*m))[s]
        value = _fmul(value, _rc(kind, *indices))
    return _from_factored(*value)

"""The operator engine: commuting Sutherland integrals acting on z-polynomials.

The engine realizes the gauge-transformed integrals of motion of order
j = 2, 3, 4 through the x-representation.  The coordinate dictionary is
fixed once, for x_j on the unit circle:

    derivative factor   ->  2i * (x_j d/dx_j - d/N)   per homogeneous degree d
    gauge potential A_j ->  i * B_j,  B_j = sum_{k!=j} (x_j+x_k)/(x_j-x_k)
    curvature (dA)_jk   ->  -4 x_j x_k / (x_j - x_k)^2

A term of order j is a product of curvature pairs, gauge factors and
derivative factors over j distinct particle indices, summed over all
non-equivalent index assignments; the kappa power of a term is the number
of gauge factors plus twice the number of curvature pairs, that is
j - mom for a term with mom derivative factors.  The engine works with the
real B_j and the integer momentum N x_j d/dx_j - d; the factors of i leave
the sign (-1)^curv on a term with curv curvature pairs, and a factor 2 per
derivative.

So the x-space layer computes over the integers, one kappa power at a time.
The lifted z-monomial f is symmetric and the momenta, the gauge rows and
the curvature are S_N-equivariant, so the terms with mom derivative
factors are summed once per index orbit: the signed sum of every gauge and
curvature placement on the indices mom+1..N is H / V in closed form, with
V = prod_{a<b} (x_a - x_b) = a_δ and H = sum over the (j - mom)-sets S of
mom+1..N of prod_{b in S} (2 x_b d/dx_b - N + 1) V, an integer sum over the
permutations of δ (``_gauge_weight``), and the image is the sum of the
C(N, mom) images of (D_1..D_mom f) * H / V under index permutations.
Both factors have a sign under the swaps inside each block, so that sum is
an alternant over V, and Jacobi's bialternant a_{λ+δ} / a_δ = s_λ
(Macdonald I (3.1)) reads it as a sum of Schur polynomials, whose images
are dual Jacobi–Trudi determinants in the z_i (I (3.5)).  Each mom gives
a z-polynomial Z_mom with integer coefficients, with no exact division and
no projection per image.  The single assembly step

    sum over mom of  kappa^(j - mom) * 2^mom * N^(j - mom) * Z_mom

gives every coefficient of the image as an integer κ-polynomial over the
denominator N^j.  Every term shape carries a derivative factor, so the
action on constants is zero: the purely multiplicative terms are left out,
which realizes normal ordering.

The integrals and the characteristic operator Δ(t) act fraction-free, in
the sense of Collins: a z-polynomial is split into κ-polynomials with
integer coefficients (tuples of Python ints) over one common denominator D
in ℤ[κ], the lcm of its cleared coefficient denominators.  The engine
images, the calibration scales and offsets and t = a/b are cleared to
integers and multiplied into the numerators; their denominators N^j, the
calibration's integer factor and b^N go into D.  Only each output
coefficient is reduced, once, as a KappaRational numerator / D, with no
polynomial gcd when D is a constant.

``apply_integral(2, . )`` is normalized to have the non-negative spectrum
(its eigenvalue on an eigenpolynomial is the excitation energy); higher
orders keep their natural normalization, which the characteristic-operator
calibration pins against the spectral product form.

``order2_terms`` is the order-2 integral in closed form, which gen_eigen
solves on; it and the engine are derived apart, so each checks the other.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import (
    IntPoly,
    KappaPolynomial,
    KappaRational,
    _cleared,
    _lcm,
    _padd,
    _pdiv_exact,
    _pmul,
    kr,
    lin,
)
from .symfun import (
    NonSymmetricInput,
    RankMismatch,
    Weight,
    XPolynomial,
    ZPolynomial,
    _add_term,
    _coerce_scalar,
    _elementary_product,
    grlex_key,
    weighted_degree,
)

SUPPORTED_ORDERS = (2, 3, 4)

# N -> the fourth eigen-weight on which calibrate checks each integral.  Its
# keys are the particle numbers whose whole commuting family (orders 2..N)
# the engine covers: calibration, Δ(t) and the step operators.
CALIBRATION_WEIGHT = {3: (1, 1), 4: (0, 1, 0)}


def covered(table: dict, N: int, family: str):
    """The entry of a closed-form family's table for N; a ValueError naming
    the family and N when the family does not cover N."""
    if N not in table:
        known = ", ".join(map(str, table))
        raise ValueError(f"{family}: tabulated for N in {{{known}}},"
                         f" got N={N} (rank {N - 1})")
    return table[N]


class EngineError(ArithmeticError):
    """Internal consistency failure of the operator engine."""


class ConventionMismatch(EngineError):
    """No affine recombination of the engine output fits the spectral
    product form; signals an engine bug."""


# ---------------------------------------------------------------------------
# elementary factors
# ---------------------------------------------------------------------------

def apply_momentum(f: XPolynomial, j: int) -> XPolynomial:
    """Barycentric momentum times N: N x_j d/dx_j - d on each homogeneous
    component of degree d, an operator with integer coefficients; the
    engine's assembly divides by N once per derivative factor."""
    N = f.nvars
    if not 1 <= j <= N:
        raise ValueError(f"index {j} out of range")
    ji = j - 1
    out = {}
    for e, c in f.terms.items():
        factor = e[ji] * N - sum(e)
        if factor:
            out[e] = c * factor
    return XPolynomial._raw(N, out)


# ---------------------------------------------------------------------------
# the integral action
# ---------------------------------------------------------------------------

Numerators = dict[Weight, IntPoly]  # over one common κ-denominator
_ONE: IntPoly = (1,)


def _add_num(out: Numerators, key: Weight, c: IntPoly) -> None:
    """Sum c into out[key], dropping the entry when the sum is zero."""
    s = out.get(key)
    s = c if s is None else _padd(s, c)
    if s:
        out[key] = s
    else:
        out.pop(key, None)


@functools.lru_cache(maxsize=None)
def _gauge_weight(order: int, mom: int, N: int) -> tuple:
    """The signed sum of the gauge and curvature factors that multiply
    D_1..D_mom f in the order-j terms with mom derivative factors, placed
    on the indices mom+1..N, as H / V with V = a_δ.  With D_b = x_b d/dx_b,
    B_b = 2 D_b log V - (N - 1) and the curvature is -4 D_a D_c log V; as
    log V is a sum of two-variable terms, H is the sum over the p-sets S of
    mom+1..N of prod_{b in S} (2 D_b - N + 1) V, p = j - mom.  D_b scales
    the term sgn(v) x^v of V by v_b, so H changes sign under each swap
    inside a block, 1..mom or mom+1..N.  Returned as its terms
    sgn(v) e_p(2 v_b - N + 1 : b > mom) x^v whose exponents, the shuffles
    of δ into the blocks, strictly decrease on each block."""
    delta = range(N - 1, -1, -1)
    out = []
    for head in itertools.combinations(delta, mom):
        tail = tuple(d for d in delta if d not in head)
        ep = sum(math.prod(2 * d - N + 1 for d in s)
                 for s in itertools.combinations(tail, order - mom))
        if ep:
            odd = sum(a < b for a in head for b in tail) % 2
            out.append((head + tail, -ep if odd else ep))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _schur_image(lam: Weight, N: int) -> tuple:
    """The Schur polynomial s_λ of a partition with N parts, in z_1..z_{N-1}
    with e_N = 1, as (weight, integer) pairs: the dual Jacobi–Trudi
    determinant det(e_{λ'_i - i + j}) of λ less its last part (Macdonald I
    (3.5)), expanded row by row over the set of columns used."""
    conj = [sum(1 for p in lam if p > i) for i in range(lam[-1], lam[0])]
    minors = {0: {(0,) * (N - 1): 1}}  # columns used, as a bit mask -> minor
    for i, length in enumerate(conj):
        grown: dict[int, dict] = {}
        for used, minor in minors.items():
            for j in range(len(conj)):
                k = length - i + j  # the entry e_k
                if used >> j & 1 or not 0 <= k <= N:
                    continue
                sign = -1 if (used >> j).bit_count() % 2 else 1
                out = grown.setdefault(used | 1 << j, {})
                for v, c in minor.items():
                    if 0 < k < N:
                        v = v[:k - 1] + (v[k - 1] + 1,) + v[k:]
                    _add_term(out, v, sign * c)
        minors = grown
    return tuple(minors.get((1 << len(conj)) - 1, {}).items())


@functools.lru_cache(maxsize=None)
def _engine_monomial(order: int, w: Weight, N: int) -> tuple:
    """Raw engine action on the single monomial z^w (natural normalization),
    as (weight, integer κ-polynomial) pairs over the denominator N^order,
    sorted by weight.  f = z^w lifted is symmetric and the factors are
    S_N-equivariant, so the terms with mom derivative factors sum to the
    C(N, mom) index-set images of g * H / V, for g = D_1..D_mom f and H / V
    the ``_gauge_weight``.  g is symmetric and H antisymmetric on each
    block, so that sum is A / V with A = sum c*d*a_{β+γ} over the kept terms
    c*x^β of H and every term d*x^γ of g, where a_v is the alternant of x^v:
    zero when v has a repeated entry, and sgn * a_α for α = sort(v)
    otherwise.  A / V is the sum of A_α s_{α-δ}, read off ``_schur_image``."""
    f = _elementary_product(N, w)
    delta = range(N - 1, -1, -1)
    image: dict[Weight, list[int]] = {}
    for mom in range(order, 0, -1):
        g = f
        for a in range(1, mom + 1):
            g = apply_momentum(g, a)
        if g.is_zero:
            continue
        power = order - mom
        context = f"engine order {order}, weight {w}, N={N}, κ power {power}"
        viol = g.swap_violation(j for j in range(1, N) if j != mom)
        if viol is not None:
            raise NonSymmetricInput(f"{context}: D_1..D_{mom} f not symmetric"
                                    f" under x_{viol[0]} <-> x_{viol[1]}")
        alternant: dict[tuple, int] = {}
        for beta, c in _gauge_weight(order, mom, N):
            for gamma, d in g.terms.items():
                v = tuple(map(operator.add, beta, gamma))
                if len(set(v)) < N:
                    continue
                odd = sum(a < b for a, b in itertools.combinations(v, 2)) % 2
                alpha = tuple(sorted(v, reverse=True))
                alternant[alpha] = alternant.get(alpha, 0) + (-c * d if odd else c * d)
        z: dict[Weight, int] = {}
        for alpha, a in alternant.items():
            if a:
                for v, s in _schur_image(tuple(map(operator.sub, alpha, delta)), N):
                    z[v] = z.get(v, 0) + a * s
        grade = 2 ** mom * N ** power
        for v, c in z.items():
            if not isinstance(c, int):
                raise EngineError(f"{context}: coefficient {c!r} is not an integer")
            if c:
                image.setdefault(v, [0] * order)[power] = grade * c
    for cs in image.values():
        while not cs[-1]:
            cs.pop()
    return tuple(sorted((v, tuple(cs)) for v, cs in image.items()))


def _split(p: ZPolynomial) -> tuple[Numerators, IntPoly]:
    """p's coefficients as integer numerators over D, the lcm of their
    cleared denominators."""
    cleared = {w: _cleared(c) for w, c in p.terms.items()}
    dens = {d for _, d in cleared.values()}
    if dens <= {_ONE}:
        return {w: n for w, (n, _) in cleared.items()}, _ONE
    D = _lcm(dens)
    cofactors = {d: _pdiv_exact(D, d) for d in dens}
    return {w: _pmul(n, cofactors[d]) for w, (n, d) in cleared.items()}, D


def _rebuild(rank: int, nums: Numerators, D: IntPoly) -> ZPolynomial:
    """The z-polynomial with coefficients nums[w] / D."""
    den = KappaPolynomial(D)
    return ZPolynomial._raw(rank, {w: KappaRational(KappaPolynomial(n), den)
                                   for w, n in nums.items()})


def _integral(order: int, nums: Numerators, N: int) -> Numerators:
    """N^order times the order-j integral, on numerators over a common
    denominator."""
    out: Numerators = {}
    for w, c in nums.items():
        for v, e in _engine_monomial(order, w, N):
            _add_num(out, v, _pmul(c, e))
    if order == 2:
        out = {w: _pmul(c, (-1,)) for w, c in out.items()}
    return out


def apply_integral(order: int, p: ZPolynomial, N: Optional[int] = None) -> ZPolynomial:
    """Action of the order-j commuting integral on a z-polynomial.

    Order 2 is normalized so eigenpolynomials have their excitation energies
    as eigenvalues; the action on constants is zero for every order.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"integral order {order} not supported (need 2..4)")
    if N is None:
        N = p.rank + 1
    if p.rank != N - 1:
        raise RankMismatch(f"rank {p.rank} polynomial with N={N}")
    if N < order:
        raise ValueError(f"order {order} needs at least {order} particles, got {N}")
    nums, D = _split(p)
    return _rebuild(p.rank, _integral(order, nums, N), _pmul(D, (N ** order,)))


# ---------------------------------------------------------------------------
# closed-form z-space operators
# ---------------------------------------------------------------------------

class ZOperator:
    """Differential operator in the z coordinates: a sum of
    coefficient-polynomial times derivative-monomial terms."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("ZOperator is immutable")

    def __reduce__(self):
        return ZOperator, (self.rank, self.terms)

    def apply(self, p: ZPolynomial) -> ZPolynomial:
        if p.rank != self.rank:
            raise RankMismatch(f"rank {p.rank} vs operator rank {self.rank}")
        out = ZPolynomial.zero(self.rank)
        for coeff, deriv in self.terms:
            q = p
            for i, e in enumerate(deriv, start=1):
                for _ in range(e):
                    q = q.derivative(i)
                    if q.is_zero:
                        break
            if not q.is_zero:
                out = out + coeff * q
        return out

    def sorted_terms(self):
        return sorted(self.terms, key=lambda t: grlex_key(t[1]), reverse=True)


@functools.lru_cache(maxsize=None)
def order2_terms(N: int) -> tuple:
    """The order-2 integral in closed form for every N >= 2, in
    apply_integral's normalization: the radial type-A Laplace–Beltrami
    operator in elementary symmetric coordinates (Beerends, Trans. AMS 328,
    1991).  With ∂_r = ∂/∂z_r, z_0 = z_N = 1 and A symmetric,

        L₂ = Σ_r (2r(N−r)/N)(1+Nκ) z_r ∂_r + Σ_{r,s} A_rs ∂_r ∂_s,
        A_rs = (2/N) r (N−s) z_r z_s − 2 Σ_{k≥1} (s−r+2k) z_{r−k} z_{s+k}, r <= s.

    Each term is (coefficient, multiplier, derivative), for the affine
    coefficient (constant, slope) times z^multiplier ∂^derivative.  The
    terms with multiplier == derivative sum to epsilon2 on monomials; the
    others have integer coefficients and lower a monomial in dominance."""
    if N < 2:
        raise ValueError(f"the order-2 integral needs at least 2 particles, got N={N}")

    def z(*indices):  # the exponent of a product of z_i, with z_0 = z_N = 1
        return tuple(indices.count(j) for j in range(1, N))

    terms = [((Fraction(2 * r * (N - r), N), 2 * r * (N - r)), z(r), z(r))
             for r in range(1, N)]
    for r, s in itertools.combinations_with_replacement(range(1, N), 2):
        pair = 1 if r == s else 2  # ∂_r∂_s and ∂_s∂_r
        terms.append(((pair * Fraction(2 * r * (N - s), N), 0), z(r, s), z(r, s)))
        terms += [((-2 * pair * (s - r + 2 * k), 0), z(r - k, s + k), z(r, s))
                  for k in range(1, min(r, N - s) + 1)]
    return tuple(terms)


def transcribed_operator(N: int, order: int) -> ZOperator:
    """Closed-form z-space operator in apply_integral's normalization: order
    2 for every N >= 2 from order2_terms, order 3 transcribed for N = 3."""
    if order == 2:
        coeffs: dict[Weight, dict] = {}
        for c, mult, deriv in order2_terms(N):
            coeffs.setdefault(deriv, {})[mult] = lin(*c)
        return ZOperator(N - 1, [(ZPolynomial(N - 1, cs), deriv)
                                 for deriv, cs in coeffs.items()])
    if (N, order) == (3, 3):
        s = kr(8, 27)
        lin2 = KappaRational(KappaPolynomial.linear(2, 3))  # 2 + 3k
        lin1 = KappaRational(KappaPolynomial.linear(1, 3))  # 1 + 3k
        return ZOperator(2, [
            (ZPolynomial(2, {(3, 0): s * kr(2), (1, 1): s * kr(-9),
                             (0, 0): s * kr(27)}), (3, 0)),
            (ZPolynomial(2, {(2, 1): s * kr(3), (0, 2): s * kr(-18),
                             (1, 0): s * kr(27)}), (2, 1)),
            (ZPolynomial(2, {(1, 2): s * kr(-3), (2, 0): s * kr(18),
                             (0, 1): s * kr(-27)}), (1, 2)),
            (ZPolynomial(2, {(0, 3): s * kr(-2), (1, 1): s * kr(9),
                             (0, 0): s * kr(-27)}), (0, 3)),
            (ZPolynomial(2, {(2, 0): s * kr(3) * lin2,
                             (0, 1): s * kr(-9) * lin2}), (2, 0)),
            (ZPolynomial(2, {(0, 2): s * kr(-3) * lin2,
                             (1, 0): s * kr(9) * lin2}), (0, 2)),
            (ZPolynomial(2, {(1, 0): s * lin2 * lin1}), (1, 0)),
            (ZPolynomial(2, {(0, 1): s * kr(-1) * lin2 * lin1}), (0, 1)),
        ])
    raise ValueError(f"no transcribed operator for N={N}, order={order}")


# ---------------------------------------------------------------------------
# characteristic operator and its calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Calibration:
    """Affine recombination O_j = scale_j * apply_integral(j, .) + offset_j
    that puts each integral into the spectral product normalization."""
    N: int
    scales: dict[int, Fraction]
    offsets: dict[int, KappaRational]


@functools.lru_cache(maxsize=None)
def calibrate(N: int) -> Calibration:
    """Fix (scale_j, offset_j) for j = 2..N on known eigenpolynomials and
    verify on a fourth one, CALIBRATION_WEIGHT[N]."""
    extra_w = covered(CALIBRATION_WEIGHT, N, "calibration")
    from . import gegenbauer as gg

    rank = N - 1
    zero_w = (0,) * rank
    e1_w = tuple(1 if i == 0 else 0 for i in range(rank))
    en_w = tuple(1 if i == rank - 1 else 0 for i in range(rank))
    vectors = [gg.gen_eigen(w, N) for w in (e1_w, en_w, extra_w)]
    weights = [e1_w, en_w, extra_w]

    scales: dict[int, Fraction] = {}
    offsets: dict[int, KappaRational] = {}
    for j in range(2, N + 1):
        offset = gg.l_elementary(zero_w, N, j)
        base = apply_integral(j, ZPolynomial.variable(rank, 1), N)
        if set(base.terms) != {e1_w}:
            raise ConventionMismatch(
                f"order {j} does not act diagonally on z_1 at N={N}")
        lam = base.coefficient(e1_w)
        target = gg.l_elementary(e1_w, N, j)
        scale_val = (target - offset) / lam
        if not scale_val.is_constant:
            raise ConventionMismatch(
                f"order {j} scale at N={N} is not a rational constant: {scale_val!r}")
        scale = Fraction(scale_val.constant_value())
        for w, vec in zip(weights, vectors):
            lhs = apply_integral(j, vec, N).scale(kr(scale)) + vec.scale(offset)
            rhs = vec.scale(gg.l_elementary(w, N, j))
            if lhs != rhs:
                raise ConventionMismatch(
                    f"order {j} calibration fails on weight {w} at N={N}")
        scales[j] = scale
        offsets[j] = offset
    return Calibration(N, scales, offsets)


def _delta(nums: Numerators, N: int) -> tuple[list[Numerators], int]:
    """The coefficients of t^0 .. t^N of the characteristic operator times
    an integer M, returned with them, on numerators over a common
    denominator; M clears every calibration scale and offset."""
    cal = calibrate(N)
    affine = {}
    for j in range(2, N + 1):
        offset, r = _cleared(cal.offsets[j])
        if len(r) != 1:
            raise EngineError(f"calibration order {j}, N={N}: offset"
                              f" {cal.offsets[j]!r} has a κ-denominator")
        affine[j] = (cal.scales[j] / N ** j, offset, r[0])
    M = math.lcm(*(s.denominator for s, _, _ in affine.values()),
                 *(r for _, _, r in affine.values()))
    coeffs: list[Numerators] = [{} for _ in range(N + 1)]
    coeffs[N] = {w: _pmul(c, (M,)) for w, c in nums.items()}
    for j, (scale, offset, r) in affine.items():
        sign = (-1) ** j
        scale = (sign * scale.numerator * (M // scale.denominator),)
        offset = _pmul(offset, (sign * (M // r),))
        oj: Numerators = {}
        for w, c in _integral(j, nums, N).items():
            _add_num(oj, w, _pmul(c, scale))
        for w, c in nums.items():
            _add_num(oj, w, _pmul(c, offset))
        coeffs[N - j] = oj
    return coeffs, M


def _delta_at(coeffs: list[Numerators], M: int,
              a: IntPoly, b: IntPoly) -> tuple[Numerators, IntPoly]:
    """Δ(t) from its coefficients times M (``_delta``), for t = a/b with a
    and b integer κ-polynomials: the numerators
    sum_k coeff_k * a^k * b^(N-k) and their multiplier M * b^N, which the
    caller multiplies into its denominator."""
    N = len(coeffs) - 1
    b_powers = [_ONE]
    for _ in range(N):
        b_powers.append(_pmul(b_powers[-1], b))
    out: Numerators = {}
    a_power = _ONE
    for k, coeff in enumerate(coeffs):
        factor = _pmul(a_power, b_powers[N - k])
        for w, c in coeff.items():
            _add_num(out, w, _pmul(c, factor))
        a_power = _pmul(a_power, a)
    return out, _pmul((M,), b_powers[N])


def char_apply(p: ZPolynomial, N: int, t: Optional[KappaRational] = None):
    """Shifted characteristic operator.

    With symbolic t (t=None) returns the list of z-polynomial coefficients of
    t^0 .. t^N; with a numeric KappaRational t returns the single evaluated
    z-polynomial.  On an eigenpolynomial the result factorizes as the product
    of (t - spectral component) times the polynomial.  Both act on p's
    integer numerators over its common denominator D; the multiplier of
    the coefficients, or of the evaluation, goes into D, and each output
    coefficient is reduced once.
    """
    rank = N - 1
    if p.rank != rank:
        raise RankMismatch(f"rank {p.rank} polynomial with N={N}")
    nums, D = _split(p)
    coeffs, M = _delta(nums, N)
    if t is None:
        return [_rebuild(rank, c, _pmul(D, (M,))) for c in coeffs]
    out, mult = _delta_at(coeffs, M, *_cleared(_coerce_scalar(t)))
    return _rebuild(rank, out, _pmul(D, mult))


# ---------------------------------------------------------------------------
# commutativity check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorReport:
    orders: tuple[int, int]
    N: int
    degree_bound: int
    checked: int
    failures: tuple[tuple[Weight, int], ...]

    @property
    def max_norm(self) -> int:
        return max((n for _, n in self.failures), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.failures


def _monomials_up_to(rank: int, degree: int) -> list[Weight]:
    out = []
    for w in itertools.product(*(range(degree + 1) for _ in range(rank))):
        if weighted_degree(w) <= degree:
            out.append(w)
    out.sort(key=grlex_key)
    return out


def commutator_residual(j: int, k: int, N: int, degree_bound: int) -> CommutatorReport:
    """Residual of the commutator of the order-j and order-k integrals on all
    z-monomials of weighted degree <= degree_bound; must be exactly zero."""
    rank = N - 1
    failures = []
    monos = _monomials_up_to(rank, degree_bound)
    for w in monos:
        p = ZPolynomial.monomial(rank, w)
        r = (apply_integral(j, apply_integral(k, p, N), N)
             - apply_integral(k, apply_integral(j, p, N), N))
        if not r.is_zero:
            failures.append((w, len(r.terms)))
    return CommutatorReport((j, k), N, degree_bound, len(monos), tuple(failures))

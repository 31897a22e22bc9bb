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
no projection per image.  Only e_(j - mom) in H depends on j, so one pass
per monomial (``_engine_pass``) serves every order.  The assembly step

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
from typing import Optional, Sequence

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
def _engine_pass(w: Weight, N: int, top: int) -> tuple:
    """Raw engine action of the orders 2..top on the single monomial z^w
    (natural normalization): at index j - 2 the order-j image, as (weight,
    integer κ-polynomial) pairs over N^j sorted by weight, the same for
    every top >= j.  With g = D_1..D_mom f for f = z^w lifted, the terms
    with mom derivative factors give A / V, A = sum c*d*a_{β+γ} over the
    kept terms c*x^β of ``_gauge_weight`` and the terms d*x^γ of g; the
    alternant a_v is zero when v has a repeated entry and sgn * a_α for
    α = sort(v) otherwise, and A / V = sum A_α s_{α-δ} (``_schur_image``).
    Every order j >= mom has the same g and shuffles β, with c = e_{j-mom},
    so one derivative chain serves them all: per mom, g is checked once,
    each β+γ is sorted and signed once and each Schur image read once, for
    a vector over the orders.  The checks run from the highest mom down and
    name the highest order."""
    f = _elementary_product(N, w)
    chain = list(itertools.accumulate(range(1, top + 1), apply_momentum, initial=f))
    images: list[dict[Weight, list[int]]] = [{} for _ in range(2, top + 1)]
    for mom in range(top, 0, -1):
        g = chain[mom]
        if g.is_zero:
            continue
        viol = g.swap_violation(j for j in range(1, N) if j != mom)
        if viol is not None:
            raise NonSymmetricInput(
                f"engine order {top}, weight {w}, N={N}, κ power {top - mom}: D_1..D_{mom}"
                f" f not symmetric under x_{viol[0]} <-> x_{viol[1]}")
        orders = range(max(mom, 2), top + 1)
        rows: dict[tuple, list[int]] = {}
        for k, j in enumerate(orders):
            for beta, c in _gauge_weight(j, mom, N):
                rows.setdefault(beta, [0] * len(orders))[k] = c
        alternant: dict[tuple, list[int]] = {}
        for beta, cs in rows.items():
            part: dict[tuple, int] = {}
            for gamma, d in g.terms.items():
                v = tuple(map(operator.add, beta, gamma))
                if len(set(v)) < N:
                    continue
                odd = sum(a < b for a, b in itertools.combinations(v, 2)) % 2
                alpha = tuple(sorted(v, reverse=True))
                part[alpha] = part.get(alpha, 0) + (-d if odd else d)
            for alpha, a in part.items():
                acc = alternant.setdefault(alpha, [0] * len(orders))
                for k, c in enumerate(cs):
                    acc[k] += c * a
        z: list[dict[Weight, int]] = [{} for _ in orders]
        for alpha, acc in alternant.items():
            schur = _schur_image(tuple(map(operator.sub, alpha, range(N - 1, -1, -1))), N)
            for zk, a in zip(z, acc):
                for v, s in schur if a else ():
                    zk[v] = zk.get(v, 0) + a * s
        for j, zk in zip(orders, z):
            for v, c in zk.items():
                if not isinstance(c, int):
                    raise EngineError(f"engine order {j}, weight {w}, N={N}, κ power"
                                      f" {j - mom}: coefficient {c!r} is not an integer")
                if c:  # the powers j - mom rise as mom falls
                    cs = images[j - 2].setdefault(v, [])
                    cs += [0] * (j - mom - len(cs)) + [2 ** mom * N ** (j - mom) * c]
    return tuple(tuple(sorted((v, tuple(cs)) for v, cs in image.items()))
                 for image in images)


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


def _integral(orders: Sequence[int], nums: Numerators, N: int) -> list[Numerators]:
    """N^j times the order-j integral for each j in orders, on numerators
    over a common denominator, from one engine pass per monomial that stops
    at the highest order."""
    outs: list[Numerators] = [{} for _ in orders]
    for w, c in nums.items():
        images = _engine_pass(w, N, max(orders))
        for out, j in zip(outs, orders):
            for v, e in images[j - 2]:
                _add_num(out, v, _pmul(c, e))
    return [{w: _pmul(c, (-1,)) for w, c in out.items()} if j == 2 else out
            for j, out in zip(orders, outs)]


def apply_integral(order: int, p: ZPolynomial, N: Optional[int] = None) -> ZPolynomial:
    """Action of the order-j commuting integral on a z-polynomial.

    Order 2 is normalized so eigenpolynomials have their excitation energies
    as eigenvalues; the action on constants is zero for every order.
    """
    if N is None:
        N = p.rank + 1
    _check_order(order, N)
    if p.rank != N - 1:
        raise RankMismatch(f"rank {p.rank} polynomial with N={N}")
    nums, D = _split(p)
    image, = _integral((order,), nums, N)
    return _rebuild(p.rank, image, _pmul(D, (N ** order,)))


def _check_order(order: int, N: int) -> None:
    """A ValueError unless the engine has order and N >= order."""
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"integral order {order} not supported (need 2..4)")
    if N < order:
        raise ValueError(f"order {order} needs at least {order} particles, got {N}")


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
    """Fix (scale_j, offset_j) for j = 2..N on z_1 and verify them on
    known eigenpolynomials, CALIBRATION_WEIGHT[N] among them.  Both run on
    integer numerators: with X / N^j the order-j image of p = n / D and
    l_j(w) - offset_j = P / Q, the check scale_j * X = N^j (P / Q) n is
    cross-multiplied, and the fit on z_1 is the ratio of the leading
    coefficients of N^j P and Q X, with the same product as its check."""
    extra_w = covered(CALIBRATION_WEIGHT, N, "calibration")
    from . import gegenbauer as gg

    rank = N - 1
    zero_w = (0,) * rank
    e1_w = tuple(1 if i == 0 else 0 for i in range(rank))
    en_w = tuple(1 if i == rank - 1 else 0 for i in range(rank))
    weights = [e1_w, en_w, extra_w]
    orders = range(2, N + 1)
    splits = [_split(gg.gen_eigen(w, N))[0] for w in weights]
    images = [_integral(orders, nums, N) for nums in [{e1_w: _ONE}] + splits]
    scales: dict[int, Fraction] = {}
    offsets: dict[int, KappaRational] = {}
    for k, j in enumerate(orders):
        offset = gg.l_elementary(zero_w, N, j)
        base = images[0][k]
        if set(base) != {e1_w}:
            raise ConventionMismatch(
                f"order {j} does not act diagonally on z_1 at N={N}")
        num, den = _cleared(gg.l_elementary(e1_w, N, j) - offset)
        num, den = _pmul(num, (N ** j,)), _pmul(den, base[e1_w])
        scale = Fraction(num[-1], den[-1]) if num else Fraction(0)
        if _padd(_pmul(num, (scale.denominator,)), _pmul(den, (-scale.numerator,))):
            scale_val = KappaRational(KappaPolynomial(num), KappaPolynomial(den))
            raise ConventionMismatch(
                f"order {j} scale at N={N} is not a rational constant: {scale_val!r}")
        for w, nums, image in zip(weights, splits, images[1:]):
            P, Q = _cleared(gg.l_elementary(w, N, j) - offset)
            P, Q = _pmul(P, (-scale.denominator * N ** j,)), _pmul(Q, (scale.numerator,))
            if any(_padd(_pmul(image[k].get(v, ()), Q), _pmul(nums.get(v, ()), P))
                   for v in image[k].keys() | nums.keys()):
                raise ConventionMismatch(
                    f"order {j} calibration fails on weight {w} at N={N}")
        scales[j] = scale
        offsets[j] = offset
    return Calibration(N, scales, offsets)


def _delta(nums: Numerators, N: int) -> tuple[list[Numerators], int]:
    """The coefficients of t^0 .. t^N of the characteristic operator (the
    Sekiguchi–Debiard operator, Macdonald VI §3) times an integer M,
    returned with them, on numerators over a common denominator; M clears
    every calibration scale and offset.  The images of the orders 2..N come
    from one engine pass per monomial."""
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
    images = _integral(range(2, N + 1), nums, N)
    for (j, (scale, offset, r)), image in zip(affine.items(), images):
        sign = (-1) ** j
        scale = (sign * scale.numerator * (M // scale.denominator),)
        offset = _pmul(offset, (sign * (M // r),))
        oj: Numerators = {}
        for w, c in image.items():
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
    z-monomials of weighted degree <= degree_bound; must be exactly zero.
    Both products are integer numerators over N^(j+k), and every image
    comes from the one engine pass per monomial that stops at max(j, k)."""
    for order in (k, j):
        _check_order(order, N)
    pair = (j, k)
    failures = []
    monos = _monomials_up_to(N - 1, degree_bound)
    for w in monos:
        jp, kp = _integral(pair, {w: _ONE}, N)
        jk, kj = _integral(pair, kp, N)[0], _integral(pair, jp, N)[1]
        differ = sum(jk.get(v) != kj.get(v) for v in jk.keys() | kj.keys())
        if differ:
            failures.append((w, differ))
    return CommutatorReport((j, k), N, degree_bound, len(monos), tuple(failures))

"""The operator engine: commuting Sutherland integrals acting on z-polynomials.

The engine realizes the gauge-transformed integrals of motion of every
order j = 2..N through the x-representation.  The coordinate dictionary is
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
images and a point t = a/b are cleared to integers and multiplied into the
numerators; their denominators N^j and b^N go into D.  Only each output
coefficient is reduced, once, as a KappaRational numerator / D, with no
polynomial gcd when D is a constant.

Δ(t) is kept in u = N·t, where its coefficients are integers with the
fixed multiplier N^N (``_delta``): on numerators n,

    N^N Δ(u/N) = Σ_j u^(N-j) (-1)^j (X_j + N^j e_j κ^j n),

with X_j the order-j image over N^j and e_j the integer e_j of the vacuum
(``_vacuum_e``).  At a point u = a/b it runs on integers by Kronecker
substitution: its coefficients U_k of u^k are packed at κ = 2^W with
balanced base-2^W digits (``_packed_delta``), so each monomial's
numerator Σ_k U_k a^k b^(N-k), over N^N b^N, is N + 1 integer products
(``_delta_eval``).  Packing is a ring map, and W covers a bound on every
coefficient that is decoded or compared, from ‖pq‖_∞ <= ‖p‖_∞ ‖q‖_1
(``_bound``), so the decoding is exact.

``apply_integral(2, . )`` is normalized to have the non-negative spectrum
(its eigenvalue on an eigenpolynomial is the excitation energy): it is the
one place that flips the engine's order-2 sign.  Higher orders keep their
natural normalization, which the closed-form calibration (``calibrate``)
puts into the spectral product form.

``order2_terms`` is the order-2 integral in closed form, which gen_eigen
solves on; it and the engine are derived apart, so each checks the other.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .scalars import (
    IntPoly,
    KappaPolynomial,
    KappaRational,
    _cleared,
    _lcm,
    _pack,
    _padd,
    _pdiv_exact,
    _pmul,
    _unpack,
    _width,
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
    """N^j times the order-j integral in its natural normalization (order 2
    unflipped) for each j in orders, on numerators over a common
    denominator, from one engine pass per monomial that stops at the
    highest order."""
    outs: list[Numerators] = [{} for _ in orders]
    for w, c in nums.items():
        images = _engine_pass(w, N, max(orders))
        for out, j in zip(outs, orders):
            for v, e in images[j - 2]:
                _add_num(out, v, _pmul(c, e))
    return outs


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
    sign = -1 if order == 2 else 1
    return _rebuild(p.rank, image, _pmul(D, (sign * N ** order,)))


def _check_order(order: int, N: int) -> None:
    """A ValueError unless 2 <= order <= N."""
    if order < 2:
        raise ValueError(f"integral order {order} not supported (need 2 or more)")
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


def _vacuum_e(N: int, j: int) -> int:
    """e_j of the vacuum spectral vector l_i = (N + 1 - 2i)κ over κ^j, an
    integer; zero at odd j, as the l_i are symmetric about 0."""
    return sum(map(math.prod, itertools.combinations(range(N - 1, -N, -2), j)))


@functools.lru_cache(maxsize=None)
def calibrate(N: int) -> Calibration:
    """(scale_j, offset_j) for j = 2..N in closed form.  Δ(t)'s t^(N-j)
    coefficient is (-1)^j e_j(l) (the Sekiguchi–Debiard operator, Macdonald
    VI §3–4), and the order-j engine image is that e_j less its term with no
    derivative factor, e_j of the vacuum spectral vector (``_vacuum_e``):
    so scale_j is 1 (-1 at order 2, whose sign apply_integral flips) and
    offset_j is that vacuum e_j."""
    if N < 2:
        raise ValueError(f"calibration needs at least 2 particles, got N={N}")
    orders = range(2, N + 1)
    return Calibration(
        N, {j: Fraction(-1 if j == 2 else 1) for j in orders},
        {j: KappaRational(KappaPolynomial([0] * j + [_vacuum_e(N, j)])) for j in orders})


def _delta(nums: Numerators, N: int) -> list[Numerators]:
    """The coefficients of u^0 .. u^N of N^N Δ(u/N), with Δ(t) the
    characteristic operator (the Sekiguchi–Debiard operator, Macdonald VI
    §3), on numerators n over a common denominator: the coefficient of
    u^(N-j) is (-1)^j (X_j + N^j e_j κ^j n), with X_j the engine's order-j
    image over N^j, unflipped, and e_j the vacuum's (``_vacuum_e``).  The
    images of the orders 2..N come from one engine pass per monomial."""
    coeffs: list[Numerators] = [{} for _ in range(N + 1)]
    coeffs[N] = dict(nums)
    for j, image in enumerate(_integral(range(2, N + 1), nums, N), start=2):
        if e := _vacuum_e(N, j):
            offset = (0,) * j + (N ** j * e,)
            for w, c in nums.items():
                _add_num(image, w, _pmul(c, offset))
        coeffs[N - j] = image if j % 2 == 0 else {w: _pmul(c, (-1,)) for w, c in image.items()}
    return coeffs


def _packed_delta(coeffs: list[Numerators], a1: int, b1: int, lift: int = 1) -> tuple:
    """Δ(t)'s coefficients (``_delta``) packed at κ = 2^W (``scalars._pack``):
    (W, norms, rows), with rows[w] the packed coefficients of t^0 .. t^N at
    w, read-only, and norms[k] the largest ‖·‖_∞ of a t^k coefficient.  W
    is ``_delta_eval``'s width for points with ‖a‖_1 <= a1, ‖b‖_1 <= b1 and
    that lift, and every coefficient decodes at W."""
    norms = tuple(max((max(map(abs, c)) for c in coeff.values()), default=0)
                  for coeff in coeffs)
    W = _width(lift * _bound(norms, max(a1, 1), b1))
    rows = {w: tuple(_pack(coeff.get(w, ()), W) for coeff in coeffs)
            for w in dict.fromkeys(itertools.chain(*coeffs))}
    return W, norms, types.MappingProxyType(rows)


def _bound(norms: tuple, a1: int, b1: int) -> int:
    """Σ_k norms[k] a1^k b1^(N-k): with ‖pq‖_∞ <= ‖p‖_∞ ‖q‖_1 and ‖·‖_1
    submultiplicative, a bound on the coefficients of Δ(t)'s numerators at
    t = a/b for ‖a‖_1 <= a1 and ‖b‖_1 <= b1."""
    N = len(norms) - 1
    return sum(n * a1 ** k * b1 ** (N - k) for k, n in enumerate(norms))


def _delta_eval(packed: tuple, a: IntPoly, b: IntPoly,
                lift: int = 1) -> tuple[int, dict[Weight, int]]:
    """Δ(t) at t = a/b on packed coefficients (``_packed_delta``): a width W
    and the nonzero numerators Σ_k C_k a^k b^(N-k) packed at W, N + 1
    integer products each.  W covers ``_bound`` times lift, so every
    numerator, and its product with a κ-polynomial of ‖·‖_1 <= lift,
    decodes exactly; rows packed narrower are re-packed for this call."""
    W, norms, rows = packed
    need = _width(lift * _bound(norms, sum(map(abs, a)), sum(map(abs, b))))
    if need > W:
        rows = {w: [_pack(_unpack(x, W), need) for x in row] for w, row in rows.items()}
        W = need
    A, B = _pack(a, W), _pack(b, W)
    N = len(norms) - 1
    powers = [A ** k * B ** (N - k) for k in range(N + 1)]
    return W, {w: x for w, row in rows.items() if (x := sum(map(operator.mul, row, powers)))}


def _delta_at(packed: tuple, a: IntPoly, b: IntPoly) -> Numerators:
    """``_delta_eval``'s numerators, decoded; their multiplier is b^N."""
    W, vals = _delta_eval(packed, a, b)
    return {w: _unpack(x, W) for w, x in vals.items()}


def char_apply(p: ZPolynomial, N: int, t: Optional[KappaRational] = None):
    """Shifted characteristic operator.

    With symbolic t (t=None) returns the list of z-polynomial coefficients of
    t^0 .. t^N; with a numeric KappaRational t returns the single evaluated
    z-polynomial.  On an eigenpolynomial the result factorizes as the product
    of (t - spectral component) times the polynomial.  Both act on p's
    integer numerators over its common denominator D, through Δ's
    coefficients in u = N·t (``_delta``): the coefficient of t^k is that of
    u^k over N^(N-k), and t = a/b is evaluated at u = N·a / b over N^N b^N.
    Each output coefficient is reduced once.
    """
    rank = N - 1
    if p.rank != rank:
        raise RankMismatch(f"rank {p.rank} polynomial with N={N}")
    nums, D = _split(p)
    coeffs = _delta(nums, N)
    if t is None:
        return [_rebuild(rank, c, _pmul(D, (N ** (N - k),))) for k, c in enumerate(coeffs)]
    a, b = _cleared(_coerce_scalar(t))
    a = _pmul(a, (N,))
    out = _delta_at(_packed_delta(coeffs, sum(map(abs, a)), sum(map(abs, b))), a, b)
    return _rebuild(rank, out, _pmul(D, functools.reduce(_pmul, [b] * N, (N ** N,))))


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

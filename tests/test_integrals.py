"""Operator engine: coordinate dictionary, integral actions, transcriptions,
characteristic operator, commutativity."""
import copy
import itertools
import math
import numbers
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import calibration_reference
import step_reference
import xspace_reference as ref
from gegenlab import gegenbauer, integrals
from gegenlab.scalars import (
    KappaPolynomial,
    KappaRational,
    _pack,
    _pmul,
    _unpack,
    _width,
    kappa,
    kr,
    lin,
)
from gegenlab.symfun import NonSymmetricInput, XPolynomial, ZPolynomial, weighted_degree
from gegenlab.integrals import (
    EngineError,
    apply_integral,
    apply_momentum,
    calibrate,
    char_apply,
    commutator_residual,
    transcribed_operator,
)
from gegenlab.gegenbauer import char_eigenvalue, gen_eigen, l_vector


def _eval_fraction(f, xs):
    """A reference fraction (numerator, {(a, b): k}) at the point xs."""
    num, den = f
    value = sum(c * math.prod(x ** k for x, k in zip(xs, e)) for e, c in num.items())
    return value / math.prod((xs[a] - xs[b]) ** k for (a, b), k in den.items())


def _values():
    z = ZPolynomial(2, {(1, 0): lin(1, 3), (0, 0): kr(1, 2) / lin(2, 1)})
    x = XPolynomial(3, {(1, 0, 0): lin(1, 3), (0, 2, 1): kr(-4)})
    return [
        KappaPolynomial([Fraction(1, 2), 0, 3]),
        lin(1, 3),
        kr(2) / (lin(1, 1) * lin(-1, 2)),
        z,
        x,
        transcribed_operator(3, 3),
    ]


class TestPickleAndCopy:
    @pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
    def test_round_trips(self, value):
        def key(v):  # ZOperator has no value equality of its own
            return (v.rank, v.terms) if hasattr(v, "apply") else v

        for clone in (pickle.loads(pickle.dumps(value)),
                      copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value)
            assert key(clone) == key(value)

    def test_unpickled_scalars_keep_computing(self):
        a = pickle.loads(pickle.dumps(kr(2) / lin(1, 1)))
        assert a + kr(1) == lin(3, 1) / lin(1, 1)
        z = pickle.loads(pickle.dumps(ZPolynomial.variable(2, 1)))
        assert apply_integral(2, z, 3) == z.scale(kr(4, 3) * lin(1, 3))


class TestMomentum:
    def test_degree_shift(self):
        # N x_1 d/dx_1 - d on x1 x2 at N = 3: 3*1 - 2 = 1
        f = XPolynomial(3, {(1, 1, 0): 1})
        assert apply_momentum(f, 1) == f

    def test_constant_is_killed(self):
        assert apply_momentum(XPolynomial.one(3), 2).is_zero

    def test_total_momentum_vanishes(self):
        rng = random.Random(11)
        for _ in range(8):
            e = tuple(rng.randrange(0, 4) for _ in range(3))
            f = XPolynomial(3, {e: kr(rng.randrange(1, 5))})
            images = [apply_momentum(f, j).terms for j in (1, 2, 3)]
            assert all(set(image) <= {e} for image in images)
            assert sum(image.get(e, 0) for image in images) == 0


class TestGaugePotential:
    """The reference's real gauge row B_j over its row denominator."""

    def test_two_particles(self):
        assert ref.gauge_row(2, 0) == ({(1, 0): 1, (0, 1): 1}, {(0, 1): 1})

    def test_cancellation_to_polynomial(self):
        # (x1 - x2)^2 B_1 = (x1 + x2)(x1 - x2)
        square = {(2, 0): 1, (1, 1): -2, (0, 2): 1}
        quotient = ref.divide_exact(*ref.times((square, {}), ref.gauge_row(2, 0)))
        assert quotient == {(2, 0): 1, (0, 2): -1}


class TestCoordinateDictionary:
    """Exact identities behind the x-space realization, checked at random
    rational points."""

    def test_curvature_equals_one_plus_cotangent_squared(self):
        rng = random.Random(23)
        for _ in range(12):
            a = Fraction(rng.randrange(1, 30), rng.randrange(1, 9))
            b = Fraction(rng.randrange(1, 30), rng.randrange(1, 9))
            if a == b:
                continue
            ctg2 = -((a + b) / (a - b)) ** 2  # (i (a+b)/(a-b))^2
            lhs = Fraction(-4) * a * b / (a - b) ** 2
            assert lhs == 1 + ctg2

    def test_momentum_of_cotangent_is_curvature(self):
        # 2i x_j d/dx_j applied to the (k,j) cotangent image gives the
        # curvature image -4 x_j x_k / (x_j - x_k)^2
        rng = random.Random(29)
        for _ in range(12):
            xj = Fraction(rng.randrange(1, 20), rng.randrange(1, 7))
            xk = Fraction(rng.randrange(1, 20), rng.randrange(1, 7))
            if xj == xk:
                continue
            # derivative of (x_k + x_j)/(x_k - x_j) in x_j is 2 x_k/(x_k-x_j)^2
            lhs = -2 * xj * (2 * xk / (xk - xj) ** 2)  # (2i)(i) = -2
            assert lhs == Fraction(-4) * xj * xk / (xj - xk) ** 2

    def test_gauge_row_matches_pair_sum(self):
        xs = (Fraction(3, 2), Fraction(7), Fraction(1, 5))
        direct = sum((xs[1] + xs[k]) / (xs[1] - xs[k]) for k in (0, 2))
        assert _eval_fraction(ref.gauge_row(3, 1), xs) == direct


class TestTermShapes:
    def test_rule_reproduces_the_written_table(self):
        # (curv, gauge, mom)
        assert ref.term_shapes(2) == ((0, 0, 2), (0, 1, 1))
        assert ref.term_shapes(3) == ((0, 0, 3), (0, 1, 2), (1, 0, 1), (0, 2, 1))
        assert ref.term_shapes(4) == ((0, 0, 4), (0, 1, 3), (1, 0, 2),
                                      (0, 2, 2), (1, 1, 1), (0, 3, 1))
        # two disjoint curvature pairs from order 5
        assert (2, 0, 1) in ref.term_shapes(5)

    def test_places_every_set_of_disjoint_pairs(self):
        # one placement of curv 2 on four indices per perfect matching: 3
        assert [p for _, _, p in ref.placements(5, 1, range(1, 5)) if len(p) == 2] == [
            ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]


class TestApplyIntegral:
    def test_order2_on_z1(self):
        p = ZPolynomial.variable(2, 1)
        assert apply_integral(2, p, 3) == p.scale(kr(4, 3) * lin(1, 3))

    def test_order2_on_constant(self):
        assert apply_integral(2, ZPolynomial.one(2), 3).is_zero
        assert apply_integral(3, ZPolynomial.one(2), 3).is_zero
        assert apply_integral(4, ZPolynomial.one(3), 4).is_zero

    def test_order3_on_z1(self):
        p = ZPolynomial.variable(2, 1)
        assert apply_integral(3, p, 3) == p.scale(kr(8, 27) * lin(2, 3) * lin(1, 3))

    def test_output_coefficients_real(self):
        out = apply_integral(3, ZPolynomial.monomial(2, (2, 1)), 3)
        assert out.terms
        for c in out.terms.values():
            assert isinstance(c(Fraction(1, 3)), numbers.Rational)

    def test_degree_filtration(self):
        for w in [(2, 1), (0, 2), (3, 0)]:
            out = apply_integral(2, ZPolynomial.monomial(2, w), 3)
            assert all(weighted_degree(v) <= weighted_degree(w) for v in out.terms)

    def test_unsupported_order(self):
        for order, N in [(1, 3), (6, 5)]:
            with pytest.raises(ValueError) as err:
                apply_integral(order, ZPolynomial.one(N - 1), N)
            assert f"order {order}" in str(err.value)


class TestEngineErrors:
    """A failure inside the engine names the monomial it was computing."""

    @pytest.fixture(autouse=True)
    def _cold_engine(self):
        # a warm cache would hide a patched factor, and one filled from a
        # patched factor would poison every later image
        caches = [f for f in vars(integrals).values() if hasattr(f, "cache_clear")]
        for cache in caches:
            cache.cache_clear()
        yield
        for cache in caches:
            cache.cache_clear()

    @staticmethod
    def _assert_names_inputs(error, kappa_power):
        with pytest.raises(error) as err:
            integrals._engine_pass.__wrapped__((1, 0), 3, 3)[-1]
        for part in ("order 3", "weight (1, 0)", "N=3", f"κ power {kappa_power}"):
            assert part in str(err.value)

    def test_asymmetric_derivative_image(self, monkeypatch):
        monkeypatch.setattr(integrals, "_elementary_product",
                            lambda n, w: XPolynomial(n, {(1,) + (0,) * (n - 1): 1}))
        self._assert_names_inputs(NonSymmetricInput, 0)

    def test_fractional_projection(self, monkeypatch):
        # the z-image of the Schur polynomial that the alternant reads off
        monkeypatch.setattr(integrals, "_schur_image",
                            lambda lam, N: (((1, 0), Fraction(1, 2)),))
        self._assert_names_inputs(EngineError, 0)


def _z_monomial_weights(rank, degree):
    return [w for w in itertools.product(range(degree + 1), repeat=rank)
            if weighted_degree(w) <= degree]


def _block_alternant(terms, mom, N, xs):
    """sum c * sgn(τ) * x^(τβ) over the kept terms (β, c) and every
    permutation τ of 1..mom and of mom+1..N, at the point xs."""
    total = Fraction(0)
    for head in itertools.permutations(range(mom)):
        for tail in itertools.permutations(range(mom, N)):
            perm = head + tail
            odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            for beta, c in terms:
                value = c * math.prod(xs[perm[i]] ** k for i, k in enumerate(beta))
                total += -value if odd else value
    return total


# N -> the weighted degree up to which the engine is checked against the
# placement sum, on every monomial and on drawn ones; the reference's cold
# cost grows steeply with N
_PLACEMENT_DEGREE = {3: 3, 4: 3, 5: 2}
_DRAWN_DEGREE = {3: 6, 4: 4, 5: 2}


@st.composite
def _placement_case(draw):
    N = draw(st.sampled_from(sorted(_DRAWN_DEGREE)))
    order = draw(st.integers(2, min(N, 4)))
    return order, draw(st.sampled_from(_z_monomial_weights(N - 1, _DRAWN_DEGREE[N]))), N


class TestOrbitSum:
    """The engine sums each mom once per index orbit and reads the sum off
    alternants; the sum over every placement must give the same images."""

    def test_range_has_an_odd_denominator_power(self):
        # every gauge weight is H / V, one odd power of V, so the images
        # pick up the permutation's sign once
        rng = random.Random(7)
        for N in (3, 4, 5, 6, 7):
            xs = []
            while len(xs) < N:  # distinct points, so that V does not vanish
                x = Fraction(rng.randrange(1, 50), rng.randrange(1, 9))
                if x not in xs:
                    xs.append(x)
            vandermonde = math.prod(a - b for a, b in itertools.combinations(xs, 2))
            # order 5 places two disjoint curvature pairs
            for order in range(2, min(N, 5) + 1):
                for mom in range(1, order + 1):
                    terms = integrals._gauge_weight(order, mom, N)
                    assert (ref.gauge_value(order, mom, N, xs) * vandermonde
                            == _block_alternant(terms, mom, N, xs)), (order, mom, N)

    @pytest.mark.parametrize("N,order", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4),
                                         (5, 2), (5, 3), (5, 4)])
    def test_equals_the_placement_sum(self, N, order):
        for w in _z_monomial_weights(N - 1, _PLACEMENT_DEGREE[N]):
            image = integrals._engine_pass(w, N, order)[order - 2]
            assert [v for v, _ in image] == sorted(v for v, _ in image)
            assert dict(image) == ref.placement_engine(order, w, N), w

    @settings(max_examples=30, deadline=None, database=None)
    @given(_placement_case())
    def test_drawn_monomial_equals_the_placement_sum(self, case):
        order, w, N = case
        assert (dict(integrals._engine_pass.__wrapped__(w, N, order)[order - 2])
                == ref.placement_engine(*case))

    def test_an_order_five_point(self):
        # one monomial at order 5: every monomial of weighted degree <= 2
        # would take about 8 s
        w, N = (1, 0, 0, 0), 5
        assert dict(integrals._engine_pass(w, N, 5)[3]) == ref.placement_engine(5, w, N)


# N -> the weighted degree of the monomials on which one engine pass is
# checked against passes with a lower highest order
_PASS_DEGREE = {3: 4, 4: 3, 5: 2, 6: 2}


@st.composite
def _pass_case(draw):
    N = draw(st.sampled_from(sorted(_PASS_DEGREE)))
    w = draw(st.sampled_from(_z_monomial_weights(N - 1, _PASS_DEGREE[N])))
    order = draw(st.integers(2, N))
    return w, N, order, draw(st.integers(order, N))


class TestEnginePass:
    """One engine pass serves every order up to its highest one; the image
    of an order does not depend on how many orders the pass carried."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(_pass_case())
    def test_image_does_not_depend_on_the_highest_order(self, case):
        w, N, order, top = case
        alone = integrals._engine_pass.__wrapped__(w, N, order)
        shared = integrals._engine_pass.__wrapped__(w, N, top)
        assert len(alone) == order - 1 and len(shared) == top - 1
        assert shared[:order - 1] == alone

    def test_orders_share_one_cached_pass(self):
        calibrate(4)
        integrals._engine_pass.cache_clear()
        p = ZPolynomial.monomial(3, (1, 0, 1))
        char_apply(p, 4)  # the images of orders 2, 3 and 4
        apply_integral(4, p, 4)
        assert integrals._engine_pass.cache_info()[:2] == (1, 1)  # hits, misses


class TestSchurImage:
    """The engine's table of Schur polynomials against the bialternant
    a_{λ+δ} / a_δ, divided exactly and projected."""

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_equals_the_projected_bialternant(self, N):
        for size in range(7):
            for lam in _partitions(size, N):
                image = integrals._schur_image(lam, N)
                assert all(type(c) is int for _, c in image)
                assert dict(image) == ref.bialternant_image(lam, N), lam


def _partitions(size, parts, largest=None):
    """The partitions of size into at most parts parts, padded with zeros."""
    if largest is None:
        largest = size
    if parts == 0:
        return [()] if size == 0 else []
    return [(first,) + rest for first in range(min(size, largest), -1, -1)
            for rest in _partitions(size - first, parts - 1, first)]


# (N, order) -> the weighted degree up to which the engine is checked against
# the closed form; the engine's cold cost grows steeply with N
_ENGINE_DEGREE = {(2, 2): 6, (3, 2): 6, (3, 3): 6, (4, 2): 6, (5, 2): 3, (6, 2): 3,
                  (7, 2): 2}


@st.composite
def _engine_case(draw):
    N, order = draw(st.sampled_from(sorted(_ENGINE_DEGREE)))
    degree = _ENGINE_DEGREE[N, order]
    weights = draw(st.lists(st.sampled_from(_z_monomial_weights(N - 1, degree)),
                            min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(-5, 5).filter(bool),
                           min_size=len(weights), max_size=len(weights)))
    return N, order, ZPolynomial(N - 1, dict(zip(weights, map(kr, coeffs))))


class TestEngineProperty:
    """The engine against the closed-form operators, an independent route,
    beyond the weighted degree 4 that criterion 7 covers at N = 3 and 4."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(_engine_case())
    def test_engine_equals_transcription(self, case):
        N, order, p = case
        assert apply_integral(order, p, N) == transcribed_operator(N, order).apply(p)


# distinct κ-denominators, so that a drawn polynomial has a nontrivial
# common denominator
_DENOMINATORS = (kr(1), lin(1, 2), lin(2, 1), lin(1, 1) * lin(1, 3), kr(3))


@st.composite
def _fraction_case(draw, pairs, degree=5):
    N, order = draw(st.sampled_from(pairs))
    weights = draw(st.lists(st.sampled_from(_z_monomial_weights(N - 1, degree)),
                            min_size=1, max_size=3, unique=True))
    small = st.integers(-3, 3)
    coeffs = {w: (lin(draw(small.filter(bool)), draw(small))
                  / draw(st.sampled_from(_DENOMINATORS))) for w in weights}
    return N, order, ZPolynomial(N - 1, coeffs)


class TestCommonDenominatorProperty:
    """The integrals and the characteristic operator act on numerators over
    one common κ-denominator; drawn coefficients carry distinct ones."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(_fraction_case([(3, 2), (3, 3), (4, 2)]))
    def test_engine_equals_transcription(self, case):
        N, order, p = case
        assert apply_integral(order, p, N) == transcribed_operator(N, order).apply(p)

    @settings(max_examples=25, deadline=None, database=None)
    # at N = 4 the degree stays <= 3: the order-4 engine images of degree 5
    # would cost seconds cold
    @given(st.one_of(_fraction_case([(3, 2)]), _fraction_case([(4, 2)], 3)),
           st.integers(-3, 3), st.integers(-3, 3))
    def test_numeric_t_equals_symbolic_sum(self, case, a, b):
        N, _, p = case
        coeffs = char_apply(p, N)
        # 1/3 + κ/2 has no κ-denominator but a numerator that is not integral
        for t in (lin(a, b), lin(1, 2) / kr(3), lin(1, 2) / lin(2, 1),
                  lin(Fraction(1, 3), Fraction(1, 2))):
            expected = ZPolynomial.zero(N - 1)
            for k, c in enumerate(coeffs):
                expected = expected + c.scale(t ** k)
            assert char_apply(p, N, t) == expected


class TestTranscription:
    def test_a2_order2_on_z2(self):
        op = transcribed_operator(3, 2)
        z2 = ZPolynomial.variable(2, 2)
        assert op.apply(z2) == z2.scale(kr(4, 3) * lin(1, 3))

    def test_a2_order3_on_one(self):
        assert transcribed_operator(3, 3).apply(ZPolynomial.one(2)).is_zero

    def test_a3_order2_on_z2(self):
        op = transcribed_operator(4, 2)
        z2 = ZPolynomial.variable(3, 2)
        assert op.apply(z2) == z2.scale(kr(2) * lin(1, 4))

    def test_unsupported(self):
        with pytest.raises(ValueError):
            transcribed_operator(4, 3)

    def test_order2_needs_two_particles(self):
        with pytest.raises(ValueError) as err:
            transcribed_operator(1, 2)
        assert "N=1" in str(err.value)

    def test_a1_order2_is_the_gegenbauer_operator(self):
        # N = 2: (z^2 - 4) d^2/dz^2 + (1 + 2κ) z d/dz
        z = ZPolynomial.variable(1, 1)
        assert transcribed_operator(2, 2).terms == (
            (z.scale(lin(1, 2)), (1,)),
            (z * z - ZPolynomial.one(1).scale(kr(4)), (2,)))

    def test_order2_diagonal_is_epsilon2(self):
        """The diagonal terms of the closed form, summed on z^m, give the
        excitation energy of every weight."""
        for N in range(2, 8):
            for m in _z_monomial_weights(N - 1, 3):
                total = KappaPolynomial.zero()
                for (c, slope), mult, deriv in integrals.order2_terms(N):
                    if mult == deriv:
                        factor = math.prod(math.perm(a, d) for a, d in zip(m, deriv))
                        total = total + KappaPolynomial.linear(c, slope).scale(factor)
                assert total == gegenbauer.epsilon2(m, N), (m, N)

    @pytest.mark.parametrize("N,order", [(3, 2), (3, 3), (4, 2), (2, 2), (5, 2), (6, 2),
                                         (7, 2)])
    def test_engine_matches_transcription(self, N, order):
        rank = N - 1
        degree = min(4, _ENGINE_DEGREE[N, order])
        for w in _z_monomial_weights(rank, degree):
            m = ZPolynomial.monomial(rank, w)
            assert transcribed_operator(N, order).apply(m) == apply_integral(order, m, N)


class TestCharacteristic:
    def test_on_vacuum(self):
        cs = char_apply(ZPolynomial.one(2), 3)
        expected = [kr(0), kr(-4) * kappa() ** 2, kr(0), kr(1)]
        one = ZPolynomial.one(2)
        for got, c in zip(cs, expected):
            assert got == one.scale(c)

    def test_symbolic_factorization_on_z1(self):
        z1 = ZPolynomial.variable(2, 1)
        cs = char_apply(z1, 3)
        ev = char_eigenvalue((1, 0), 3)
        for got, c in zip(cs, ev):
            assert got == z1.scale(c)

    def test_numeric_t(self):
        z1 = ZPolynomial.variable(2, 1)
        from gegenlab.scalars import KappaPolynomial, KappaRational
        t = KappaRational(KappaPolynomial([Fraction(-2, 3), 2]))  # 2k - 2/3
        assert char_apply(z1, 3, t) == z1.scale(kr(-16) * kappa() ** 2)

    @pytest.mark.parametrize("N,total", [(2, 4), (5, 2), (6, 1)])
    def test_spectral_product_on_eigenpolynomials(self, N, total):
        # beyond N = 3 and 4, whose eigenpolynomials the acceptance suite
        # checks: gen_eigen solves on the closed-form L₂, not the engine
        for m in itertools.product(range(total + 1), repeat=N - 1):
            if sum(m) <= total:
                p = gen_eigen(m, N)
                assert char_apply(p, N) == [p.scale(c) for c in char_eigenvalue(m, N)], m


# integer κ-polynomials: small, negative and 200-bit-plus coefficients,
# affine or of higher degree
_COEFF = st.one_of(st.integers(-9, 9), st.integers(-(1 << 240), 1 << 240))


def _intpoly(max_size, nonzero=False):
    return st.lists(_COEFF, min_size=int(nonzero), max_size=max_size).map(
        lambda cs: tuple(cs[:max((i + 1 for i, c in enumerate(cs) if c), default=0)])
    ).filter(lambda p: p or not nonzero)


@st.composite
def _delta_case(draw):
    """Δ(t)'s coefficients as maps {weight: integer κ-polynomial} for
    t^0 .. t^N, N = 2..5, and a point t = a/b, affine or general."""
    N = draw(st.integers(2, 5))
    weights = draw(st.lists(st.tuples(*[st.integers(0, 2)] * (N - 1)),
                            min_size=1, max_size=5, unique=True))
    coeffs = [{w: c for w in weights if (c := draw(_intpoly(5)))} for _ in range(N + 1)]
    size = draw(st.sampled_from((2, 4)))
    return coeffs, draw(_intpoly(size)), draw(_intpoly(size, nonzero=True))


def _norm1(p):
    return sum(map(abs, p))


class TestPackedDelta:
    """Δ(t) at a point on Kronecker-packed coefficients equals the tuple
    rows of step_reference, at the width its bound gives and past it."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(_delta_case(), _intpoly(4, nonzero=True))
    def test_matches_the_tuple_reference(self, case, q):
        coeffs, a, b = case
        want, _ = step_reference.delta_at(coeffs, a, b)
        packed = integrals._packed_delta(coeffs, _norm1(a), _norm1(b))
        assert integrals._delta_at(packed, a, b) == want
        # a product with q of ‖q‖_1 <= lift decodes at the width returned
        W, vals = integrals._delta_eval(packed, a, b, _norm1(q))
        assert vals.keys() == want.keys()
        for w, x in vals.items():
            assert _unpack(x * _pack(q, W), W) == _pmul(want[w], q)

    @settings(max_examples=100, deadline=None, database=None)
    @given(_delta_case())
    def test_a_narrow_entry_is_repacked_for_the_call(self, case):
        # packed for the unit point, the entry is too narrow for most
        # points: the evaluation re-packs its rows, and leaves them as they were
        coeffs, a, b = case
        want, _ = step_reference.delta_at(coeffs, a, b)
        packed = integrals._packed_delta(coeffs, 1, 1)
        rows = dict(packed[2])
        assert integrals._delta_at(packed, a, b) == want
        assert packed[2] == rows

    def test_a_coefficient_just_past_the_entry_width(self):
        # the entry fits W = 64; the point lifts a coefficient to 2^63,
        # just past the balanced digits [-2^63, 2^63) of W = 64, so the call
        # packs at W = 128
        coeffs = [{(0, 0): (1 << 60,)}, {}, {}, {}]
        packed = integrals._packed_delta(coeffs, 1, 1)
        assert packed[0] == 64
        a, b = (), (2,)
        W, vals = integrals._delta_eval(packed, a, b)
        want, _ = step_reference.delta_at(coeffs, a, b)
        assert want == {(0, 0): (1 << 63,)} and W == 128
        assert {w: _unpack(x, W) for w, x in vals.items()} == want
        assert _unpack(vals[(0, 0)], 64) != want[(0, 0)]

    def test_width_covers_the_bound(self):
        coeffs = [{(1,): (3, -4)}, {(1,): (-7,), (0,): (1 << 100,)}, {(0,): (5, 0, 1)}]
        a, b = (1, -2), (3,)
        W, norms, _ = integrals._packed_delta(coeffs, _norm1(a), _norm1(b), lift=9)
        assert norms == (4, 1 << 100, 5)
        assert W == _width(9 * integrals._bound(norms, 3, 3))
        assert integrals._bound(norms, 3, 3) == 4 * 9 + (1 << 100) * 9 + 5 * 9


class TestPackedCharacteristic:
    """char_apply at a numeric t evaluates Δ(t) on packed integers, at a
    width from the bound of its coefficients and t: the tuple rows of
    step_reference are its reference."""

    POINTS = [kr(3, 2), lin(1, -2), kr(0), lin(1, 1) / lin(2, 3),
              kappa() ** 3 * kr(-7, 5) + kr(1, 3),
              lin((1 << 200) + 1, -(1 << 90)) / lin(3, 1 << 70)]

    @pytest.mark.parametrize("N,degree", [(3, 4), (4, 2)])
    def test_matches_the_tuple_reference(self, N, degree):
        weights = [w for w in itertools.product(range(degree + 1), repeat=N - 1)
                   if sum(w) <= degree]
        for w in weights:
            p = gen_eigen(w, N)
            for t in self.POINTS:
                assert char_apply(p, N, t) == step_reference.char_apply(p, N, t), (w, t)


class TestCalibration:
    @pytest.mark.parametrize("N", range(2, 8))
    def test_equals_the_fit(self, N):
        assert calibrate(N) == calibration_reference.fit(N)

    @pytest.mark.parametrize("N", range(2, 8))
    def test_offsets_are_the_vacuum_e(self, N):
        # calibrate's offsets and Δ's read one integer e_j of the vacuum: on
        # the constant 1, which every image kills, the coefficient of
        # u^(N-j) is (-1)^j N^j e_j κ^j, and there is none where e_j = 0
        cal = calibrate(N)
        one = (0,) * (N - 1)
        coeffs = integrals._delta({one: (1,)}, N)
        for j in range(2, N + 1):
            e = integrals._vacuum_e(N, j)
            assert cal.offsets[j] == kr(e) * kappa() ** j
            assert coeffs[N - j] == ({one: (0,) * j + ((-1) ** j * N ** j * e,)} if e else {})

    def test_needs_two_particles(self):
        with pytest.raises(ValueError) as err:
            calibrate(1)
        assert "N=1" in str(err.value)

    def test_order2_scale_and_offset(self):
        cal = calibrate(3)
        assert cal.scales[2] == Fraction(-1)
        assert cal.offsets[2] == kr(-4) * kappa() ** 2

    def test_order3_offset_vanishes(self):
        assert calibrate(3).offsets[3] == kr(0)

    def test_four_particle_offset(self):
        # e_2 of the vacuum spectral vector (3k, k, -k, -3k) is -10k^2
        cal = calibrate(4)
        assert cal.offsets[2] == kr(-10) * kappa() ** 2

    def test_mismatch_names_particle_number(self, monkeypatch):
        honest = gegenbauer.l_elementary
        monkeypatch.setattr(gegenbauer, "l_elementary", lambda m, N, j: (
            honest(m, N, j) + (kr(1) if m == (1, 1) else kr(0))))
        with pytest.raises(calibration_reference.ConventionMismatch) as err:
            calibration_reference.fit(3)
        assert "weight (1, 1)" in str(err.value) and "N=3" in str(err.value)

    def test_scales_are_rational_constants(self):
        cal = calibrate(4)
        assert set(cal.scales) == {2, 3, 4}
        for s in cal.scales.values():
            assert isinstance(s, Fraction)


# (N, order, w): the monomials of weighted degree <= 2 on which the engine's
# orders 3..N are checked to commute with the closed-form L₂ beyond N = 4
_COMMUTATOR_CASES = [(N, order, w) for N in (5, 6, 7) for order in range(3, N + 1)
                     for w in _z_monomial_weights(N - 1, 2)]


class TestCommutators:
    @pytest.mark.parametrize("N,order,w", _COMMUTATOR_CASES,
                             ids=[f"N{N}-{''.join(map(str, w))}-{order}"
                                  for N, order, w in _COMMUTATOR_CASES])
    def test_commutes_with_closed_form_order_two(self, N, order, w):
        p = ZPolynomial.monomial(N - 1, w)
        L2 = transcribed_operator(N, 2)
        assert apply_integral(order, L2.apply(p), N) == L2.apply(apply_integral(order, p, N))

    def test_three_particles(self):
        rep = commutator_residual(2, 3, 3, 4)
        assert rep.is_zero and rep.max_norm == 0

    def test_four_particles_order_two_four(self):
        rep = commutator_residual(2, 4, 4, 3)
        assert rep.is_zero

    def test_self_commutator(self):
        assert commutator_residual(2, 2, 3, 3).is_zero

    def test_residual_counts_the_terms_of_the_commutator(self, monkeypatch):
        """With some order-3 images bent, the residual names each monomial
        and the number of terms of [L_2, L_3] on it, as the z-polynomials
        from apply_integral give them."""
        real = integrals._engine_pass

        def bent(w, N, top):
            images = list(real(w, N, top))
            if top >= 3 and sum(w) % 2 and images[1]:
                (v, cs), *rest = images[1]
                images[1] = ((v, (cs[0] + 7,) + cs[1:]), *rest)
            return tuple(images)

        monkeypatch.setattr(integrals, "_engine_pass", bent)
        expected = []
        for w in integrals._monomials_up_to(2, 4):
            p = ZPolynomial.monomial(2, w)
            r = (apply_integral(2, apply_integral(3, p, 3), 3)
                 - apply_integral(3, apply_integral(2, p, 3), 3))
            if not r.is_zero:
                expected.append((w, len(r.terms)))
        assert expected
        assert commutator_residual(2, 3, 3, 4).failures == tuple(expected)

"""Exact scalar kernel: canonical forms, field arithmetic, evaluation."""
import copy
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from gegenlab import scalars
from gegenlab.scalars import (
    KappaPolynomial,
    KappaPole,
    KappaRational,
    KappaZeroDivision,
    _affine,
    _canonical,
    _cleared,
    _fadd,
    _fmul,
    _from_factored,
    _lcm,
    _pdiv_exact,
    _pmul,
    _reduced,
    kappa,
    kr,
    kr_eval,
    lin,
)


def P(*coeffs):
    return KappaPolynomial([Fraction(c) for c in coeffs])


class TestNormalize:
    def test_common_polynomial_factor(self):
        # (2k^2 + 2k) / (k^2 + k) = 2
        r = KappaRational(P(0, 2, 2), P(0, 1, 1))
        assert r == kr(2)

    def test_already_reduced(self):
        r = KappaRational(P(-1, 1), P(1))
        assert r.num == P(-1, 1)
        assert r.den == P(1)

    def test_gcd_with_content(self):
        # 4k(1+k) / 2(1+k)^2 = 2k/(1+k), oracle: cancel by hand
        r = KappaRational(P(0, 4, 4), P(2, 4, 2))
        assert r.num == P(0, 2)
        assert r.den == P(1, 1)

    def test_idempotent(self):
        r = KappaRational(P(0, 4, 4), P(2, 4, 2))
        again = KappaRational(r.num, r.den)
        assert again.num == r.num and again.den == r.den

    def test_zero_denominator(self):
        with pytest.raises(KappaZeroDivision):
            KappaRational(P(1), P())

    def test_canonical_coefficients_are_integers(self):
        r = kr(1, 2) * kappa() / lin(1, 1)  # (k/2)/(1+k) -> k/(2+2k)
        assert r.num == P(0, 1)
        assert r.den == P(2, 2)

    def test_denominator_leading_positive(self):
        r = kr(1) / lin(-1, -1)  # 1/(-1-k) = -1/(1+k)
        assert r.num == P(-1)
        assert r.den == P(1, 1)


class TestEval:
    def test_simple(self):
        r = kr(2) / lin(1, 1)
        assert kr_eval(r, 1) == Fraction(1)

    def test_pole(self):
        r = kr(2) / lin(1, 1)
        with pytest.raises(KappaPole) as err:
            kr_eval(r, -1)
        assert err.value.factor == P(1, 1)

    def test_pole_survives_pickle_and_copy(self):
        with pytest.raises(KappaPole) as err:
            kr_eval(kr(2) / lin(1, 1), -1)
        pole = err.value
        for clone in (pickle.loads(pickle.dumps(pole)), copy.deepcopy(pole)):
            assert type(clone) is KappaPole
            assert clone.factor == pole.factor and clone.point == pole.point
            assert str(clone) == str(pole)

    def test_recurrence_value(self):
        # m(m-1+2k)/((m+k)(m-1+k)) at m=1, k=1/2 gives 4/3
        m = 1
        num = kr(m) * lin(m - 1, 2)
        den = lin(m) * lin(m - 1)
        assert kr_eval(num / den, Fraction(1, 2)) == Fraction(4, 3)


class TestArith:
    def test_add_over_common_denominator(self):
        a = kr(1) / lin(1, 1)
        b = kappa() / lin(1, 1)
        assert a + b == kr(1)

    def test_difference_of_squares(self):
        assert lin(-1, 1) * lin(1, 1) == KappaRational(P(-1, 0, 1))

    def test_three_denominator_combination(self):
        # 8/((1+k)(1+3k)) - 6(1+k)/((1+2k)(1+3k)), oracle: expand over the
        # common denominator and cancel (1+3k)
        lhs = (kr(8) / (lin(1, 1) * lin(1, 3))
               - kr(6) * lin(1, 1) / (lin(1, 2) * lin(1, 3)))
        rhs = kr(-2) * lin(-1, 1) / (lin(1, 1) * lin(1, 2))
        assert lhs == rhs

    def test_divide_by_zero(self):
        with pytest.raises(KappaZeroDivision):
            kr(1) / kr(0)


def _random_kr(rng) -> KappaRational:
    def poly():
        deg = rng.randrange(0, 3)
        return P(*[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                   for _ in range(deg + 1)])
    num = poly()
    den = poly()
    while den.is_zero:
        den = poly()
    return KappaRational(num, den)


class TestFieldAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(20260810)
        for _ in range(60):
            a, b, c = (_random_kr(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == kr(0)
            if not b.is_zero:
                assert (a / b) * b == a

    def test_eval_is_a_homomorphism(self):
        rng = random.Random(7)
        pts = [Fraction(1, 3), Fraction(5), Fraction(-7, 2)]
        for _ in range(40):
            a, b = _random_kr(rng), _random_kr(rng)
            for x in pts:
                try:
                    va, vb = kr_eval(a, x), kr_eval(b, x)
                    s = kr_eval(a + b, x)
                    p = kr_eval(a * b, x)
                except KappaPole:
                    continue
                assert s == va + vb
                assert p == va * vb

    def test_equality_is_value_equality(self):
        a = kr(2) * kappa() / (lin(2, 2))
        b = kappa() / lin(1, 1)
        assert a == b
        assert hash(a) == hash(b)


class TestIntegerLayer:
    """The fraction-free layer: integer κ-polynomials as tuples of ints."""

    def test_cleared_is_integral_and_exact(self):
        rng = random.Random(20261018)
        for _ in range(60):
            c = _random_kr(rng)
            n, d = _cleared(c)
            assert all(type(x) is int for x in n + d)
            assert KappaRational(KappaPolynomial(n), KappaPolynomial(d)) == c

    def test_lcm_is_divided_by_every_denominator(self):
        rng = random.Random(3)
        for _ in range(30):
            dens = {_cleared(_random_kr(rng))[1] for _ in range(rng.randrange(1, 5))}
            common = _lcm(dens)
            for d in dens:
                assert _pmul(_pdiv_exact(common, d), d) == common

    def test_constant_denominator_matches_gcd_path(self):
        rng = random.Random(11)
        for _ in range(40):
            num = _random_kr(rng).num
            c = Fraction(rng.choice([-6, -1, 2, 5]), rng.randrange(1, 4))
            r = KappaRational(num, KappaPolynomial.const(c))
            assert r.den == KappaPolynomial.one()
            # a common non-constant factor sends the same value through the gcd
            x = P(1, 1)
            via_gcd = KappaRational(num * x, KappaPolynomial.const(c) * x)
            assert (r.num, r.den) == (via_gcd.num, via_gcd.den)

    def test_coefficients_stay_fractions(self):
        rng = random.Random(5)
        pairs = [(P(0, 1), P(1, 1))]  # κ * (1+κ) has a zero coefficient
        pairs += [(_random_kr(rng).num, _random_kr(rng).den) for _ in range(30)]
        for a, b in pairs:
            for p in (a + b, a * b, pickle.loads(pickle.dumps(a * b))):
                assert all(type(c) is Fraction for c in p.coeffs)


# affine factors a + bκ; (2, 4) and (1, 2), (-3, -6) and (1, 2), (0, 3) and
# (0, -1) are proportional pairs, and negative slopes flip the sign
_AFFINE = [(1, 2), (2, 4), (-3, -6), (0, 3), (0, -1), (5, 1), (-2, 3), (4, -7),
           (1, 1)]


def _factored(rng, cancel: bool):
    """A random num / (scale · Π factors) as the integer numerator and
    denominator, and as the factored value of the same quotient."""
    raw = [rng.choice(_AFFINE) for _ in range(rng.randrange(0, 5))]
    scale = rng.choice([-6, -2, -1, 1, 3, 4, 12])
    num = tuple(rng.randrange(-5, 6) for _ in range(rng.randrange(1, 4)))
    num = num if any(num) else (rng.choice([-2, 1, 7]),)
    while not num[-1]:
        num = num[:-1]
    # share some or all of the factors with the numerator
    shared = raw if cancel else [f for f in raw if rng.random() < 0.5]
    for f in shared:
        num = _pmul(num, f)
    den = (scale,)
    factored_scale, factors = scale, Counter()
    for a, b in raw:
        den = _pmul(den, (a, b))
        c, f = _affine(a, b)
        factored_scale *= c
        factors[f] += 1
    return num, den, (num, factored_scale, factors)


class TestFactoredDenominator:
    """The gcd-free canonical form of a quotient by known affine factors
    agrees with the gcd route of KappaRational."""

    @staticmethod
    def _gcd_route(num, den) -> KappaRational:
        return KappaRational(KappaPolynomial(num), KappaPolynomial(den))

    @staticmethod
    def _assert_same(got: KappaRational, want: KappaRational):
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
        assert all(type(c) is Fraction for c in got.num.coeffs + got.den.coeffs)

    def test_affine_is_primitive_with_positive_slope(self):
        for a, b in _AFFINE:
            c, (p, q) = _affine(a, b)
            assert q > 0 and math.gcd(p, q) == 1
            assert (c * p, c * q) == (a, b)

    @pytest.mark.parametrize("cancel", [False, True])
    def test_matches_gcd_route_on_random_products(self, cancel):
        rng = random.Random(20261018 + cancel)
        for _ in range(200):
            num, den, value = _factored(rng, cancel)
            self._assert_same(_from_factored(*value), self._gcd_route(num, den))

    def test_named_cases(self):
        cases = {
            # (1+2κ)² from a repeated factor, and from a proportional pair
            "repeated": ((3,), 1, Counter({(1, 2): 2})),
            "proportional": ((3,), 2, Counter({(1, 2): 2})),
            # κ(1+2κ) / (2κ(2+4κ)) = 1/4: cancels completely
            "cancelled": ((0, 1, 2), 4, Counter({(0, 1): 1, (1, 2): 1})),
            "constant": ((6, 0, -4), -9, Counter()),
            "negative scale": ((5, 3), -6, Counter({(5, 1): 1, (-2, 3): 2})),
            "zero": ((), 3, Counter({(1, 1): 1})),
        }
        for name, (num, scale, factors) in cases.items():
            den = (scale,)
            for f in factors.elements():
                den = _pmul(den, f)
            got = _from_factored(num, scale, factors)
            self._assert_same(got, self._gcd_route(num, den))
        assert _from_factored((0, 1, 2), 4, Counter({(0, 1): 1, (1, 2): 1})) == kr(1, 4)
        assert _from_factored((6, 0, -4), -9, Counter()).den == KappaPolynomial.one()

    @pytest.mark.parametrize("cancel", [False, True])
    def test_reduced_is_in_lowest_terms(self, cancel):
        # the form the generation caches keep: a positive scale with no
        # content shared with the numerator, no factor left that divides it
        rng = random.Random(20261019 + cancel)
        for _ in range(200):
            _, _, value = _factored(rng, cancel)
            num, scale, factors = reduced = _reduced(*value)
            assert scale > 0 and math.gcd(scale, *num) == 1
            for f in factors:
                with pytest.raises(ArithmeticError):
                    _pdiv_exact(num, f)
            assert _reduced(*reduced) == reduced
            self._assert_same(_canonical(*reduced), _from_factored(*value))

    def test_sum_matches_field_addition(self):
        rng = random.Random(12)
        for _ in range(100):
            _, _, x = _factored(rng, False)
            _, _, y = _factored(rng, False)
            got = _from_factored(*_fadd(x, y))
            self._assert_same(got, _from_factored(*x) + _from_factored(*y))

    def test_product_matches_field_multiplication(self):
        rng = random.Random(13)
        for _ in range(100):
            _, _, x = _factored(rng, False)
            _, _, y = _factored(rng, rng.random() < 0.5)
            got = _from_factored(*_fmul(x, y))
            self._assert_same(got, _from_factored(*x) * _from_factored(*y))

    def test_built_from_affine_factors(self):
        # 6κ(1+2κ) / ((2+4κ)·3κ) = 1
        value = scalars._factored(6, [(0, 1), (1, 2)], [(2, 4), (0, 3)])
        assert value == ((0, 6, 12), 6, Counter({(1, 2): 1, (0, 1): 1}))
        assert _from_factored(*value) == kr(1)
        value = scalars._factored(-2, [(1, 1)], [(3, 1), (3, 1), (-1, -2)])
        want = kr(-2) * lin(1, 1) / (lin(3, 1) * lin(3, 1) * lin(-1, -2))
        self._assert_same(_from_factored(*value), want)
        # a vanishing constant is the zero value, whatever the factors
        assert _from_factored(*scalars._factored(0, [(1, 1)], [(0, 1)])).is_zero

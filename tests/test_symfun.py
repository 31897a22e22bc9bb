"""Polynomial layer: weights, the dominance cone and the engine's lift of
z-monomials; the tests' x-space references: projection, exact division."""
import itertools
import random

import pytest

import xspace_reference as ref
from gegenlab.scalars import kr, lin
from gegenlab.symfun import (
    XPolynomial,
    ZPolynomial,
    _add_term,
    _elementary_product,
    dominated_weights,
    elementary,
    partition_weight,
    weight_partition,
    weighted_degree,
)


def _lift(p, N):
    """z_i -> e_i(x) on a z-polynomial, as {exponent: coefficient}."""
    out = {}
    for w, c in p.terms.items():
        for e, d in _elementary_product(N, w).terms.items():
            _add_term(out, e, c * d)
    return out


class TestLift:
    def test_z1(self):
        assert _elementary_product(3, (1, 0)).terms == dict.fromkeys(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1)

    def test_z2(self):
        assert _elementary_product(3, (0, 1)).terms == dict.fromkeys(
            [(1, 1, 0), (1, 0, 1), (0, 1, 1)], 1)

    def test_lift_with_coupling_coefficients(self):
        # z1^2 - 2/(1+k) z2 at four particles
        c = kr(-2) / lin(1, 1)
        p = ZPolynomial(3, {(2, 0, 0): kr(1), (0, 1, 0): c})
        e1, e2 = elementary(4, 1), elementary(4, 2)
        expected = dict((e1 * e1).terms)
        for e, d in e2.terms.items():
            _add_term(expected, e, c * d)
        assert _lift(p, 4) == expected

    def test_homogeneous(self):
        rng = random.Random(3)
        for _ in range(10):
            w = tuple(rng.randrange(0, 3) for _ in range(2))
            degrees = {sum(e) for e in _elementary_product(3, w).terms}
            assert degrees == {weighted_degree(w)}

    def test_symmetric_under_transpositions(self):
        p = ZPolynomial(2, {(2, 1): kr(5), (0, 2): kr(-1, 3)})
        assert XPolynomial(3, _lift(p, 3)).swap_violation() is None


class TestProject:
    def test_e2(self):
        assert ref.project(dict.fromkeys([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 1), 3) == {(0, 1): 1}

    def test_top_symmetric_function_becomes_one(self):
        # (x1 x2 x3)^2 projects through e_3^2 to the constant 1
        assert ref.project({(2, 2, 2): 1}, 3) == {(0, 0): 1}

    def test_power_sum_via_newton_identity(self):
        # p_2 = e_1^2 - 2 e_2
        power_sum = dict.fromkeys([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 1)
        assert ref.project(power_sum, 3) == {(2, 0): 1, (0, 1): -2}

    def test_rejects_asymmetric_and_names_transposition(self):
        with pytest.raises(ValueError, match="x_1 <-> x_2"):
            ref.project({(2, 0, 0): 1}, 3)

    def test_round_trip_randomized(self):
        rng = random.Random(20260810)
        for rank in (1, 2, 3):
            for _ in range(8):
                terms = {}
                for _ in range(rng.randrange(1, 4)):
                    w = tuple(rng.randrange(0, 4) for _ in range(rank))
                    if weighted_degree(w) > 6:
                        continue
                    terms[w] = kr(rng.randrange(-5, 6), rng.randrange(1, 3))
                p = ZPolynomial(rank, terms)
                assert ZPolynomial(rank, ref.project(_lift(p, rank + 1), rank + 1)) == p


class TestDivideExact:
    def test_difference_of_squares(self):
        assert ref.divide_exact({(2, 0): 1, (0, 2): -1}, {(0, 1): 1}) == {(1, 0): 1, (0, 1): 1}

    def test_euler_operator_output(self):
        # (x1 d1 - x2 d2)(x1^2 + x2^2) = 2x1^2 - 2x2^2, divided by (x1-x2)
        num = {(2, 0): kr(2), (0, 2): kr(-2)}
        assert ref.divide_exact(num, {(0, 1): 1}) == {(1, 0): kr(2), (0, 1): kr(2)}

    def test_not_divisible(self):
        with pytest.raises(ArithmeticError):
            ref.divide_exact({(1, 1): 1}, {(0, 1): 1})

    def test_multiply_back(self):
        d12 = {(1, 0, 0): 1, (0, 1, 0): -1}
        d13 = {(1, 0, 0): 1, (0, 0, 1): -1}
        num = ref.mul(ref.mul(d12, d13), dict.fromkeys([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1))
        q = ref.divide_exact(num, {(0, 1): 1, (0, 2): 1})
        assert ref.mul(ref.mul(q, d12), d13) == num


class TestFractionSum:
    def test_add_over_common_denominator(self):
        # 1/(x1 - x2) + x1/(x1 - x2)^2
        num, den = ref.fraction_sum([({(0, 0): 1}, {(0, 1): 1}),
                                     ({(1, 0): 1}, {(0, 1): 2})], 2)
        assert den == {(0, 1): 2}
        assert num == {(1, 0): 2, (0, 1): -1}


def _brute_cone(lam):
    n = len(lam)
    cols = []
    for j in range(n):
        col = [0] * n
        col[j] = 2
        if j > 0:
            col[j - 1] = -1
        if j < n - 1:
            col[j + 1] = -1
        cols.append(col)
    found = set()
    for combo in itertools.product(range(0, 8), repeat=n):
        mu = list(lam)
        for j, c in enumerate(combo):
            for k in range(n):
                mu[k] -= c * cols[j][k]
        if all(e >= 0 for e in mu):
            found.add(tuple(mu))
    return found


class TestDominance:
    def test_fundamental_weight_alone(self):
        assert dominated_weights((1, 0)) == [(1, 0)]

    def test_appendix_support(self):
        assert set(dominated_weights((2, 0, 0))) == {(2, 0, 0), (0, 1, 0)}

    def test_adjoint_cone_against_brute_force(self):
        assert set(dominated_weights((1, 1))) == _brute_cone((1, 1)) == {(1, 1), (0, 0)}

    def test_random_against_brute_force(self):
        rng = random.Random(5)
        drawn = [tuple(rng.randrange(0, 3) for _ in range(3)) for _ in range(6)]
        small = [lam for n in range(1, 5) for lam in itertools.product(range(3), repeat=n)
                 if sum(lam) <= 2]
        for lam in drawn + small:
            assert set(dominated_weights(lam)) == _brute_cone(lam), lam

    def test_downward_closed(self):
        lam = (2, 1)
        cone = set(dominated_weights(lam))
        for mu in cone:
            assert set(dominated_weights(mu)) <= cone

    def test_leading_first(self):
        assert dominated_weights((2, 0, 0))[0] == (2, 0, 0)


class TestWeightPartition:
    def test_examples(self):
        assert weight_partition((2, 0, 0)) == (2, 0, 0, 0)
        assert weight_partition((1, 1, 0)) == (2, 1, 0, 0)
        assert weight_partition((0, 0, 0)) == (0, 0, 0, 0)

    def test_inverse(self):
        for w in [(2, 0, 0), (1, 1, 0), (0, 3, 2), (0, 0, 0)]:
            assert partition_weight(weight_partition(w)) == w

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            partition_weight((1, 2, 0))
        with pytest.raises(ValueError):
            partition_weight((2, 1, 1))

"""Polynomial layer: lifting, projection, exact division, dominance cone."""
import itertools
import random
from fractions import Fraction

import pytest

from gegenlab.scalars import kr, lin
from gegenlab.symfun import (
    NonPolynomialOutput,
    NonSymmetricInput,
    RankMismatch,
    XPolynomial,
    XRational,
    ZPolynomial,
    dominated_weights,
    divide_exact,
    elementary,
    lift,
    partition_weight,
    project,
    weight_partition,
    xr_sum,
    weighted_degree,
)


def xvar(n, j):
    return XPolynomial.variable(n, j)


class TestLift:
    def test_z1(self):
        assert lift(ZPolynomial.variable(2, 1), 3) == xvar(3, 1) + xvar(3, 2) + xvar(3, 3)

    def test_z2(self):
        x1, x2, x3 = (xvar(3, j) for j in (1, 2, 3))
        assert lift(ZPolynomial.variable(2, 2), 3) == x1 * x2 + x1 * x3 + x2 * x3

    def test_lift_with_coupling_coefficients(self):
        # z1^2 - 2/(1+k) z2 at four particles
        p = ZPolynomial(3, {(2, 0, 0): kr(1), (0, 1, 0): kr(-2) / lin(1, 1)})
        lifted = lift(p, 4)
        e1, e2 = elementary(4, 1), elementary(4, 2)
        assert lifted == e1 * e1 + e2.scale(kr(-2) / lin(1, 1))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            lift(ZPolynomial.variable(2, 1), 4)

    def test_homogeneous(self):
        rng = random.Random(3)
        for _ in range(10):
            w = tuple(rng.randrange(0, 3) for _ in range(2))
            lifted = lift(ZPolynomial.monomial(2, w), 3)
            degrees = {sum(e) for e in lifted.terms}
            assert degrees == ({weighted_degree(w)} if not lifted.is_zero else set())

    def test_symmetric_under_transpositions(self):
        p = ZPolynomial(2, {(2, 1): kr(5), (0, 2): kr(-1, 3)})
        assert lift(p, 3).swap_violation() is None


class TestProject:
    def test_e2(self):
        x1, x2, x3 = (xvar(3, j) for j in (1, 2, 3))
        assert project(x1 * x2 + x1 * x3 + x2 * x3) == ZPolynomial.variable(2, 2)

    def test_top_symmetric_function_becomes_one(self):
        # (x1 x2 x3)^2 projects through e_3^2 to the constant 1
        p = XPolynomial.monomial(3, (2, 2, 2))
        assert project(p) == ZPolynomial.one(2)

    def test_power_sum_via_newton_identity(self):
        # p_2 = e_1^2 - 2 e_2, computed independently on the z side
        f = sum((xvar(3, j) * xvar(3, j) for j in (1, 2, 3)), XPolynomial.zero(3))
        z1 = ZPolynomial.variable(2, 1)
        z2 = ZPolynomial.variable(2, 2)
        assert project(f) == z1 * z1 - z2.scale(kr(2))

    def test_rejects_asymmetric_and_names_transposition(self):
        f = XPolynomial.monomial(3, (2, 0, 0))
        with pytest.raises(NonSymmetricInput) as err:
            project(f)
        assert "x_1 <-> x_2" in str(err.value)

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
                assert project(lift(p, rank + 1)) == p


class TestDivideExact:
    def test_difference_of_squares(self):
        x1, x2 = xvar(2, 1), xvar(2, 2)
        f = XRational(x1 * x1 - x2 * x2, {(1, 2): 1})
        assert divide_exact(f) == x1 + x2

    def test_euler_operator_output(self):
        # (x1 d1 - x2 d2)(x1^2 + x2^2) = 2x1^2 - 2x2^2, divided by (x1-x2)
        x1, x2 = xvar(2, 1), xvar(2, 2)
        num = (x1 * x1 - x2 * x2).scale(kr(2))
        f = XRational(num, {(1, 2): 1})
        assert divide_exact(f) == (x1 + x2).scale(kr(2))

    def test_not_divisible(self):
        f = XRational(XPolynomial.monomial(2, (1, 1)), {(1, 2): 1})
        with pytest.raises(NonPolynomialOutput):
            divide_exact(f)

    def test_multiply_back(self):
        x1, x2, x3 = (xvar(3, j) for j in (1, 2, 3))
        num = (x1 - x2) * (x1 - x3) * (x1 + x2 + x3)
        f = XRational(num, {(1, 2): 1, (1, 3): 1})
        q = divide_exact(f)
        assert q * (x1 - x2) * (x1 - x3) == num


class TestXRational:
    def test_add_over_common_denominator(self):
        x1, x2 = xvar(2, 1), xvar(2, 2)
        a = XRational(XPolynomial.one(2), {(1, 2): 1})
        b = XRational(x1, {(1, 2): 2})
        s = xr_sum([a, b], 2)
        assert s.den_pairs == {(1, 2): 2}
        assert s.num == (x1 - x2) + x1


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
        for _ in range(6):
            lam = tuple(rng.randrange(0, 3) for _ in range(3))
            assert set(dominated_weights(lam)) == _brute_cone(lam)

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

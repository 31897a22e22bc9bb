"""Polynomial family: spectra, generation routes, recurrences, step operators."""
import functools
import itertools
import threading
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import step_reference
import xspace_reference
from gegenlab.scalars import (
    KappaPolynomial,
    KappaRational,
    SpectralDegeneracy,
    _cofactor,
    _pmul,
    _width,
    kappa,
    kr,
    lin,
)
from gegenlab import cli, gegenbauer, integrals, symfun
from gegenlab.symfun import ZPolynomial, dominated_weights
from gegenlab.integrals import apply_integral, calibrate
from gegenlab.gegenbauer import (
    DecompositionError,
    ShiftNotTabulated,
    char_eigenvalue,
    epsilon2,
    expand_product,
    gen_eigen,
    gen_recurrence,
    ground_energy,
    l_shift,
    l_vector,
    mu_vector,
    recurrence_coefficient,
    shift_decompose,
    sigma_closed_form,
    step,
    tabulated_shifts,
)


def KP(*coeffs):
    return KappaPolynomial([Fraction(c) for c in coeffs])


class TestEigenvalues:
    def test_a2_fundamental(self):
        assert epsilon2((1, 0), 3) == KP(Fraction(4, 3), 4)

    def test_a3_fundamental(self):
        assert epsilon2((1, 0, 0), 4) == KP(Fraction(3, 2), 6)

    def test_vacuum(self):
        assert epsilon2((0, 0, 0, 0), 5).is_zero

    def test_matches_rank2_diagonal_form(self):
        # (4/3)(m^2 + n^2 + mn + 3k(m+n))
        for m in range(4):
            for n in range(4):
                want = KP(Fraction(4, 3) * (m * m + n * n + m * n),
                          Fraction(4, 3) * 3 * (m + n))
                assert epsilon2((m, n), 3) == want

    def test_matches_rank3_diagonal_form(self):
        for m, l, n in itertools.product(range(3), repeat=3):
            const = Fraction(1, 2) * (3 * m * m + 3 * n * n + 4 * l * l
                                      + 4 * m * l + 4 * n * l + 2 * m * n)
            slope = Fraction(1, 2) * 4 * (3 * m + 3 * n + 4 * l)
            assert epsilon2((m, l, n), 4) == KP(const, slope)


class TestGroundEnergy:
    def test_values(self):
        assert ground_energy(3) == KP(0, 0, 4)
        assert ground_energy(4) == KP(0, 0, 10)
        assert ground_energy(2) == KP(0, 0, 1)


class TestLVector:
    def test_a2_vacuum(self):
        lv = l_vector((0, 0), 3)
        assert lv.entries == ((Fraction(0), Fraction(2)),
                              (Fraction(0), Fraction(0)),
                              (Fraction(0), Fraction(-2)))

    def test_a3_fundamental(self):
        lv = l_vector((1, 0, 0), 4)
        assert [lv.component(j) for j in range(1, 5)] == [
            lin(Fraction(3, 2), 3), lin(Fraction(-1, 2), 1),
            lin(Fraction(-1, 2), -1), lin(Fraction(-1, 2), -3)]

    def test_components_sum_to_zero(self):
        for m, N in [((2, 1), 3), ((1, 0, 2), 4), ((3,), 2)]:
            lv = l_vector(m, N)
            total = sum((lv.component(j) for j in range(1, N + 1)), kr(0))
            assert total.is_zero

    def test_component_out_of_range(self):
        lv = l_vector((1, 0), 3)
        for j in (0, -1, 4):
            with pytest.raises(ValueError, match=f"component {j} out of range"):
                lv.component(j)


class TestShiftVectors:
    def test_mu_sum_adds_the_elementary_shifts(self):
        for N in range(2, 7):
            n = N - 1
            for r in range(1, N + 1):
                for subset in itertools.combinations(range(1, N + 1), r):
                    want = tuple(sum((k == i) - (k == i - 1) for i in subset)
                                 for k in range(1, N))
                    assert gegenbauer._mu_sum(subset, n) == want


@functools.lru_cache(maxsize=None)
def _enumerated_decompositions(N):
    """The search shift_decompose once ran on every call, run once per N:
    the first signed sum of r distinct elementary shifts that makes each
    shift, by increasing r, then sign +1 before -1, then subset order."""
    found = {}
    for r in range(1, N):
        for sign in (1, -1):
            for subset in itertools.combinations(range(1, N + 1), r):
                shift = tuple(sign * e for e in gegenbauer._mu_sum(subset, N - 1))
                found.setdefault(shift, (sign, subset, r))
    return found


class TestShiftDecompose:
    @pytest.mark.parametrize("N", range(2, 8))
    def test_matches_the_enumeration(self, N):
        reference = _enumerated_decompositions(N)
        hits = 0
        for s in itertools.product(range(-2, 3), repeat=N - 1):
            if s in reference:
                assert shift_decompose(s, N) == reference[s], s
                hits += 1
            else:
                with pytest.raises(ShiftNotTabulated):
                    shift_decompose(s, N)
        assert hits == 2 ** N - 2

    def test_wrong_rank(self):
        with pytest.raises(ValueError) as err:
            shift_decompose((1, 0), 4)
        assert err.type is ValueError and "wrong rank" in str(err.value)


class TestLShift:
    def test_single_raise(self):
        got = l_shift((0, 0), mu_vector(1, 2), 3)
        assert got == l_vector((1, 0), 3)

    def test_single_lower(self):
        s = tuple(-e for e in mu_vector(1, 3))
        assert l_shift((1, 0, 0), s, 4) == l_vector((0, 0, 0), 4)

    def test_double_shift(self):
        s = tuple(a + b for a, b in zip(mu_vector(1, 3), mu_vector(3, 3)))
        assert s == (1, -1, 1)
        assert l_shift((1, 1, 0), s, 4) == l_vector((2, 0, 1), 4)

    def test_rejects_invalid_target(self):
        with pytest.raises(ValueError):
            l_shift((0, 0), (0, -1), 3)


class TestCharEigenvalue:
    def test_a2_vacuum(self):
        # t^3 - 4k^2 t
        cs = char_eigenvalue((0, 0), 3)
        assert cs == [kr(0), kr(-4) * kappa() ** 2, kr(0), kr(1)]

    def test_a2_lowest_coefficient(self):
        cs = char_eigenvalue((1, 0), 3)
        assert cs[0] == kr(-8, 27) * lin(2, 3) * lin(1, 3)

    def test_a3_vacuum_product(self):
        # (t^2 - 9k^2)(t^2 - k^2)
        cs = char_eigenvalue((0, 0, 0), 4)
        k2 = kappa() ** 2
        assert cs == [kr(9) * k2 * k2, kr(0), kr(-10) * k2, kr(0), kr(1)]

    def test_subleading_coefficient_vanishes(self):
        for m, N in [((2, 1), 3), ((1, 1, 1), 4)]:
            assert char_eigenvalue(m, N)[N - 1].is_zero

    @pytest.mark.parametrize("N", range(2, 8))
    def test_equals_the_product_over_the_spectral_vector(self, N):
        # the product of (t - l_j) multiplied out in KappaRational arithmetic
        for m in itertools.product(range(3), repeat=N - 1):
            if sum(m) > 2:
                continue
            expected = [kr(1)]
            for j in range(1, N + 1):
                l_j = l_vector(m, N).component(j)
                expected = [a - l_j * b for a, b in zip([kr(0)] + expected, expected + [kr(0)])]
            assert char_eigenvalue(m, N) == expected, m


class TestGenEigen:
    def test_a3_row_squared(self):
        got = gen_eigen((2, 0, 0), 4)
        want = ZPolynomial(3, {(2, 0, 0): kr(1), (0, 1, 0): kr(-2) / lin(1, 1)})
        assert got == want

    def test_a3_outer_product(self):
        got = gen_eigen((1, 0, 1), 4)
        want = ZPolynomial(3, {(1, 0, 1): kr(1), (0, 0, 0): kr(-4) / lin(1, 3)})
        assert got == want

    def test_a2_adjoint(self):
        got = gen_eigen((1, 1), 3)
        want = ZPolynomial(2, {(1, 1): kr(1), (0, 0): kr(-3) / lin(1, 2)})
        assert got == want

    def test_monic_and_triangular(self):
        for m, N in [((2, 1), 3), ((1, 1, 0), 4)]:
            p = gen_eigen(m, N)
            assert p.coefficient(m) == kr(1)
            assert set(p.terms) <= set(dominated_weights(m))

    def test_eigen_equation(self):
        for m, N in [((2, 2), 3), ((0, 2, 0), 4)]:
            p = gen_eigen(m, N)
            eps = KappaRational(epsilon2(m, N))
            assert apply_integral(2, p, N) == p.scale(eps)

    def test_numeric_coupling(self):
        p = gen_eigen((2, 0, 0), 4, kappa=Fraction(1, 2))
        want = ZPolynomial(3, {(2, 0, 0): kr(1), (0, 1, 0): kr(-4, 3)})
        assert p == want

    def test_numeric_matches_substitution(self):
        sym = gen_eigen((1, 1), 3).substitute_kappa(Fraction(2, 5))
        num = gen_eigen((1, 1), 3, kappa=Fraction(2, 5))
        assert sym == num

    def test_numeric_degeneracy(self):
        # at coupling -1 the eigenvalues of (2,0,0) and (0,1,0) collide
        with pytest.raises(SpectralDegeneracy):
            gen_eigen((2, 0, 0), 4, kappa=Fraction(-1))


class TestGenEigenOffTheEngine:
    """gen_eigen solves on the closed-form order-2 operator alone, so the
    engine's eigen equation is a second route."""

    def test_no_engine_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gen_eigen reached the x-space engine")

        weights = [((2, 1), 3), ((3, 3), 3), ((1, 1, 1), 4), ((0, 2, 1), 4),
                   ((1, 0, 0, 1), 5), ((1, 1, 1, 1), 5)]
        gegenbauer._symbolic_eigen.cache_clear()
        monkeypatch.setattr(integrals, "apply_integral", refuse)
        monkeypatch.setattr(integrals, "_engine_pass", refuse)
        solved = [(m, N, gen_eigen(m, N)) for m, N in weights]
        gen_eigen((2, 1, 0, 1), 5, kappa=Fraction(1, 3))
        monkeypatch.undo()
        for m, N, p in solved:
            if N in (3, 4):
                assert p == gen_recurrence(m, N)
            assert apply_integral(2, p, N) == p.scale(KappaRational(epsilon2(m, N)))


def _weights(N: int, total: int):
    return [m for m in itertools.product(range(total + 1), repeat=N - 1)
            if sum(m) <= total]


class TestGcdFreeSolve:
    """The solve carries each coefficient as an integer numerator over
    known affine factors and never takes a polynomial gcd."""

    WEIGHTS = ([(m, 3) for m in _weights(3, 4)] + [(m, 4) for m in _weights(4, 3)]
               + [(m, 5) for m in _weights(5, 2)] + [(m, 6) for m in _weights(6, 2)]
               + [((2, 2, 2), 4), ((3, 1, 1, 3), 5)])

    def test_no_gcd_and_canonical(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the solve took a polynomial gcd")

        gegenbauer._symbolic_eigen.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(KappaPolynomial, "gcd", staticmethod(refuse))
            solved = [gen_eigen(m, N) for m, N in self.WEIGHTS]
            gen_eigen((2, 1, 0, 1), 5, kappa=Fraction(1, 3))
        for p in solved:
            for c in p.terms.values():
                again = KappaRational(c.num, c.den)
                assert (c.num.coeffs, c.den.coeffs) == (again.num.coeffs, again.den.coeffs)
                assert all(type(x) is Fraction for x in c.num.coeffs + c.den.coeffs)

    @pytest.mark.parametrize("N,total", [(3, 3), (4, 3), (5, 2), (6, 2)])
    def test_free_coupling_limit_is_the_orbit_sum(self, N, total):
        # at κ = 0 the eigenpolynomials are the monomial symmetric functions
        # m_λ, projected onto e_1..e_{N-1}: no operator is involved
        for m in _weights(N, total):
            lam = symfun.weight_partition(m)
            orbit = dict.fromkeys(itertools.permutations(lam), 1)
            assert (gen_eigen(m, N).substitute_kappa(0)
                    == ZPolynomial(N - 1, xspace_reference.project(orbit, N))), m

    def test_five_particles_cold(self):
        _clear_caches()
        t0 = time.perf_counter()
        p = gen_eigen((3, 1, 1, 3), 5)
        elapsed = time.perf_counter() - t0
        assert p.coefficient((3, 1, 1, 3)) == kr(1)
        assert elapsed < 2, elapsed


# the six negative couplings of the numeric benchmark workload, where
# eigenvalues collide or coefficient denominators vanish
_NEGATIVE_KAPPAS = tuple(Fraction(-p, q) for p, q in
                         ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)))


@st.composite
def _numeric_case(draw):
    N = draw(st.integers(3, 6))
    m = draw(st.sampled_from(_weights(N, 3)))
    q = draw(st.one_of(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
                       st.sampled_from(_NEGATIVE_KAPPAS)))
    return m, N, q


class TestNumericCouplingProperty:
    """gen_eigen at a rational coupling is the symbolic solve substituted,
    or a typed degeneracy where two eigenvalues of the cone collide."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(_numeric_case())
    def test_numeric_equals_substituted_symbolic(self, case):
        m, N, q = case
        top = epsilon2(m, N)
        collide = any((top - epsilon2(w, N))(q) == 0 for w in dominated_weights(m)[1:])
        try:
            got = gen_eigen(m, N, kappa=q)
        except SpectralDegeneracy:
            assert collide, (m, N, q)
            return
        assert got == gen_eigen(m, N).substitute_kappa(q)


def _elementary(k: int, N: int) -> ZPolynomial:
    """e_k of N variables on the unit-determinant torus: e_0 = e_N = 1,
    e_k = z_k in between, and 0 outside [0, N]."""
    if k in (0, N):
        return ZPolynomial.one(N - 1)
    if 0 < k < N:
        return ZPolynomial.variable(N - 1, k)
    return ZPolynomial.zero(N - 1)


def _dual_jacobi_trudi(m, N: int) -> ZPolynomial:
    """The Schur polynomial s_λ = det(e_{λ'_i - i + j}) of the partition
    λ of m (Macdonald I (3.5)), by the Leibniz formula."""
    lam = symfun.weight_partition(m)
    conj = [sum(1 for row in lam if row >= i) for i in range(1, lam[0] + 1)]
    out = ZPolynomial.zero(N - 1)
    for perm in itertools.permutations(range(len(conj))):
        term = ZPolynomial.one(N - 1)
        for i, j in enumerate(perm):
            term = term * _elementary(conj[i] - i + j, N)
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out = out - term if inversions % 2 else out + term
    return out


class TestSchurLimit:
    """At κ = 1 the eigenpolynomials are Schur polynomials: a closed form
    with no solve and no operator, at any N."""

    @pytest.mark.parametrize("N,total", [(3, 3), (4, 3), (5, 3), (6, 2), (7, 2)])
    def test_dual_jacobi_trudi(self, N, total):
        for m in itertools.product(range(total + 1), repeat=N - 1):
            if sum(m) <= total:
                assert gen_eigen(m, N, kappa=1) == _dual_jacobi_trudi(m, N), m

    def test_six_particles_cold(self):
        _clear_caches()
        t0 = time.perf_counter()
        p = gen_eigen((1, 1, 1, 1, 1), 6, kappa=1)
        elapsed = time.perf_counter() - t0
        assert p == _dual_jacobi_trudi((1, 1, 1, 1, 1), 6)
        # the x-space engine took over a minute here
        assert elapsed < 5, elapsed


class TestRecurrenceCoefficients:
    def test_c1(self):
        assert recurrence_coefficient("c", (1,)) == kr(2) / lin(1, 1)

    def test_vanishing_leading_index(self):
        assert recurrence_coefficient("a", (3, 0)).is_zero
        assert recurrence_coefficient("c", (0,)).is_zero
        assert recurrence_coefficient("d", (1, 1, 0)).is_zero
        assert recurrence_coefficient("f", (0, 1, 1)).is_zero
        assert recurrence_coefficient("g", (1, 0, 1)).is_zero

    def test_g_010(self):
        want = kr(6) * lin(1, 1) / (lin(1, 2) * lin(1, 3))
        assert recurrence_coefficient("g", (0, 1, 0)) == want

    def test_g_cross_checks_constant_term(self):
        # constant of the (0,2,0) polynomial: c_1 * 4/(1+3k) - g(0,1,0)
        c1 = recurrence_coefficient("c", (1,))
        g = recurrence_coefficient("g", (0, 1, 0))
        lhs = c1 * kr(4) / lin(1, 3) - g
        assert lhs == kr(-2) * lin(-1, 1) / (lin(1, 1) * lin(1, 2))

    def test_collapse_at_unit_coupling(self):
        one = Fraction(1)
        for m in range(1, 6):
            assert recurrence_coefficient("c", (m,))(one) == 1
        for p in range(4):
            for q in range(1, 4):
                assert recurrence_coefficient("a", (p, q))(one) == 1
        for m, l, n in itertools.product(range(3), repeat=3):
            if n:
                assert recurrence_coefficient("d", (m, l, n))(one) == 1
            if m and n:
                assert recurrence_coefficient("f", (m, l, n))(one) == 1
            if l:
                assert recurrence_coefficient("g", (m, l, n))(one) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            recurrence_coefficient("b", (1, 2))

    @pytest.mark.parametrize("kind,args", [("a", (1.5, 2.9)), ("c", ("3",)),
                                           ("d", (1, 2.0, 0)), ("g", (-1, 1, 1))])
    def test_indices_must_be_non_negative_ints(self, kind, args):
        # an index is never truncated or parsed
        with pytest.raises(ValueError) as err:
            recurrence_coefficient(kind, args)
        assert err.type is ValueError
        assert f"{kind}{args}" in str(err.value)


class TestGenRecurrence:
    def test_printed_forms(self):
        assert gen_recurrence((1, 1, 0), 4) == ZPolynomial(
            3, {(1, 1, 0): kr(1), (0, 0, 1): kr(-3) / lin(1, 2)})
        assert gen_recurrence((0, 2, 0), 4) == ZPolynomial(
            3, {(0, 2, 0): kr(1), (1, 0, 1): kr(-2) / lin(1, 1),
                (0, 0, 0): kr(-2) * lin(-1, 1) / (lin(1, 1) * lin(1, 2))})

    def test_a2_row_squared(self):
        assert gen_recurrence((2, 0), 3) == ZPolynomial(
            2, {(2, 0): kr(1), (0, 1): kr(-2) / lin(1, 1)})

    def test_route_agreement_sample(self):
        for m in [(2, 1), (0, 3), (1, 2)]:
            assert gen_recurrence(m, 3) == gen_eigen(m, 3)
        for m in [(1, 0, 1), (0, 1, 1), (2, 1, 0)]:
            assert gen_recurrence(m, 4) == gen_eigen(m, 4)


class TestExpandProduct:
    def test_a2_z1_on_fundamental(self):
        table = expand_product(1, (1, 0), 3)
        assert table[(1, 0)] == kr(1)
        assert table[(-1, 1)] == kr(2) / lin(1, 1)
        assert table[(0, -1)] == kr(0)

    def test_vacuum_gives_single_term(self):
        for r, N in [(1, 3), (2, 3), (2, 4), (3, 4)]:
            table = expand_product(r, (0,) * (N - 1), N)
            nonzero = {s: c for s, c in table.items() if not c.is_zero}
            lead = tuple((1 if k == r - 1 else 0) for k in range(N - 1))
            assert nonzero == {lead: kr(1)}

    def test_adjusted_mixed_term(self):
        # coefficient of the (-1,0,1) shift in z_2 P_{1,0,0} is a(0,1) = 3/(1+2k)
        table = expand_product(2, (1, 0, 0), 4)
        assert table[(-1, 0, 1)] == kr(3) / lin(1, 2)

    def test_matches_closed_form_rows(self):
        m, n = 2, 1
        table = expand_product(1, (m, n), 3)
        assert table[(0, -1)] == recurrence_coefficient("a", (m, n))
        assert table[(-1, 1)] == recurrence_coefficient("c", (m,))
        table2 = expand_product(2, (m, n), 3)
        assert table2[(0, 1)] == kr(1)
        assert table2[(-1, 0)] == recurrence_coefficient("a", (n, m))
        assert table2[(1, -1)] == recurrence_coefficient("c", (n,))

    def test_weight_of_the_wrong_rank(self):
        with pytest.raises(ValueError, match="has rank 1, expected 2"):
            expand_product(1, (1,), 3)

    def test_a1_reduction_to_classical_three_term(self):
        for m in range(1, 6):
            table = expand_product(1, (m,), 2)
            assert table[(1,)] == kr(1)
            assert table[(-1,)] == recurrence_coefficient("c", (m,))


class TestDuality:
    def test_rank2(self):
        for m in [(1, 0), (1, 1), (2, 1)]:
            for r in (1, 2):
                table = expand_product(r, m, 3)
                dual = expand_product(3 - r, tuple(reversed(m)), 3)
                for s, c in table.items():
                    assert dual[tuple(reversed(s))] == c

    def test_rank3(self):
        m = (1, 0, 1)
        for r in (1, 2, 3):
            table = expand_product(r, m, 4)
            dual = expand_product(4 - r, tuple(reversed(m)), 4)
            for s, c in table.items():
                assert dual[tuple(reversed(s))] == c


class TestStep:
    def test_vacuum_raise(self):
        P, sigma = step((0, 0), (1, 0), 3)
        assert P == ZPolynomial.variable(2, 1)
        assert sigma == kr(-16) * kappa() ** 2

    def test_annihilation_below_vacuum(self):
        P, sigma = step((0, 0), (0, -1), 3)
        assert P.is_zero and sigma.is_zero

    def test_a3_vacuum_raise(self):
        P, sigma = step((0, 0, 0), (1, 0, 0), 4)
        assert P == ZPolynomial.variable(3, 1)
        assert sigma == kr(-96) * kappa() ** 3

    def test_every_shift_at_five_particles_cold(self):
        # every shift of every r-subset, raising and lowering, on weights of
        # sum <= 2, past the tables: σ is the coefficient of P_{m+s} in
        # z_j·P_m times the Δ factors' spectral product on P_{m+s}
        N = 5
        shifts = sorted({gegenbauer._mu_sum(sub, N - 1) for r in range(1, N)
                         for sub in itertools.combinations(range(1, N + 1), r)})
        _clear_caches()
        steps = [(m, s, step(m, s, N)) for m in _weights(N, 2) for s in shifts]
        assert len(steps) == 450
        nonzero = [(m, s, P, sigma) for m, s, (P, sigma) in steps if not sigma.is_zero]
        assert len(nonzero) == 166
        for m, s, P, sigma in nonzero:
            target = tuple(a + b for a, b in zip(m, s))
            assert P == gen_eigen(target, N), (m, s)
            sign, subset, r = shift_decompose(s, N)
            value = expand_product(r if sign > 0 else N - r, m, N)[s]
            for i in subset:
                point = l_vector(m, N).component(i) + kr(-2 * sign * r, N)
                for k in range(1, N + 1):
                    value = value * (point - l_vector(target, N).component(k))
            assert sigma == value, (m, s)

    @pytest.fixture
    def fresh_packed_splits(self):
        # the packed splits and their norms are read off _symbolic_eigen's
        # split: built afresh from a perturbed one, and dropped after it
        derived = (gegenbauer._packed_split, gegenbauer._split_norm)
        for fn in derived:
            fn.cache_clear()
        yield
        for fn in derived:
            fn.cache_clear()

    def test_perturbed_target_is_caught(self, fresh_packed_splits, monkeypatch):
        # the cross-multiplied proportionality check sees one wrong
        # coefficient of the target's cached split
        honest = gegenbauer._symbolic_eigen

        def perturbed(w, N):
            p, split = honest(w, N)
            if w != (2, 1):
                return p, split
            num, scale, factors = split[(1, 0)]
            wrong = dict(split)
            wrong[(1, 0)] = (num, scale * 7, factors)
            return p, types.MappingProxyType(wrong)

        monkeypatch.setattr(gegenbauer, "_symbolic_eigen", perturbed)
        with pytest.raises(DecompositionError) as err:
            step((1, 1), (1, 0), 3)
        for part in ("shift (1, 0)", "at (1, 1)", "N=3"):
            assert part in str(err.value)

    @pytest.mark.parametrize("s", [(2, 0), (1, 1), (0, 0)],
                             ids=lambda s: ",".join(map(str, s)))
    def test_untabulated_shift(self, s):
        with pytest.raises(ShiftNotTabulated):
            sigma_closed_form((0, 0), s, 3)

    def test_warm_steps_read_only_cached_coefficients(self, monkeypatch):
        # every Δ factor, double shifts' second ones too, evaluates the
        # cached coefficients of _shifted_delta at an integer point, and σ
        # is read off the target's cached split: a warm pass runs no Δ and
        # clears no KappaRational
        cases = [(m, s, N) for m, N in TestGcdFreeStep.GRID
                 for s in tabulated_shifts(N)]
        assert len(cases) == 166
        first = [step(m, s, N) for m, s, N in cases]
        with monkeypatch.context() as patch:
            for name in ("_delta", "_cleared"):
                patch.setattr(integrals, name, _refuse(name))
            second = [step(m, s, N) for m, s, N in cases]
        assert second == first


class TestPackedStep:
    """step's last Δ factor runs on integers packed at κ = 2^W, checked
    against the tuple rows of step_reference."""

    # every tabulated shift on every weight of sum <= 4 at N = 3 and of
    # sum <= 2 at N = 4
    GRID = [(m, s, N) for N, bound in ((3, 4), (4, 2))
            for m in itertools.product(range(bound + 1), repeat=N - 1) if sum(m) <= bound
            for s in tabulated_shifts(N)]

    def test_matches_the_tuple_reference(self):
        assert len(self.GRID) == 230
        for m, s, N in self.GRID:
            got = step(m, s, N)
            assert got == step_reference.step(m, s, N), (m, s, N)
            assert got[1] == sigma_closed_form(m, s, N), (m, s, N)

    def test_width_covers_every_coefficient(self, monkeypatch):
        # the bound on the last factor's numerators and both sides of the
        # cross-multiplication, and the width taken from it, against their
        # true largest coefficient; no entry is re-packed for a call with no
        # lift: a double shift's first factor, or a step to an invalid target
        calls = []
        honest = integrals._delta_eval

        def recording(packed, a, b, lift=1):
            W, vals = honest(packed, a, b, lift)
            calls.append((packed, a, b, lift, W))
            return W, vals

        monkeypatch.setattr(integrals, "_delta_eval", recording)
        gegenbauer._shifted_delta.cache_clear()
        for m, s, N in self.GRID:
            step(m, s, N)
            (_, norms, _), a, b, lift, W = calls[-1]
            nums, _, _, last = step_reference.last_factor(m, s, N)
            assert (a, b) == (last, (1,))
            products = list(nums.values())
            if nums:
                target = tuple(x + y for x, y in zip(m, s))
                for w, (num, c, f) in gegenbauer._symbolic_eigen(target, N)[1].items():
                    products += [_pmul(nums.get(w, ()), _cofactor(c, f)),
                                 _pmul(nums[target], num)]
            true = max((abs(x) for p in products for x in p), default=0)
            bound = lift * integrals._bound(norms, sum(map(abs, a)), 1)
            assert true <= bound, (m, s, N)
            assert W >= _width(bound) >= true.bit_length() + 2, (m, s, N)
        firsts = [(packed[0], W) for packed, _, _, lift, W in calls if lift == 1]
        assert firsts and all(entry == W for entry, W in firsts)
        gegenbauer._shifted_delta.cache_clear()

    def test_a_wider_step_leaves_the_entry(self, monkeypatch):
        # a target whose cross-products could be 300 bits wider: the step
        # re-packs for itself, and the cached entry keeps its width and rows
        m, s, N = (1, 1), (1, 0), 3
        gegenbauer._shifted_delta.cache_clear()
        want = step(m, s, N)
        entry = gegenbauer._shifted_delta(m, N, 1, ())
        W, _, rows = entry[0]
        before = dict(rows)
        widths = []
        honest = integrals._delta_eval

        def recording(*args):
            out = honest(*args)
            widths.append(out[0])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(gegenbauer, "_split_norm", lambda target, N: 1 << 300)
            patch.setattr(integrals, "_delta_eval", recording)
            assert step(m, s, N) == want
        assert widths[0] > 300 > W
        assert gegenbauer._shifted_delta(m, N, 1, ()) is entry
        assert entry[0][0] == W and dict(entry[0][2]) == before
        assert step(m, s, N) == want
        gegenbauer._shifted_delta.cache_clear()


class TestSigmaClosedForm:
    def test_weight_of_the_wrong_rank(self):
        with pytest.raises(ValueError) as err:
            sigma_closed_form((1,), (1, 0), 3)
        assert err.type is ValueError
        assert "has rank 1, expected 2" in str(err.value)

    def test_raising_in_second_slot(self):
        # 8(n+m+2k)(n+k) for the (0,1) shift
        for m, n in [(0, 0), (2, 1)]:
            want = kr(8) * lin(m + n, 2) * lin(n)
            assert sigma_closed_form((m, n), (0, 1), 3) == want

    def test_mixed_with_recurrence_factor(self):
        want = kr(16) * lin(1, 1)
        assert sigma_closed_form((1, 1), (-1, 1), 3) == want

    def test_a3_double_at_vacuum(self):
        got = sigma_closed_form((0, 0, 0), (0, 1, 0), 4)
        want = (kr(-256) * kappa() * lin(1, 1) * lin(-1, 1)
                * (kr(2) * kappa()) ** 2 * kr(3) * kappa())
        assert got == want

    def test_extraction_matches_closed_form_rank2(self):
        for m in [(0, 1), (2, 0), (1, 2)]:
            for s in tabulated_shifts(3):
                _, sigma = step(m, s, 3)
                assert sigma == sigma_closed_form(m, s, 3)


# The closed forms as KappaRational arithmetic, transcribed from their
# formulas: the oracle for the factored values the library builds.

def _oracle_rc(kind, args):
    if kind == "c":
        (m,) = args
        if m == 0:
            return KappaRational.zero()
        return kr(m) * lin(m - 1, 2) / (lin(m) * lin(m - 1))
    if kind == "a":
        p, q = args
        if q == 0:
            return KappaRational.zero()
        return (kr(q) * lin(p + q) * lin(q - 1, 2) * lin(p + q - 1, 3)
                / (lin(q) * lin(q - 1) * lin(p + q, 2) * lin(p + q - 1, 2)))
    m, l, n = args
    if kind == "d":
        if n == 0:
            return KappaRational.zero()
        return (kr(n) * lin(l + n) * lin(n - 1, 2) * lin(m + l + n, 2)
                * lin(l + n - 1, 3) * lin(m + l + n - 1, 4)
                / (lin(n) * lin(n - 1) * lin(l + n, 2) * lin(l + n - 1, 2)
                   * lin(m + l + n, 3) * lin(m + l + n - 1, 3)))
    if kind == "f":
        if m == 0 or n == 0:
            return KappaRational.zero()
        return (kr(m * n) * lin(m - 1, 2) * lin(n - 1, 2)
                * lin(m + l + n, 2) * lin(m + l + n - 1, 4)
                / (lin(m) * lin(n) * lin(m - 1) * lin(n - 1)
                   * lin(m + l + n, 3) * lin(m + l + n - 1, 3)))
    assert kind == "g"
    if l == 0:
        return KappaRational.zero()
    return (kr(l) * lin(m + l) * lin(l + n) * lin(l - 1, 2)
            * lin(m + l + n, 2) * lin(m + l - 1, 3) * lin(l + n - 1, 3)
            * lin(m + l + n - 1, 4)
            / (lin(l) * lin(l - 1) * lin(m + l, 2) * lin(m + l - 1, 2)
               * lin(l + n, 2) * lin(l + n - 1, 2)
               * lin(m + l + n, 3) * lin(m + l + n - 1, 3)))


def _rc(kind, *args):
    return _oracle_rc(kind, args)


def _pair(a, b):
    return kr(8) * lin(a + b, 2) * lin(a)


def _pair_mixed(a, b):
    return kr(8) * lin(a) * lin(b)


def _chain(m, l, n):
    return kr(16) * lin(m) * lin(m + l, 2) * lin(m + l + n, 3)


def _chain_mixed(m, l, n):
    return kr(16) * lin(m) * lin(l) * lin(l + n, 2)


def _adjacent(m, l, n):
    return (kr(256) * lin(l) * lin(m + 1) * lin(m - 1) * lin(m + l, 2)
            * lin(l + n, 2) * lin(m + l + n, 3))


def _split(m, l, n):
    return (kr(256) * lin(m) * lin(l) * lin(n) * lin(m + l + 1, 2)
            * lin(m + l - 1, 2) * lin(m + l + n, 3))


def _outer(m, l, n):
    return (kr(256) * lin(m) * lin(n) * lin(m + l, 2) * lin(l + n, 2)
            * lin(m + l + n + 1, 3) * lin(m + l + n - 1, 3))


def _inner(m, l, n):
    return (kr(256) * lin(m) * lin(n) * lin(l + 1) * lin(l - 1)
            * lin(m + l, 2) * lin(l + n, 2))


_ORACLE_SIGMA = {
    3: {
        (1, 0): lambda m, n: -_pair(m, n),
        (-1, 1): lambda m, n: _pair_mixed(m, n) * _rc("c", m),
        (0, -1): lambda m, n: -_pair(n, m) * _rc("a", m, n),
        (-1, 0): lambda m, n: _pair(m, n) * _rc("a", n, m),
        (1, -1): lambda m, n: -_pair_mixed(m, n) * _rc("c", n),
        (0, 1): lambda m, n: _pair(n, m),
    },
    4: {
        (1, 0, 0): lambda m, l, n: -_chain(m, l, n),
        (-1, 1, 0): lambda m, l, n: _chain_mixed(m, l, n) * _rc("c", m),
        (0, -1, 1): lambda m, l, n: -_chain_mixed(n, l, m) * _rc("a", m, l),
        (0, 0, -1): lambda m, l, n: _chain(n, l, m) * _rc("d", m, l, n),
        (0, 0, 1): lambda m, l, n: -_chain(n, l, m),
        (0, 1, -1): lambda m, l, n: _chain_mixed(n, l, m) * _rc("c", n),
        (1, -1, 0): lambda m, l, n: -_chain_mixed(m, l, n) * _rc("a", n, l),
        (-1, 0, 0): lambda m, l, n: _chain(m, l, n) * _rc("d", n, l, m),
        (0, 1, 0): lambda m, l, n: -_adjacent(m, l, n),
        (1, -1, 1): lambda m, l, n: _split(m, l, n) * _rc("c", l),
        (1, 0, -1): lambda m, l, n: -_outer(m, l, n) * _rc("a", l, n),
        (-1, 0, 1): lambda m, l, n: -_inner(m, l, n) * _rc("a", l, m),
        (-1, 1, -1): lambda m, l, n: _split(n, l, m) * _rc("f", m, l, n),
        (0, -1, 0): lambda m, l, n: -_adjacent(n, l, m) * _rc("g", m, l, n),
    },
}


def _canonical(c):
    """The representation of a scalar, coefficient types included."""
    coeffs = c.num.coeffs + c.den.coeffs
    return c.num.coeffs, c.den.coeffs, tuple(map(type, coeffs))


def _refuse_gcd(*args):
    raise AssertionError("a polynomial gcd was taken")


def _refuse(name):
    def refused(*args):
        raise AssertionError(f"{name} was called")
    return refused


class TestFactoredClosedForms:
    """Every closed form is built as a factored value and reduced once by
    trial division: the same canonical scalar as the KappaRational formula,
    with no polynomial gcd."""

    RC_CASES = [(kind, args) for kind, n in (("c", 1), ("a", 2), ("d", 3),
                                             ("f", 3), ("g", 3))
                for args in itertools.product(range(7), repeat=n)]
    SIGMA_WEIGHTS = ([(m, 3) for m in itertools.product(range(7), repeat=2)]
                     + [(m, 4) for m in _weights(4, 4)])

    def test_recurrence_coefficients(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(KappaPolynomial, "gcd", staticmethod(_refuse_gcd))
            got = [recurrence_coefficient(kind, args) for kind, args in self.RC_CASES]
        assert len(got) == 1085
        for (kind, args), c in zip(self.RC_CASES, got):
            assert _canonical(c) == _canonical(_oracle_rc(kind, args)), (kind, args)

    def test_sigma_tables(self, monkeypatch):
        cases = [(m, s, N) for m, N in self.SIGMA_WEIGHTS for s in tabulated_shifts(N)]
        with monkeypatch.context() as patch:
            patch.setattr(KappaPolynomial, "gcd", staticmethod(_refuse_gcd))
            got = [sigma_closed_form(m, s, N) for m, s, N in cases]
        for (m, s, N), c in zip(cases, got):
            assert _canonical(c) == _canonical(_ORACLE_SIGMA[N][s](*m)), (m, s, N)


class TestSigmaRoute:
    """sigma_closed_form reads no step-side code, so the sigma suite checks
    the engine's Δ against an independent closed form."""

    STEP_SIDE = [(gegenbauer, name) for name in ("step", "_shifted_delta",
                                                  "_symbolic_eigen", "expand_product",
                                                  "_scaled_l", "l_vector")] + [
                (integrals, name) for name in ("_delta", "_delta_at", "calibrate")]

    def test_reads_no_step_side_code(self, monkeypatch):
        cases = [(m, s, N) for m, N in TestFactoredClosedForms.SIGMA_WEIGHTS
                 for s in tabulated_shifts(N)]
        assert len(cases) == 784
        with monkeypatch.context() as patch:
            for module, name in self.STEP_SIDE:
                patch.setattr(module, name, _refuse(name))
            got = [sigma_closed_form(m, s, N) for m, s, N in cases]
        for (m, s, N), c in zip(cases, got):
            assert c == _ORACLE_SIGMA[N][s](*m), (m, s, N)


def _peel_reference(r, m, N):
    """expand_product as a peel on canonical KappaRationals, one reduction
    (and polynomial gcd) per operation: the reference of the factored peel."""
    n = N - 1
    work = ZPolynomial.variable(n, r) * gen_eigen(m, N)
    result = {}
    while not work.is_zero:
        nu = work.leading_weight()
        c = work.coefficient(nu)
        work = work - gen_eigen(nu, N).scale(c)
        result[tuple(a - b for a, b in zip(nu, m))] = c
    for sub in itertools.combinations(range(1, N + 1), r):
        result.setdefault(gegenbauer._mu_sum(sub, n), kr(0))
    return result


@functools.lru_cache(maxsize=None)
def _recurrence_reference(m, N):
    """gen_recurrence's rules applied to canonical KappaRationals: the
    reference of the factored recurrence."""
    rank = N - 1
    if not any(m):
        return ZPolynomial.one(rank)
    r = 1 if m[0] else rank if m[-1] else 2
    source = tuple(e - (i == r - 1) for i, e in enumerate(m))
    acc = ZPolynomial.variable(rank, r) * _recurrence_reference(source, N)
    for shift, (kind, indices) in gegenbauer.RECURRENCE_ROWS[N][r](*source):
        target = tuple(a + b for a, b in zip(source, shift))
        if all(e >= 0 for e in target):
            coeff = recurrence_coefficient(kind, indices)
            acc = acc - _recurrence_reference(target, N).scale(coeff)
    return acc


class TestGcdFreeStep:
    """step reduces σ with P_m's denominator kept factored and takes no
    polynomial gcd, cold or warm; expand_product and gen_recurrence peel on
    factored values and take none either."""

    # the sigma suite's and criterion 6's grid
    GRID = [(m, N) for N, bound in ((3, 2), (4, 1))
            for m in itertools.product(range(bound + 1), repeat=N - 1)]

    def test_cold_and_warm(self, monkeypatch):
        calibrate.cache_clear()
        gegenbauer._symbolic_eigen.cache_clear()
        gegenbauer._shifted_delta.cache_clear()
        cases = [(m, s, N) for m, N in self.GRID for s in tabulated_shifts(N)]
        with monkeypatch.context() as patch:
            patch.setattr(KappaPolynomial, "gcd", staticmethod(_refuse_gcd))
            cold = [step(m, s, N) for m, s, N in cases]
            warm = [step(m, s, N) for m, s, N in cases]
        assert cold == warm
        for (m, s, N), (_, sigma) in zip(cases, cold):
            assert sigma == sigma_closed_form(m, s, N), (m, s, N)

    def test_cold_peel_matches_the_kappa_rational_peel(self, monkeypatch):
        cases = [(r, m, N) for N, total in ((3, 4), (4, 3), (5, 2))
                 for m in _weights(N, total) for r in range(1, N)]
        assert len(cases) == 150
        gegenbauer._symbolic_eigen.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(KappaPolynomial, "gcd", staticmethod(_refuse_gcd))
            got = [expand_product(r, m, N) for r, m, N in cases]
        for (r, m, N), table in zip(cases, got):
            want = _peel_reference(r, m, N)
            assert table.keys() == want.keys(), (r, m, N)
            for s, c in table.items():
                assert _canonical(c) == _canonical(want[s]), (r, m, N, s)

    def test_cold_recurrence_matches_the_kappa_rational_rules(self, monkeypatch):
        cases = [(m, N) for N, total in ((3, 6), (4, 4)) for m in _weights(N, total)]
        assert len(cases) == 63
        gegenbauer._gen_recurrence_inner.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(KappaPolynomial, "gcd", staticmethod(_refuse_gcd))
            got = [gen_recurrence(m, N) for m, N in cases]
        for (m, N), p in zip(cases, got):
            want = _recurrence_reference(m, N)
            assert p.terms.keys() == want.terms.keys(), (m, N)
            for w, c in p.terms.items():
                assert _canonical(c) == _canonical(want.terms[w]), (m, N, w)


def _family_calls(N):
    """One call per closed-form family at particle number N."""
    rank = N - 1
    vacuum = (0,) * rank
    raise_first = (1,) + (0,) * (rank - 1)
    return {
        "gen_recurrence": lambda: gen_recurrence(vacuum, N),
        "tabulated_shifts": lambda: tabulated_shifts(N),
        "sigma_closed_form": lambda: sigma_closed_form(vacuum, raise_first, N),
    }


def _engine_calls(N):
    """One call per family of the engine's whole commuting family."""
    rank = N - 1
    vacuum = (0,) * rank
    return {
        "calibrate": lambda: calibrate(N),
        "char_apply": lambda: integrals.char_apply(ZPolynomial.one(rank), N),
        "step": lambda: step(vacuum, (1,) + (0,) * (rank - 1), N),
    }


class TestFamilyCoverage:
    """Each tabulated closed-form family covers exactly N = 3 and 4; the
    families that read only the engine cover every N."""

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", sorted(_family_calls(3)))
    def test_covers_exactly_three_and_four(self, family, N):
        call = _family_calls(N)[family]
        if N in (3, 4):
            call()
            return
        with pytest.raises(ValueError) as err:
            call()
        assert err.type is ValueError
        assert f"N={N}" in str(err.value) or f"got {N}" in str(err.value)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", sorted(_engine_calls(3)))
    def test_engine_families_cover_every_n(self, family, N):
        _engine_calls(N)[family]()


def _cached_functions():
    """Every memoized function of the symfun, integrals, gegenbauer and cli
    modules, by name."""
    found = {}
    for mod in (symfun, integrals, gegenbauer, cli):
        for name, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)):
                found[name] = value
    return found


def _clear_caches():
    for fn in _cached_functions().values():
        fn.cache_clear()


class TestCaches:
    def test_caches_can_be_cleared(self):
        def compute():
            return (gen_eigen((2, 1), 3), gen_recurrence((2, 1), 3), calibrate(3),
                    integrals.char_apply(ZPolynomial.variable(2, 1), 3),
                    cli.build_parser().format_help())

        # no memo dict outside cache_clear's reach
        for mod in (symfun, integrals, gegenbauer, cli):
            for name, value in vars(mod).items():
                assert not (name.endswith("_cache") and isinstance(value, dict)), name
        first = compute()
        _clear_caches()
        for name, fn in _cached_functions().items():
            assert fn.cache_info().currsize == 0, name
        assert compute() == first
        for name in ("_engine_pass", "calibrate", "_symbolic_eigen",
                     "_gen_recurrence_inner", "build_parser"):
            assert _cached_functions()[name].cache_info().misses > 0, name

    def test_numeric_coupling_bypasses_symbolic_cache(self):
        gegenbauer._symbolic_eigen.cache_clear()
        gen_eigen((2, 1), 3, kappa=Fraction(1, 2))
        info = gegenbauer._symbolic_eigen.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_step_reuses_a_read_only_split(self):
        # the Δ coefficients of z_r·P_m over P_m's factored denominator
        _clear_caches()
        first = step((1, 0), (1, 0), 3)
        assert step((1, 0), (1, 0), 3) == first
        info = gegenbauer._shifted_delta.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        # keyed on (m, N, r, the points applied before the last); the
        # coefficients are packed, per monomial a row over u^0 .. u^N
        (_, norms, rows), _, factors = gegenbauer._shifted_delta((1, 0), 3, 1, ())
        assert gegenbauer._shifted_delta.cache_info().hits == 2
        assert len(norms) == 4 and all(len(row) == 4 for row in rows.values())
        with pytest.raises(TypeError):
            rows[(0, 0)] = (1,)
        with pytest.raises(TypeError):
            rows[(2, 0)][0] = 1
        with pytest.raises(TypeError):
            factors[(1, 1)] = 1
        gegenbauer._shifted_delta.cache_clear()
        assert gegenbauer._shifted_delta.cache_info().currsize == 0

    def test_concurrent_cold_computation(self):
        def compute():
            return (gen_eigen((2, 1), 3), gen_recurrence((1, 1), 3),
                    step((1, 0), (1, 0), 3))

        serial = compute()
        _clear_caches()
        results = [None, None]
        errors = []

        def worker(i):
            try:
                results[i] = compute()
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert results == [serial, serial]

"""Verification suites: every closed-form table is checked by independent
computation, and each suite produces a machine-readable report.

Suites
------
appendix     bundled golden table vs. the eigen route (rank 3)
eigen        eigen equation for the order-2 integral, plus the leading
             structure of its z-space form
recurrence   agreement of the recurrence route with the eigen route
commutators  vanishing commutators of the integrals
sigma        extracted step factors vs. their closed forms
duality      complementary-index symmetry of the multiplication tables
kappa1       all recurrence coefficients collapse to 1 at coupling 1
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .scalars import KappaRational, kr, lin
from .symfun import ZPolynomial, weighted_degree
from . import integrals as _integrals
from . import gegenbauer as _gg
from .serialize import load_golden, zpoly_text


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "adjudicated"
    detail: str = ""
    expected: str = ""
    actual: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.ok)
        return good, len(self.checks)

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [
                {"name": c.name, "status": c.status,
                 **({"detail": c.detail} if c.detail else {}),
                 **({"expected": c.expected} if c.expected else {}),
                 **({"actual": c.actual} if c.actual else {})}
                for c in self.checks
            ],
        }

    def to_text(self, verbose: bool = False) -> str:
        good, total = self.counts
        lines = [f"suite {self.suite}: {good}/{total} pass"
                 f" ({self.elapsed:.1f}s)"]
        for c in self.checks:
            if c.ok and not verbose:
                continue
            lines.append(f"  [{c.status}] {c.name}")
            if not c.ok:
                if c.expected:
                    lines.append(f"      expected: {c.expected}")
                if c.actual:
                    lines.append(f"      actual:   {c.actual}")
                if c.detail:
                    lines.append(f"      {c.detail}")
        return "\n".join(lines)


def _weights(rank: int, total: int):
    """Dominant weights with component sum <= total, deterministic order."""
    out = []
    for w in itertools.product(range(total + 1), repeat=rank):
        if sum(w) <= total:
            out.append(w)
    out.sort(key=lambda w: (sum(w), w))
    return out


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def suite_appendix(rank: int = 3) -> VerificationReport:
    """Every bundled golden polynomial must be reproduced exactly by the
    eigen route; a mismatch is adjudicated by the eigen equation."""
    t0 = time.perf_counter()
    rep = VerificationReport("appendix")
    N = rank + 1
    for w, golden in load_golden(rank):
        generated = _gg.gen_eigen(w, N)
        name = f"P_{','.join(map(str, w))}"
        if generated == golden:
            rep.checks.append(CheckResult(name, "pass"))
            continue
        eps = KappaRational(_gg.epsilon2(w, N))
        golden_ok = _integrals.apply_integral(2, golden, N) == golden.scale(eps)
        gen_ok = _integrals.apply_integral(2, generated, N) == generated.scale(eps)
        verdict = ("generated form satisfies the eigen equation"
                   if gen_ok and not golden_ok else
                   "bundled form satisfies the eigen equation"
                   if golden_ok and not gen_ok else
                   "eigen adjudication inconclusive")
        rep.checks.append(CheckResult(
            name, "adjudicated",
            detail=verdict,
            expected=zpoly_text(golden),
            actual=zpoly_text(generated)))
    rep.elapsed = time.perf_counter() - t0
    return rep


def _leading_structure_checks(N: int) -> list[CheckResult]:
    """First-order coefficients and top second-order coefficients of the
    order-2 integral in z-space."""
    checks = []
    rank = N - 1
    for j in range(1, N):
        zj = ZPolynomial.variable(rank, j)
        expected = zj.scale(
            kr(Fraction(2 * j * (N - j), N)) * lin(1, N))
        actual = _integrals.apply_integral(2, zj, N)
        checks.append(CheckResult(
            f"N={N} first-order coefficient of z_{j}",
            "pass" if actual == expected else "fail",
            expected=zpoly_text(expected), actual=zpoly_text(actual)))
    for j in range(1, N):
        zj = ZPolynomial.variable(rank, j)
        zj2 = zj * zj
        g_jj = (_integrals.apply_integral(2, zj2, N)
                - (zj * _integrals.apply_integral(2, zj, N)).scale(kr(2))).scale(kr(1, 2))
        w2 = tuple(2 if i == j - 1 else 0 for i in range(rank))
        lead = g_jj.coefficient(w2)
        expected = kr(Fraction(2 * j * (N - j), N))
        checks.append(CheckResult(
            f"N={N} top second-order coefficient g_{j}{j}",
            "pass" if lead == expected else "fail",
            expected=repr(expected), actual=repr(lead)))
    return checks


def suite_eigen(rank: int = 2, max_degree: Optional[int] = None) -> VerificationReport:
    t0 = time.perf_counter()
    rep = VerificationReport("eigen")
    N = rank + 1
    if max_degree is None:
        max_degree = {2: 6, 3: 4}.get(rank, 2)
    for w in _weights(rank, max_degree):
        P = _gg.gen_eigen(w, N)
        eps = KappaRational(_gg.epsilon2(w, N))
        ok = _integrals.apply_integral(2, P, N) == P.scale(eps)
        rep.checks.append(CheckResult(
            f"eigen equation at {w}", "pass" if ok else "fail",
            expected=f"eigenvalue {eps!r}"))
    rep.checks.extend(_leading_structure_checks(N))
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_recurrence(rank: int = 2, max_degree: Optional[int] = None) -> VerificationReport:
    t0 = time.perf_counter()
    rep = VerificationReport("recurrence")
    if rank not in (2, 3):
        raise ValueError("recurrence suite needs rank 2 or 3")
    N = rank + 1
    if max_degree is None:
        max_degree = {2: 6, 3: 4}[rank]
    for w in _weights(rank, max_degree):
        a = _gg.gen_recurrence(w, N)
        b = _gg.gen_eigen(w, N)
        rep.checks.append(CheckResult(
            f"route agreement at {w}", "pass" if a == b else "fail",
            expected=zpoly_text(b), actual=zpoly_text(a)))
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_commutators(rank: int = 2, max_degree: int = 4) -> VerificationReport:
    t0 = time.perf_counter()
    rep = VerificationReport("commutators")
    N = rank + 1
    pairs = [(2, 3)] if N == 3 else [(2, 3), (2, 4), (3, 4)] if N == 4 else None
    if pairs is None:
        raise ValueError("commutator suite needs rank 2 or 3")
    for j, k in pairs:
        r = _integrals.commutator_residual(j, k, N, max_degree)
        rep.checks.append(CheckResult(
            f"[order {j}, order {k}] on degree <= {max_degree} (N={N})",
            "pass" if r.is_zero else "fail",
            detail=f"{r.checked} monomials"
                   + ("" if r.is_zero else f", residual terms on {r.failures}")))
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_sigma(rank: int = 2, max_components: Optional[int] = None) -> VerificationReport:
    t0 = time.perf_counter()
    rep = VerificationReport("sigma")
    if rank not in (2, 3):
        raise ValueError("sigma suite needs rank 2 or 3")
    N = rank + 1
    if max_components is None:
        max_components = 2 if rank == 2 else 1
    weights = list(itertools.product(range(max_components + 1), repeat=rank))
    for m in weights:
        for s in _gg.tabulated_shifts(N):
            _, sigma = _gg.step(m, s, N)
            closed = _gg.sigma_closed_form(m, s, N)
            target = tuple(a + b for a, b in zip(m, s))
            valid = all(e >= 0 for e in target)
            ok = sigma == closed and (valid or sigma.is_zero)
            rep.checks.append(CheckResult(
                f"sigma at m={m}, shift={s}", "pass" if ok else "fail",
                expected=repr(closed), actual=repr(sigma)))
    rep.elapsed = time.perf_counter() - t0
    return rep


def _reverse(w):
    return tuple(reversed(w))


def suite_duality(rank: int = 2, max_degree: int = 2) -> VerificationReport:
    """Multiplication tables for z_r and z_{N-r} agree under the
    diagram flip (complementary-index coefficients)."""
    t0 = time.perf_counter()
    rep = VerificationReport("duality")
    if rank not in (2, 3):
        raise ValueError("duality suite needs rank 2 or 3")
    N = rank + 1
    for m in _weights(rank, max_degree):
        for r in range(1, rank + 1):
            table = _gg.expand_product(r, m, N)
            dual = _gg.expand_product(N - r, _reverse(m), N)
            ok = all(dual.get(_reverse(s)) == c for s, c in table.items())
            rep.checks.append(CheckResult(
                f"z_{r} table at {m} vs z_{N - r} at {_reverse(m)}",
                "pass" if ok else "fail"))
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_kappa1() -> VerificationReport:
    """At coupling 1 every recurrence coefficient with a nonzero leading
    index factor is exactly 1 (and exactly 0 otherwise)."""
    t0 = time.perf_counter()
    rep = VerificationReport("kappa1")
    one = Fraction(1)

    def check(kind, args, should_vanish):
        val = _gg.recurrence_coefficient(kind, args)
        got = val(one)
        want = 0 if should_vanish else 1
        rep.checks.append(CheckResult(
            f"{kind}{args} at coupling 1", "pass" if got == want else "fail",
            expected=str(want), actual=str(got)))

    for m in range(5):
        check("c", (m,), m == 0)
    for p in range(4):
        for q in range(4):
            check("a", (p, q), q == 0)
    for m in range(3):
        for l in range(3):
            for n in range(3):
                check("d", (m, l, n), n == 0)
                check("f", (m, l, n), m == 0 or n == 0)
                check("g", (m, l, n), l == 0)
    rep.elapsed = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUITES = ("appendix", "eigen", "recurrence", "commutators",
          "sigma", "duality", "kappa1", "all")


def run_suite(name: str, rank: Optional[int] = None,
              max_degree: Optional[int] = None,
              max_components: Optional[int] = None) -> list[VerificationReport]:
    if name == "appendix":
        return [suite_appendix(rank if rank is not None else 3)]
    if name == "eigen":
        return [suite_eigen(rank if rank is not None else 2, max_degree)]
    if name == "recurrence":
        return [suite_recurrence(rank if rank is not None else 2, max_degree)]
    if name == "commutators":
        return [suite_commutators(rank if rank is not None else 2,
                                  max_degree if max_degree is not None else 4)]
    if name == "sigma":
        return [suite_sigma(rank if rank is not None else 2, max_components)]
    if name == "duality":
        return [suite_duality(rank if rank is not None else 2,
                              max_degree if max_degree is not None else 2)]
    if name == "kappa1":
        return [suite_kappa1()]
    if name == "all":
        out = []
        out.append(suite_appendix(3))
        out.append(suite_eigen(2, max_degree))
        out.append(suite_eigen(3, max_degree))
        out.append(suite_recurrence(2, max_degree))
        out.append(suite_recurrence(3, max_degree))
        out.append(suite_commutators(2, 4))
        out.append(suite_commutators(3, 4))
        out.append(suite_sigma(2, max_components))
        out.append(suite_sigma(3, max_components))
        out.append(suite_duality(2))
        out.append(suite_duality(3))
        out.append(suite_kappa1())
        return out
    raise ValueError(f"unknown suite {name!r}")

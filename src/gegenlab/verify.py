"""Verification suites: every closed-form table is checked by independent
computation, and each suite produces a machine-readable report.

Suites
------
appendix     bundled golden table vs. the eigen route (rank 3)
eigen        the engine's eigen equation on the polynomials solved on the
             closed form, plus the leading structure of its z-space image
recurrence   agreement of the recurrence route with the eigen route
commutators  vanishing commutators of the integrals
sigma        extracted step factors vs. their closed forms
duality      complementary-index symmetry of the multiplication tables
kappa1       all recurrence coefficients collapse to 1 at coupling 1
"""
from __future__ import annotations

import functools
import inspect
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .scalars import KappaRational, kr, lin
from .symfun import ZPolynomial
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
        """A report passes when it has checks and every one passes."""
        return bool(self.checks) and all(c.ok for c in self.checks)

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
# the suite table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Suite:
    """One row of the suite table: the suite's function, the ranks
    `--suite all` runs it at, and the default of its bound by rank (key
    None: every other rank)."""
    run: Callable[..., VerificationReport]
    ranks: tuple
    defaults: dict


SUITE_TABLE: dict[str, Suite] = {}


def _suite(ranks, defaults=None):
    """Decorator for a suite body that yields its checks: the decorated name
    becomes a function that builds, times and names the report, entered in
    SUITE_TABLE under the name without ``suite_``."""
    def enter(body):
        name = body.__name__.removeprefix("suite_")

        @functools.wraps(body)
        def run(*args, **kwargs) -> VerificationReport:
            t0 = time.perf_counter()
            rep = VerificationReport(name, list(body(*args, **kwargs)))
            rep.elapsed = time.perf_counter() - t0
            return rep

        SUITE_TABLE[name] = Suite(run, tuple(ranks), defaults or {})
        return run
    return enter


def _default(suite: str, rank: int, bound: Optional[int]) -> int:
    """The given bound, or the suite's default at this rank."""
    if bound is not None:
        return bound
    defaults = SUITE_TABLE[suite].defaults
    return defaults.get(rank, defaults.get(None))


def _ranks(table: dict) -> tuple[int, ...]:
    """The ranks of a closed-form family's table keyed by N."""
    return tuple(N - 1 for N in table)


# default component-sum bound of the eigen and recurrence suites by rank
_DEGREE = {2: 6, 3: 4, None: 2}


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

@_suite(ranks=(3,))
def suite_appendix(rank: int = 3) -> VerificationReport:
    """Every bundled golden polynomial must be reproduced exactly by the
    eigen route; a mismatch is adjudicated by the eigen equation."""
    N = rank + 1
    for w, golden in load_golden(rank):
        generated = _gg.gen_eigen(w, N)
        name = f"P_{','.join(map(str, w))}"
        if generated == golden:
            yield CheckResult(name, "pass")
            continue
        eps = KappaRational(_gg.epsilon2(w, N))
        golden_ok = _integrals.apply_integral(2, golden, N) == golden.scale(eps)
        gen_ok = _integrals.apply_integral(2, generated, N) == generated.scale(eps)
        verdict = ("generated form satisfies the eigen equation"
                   if gen_ok and not golden_ok else
                   "bundled form satisfies the eigen equation"
                   if golden_ok and not gen_ok else
                   "eigen adjudication inconclusive")
        yield CheckResult(
            name, "adjudicated",
            detail=verdict,
            expected=zpoly_text(golden),
            actual=zpoly_text(generated))


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


@_suite(ranks=_ranks(_integrals.CALIBRATION_WEIGHT), defaults=_DEGREE)
def suite_eigen(rank: int = 2, max_degree: Optional[int] = None) -> VerificationReport:
    if rank < 1:
        raise ValueError(f"eigen suite at rank {rank}: needs rank >= 1")
    N = rank + 1
    for w in _weights(rank, _default("eigen", rank, max_degree)):
        P = _gg.gen_eigen(w, N)
        eps = KappaRational(_gg.epsilon2(w, N))
        ok = _integrals.apply_integral(2, P, N) == P.scale(eps)
        yield CheckResult(
            f"eigen equation at {w}", "pass" if ok else "fail",
            expected=f"eigenvalue {eps!r}")
    yield from _leading_structure_checks(N)


@_suite(ranks=_ranks(_gg.RECURRENCE_ROWS), defaults=_DEGREE)
def suite_recurrence(rank: int = 2, max_degree: Optional[int] = None) -> VerificationReport:
    N = rank + 1
    _integrals.covered(_gg.RECURRENCE_ROWS, N, "recurrence suite")
    for w in _weights(rank, _default("recurrence", rank, max_degree)):
        a = _gg.gen_recurrence(w, N)
        b = _gg.gen_eigen(w, N)
        yield CheckResult(
            f"route agreement at {w}", "pass" if a == b else "fail",
            expected=zpoly_text(b), actual=zpoly_text(a))


@_suite(ranks=_ranks(_integrals.CALIBRATION_WEIGHT))
def suite_commutators(rank: int = 2, max_degree: int = 4) -> VerificationReport:
    N = rank + 1
    _integrals.covered(_integrals.CALIBRATION_WEIGHT, N, "commutator suite")
    for j, k in itertools.combinations(range(2, N + 1), 2):
        r = _integrals.commutator_residual(j, k, N, max_degree)
        yield CheckResult(
            f"[order {j}, order {k}] on degree <= {max_degree} (N={N})",
            "pass" if r.is_zero else "fail",
            detail=f"{r.checked} monomials"
                   + ("" if r.is_zero else f", residual terms on {r.failures}"))


@_suite(ranks=_ranks(_gg.STEP_SHIFTS), defaults={2: 2, None: 1})
def suite_sigma(rank: int = 2, max_components: Optional[int] = None) -> VerificationReport:
    N = rank + 1
    shifts = _integrals.covered(_gg.STEP_SHIFTS, N, "sigma suite")
    bound = _default("sigma", rank, max_components)
    for m in itertools.product(range(bound + 1), repeat=rank):
        for s in shifts:
            _, sigma = _gg.step(m, s, N)
            closed = _gg.sigma_closed_form(m, s, N)
            target = tuple(a + b for a, b in zip(m, s))
            valid = all(e >= 0 for e in target)
            ok = sigma == closed and (valid or sigma.is_zero)
            yield CheckResult(
                f"sigma at m={m}, shift={s}", "pass" if ok else "fail",
                expected=repr(closed), actual=repr(sigma))


def _reverse(w):
    return tuple(reversed(w))


@_suite(ranks=(2, 3, 4, 5))
def suite_duality(rank: int = 2, max_degree: int = 2) -> VerificationReport:
    """Multiplication tables for z_r and z_{N-r} agree under the
    diagram flip (complementary-index coefficients); they need only the
    eigen route, so every rank from 2 is covered.  Below rank 2 the flip
    maps each table onto itself, so the suite is a ValueError there."""
    if rank < 2:
        raise ValueError(f"duality suite at rank {rank}: needs rank >= 2,"
                         " where z_r and z_(N-r) differ")
    N = rank + 1
    for m in _weights(rank, max_degree):
        for r in range(1, rank + 1):
            table = _gg.expand_product(r, m, N)
            dual = _gg.expand_product(N - r, _reverse(m), N)
            ok = all(dual.get(_reverse(s)) == c for s, c in table.items())
            yield CheckResult(
                f"z_{r} table at {m} vs z_{N - r} at {_reverse(m)}",
                "pass" if ok else "fail")


@_suite(ranks=(None,))
def suite_kappa1(rank: Optional[int] = None) -> VerificationReport:
    """At coupling 1 every recurrence coefficient with a nonzero leading
    index factor is exactly 1 (and exactly 0 otherwise), at any rank that
    the recurrence tables cover."""
    if rank is not None:
        _integrals.covered(_gg.RECURRENCE_ROWS, rank + 1, "kappa1 suite")
    one = Fraction(1)

    def check(kind, args, should_vanish):
        got = _gg.recurrence_coefficient(kind, args)(one)
        want = 0 if should_vanish else 1
        return CheckResult(
            f"{kind}{args} at coupling 1", "pass" if got == want else "fail",
            expected=str(want), actual=str(got))

    for m in range(5):
        yield check("c", (m,), m == 0)
    for p in range(4):
        for q in range(4):
            yield check("a", (p, q), q == 0)
    for m in range(3):
        for l in range(3):
            for n in range(3):
                yield check("d", (m, l, n), n == 0)
                yield check("f", (m, l, n), m == 0 or n == 0)
                yield check("g", (m, l, n), l == 0)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUITES = (*SUITE_TABLE, "all")


def run_suite(name: str, rank: Optional[int] = None,
              max_degree: Optional[int] = None,
              max_components: Optional[int] = None) -> list[VerificationReport]:
    """Run one suite, or with "all" every suite at each of its ranks.  With
    "all" the given bounds reach every suite that takes them, and a rank is
    a ValueError; a single suite refuses an option it does not take.  A
    negative bound, which leaves a suite nothing to check, is a ValueError."""
    given = {"max_degree": max_degree, "max_components": max_components}
    for option, bound in given.items():
        if bound is not None and bound < 0:
            raise ValueError(f"negative bound {option}={bound} leaves a suite"
                             " nothing to check")
    if name == "all":
        if rank is not None:
            raise ValueError(f"suite all runs each suite at its own ranks, got rank {rank}")
        runs = [(suite, r) for suite in SUITE_TABLE.values() for r in suite.ranks]
    elif name in SUITE_TABLE:
        runs = [(SUITE_TABLE[name], rank)]
    else:
        raise ValueError(f"unknown suite {name!r}")
    reports = []
    for suite, r in runs:
        takes = inspect.signature(suite.run).parameters
        kwargs = {k: v for k, v in dict(given, rank=r).items() if v is not None}
        refused = sorted(kwargs.keys() - takes)
        if refused and name != "all":
            raise ValueError(f"{name} suite takes no {', '.join(refused)}")
        reports.append(suite.run(**{k: kwargs[k] for k in kwargs.keys() & takes}))
    return reports

"""Verification suites: the suite table, the reports of `--suite all`, and
bounds that would leave a suite with nothing to check."""
import pytest

from gegenlab.verify import VerificationReport, run_suite

# (suite, number of checks) of every report `run_suite("all")` returns
ALL_COUNTS = [("appendix", 21), ("eigen", 32), ("eigen", 41),
              ("recurrence", 28), ("recurrence", 35), ("commutators", 1),
              ("commutators", 3), ("sigma", 54), ("sigma", 112),
              ("duality", 12), ("duality", 30), ("duality", 60), ("duality", 105),
              ("kappa1", 102)]


def test_all_runs_every_suite_at_its_ranks():
    reports = run_suite("all")
    assert [(r.suite, r.counts[1]) for r in reports] == ALL_COUNTS
    assert all(r.passed for r in reports)


def test_all_passes_the_given_bounds_to_every_suite():
    reports = run_suite("all", max_degree=1)
    for suite in ("commutators", "duality"):
        got = [[c.name for c in r.checks] for r in reports if r.suite == suite]
        want = [[c.name for c in run_suite(suite, rank=rank, max_degree=1)[0].checks]
                for rank in {"commutators": (2, 3), "duality": (2, 3, 4, 5)}[suite]]
        assert got == want
    (commutators,) = run_suite("commutators", rank=2, max_degree=1)
    assert commutators.checks[0].name.startswith("[order 2, order 3] on degree <= 1")


@pytest.mark.parametrize("suite, bounds", [
    ("sigma", {"max_components": -1}),
    ("recurrence", {"max_degree": -1}),
    ("duality", {"max_degree": -1}),
    ("commutators", {"max_degree": -3}),
    ("all", {"max_degree": -1}),
])
def test_negative_bound_is_rejected(suite, bounds):
    with pytest.raises(ValueError, match="negative"):
        run_suite(suite, **bounds)


def test_report_without_checks_does_not_pass():
    report = VerificationReport("empty")
    assert not report.passed
    assert report.to_obj()["passed"] is False

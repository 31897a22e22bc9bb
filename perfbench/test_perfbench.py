"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Ladder, Numeric, Tables  # noqa: E402

TINY = {
    "tables": lambda: Tables({"families": ((2, 2), (3, 1)),
                              "rank4": ((0, 0, 0, 0),)}),
    "ladder": lambda: Ladder({"suites": ("duality", "kappa1"),
                              "n3_bases": ((0, 0), (1, 0)),
                              "calibrate": (3,), "n4_bases": ()}),
    "numeric": lambda: Numeric({"families": ((2, 2),), "draws": 1,
                                "sigma_families": ((2, 1),),
                                "positive_kappas": 4}),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _no_cache_override(monkeypatch):
    monkeypatch.delenv("GEGENLAB_CACHE", raising=False)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(name, trace):
    result, lines = run.run(TINY[name](), seed=3, seconds=0, trace=trace)
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} ") and f" {unit}" in line
                   for line in lines), metric
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert any("backend=" in line and "nproc=" in line for line in lines)


def _perturb(name, request, value):
    if name == "tables":
        code, text = value
        obj = json.loads(text)
        obj["terms"][0]["num"][0] = str(Fraction(obj["terms"][0]["num"][0]) + 1)
        return code, json.dumps(obj)
    if name == "ladder":
        if request[0] == "step":
            return value[0], value[1] + 1
        if request[0] == "calibrate":
            return value + 1
        suite, _, counts = value[-1]
        return value[:-1] + ((suite, False, counts),)
    if request[0] in ("eval", "sigma"):
        return value + 1
    return value + value.one(value.rank)


@pytest.mark.parametrize("name", sorted(TINY))
def test_perturbed_output_is_a_failure(name, tmp_path):
    workload = TINY[name]()
    lib, requests, _ = run.set_up(workload, seed=5, repeats=1)
    _, _, results = run.run_pass(workload, lib, requests, tmp_path / "pass")
    assert all(workload.check(lib, q, r) for q, r in zip(requests, results))
    checked = 0
    for request, (value, error) in zip(requests, results):
        if error is None and (name != "numeric" or request[0] != "recurrence"):
            perturbed = (_perturb(name, request, value), None)
            assert not workload.check(lib, request, perturbed), request
            checked += 1
    assert checked >= 1


def test_times_are_medians_scaled_by_the_reference():
    """A run whose reference took twice its nominal time ran at half speed,
    so its times are halved; the RSS is not a time and is left alone."""
    probe = reference.SpeedProbe()
    probe.samples = [reference.NOMINAL_S * f for f in (1.5, 2, 2.5)]
    latencies = ([0.010, 0.100], [0.030, 0.300], [0.020, 0.200])
    passes = [(sum(p), list(p), None) for p in latencies]
    metrics, _ = run.end_to_end_metrics(TINY["tables"](), ["a", "b"], passes,
                                        [0.4, 0.2, 0.3], 10.0, probe)
    values = {k: v["value"] for k, v in metrics.items()}
    assert values["wall_s"] == pytest.approx((0.020 + 0.200) / 2)
    assert values["latency_p50_ms"] == pytest.approx((20 + 200) / 2 / 2)
    assert values["setup_s"] == pytest.approx(0.3 / 2)
    assert values["peak_rss_mb"] == 10.0


def test_untyped_error_is_a_failure(tmp_path):
    workload = TINY["numeric"]()
    lib, requests, _ = run.set_up(workload, seed=5, repeats=1)
    eigen = next(r for r in requests if r[0] == "eigen")
    assert not workload.check(lib, eigen, (None, "untyped ValueError"))
    assert workload.check(lib, eigen, (None, "KappaPole"))


@pytest.mark.parametrize("name", ["tables", "ladder"])
def test_traced_self_time_within_total(name):
    result, _ = run.run(TINY[name](), seed=7, seconds=0, trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in tracer.LAYERS:
        assert 0 <= metrics[f"{layer}.self_s"] <= metrics[f"{layer}.total_s"]
    assert metrics["cli.calls"] >= 1 or name != "tables"
    assert metrics["verify.checks"] >= 1 or name != "ladder"


def test_traced_passes_start_cold(tmp_path):
    """A traced pass that follows the untraced one does the work of a first
    pass in a freshly imported library."""
    workload = TINY["tables"]()
    lib, requests, _ = run.set_up(workload, seed=13, repeats=1)
    with tracer.Tracer(lib) as first:
        run.run_pass(workload, lib, requests, tmp_path / "first", first)
    result, _ = run.run(TINY["tables"](), seed=13, seconds=0, trace=True)
    for key in ("symfun.xpoly_mul.calls", "symfun.xpoly_mul.terms_out",
                "scalars.kr_ops"):
        assert result["metrics"][key]["value"] == first.metrics()[key], key


def test_traced_counts_repeat_between_runs():
    first, _ = run.run(TINY["tables"](), seed=11, seconds=0, trace=True)
    second, _ = run.run(TINY["tables"](), seed=11, seconds=0, trace=True)
    for key in tracer.DETERMINISTIC:
        assert first["metrics"][key] == second["metrics"][key], key


def test_inputs_follow_the_seed():
    for make in TINY.values():
        assert make().inputs(1) == make().inputs(1)
        assert make().inputs(1) != make().inputs(2)


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "numeric", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""

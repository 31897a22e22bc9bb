"""gegenlab benchmark.

    python3 perfbench/run.py --workload tables|ladder|numeric \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one client, a closed loop, no extra threads.

A pass runs the workload's seeded request list once.  Passes repeat while
another fits in ``--seconds``, and at least three run.  With ``--trace 0``
the last line of standard output is a JSON object carrying the end-to-end
metrics; with ``--trace 1`` one pass runs untraced, then at least two passes
run traced, and the JSON object carries the per-layer metrics.  The lines
before it are a human-readable summary with the environment stamp.  See
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from reference import NOMINAL_S, SpeedProbe  # noqa: E402
from workloads import DOMAIN_ERRORS, WORKLOADS, domain_errors  # noqa: E402

# untraced passes per run at least, so that every request has several samples
MIN_PASSES = 3

class LibraryMissing(RuntimeError):
    pass


class NonDeterministic(RuntimeError):
    pass


def units(kind: str) -> dict[str, str]:
    """Metric units of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_library() -> SimpleNamespace:
    """Import gegenlab afresh from ``src/`` and return its modules."""
    if not (SRC / "gegenlab" / "__init__.py").is_file():
        raise LibraryMissing(f"no gegenlab sources under {SRC}")
    for name in [m for m in sys.modules
                 if m == "gegenlab" or m.startswith("gegenlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("gegenlab")
    if Path(package.__file__).resolve().parent != SRC / "gegenlab":
        raise LibraryMissing(f"gegenlab imported from {package.__file__}")
    lib = SimpleNamespace(package=package, **{
        name: importlib.import_module(f"gegenlab.{name}")
        for name in tracing.LAYERS})
    lib.modules = [package] + [getattr(lib, name) for name in tracing.LAYERS]
    return lib


def clear_caches(lib) -> None:
    """Empty the library's in-memory caches: every module-level ``*_cache``
    object with a ``clear()`` method and every ``lru_cache`` function."""
    for mod in lib.modules:
        for name, value in list(vars(mod).items()):
            if name.endswith("_cache") and callable(getattr(value, "clear", None)):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def environment(lib, seed: int) -> dict:
    q = type(lib.scalars.Q(0))
    return {"backend": f"{q.__module__}.{q.__name__}",
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def set_up(workload, seed: int, repeats: int, probe=None):
    """Import, make inputs and warm up ``repeats`` times; keep the last.
    Returns the library, the requests and the time of every set-up."""
    times = []
    for _ in range(repeats):
        if probe is not None:
            probe.tick()
        t0 = perf_counter()
        lib = load_library()
        requests = workload.inputs(seed)
        workload.warm_up(lib)
        times.append(perf_counter() - t0)
    return lib, requests, times


def run_pass(workload, lib, requests, workdir: Path, tracer=None, probe=None):
    """One closed-loop pass; returns (wall seconds, latencies, results).
    The probe times the speed reference between requests, outside their
    latencies but inside the pass's wall time."""
    workdir.mkdir(parents=True)
    domain = domain_errors(lib)
    latencies, results = [], []
    start = perf_counter()
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request_id = index
        if probe is not None:
            probe.tick()
        t0 = perf_counter()
        try:
            result = (workload.execute(lib, request, workdir), None)
        except domain as exc:
            result = (None, type(exc).__name__)
        except Exception as exc:  # any other failure is counted, not fatal
            print(f"request {request!r} raised {exc!r}", file=sys.stderr)
            result = (None, f"untyped {type(exc).__name__}")
        latencies.append(perf_counter() - t0)
        results.append(result)
    return perf_counter() - start, latencies, results


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run(workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and check; returns (result object, summary lines)."""
    probe = None if trace else SpeedProbe()
    lib, requests, setup_times = set_up(
        workload, seed, 1 if trace else workload.setup_repeats, probe)
    env = environment(lib, seed)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    passes = []       # (wall, latencies, tracer or None)
    reference = None  # results of the first pass
    differing = []    # (request index, result) where a later pass differed
    deadline = perf_counter() + seconds
    try:
        while True:
            untraced = trace and not passes
            tracer = tracing.Tracer(lib) if trace and not untraced else None
            # before the tracer wraps the library's lru_cache functions
            if not workload.warm:
                clear_caches(lib)
            with tracer or nullcontext():
                wall, latencies, results = run_pass(
                    workload, lib, requests, workdir / str(len(passes)), tracer,
                    probe)
            passes.append((wall, latencies, tracer))
            if reference is None:
                reference = results
            else:
                differing += [(i, r) for i, r in enumerate(results)
                              if r != reference[i]]
            measured = sum((p[2] is not None) == trace for p in passes)
            # stop once enough passes ran and another would end past the
            # deadline, so that a slow machine does not lengthen the run
            if (measured >= (2 if trace else MIN_PASSES)
                    and perf_counter() + wall >= deadline):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    # every pass repeats the first one's requests: check the first pass by
    # the independent routes, and every later result that differs from it
    verdicts = [workload.check(lib, q, r) for q, r in zip(requests, reference)]
    attempted = len(passes) * len(requests)
    failed = len(passes) * verdicts.count(False)
    for i, r in differing:
        failed += verdicts[i] - workload.check(lib, requests[i], r)

    typed = sum(error in DOMAIN_ERRORS for _, error in reference)
    header = [f"workload {workload.name}: {len(requests)} requests per pass"
              f" ({typed} typed domain results), {len(passes)} passes,"
              f" trace {int(trace)}",
              "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    if trace:
        metrics, lines = traced_metrics(workload, seed, env, passes)
    else:
        metrics, lines = end_to_end_metrics(workload, requests, passes,
                                            setup_times, peak_rss_mb, probe)
    lines.append(f"failed_ratio {failed / attempted:.6g}"
                 f" ({failed}/{attempted} requests)")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, header + lines


def end_to_end_metrics(workload, requests, passes, setup_times, peak_rss_mb,
                       probe):
    """Every pass repeats the same work, so each request is timed several
    times in a run.  Other tenants of a shared machine slow the process down
    by up to half for seconds or minutes at a time, so a request's time is
    the median of its repeats, scaled by the speed reference timed in the
    same run (see ``reference.py``) to the machine's uncontended speed.  The
    pass time is the sum of those, and set-up time the scaled median of the
    set-ups."""
    walls = [p[0] for p in passes]
    keys = requests if workload.pooled else range(len(requests))
    samples = defaultdict(list)
    for p in passes:
        for key, latency in zip(keys, p[1]):
            samples[key].append(latency)
    typical = {key: statistics.median(v) for key, v in samples.items()}
    per_request = list(typical.values())
    p90, p99 = percentile(per_request, 90), percentile(per_request, 99)
    scale = probe.scale()
    raw = {
        "wall_s": sum(typical[key] for key in keys),
        "latency_p50_ms": statistics.median(per_request) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    values = {k: v * scale for k, v in raw.items()}
    values["peak_rss_mb"] = peak_rss_mb
    notes = {
        "wall_s": f"median repeat of each request, summed; wall time of the"
                  f" {len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls),
        "latency_p50_ms": f"{len(per_request)} distinct requests, median of"
                          f" {min(map(len, samples.values()))} to"
                          f" {max(map(len, samples.values()))} repeats each",
        "latency_p90_ms": f"{len(per_request)} requests,"
                          f" {sum(x > p90 for x in per_request)} beyond",
        "setup_s": f"median of {len(setup_times)} set-ups: "
                   + " ".join(f"{t:.3f}" for t in setup_times),
    }
    for k, v in raw.items():
        notes[k] = f"unscaled {v:.6g}; " + notes[k]
    unit = units("end_to_end")
    lines = [f"speed scale {scale:.4f}: reference median"
             f" {statistics.median(probe.samples) * 1e3:.4f} ms of"
             f" {len(probe.samples)} timings, nominal {NOMINAL_S * 1e3:.4f} ms"]
    lines += [f"{k} {values[k]:.6g} {unit[k]}"
              + (f"  ({notes[k]})" if k in notes else "") for k in unit]
    if sum(x > p99 for x in per_request) >= 10:
        lines.insert(4, f"latency_p99_ms {p99 * scale * 1e3:.6g} ms"
                        f"  ({len(per_request)} requests,"
                        f" {sum(x > p99 for x in per_request)} beyond)")
    metrics = {k: {"value": values[k], "unit": unit[k]} for k in unit}
    return metrics, lines


def traced_metrics(workload, seed, env, passes):
    untraced = [p[0] for p in passes if p[2] is None]
    traced = [p for p in passes if p[2] is not None]
    per_pass = [p[2].metrics() for p in traced]
    for key in tracing.DETERMINISTIC:
        seen = [m[key] for m in per_pass]
        if len(set(seen)) > 1:
            raise NonDeterministic(f"{key} differs between traced passes"
                                   f" of seed {seed}: {seen}")
    metrics = {}
    for key in per_pass[0]:
        seen = [m[key] for m in per_pass]
        metrics[key] = seen[0] if len(set(seen)) == 1 else statistics.median(seen)
    overhead = statistics.median(p[0] for p in traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    unit = units("per_layer")
    last = traced[-1][2]
    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"trace-{workload.name}-{seed}.jsonl"
    last.write_spans(path, dict(env, workload=workload.name))
    bases = last.bases()
    lines = [f"{k} {v:.6g} {unit[k]}" + (f"  ({bases[k]})" if k in bases else "")
             for k, v in metrics.items()]
    lines.append("tracing overhead: traced pass"
                 f" {statistics.median(p[0] for p in traced):.3f} s"
                 f" vs untraced {statistics.median(untraced):.3f} s")
    lines.append(f"spans of the last traced pass: {path.relative_to(ROOT)}")
    return {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the environment variable would override every --cache the CLI is given
    os.environ.pop("GEGENLAB_CACHE", None)
    workload = WORKLOADS[args.workload]()
    try:
        result, lines = run(workload, args.seed, args.seconds, bool(args.trace))
    except (LibraryMissing, NonDeterministic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

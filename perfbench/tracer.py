"""Per-layer tracing of gegenlab from outside the library.

The tracer replaces the public functions and operators of each gegenlab
module with timing wrappers for the length of one traced pass and puts the
originals back afterwards.  A module-level function is rebound in every
gegenlab module that holds it (``integrals`` and ``gegenbauer`` import names
with ``from .symfun import ...``); an operator is replaced on its class.

Every wrapped call opens a frame on one stack.  When it returns, its
duration is added to the parent frame's child time, so a layer's self time
is the sum over its calls of duration minus child time.  A layer's total
time and its ``calls`` count only its outermost calls: the calls entered from
another layer or from the benchmark.  Scalar calls nested inside a scalar
call pass straight through, uncounted and untimed.

Spans (id, parent id, request id, name, start, end) are kept in memory for
every wrapped call except scalar operations and polynomial products, which
run millions of times; those are aggregated into the counters only.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from workloads import domain_errors

# the layers are the library's modules
LAYERS = ("scalars", "symfun", "integrals", "gegenbauer", "verify",
          "serialize", "cli")

# layer -> public module-level functions to wrap
FUNCTIONS = {
    "scalars": ("kr_eval", "kr_arith", "kr_normalize"),
    "symfun": ("lift", "project", "divide_exact", "xr_sum",
               "dominated_weights"),
    "integrals": ("apply_integral", "calibrate", "char_apply",
                  "commutator_residual", "transcribed_operator"),
    "gegenbauer": ("gen_eigen", "gen_recurrence", "step",
                   "sigma_closed_form", "expand_product",
                   "recurrence_coefficient", "epsilon2", "l_vector",
                   "l_shift", "char_eigenvalue"),
    "verify": ("run_suite",),
    "serialize": ("cache_read", "cache_write", "canonical_json",
                  "zpoly_to_obj", "zpoly_from_obj", "load_golden"),
    "cli": ("main",),
}

# The engine lifts monomials through this cached helper rather than the
# public ``lift``; it is counted as ``symfun.lift`` when the name exists.
ENGINE_LIFT = "_lift_monomial"

# layer -> (class, method, metric name) for operators wrapped on the class
METHODS = {
    "scalars": tuple(
        ("KappaRational", op, "kr_ops")
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                   "__pow__", "__call__")),
    "symfun": (("XPolynomial", "__mul__", "xpoly_mul"),
               ("ZPolynomial", "__mul__", "zpoly_mul"),
               ("ZPolynomial", "substitute_kappa", "substitute_kappa"),
               ("ZPolynomial", "eval", "eval")),
}

# spans are not kept for these (aggregated only)
UNRECORDED = {"scalars", "symfun.xpoly_mul", "symfun.zpoly_mul"}

# counts that must repeat exactly between two traced passes of one seed
DETERMINISTIC = ("scalars.kr_ops", "scalars.gcd_calls",
                 "integrals.distinct_monomials", "symfun.xpoly_mul.calls",
                 "gegenbauer.cone_weights")


def _bits(x) -> int:
    x = getattr(x, "re", x)  # a Gaussian rational carries its real part
    return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())


class Tracer:
    """Wraps the library for one traced pass; ``with tracer:`` installs."""

    def __init__(self, lib):
        self.lib = lib
        self.stack: list[list] = []   # [layer, name, start, child_s, span id]
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.function_s: defaultdict = defaultdict(float)
        self.request_id = None
        self.monomials: set = set()
        self.max_degree = 0
        self.max_bits = 0
        self._next_id = 0
        self._patches: list[tuple] = []
        self._domain = domain_errors(lib)

    # -- installing --------------------------------------------------------
    def __enter__(self):
        modules = self.lib.modules
        for layer, names in FUNCTIONS.items():
            home = getattr(self.lib, layer)
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                self._rebind(modules, original,
                             self._wrap(layer, f"{layer}.{name}", original))
        lift_helper = getattr(self.lib.symfun, ENGINE_LIFT, None)
        if lift_helper is not None:
            self._rebind(modules, lift_helper,
                         self._wrap("symfun", "symfun.lift", lift_helper))
        for layer, methods in METHODS.items():
            home = getattr(self.lib, layer)
            for cls_name, attr, metric in methods:
                cls = getattr(home, cls_name)
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(layer, f"{layer}.{metric}",
                                              original))
        poly = self.lib.scalars.KappaPolynomial
        gcd = poly.__dict__["gcd"]
        self._patches.append((poly, "gcd", gcd))
        setattr(poly, "gcd", staticmethod(self._counter("scalars.gcd_calls",
                                                        gcd.__func__)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, layer, name, fn):
        stack, counts = self.stack, self.counts
        total_s, self_s, spans = self.total_s, self.self_s, self.spans
        function_s = self.function_s
        after = self._after.get(name)
        record = layer not in UNRECORDED and name not in UNRECORDED
        calls_key = name + ".calls"
        layer_calls = layer + ".calls"
        nested_passthrough = layer == "scalars"
        domain = self._domain
        errors_key = layer + ".domain_errors"
        tracer = self

        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            if not outer and nested_passthrough:
                return fn(*args, **kwargs)
            counts[calls_key] += 1
            if outer:
                counts[layer_calls] += 1
            if record:
                tracer._next_id += 1
                sid = tracer._next_id
            else:
                sid = stack[-1][4] if stack else None
            frame = [layer, name, perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except domain:
                if outer:
                    counts[errors_key] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                self_s[layer] += duration - frame[3]
                if outer:
                    total_s[layer] += duration
                if stack:
                    stack[-1][3] += duration
                if record:
                    function_s[name] += duration
                    spans.append((sid, stack[-1][4] if stack else None,
                                  tracer.request_id, name, frame[2], end))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- per-function hooks --------------------------------------------------
    def _after_apply_integral(self, args, kwargs, result):
        order, p = args[0], args[1]
        N = args[2] if len(args) > 2 else kwargs.get("N")
        if N is None:
            N = p.rank + 1
        self.counts[f"integrals.apply_integral.o{order}.calls"] += 1
        monomials = list(p.terms) + [(0,) * p.rank]
        self.counts["integrals.monomial_applications"] += len(monomials)
        self.monomials.update((N, order, w) for w in monomials)

    def _after_kr_op(self, args, kwargs, result):
        num, den = getattr(result, "num", None), getattr(result, "den", None)
        if num is None or den is None:
            return
        for poly in (num, den):
            coeffs = poly.coeffs
            if len(coeffs) - 1 > self.max_degree:
                self.max_degree = len(coeffs) - 1
            for c in coeffs:
                b = _bits(c)
                if b > self.max_bits:
                    self.max_bits = b

    def _after_xpoly_mul(self, args, kwargs, result):
        self.counts["symfun.xpoly_mul.terms_out"] += len(result.terms)

    def _after_dominated_weights(self, args, kwargs, result):
        if self.stack and self.stack[-1][1] == "gegenbauer.gen_eigen":
            self.counts["gegenbauer.cone_weights"] += len(result)

    def _after_cache_read(self, args, kwargs, result):
        if result[0] is not None:
            self.counts["serialize.cache_read.hits"] += 1

    def _after_cache_write(self, args, kwargs, result):
        self.counts["serialize.bytes_written"] += result.stat().st_size

    def _after_run_suite(self, args, kwargs, result):
        for report in result:
            good, total = report.counts
            self.counts["verify.checks"] += total
            self.counts["verify.failed_checks"] += total - good

    _after = {
        "integrals.apply_integral": _after_apply_integral,
        "symfun.xpoly_mul": _after_xpoly_mul,
        "symfun.dominated_weights": _after_dominated_weights,
        "serialize.cache_read": _after_cache_read,
        "serialize.cache_write": _after_cache_write,
        "verify.run_suite": _after_run_suite,
        "scalars.kr_ops": _after_kr_op,
    }

    # -- results -------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = c[f"{layer}.calls"]
            out[f"{layer}.total_s"] = self.total_s[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["scalars.kr_ops"] = c["scalars.kr_ops.calls"]
        out["scalars.gcd_calls"] = c["scalars.gcd_calls"]
        out["scalars.max_kappa_degree"] = self.max_degree
        out["scalars.max_coeff_bits"] = self.max_bits
        for name in ("xpoly_mul", "lift", "project", "divide_exact", "xr_sum"):
            out[f"symfun.{name}.calls"] = c[f"symfun.{name}.calls"]
        out["symfun.xpoly_mul.terms_out"] = c["symfun.xpoly_mul.terms_out"]
        for order in (2, 3, 4):
            key = f"integrals.apply_integral.o{order}.calls"
            out[key] = c[key]
        applications = c["integrals.monomial_applications"]
        out["integrals.distinct_monomials"] = len(self.monomials)
        out["integrals.monomial_reuse_ratio"] = (
            (applications - len(self.monomials)) / applications
            if applications else 0.0)
        out["integrals.calibrate_s"] = self.function_s["integrals.calibrate"]
        out["integrals.char_apply.calls"] = c["integrals.char_apply.calls"]
        for name in ("gen_eigen", "gen_recurrence", "step"):
            out[f"gegenbauer.{name}.calls"] = c[f"gegenbauer.{name}.calls"]
        out["gegenbauer.cone_weights"] = c["gegenbauer.cone_weights"]
        out["gegenbauer.domain_errors"] = c["gegenbauer.domain_errors"]
        reads = c["serialize.cache_read.calls"]
        out["serialize.cache_write.calls"] = c["serialize.cache_write.calls"]
        out["serialize.cache_read.hit_ratio"] = (
            c["serialize.cache_read.hits"] / reads if reads else 0.0)
        out["serialize.bytes_written"] = c["serialize.bytes_written"]
        out["verify.checks"] = c["verify.checks"]
        out["verify.failed_checks"] = c["verify.failed_checks"]
        return out

    def bases(self) -> dict[str, str]:
        """The base of every ratio metric, for the human-readable summary."""
        c = self.counts
        applications = c["integrals.monomial_applications"]
        return {
            "integrals.monomial_reuse_ratio":
                f"{applications - len(self.monomials)}/{applications}"
                " repeat monomial applications",
            "serialize.cache_read.hit_ratio":
                f"{c['serialize.cache_read.hits']}"
                f"/{c['serialize.cache_read.calls']} cache reads hit",
        }

    def write_spans(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "request": request, "name": name,
                                     "start": start, "end": end}) + "\n")

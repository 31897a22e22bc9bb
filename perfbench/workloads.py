"""The benchmark's three seeded workloads.

Each workload turns a seed into a list of requests, runs one request against
the library, and checks recorded results by an independent route after the
timed phase.  A workload either starts every pass from cold library caches
(``tables``, ``ladder``) or runs warm after a warm-up that counts as set-up
(``numeric``).
"""
from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

DOMAIN_ERRORS = ("KappaPole", "SpectralDegeneracy", "KappaZeroDivision")


def domain_errors(lib) -> tuple:
    """The library's typed domain-error classes: expected results, not bugs."""
    return tuple(getattr(lib.scalars, name) for name in DOMAIN_ERRORS)


def dominant_weights(rank: int, total: int) -> list[tuple[int, ...]]:
    """Dominant weights of the given rank with component sum <= total."""
    return sorted((w for w in itertools.product(range(total + 1), repeat=rank)
                   if sum(w) <= total), key=lambda w: (sum(w), w))


def _real(value):
    """A scalar result as a Fraction (Gaussian rationals carry ``re``)."""
    return Fraction(getattr(value, "re", value))


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def eval_arrays(num, den, kappa0: Fraction):
    """Value of a serialized κ-rational at kappa0, or None at a pole."""
    d = _horner(den, kappa0)
    return None if d == 0 else _horner(num, kappa0) / d


def eval_obj(obj: dict, point, kappa0: Fraction):
    """Value of a serialized z-polynomial at (point, kappa0), or None when a
    coefficient has a pole there."""
    total = Fraction(0)
    for term in obj["terms"]:
        c = eval_arrays(term["num"], term["den"], kappa0)
        if c is None:
            return None
        for z, e in zip(point, term["mono"]):
            c *= Fraction(z) ** e
        total += c
    return total


def seeded_merge(families, rng):
    """A seeded interleaving of the families, each kept in its own order.

    The library's caches are per rank, so with every rank's weights in a
    fixed order each request does the same work whatever the seed; a free
    shuffle would move the cost of shared cache entries from one request to
    another and make the latency percentiles depend on the seed.
    """
    queues = [list(f) for f in families if f]
    order = []
    while queues:
        queue = rng.choices(queues, weights=[len(q) for q in queues])[0]
        order.append(queue.pop(0))
        queues = [q for q in queues if q]
    return order


class Workload:
    name = ""
    warm = False          # True: passes share caches filled by warm_up
    # True: requests with equal keys do the same work wherever they occur,
    # so their latencies are pooled (not so for tables' cache-served repeats)
    pooled = True
    setup_repeats = 15    # set-ups per run; setup_s is their median

    def __init__(self, sizes: dict | None = None):
        self.sizes = dict(self.SIZES, **(sizes or {}))

    def warm_up(self, lib):
        """Work done before timing; part of set-up."""

    def check(self, lib, request, result) -> bool:
        """Verdict on one result, a (value, error name) pair."""
        value, error = result
        if error is not None:
            return self.expected_error(lib, request, error)
        return self._verify(lib, request, value)

    def expected_error(self, lib, request, error: str) -> bool:
        """Whether the error is this request's documented result."""
        return False


class Tables(Workload):
    """``gegenlab gen --format json --cache DIR`` through ``cli.main``, from a
    cold in-memory cache and an empty cache directory each pass."""
    name = "tables"
    pooled = False
    _golden = None   # golden table as canonical JSON objects, by weight
    SIZES = {"families": ((2, 6), (3, 1)),
             "rank4": ((0, 0, 0, 0), (1, 0, 0, 0)),
             "repeat_share": 0.25}

    def inputs(self, seed: int):
        rng = random.Random(seed)
        families = [[(rank, w) for w in dominant_weights(rank, total)]
                    for rank, total in self.sizes["families"]]
        families.append([(4, w) for w in self.sizes["rank4"]])
        requests = seeded_merge(families, rng)
        share = self.sizes["repeat_share"]
        for _ in range(round(len(requests) * share / (1 - share))):
            pos = rng.randrange(1, len(requests) + 1)
            requests.insert(pos, requests[rng.randrange(pos)])
        return requests

    def execute(self, lib, request, workdir):
        rank, w = request
        argv = ["gen", "--rank", str(rank), "--weight", ",".join(map(str, w)),
                "--format", "json", "--cache", str(workdir)]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = lib.cli.main(argv)
        return code, out.getvalue()

    def _verify(self, lib, request, value) -> bool:
        rank, w = request
        code, text = value
        if code != 0:
            return False
        try:
            obj = json.loads(text)
        except ValueError:
            return False
        if obj.get("rank") != rank or obj.get("weight") != list(w):
            return False
        gg, ser = lib.gegenbauer, lib.serialize
        N = rank + 1
        if rank in (2, 3):
            if obj != ser.zpoly_to_obj(gg.gen_recurrence(w, N), w):
                return False
            if rank == 3:
                if self._golden is None:
                    self._golden = {v: ser.zpoly_to_obj(p, v)
                                    for v, p in ser.load_golden(3)}
                if w in self._golden and obj != self._golden[w]:
                    return False
            return True
        # no second generation route above rank 3: the eigen equation
        _, poly = ser.zpoly_from_obj(obj)
        one = lib.scalars.KappaRational.one()
        eps = lib.scalars.KappaRational(gg.epsilon2(w, N))
        return (poly.coefficient(w) == one
                and lib.integrals.apply_integral(2, poly, N) == poly.scale(eps))


class Ladder(Workload):
    """Cold-cache spectral work: N=3 verification suites and step operators,
    then calibration and step operators at N=4."""
    name = "ladder"
    SIZES = {"suites": ("sigma", "commutators", "duality", "kappa1"),
             "n3_bases": tuple(itertools.product(range(3), repeat=2)),
             "calibrate": (4,),
             "n4_bases": ((0, 0, 0),), "rounds": 8}

    def inputs(self, seed: int):
        rng = random.Random(seed)

        def shuffled(items):
            items = list(items)
            rng.shuffle(items)
            return items

        def steps():
            return (shuffled(("step", m, s, 3) for m in self.sizes["n3_bases"]
                             for s in _SHIFTS_N3),
                    shuffled(("step", m, s, 4) for m in self.sizes["n4_bases"]
                             for s in _SHIFTS_N4))

        suites = shuffled(("suite", name) for name in self.sizes["suites"])
        cal = [("calibrate", N) for N in self.sizes["calibrate"]]
        n3, n4 = steps()
        requests = suites + n3 + cal + n4
        # steps run warm after the suites and calibration; later rounds give
        # every step more samples in a pass
        for _ in range(self.sizes["rounds"] - 1):
            n3, n4 = steps()
            requests += n3 + n4
        return requests

    def execute(self, lib, request, workdir):
        kind = request[0]
        if kind == "suite":
            return tuple((r.suite, r.passed, r.counts)
                         for r in lib.verify.run_suite(request[1], rank=2))
        if kind == "calibrate":
            return lib.integrals.calibrate(request[1]).N
        _, m, s, N = request
        target, sigma = lib.gegenbauer.step(m, s, N)
        return target.is_zero, sigma

    def _verify(self, lib, request, value) -> bool:
        kind = request[0]
        if kind == "suite":
            return bool(value) and all(passed and total > 0
                                       for _, passed, (_, total) in value)
        if kind == "calibrate":
            return value == request[1]
        _, m, s, N = request
        target_zero, sigma = value
        valid = all(a + b >= 0 for a, b in zip(m, s))
        return (sigma == lib.gegenbauer.sigma_closed_form(m, s, N)
                and (valid or sigma.is_zero)
                and target_zero == sigma.is_zero)


# the tabulated shifts, fixed here so that inputs do not depend on the library
_SHIFTS_N3 = ((1, 0), (-1, 1), (0, -1), (-1, 0), (1, -1), (0, 1))
_SHIFTS_N4 = ((1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1), (0, 0, 1),
              (0, 1, -1), (1, -1, 0), (-1, 0, 0), (0, 1, 0), (1, -1, 1),
              (1, 0, -1), (-1, 0, 1), (-1, 1, -1), (0, -1, 0))


class Numeric(Workload):
    """Numeric-coupling queries on a warm process: eigen and recurrence
    polynomials at a rational κ, exact evaluation and step factors."""
    name = "numeric"
    warm = True
    setup_repeats = 3
    SIZES = {"families": ((2, 6), (3, 2)), "draws": 8,
             "sigma_families": ((2, 3), (3, 2)),
             "positive_kappas": 16, "negative_share": 0.1}
    # couplings where coefficient denominators vanish or eigenvalues collide
    NEGATIVE_KAPPAS = tuple(Fraction(-p, q) for p, q in
                            ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)))

    def inputs(self, seed: int):
        rng = random.Random(seed)
        positives = set()
        while len(positives) < self.sizes["positive_kappas"]:
            positives.add(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        positives = sorted(positives)

        def kappa():
            if rng.random() < self.sizes["negative_share"]:
                return rng.choice(self.NEGATIVE_KAPPAS)
            return rng.choice(positives)

        def point(rank):
            return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(rank))

        requests = []
        for rank, total in self.sizes["families"]:
            N = rank + 1
            for w in dominant_weights(rank, total):
                for _ in range(self.sizes["draws"]):
                    requests.append(("eigen", N, w, kappa()))
                    requests.append(("recurrence", N, w, kappa()))
                    requests.append(("eval", N, w, kappa(), point(rank)))
        for rank, total in self.sizes["sigma_families"]:
            N = rank + 1
            shifts = _SHIFTS_N3 if N == 3 else _SHIFTS_N4
            for m in dominant_weights(rank, total):
                for s in shifts:
                    requests.append(("sigma", N, m, s, kappa()))
        rng.shuffle(requests)
        return requests

    def warm_up(self, lib):
        gg = lib.gegenbauer
        for rank, total in self.sizes["families"]:
            for w in dominant_weights(rank, total):
                gg.gen_eigen(w, rank + 1)
                gg.gen_recurrence(w, rank + 1)

    def execute(self, lib, request, workdir):
        kind, N = request[0], request[1]
        gg = lib.gegenbauer
        if kind == "eigen":
            return gg.gen_eigen(request[2], N, kappa=request[3])
        if kind == "recurrence":
            return gg.gen_recurrence(request[2], N).substitute_kappa(request[3])
        if kind == "eval":
            _, _, w, q, pt = request
            return _real(gg.gen_eigen(w, N).eval(pt, q))
        _, _, m, s, q = request
        return _real(lib.scalars.kr_eval(gg.sigma_closed_form(m, s, N), q))

    def expected_error(self, lib, request, error):
        if error not in DOMAIN_ERRORS:
            return False
        # an evaluation may fail only at a pole of the independent evaluator
        if request[0] in ("eval", "sigma"):
            return (error == "KappaPole"
                    and self._independent_value(lib, request) is None)
        return True

    def _independent_value(self, lib, request):
        gg, ser = lib.gegenbauer, lib.serialize
        if request[0] == "eval":
            _, N, w, q, pt = request
            return eval_obj(ser.zpoly_to_obj(gg.gen_eigen(w, N), w), pt, q)
        _, N, m, s, q = request
        num, den = ser.kr_to_arrays(gg.sigma_closed_form(m, s, N))
        return eval_arrays(num, den, q)

    def _other_route(self, lib, request):
        kind, N, w, q = request
        gg = lib.gegenbauer
        try:
            if kind == "eigen":
                return gg.gen_recurrence(w, N).substitute_kappa(q)
            return gg.gen_eigen(w, N, kappa=q)
        except domain_errors(lib):
            return None

    def _verify(self, lib, request, value) -> bool:
        if request[0] in ("eval", "sigma"):
            expected = self._independent_value(lib, request)
            return expected is not None and value == expected
        other = self._other_route(lib, request)
        return other is None or value == other


WORKLOADS = {cls.name: cls for cls in (Tables, Ladder, Numeric)}

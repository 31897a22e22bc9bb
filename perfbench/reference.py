"""The benchmark's speed reference: a fixed piece of exact rational
arithmetic, timed between requests, that tells how fast the machine ran.

On a shared host the speed of pure-Python code drifts by half or more over
seconds and minutes, as other tenants load the cores.  The reference does
the same kind of work as the library's hot paths (products of dictionary
polynomials with ``Fraction`` coefficients) but is the benchmark's own code,
so a change to the library leaves it alone.  A run times it every
``INTERVAL`` seconds between requests; ``NOMINAL_S`` over its median time in
the run is the factor by which every time of the run is scaled to the
machine's uncontended speed.
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# time of the kernel on an uncontended core of the 2-vCPU machine that the
# baseline was measured on (its fastest time there)
NOMINAL_S = 0.44e-3
# seconds between reference timings
INTERVAL = 0.05


def _poly(seed: int) -> dict:
    rng = random.Random(seed)
    return {(i, j): Fraction(rng.randint(-999, 999), rng.randint(1, 99))
            for i in range(4) for j in range(3)}


_A, _B = _poly(1), _poly(2)


def kernel() -> dict:
    """The product of two fixed polynomials in two variables."""
    out = {}
    for (i, j), a in _A.items():
        for (k, l), b in _B.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + a * b
    return out


class SpeedProbe:
    """Times the kernel between requests, at most every ``INTERVAL`` s."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if perf_counter() - self._last < INTERVAL:
            return
        t0 = perf_counter()
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def scale(self) -> float:
        """Factor that takes this run's times to the nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)

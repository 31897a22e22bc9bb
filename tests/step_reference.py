"""The step operators' last Δ factor on tuple rows: the reference for the
packed kernel.

The library evaluates Δ(t) on its coefficients packed into integers at
κ = 2^W (``integrals._delta_eval``) and checks a step's result against the
target's split packed at the same width.  The functions here do the same
things on integer κ-polynomials as tuples, one coefficient loop per
product (``scalars._pmul``), so that the tests can check the kernel
against them:

* ``delta_at``: N^N Δ(u/N) at u = a/b on the coefficients in u of
  ``integrals._delta``;
* ``ratio``: the proportionality check against a reduced split;
* ``shifted_delta``, ``step`` and ``char_apply``: the library's functions
  of those names on top of these two.

An integer κ-polynomial is a tuple of ints, ascending, with no trailing
zeros; numerators are dicts {weight: tuple}.
"""
import functools
import math
import operator

from gegenlab import gegenbauer, integrals
from gegenlab.scalars import KappaRational, _cleared, _cofactor, _from_factored, _padd, _pmul
from gegenlab.symfun import ZPolynomial, _coerce_scalar


def delta_at(coeffs, a, b):
    """Δ(t) from the coefficients of N^N Δ(u/N) in u = N·t
    (``integrals._delta``), at u = a/b: the numerators
    sum_k coeff_k * a^k * b^(N-k) and their multiplier N^N * b^N."""
    N = len(coeffs) - 1
    b_powers = [(1,)]
    for _ in range(N):
        b_powers.append(_pmul(b_powers[-1], b))
    out = {}
    a_power = (1,)
    for k, coeff in enumerate(coeffs):
        factor = _pmul(a_power, b_powers[N - k])
        for w, c in coeff.items():
            integrals._add_num(out, w, _pmul(c, factor))
        a_power = _pmul(a_power, a)
    return out, _pmul((N ** N,), b_powers[N])


def ratio(nums, split, w0):
    """nums[w0] when nums == nums[w0] · P for the P of a reduced split whose
    coefficient at w0 is 1, checked by cross-multiplication in ℤ[κ]; None
    when there is none."""
    top = nums.get(w0, ())
    if nums.keys() <= split.keys() and all(
            _pmul(nums.get(w, ()), _cofactor(c, f)) == _pmul(top, num)
            for w, (num, c, f) in split.items()):
        return top
    return None


@functools.lru_cache(maxsize=None)
def shifted_delta(m, N, r, points):
    """``gegenbauer._shifted_delta`` with its coefficients as tuple rows:
    (coefficients of u^0 .. u^N, scale, factors)."""
    if points:
        coeffs, scale, factors = shifted_delta(m, N, r, points[:-1])
        nums, _ = delta_at(coeffs, points[-1], (1,))
    else:
        split = gegenbauer._symbolic_eigen(m, N)[1]
        scale = math.lcm(*(c for _, c, _ in split.values()))
        joint = functools.reduce(operator.or_, (f for _, _, f in split.values()))
        nums = {w: _pmul(num, _cofactor(scale // c, joint - f))
                for w, (num, c, f) in gegenbauer._times_z(r, split).items()}
        factors = joint
    return integrals._delta(nums, N), scale, factors


def last_factor(m, s, N):
    """The step's last Δ factor on tuple rows: its numerators, the
    multiplier N^(N·r) of the step's r factors, the entry of
    ``shifted_delta`` they were evaluated on and the point."""
    sign, subset, r = gegenbauer.shift_decompose(s, N)
    *prefix, last = (_padd((c - 2 * r * sign,), (0, slope))
                     for i, (c, slope) in enumerate(gegenbauer._scaled_l(m, N), start=1)
                     if i in subset)
    entry = shifted_delta(m, N, r if sign > 0 else N - r, tuple(prefix))
    nums, _ = delta_at(entry[0], last, (1,))
    return nums, N ** (N * r), entry, last


def step(m, s, N):
    """``gegenbauer.step`` on tuple rows."""
    m, s = tuple(m), tuple(s)
    nums, multiplier, (_, scale, factors), _ = last_factor(m, s, N)
    if not nums:
        return ZPolynomial.zero(N - 1), KappaRational.zero()
    target = tuple(a + b for a, b in zip(m, s))
    if any(e < 0 for e in target):
        raise gegenbauer.DecompositionError(f"nonzero step result for {target}")
    p_target, split = gegenbauer._symbolic_eigen(target, N)
    top = ratio(nums, split, target)
    if top is None:
        raise gegenbauer.DecompositionError(f"step result for {s} at {m} not proportional")
    return p_target, _from_factored(top, scale * multiplier, factors)


def char_apply(p, N, t):
    """``integrals.char_apply`` at a numeric t, on tuple rows."""
    nums, D = integrals._split(p)
    a, b = _cleared(_coerce_scalar(t))
    out, mult = delta_at(integrals._delta(nums, N), _pmul(a, (N,)), b)
    return integrals._rebuild(p.rank, out, _pmul(D, mult))

"""Fit of the characteristic operator's calibration on known
eigenpolynomials: the reference for ``integrals.calibrate``'s closed form.

The fit fixes each order's scale on z_1 and checks scale and offset on the
eigenpolynomials of e_1, e_N and one more weight from ``gen_eigen``, which
solves on the closed-form L₂ and never reads the engine.
"""
from fractions import Fraction

from gegenlab import gegenbauer as gg
from gegenlab.integrals import Calibration, _integral, _split
from gegenlab.scalars import KappaPolynomial, KappaRational, _cleared, _padd, _pmul


class ConventionMismatch(AssertionError):
    """No affine recombination of the engine output fits the spectral
    product form."""


def extra_weight(N):
    """The fourth eigen-weight the fit checks: 2 e_1 at N = 2, e_1 + e_2 at
    N = 3 and e_2 from N = 4."""
    if N == 2:
        return (2,)
    return (1, 1) if N == 3 else (0, 1) + (0,) * (N - 3)


def fit(N):
    """Fix (scale_j, offset_j) for j = 2..N on z_1 and verify them on known
    eigenpolynomials.  Both run on integer numerators: with X / N^j the
    order-j image of p = n / D and l_j(w) - offset_j = P / Q, the check
    scale_j * X = N^j (P / Q) n is cross-multiplied, and the fit on z_1 is
    the ratio of the leading coefficients of N^j P and Q X, with the same
    product as its check."""
    rank = N - 1
    zero_w = (0,) * rank
    e1_w = tuple(1 if i == 0 else 0 for i in range(rank))
    en_w = tuple(1 if i == rank - 1 else 0 for i in range(rank))
    weights = [e1_w, en_w, extra_weight(N)]
    orders = range(2, N + 1)
    splits = [_split(gg.gen_eigen(w, N))[0] for w in weights]
    # apply_integral's normalization: order 2 flipped to a non-negative spectrum
    images = [[{v: _pmul(c, (-1,)) for v, c in image.items()} if j == 2 else image
               for j, image in zip(orders, _integral(orders, nums, N))]
              for nums in [{e1_w: (1,)}] + splits]
    scales, offsets = {}, {}
    for k, j in enumerate(orders):
        offset = gg.l_elementary(zero_w, N, j)
        base = images[0][k]
        if set(base) != {e1_w}:
            raise ConventionMismatch(f"order {j} does not act diagonally on z_1 at N={N}")
        num, den = _cleared(gg.l_elementary(e1_w, N, j) - offset)
        num, den = _pmul(num, (N ** j,)), _pmul(den, base[e1_w])
        scale = Fraction(num[-1], den[-1]) if num else Fraction(0)
        if _padd(_pmul(num, (scale.denominator,)), _pmul(den, (-scale.numerator,))):
            scale_val = KappaRational(KappaPolynomial(num), KappaPolynomial(den))
            raise ConventionMismatch(
                f"order {j} scale at N={N} is not a rational constant: {scale_val!r}")
        for w, nums, image in zip(weights, splits, images[1:]):
            P, Q = _cleared(gg.l_elementary(w, N, j) - offset)
            P, Q = _pmul(P, (-scale.denominator * N ** j,)), _pmul(Q, (scale.numerator,))
            if any(_padd(_pmul(image[k].get(v, ()), Q), _pmul(nums.get(v, ()), P))
                   for v in image[k].keys() | nums.keys()):
                raise ConventionMismatch(
                    f"order {j} calibration fails on weight {w} at N={N}")
        scales[j] = scale
        offsets[j] = offset
    return Calibration(N, scales, offsets)

"""x-space references for the operator engine, computed the long way.

The engine (``integrals._engine_pass``) sums each derivative count once
per index orbit in closed form and reads every image off Jacobi's
bialternant, with no x-space fraction.  The functions here compute the same
things by placing every factor on the particle indices, so that the tests
can check the engine against them:

* ``placement_engine``: one fraction per placement of the derivative, gauge
  and curvature factors, summed over one common denominator per derivative
  count, divided exactly and projected;
* ``gauge_value``: the same signed sum of gauge and curvature factors at a
  rational point;
* ``bialternant_image``: the Schur polynomial a_{λ+δ} / a_δ, divided exactly
  and projected;
* ``project``: a symmetric polynomial in e_1..e_{N-1}, with e_N = 1.

A polynomial in x_1..x_N is a dict {exponent: coefficient}; a fraction is a
pair (numerator, {(a, b): k}) for the numerator over the product of the
(x_a - x_b)^k, a < b.  Indices are 0-based.
"""
import functools
import itertools
import math
from operator import add

from gegenlab.integrals import apply_momentum
from gegenlab.symfun import XPolynomial, _add_term, _elementary_product


def _unit(N, *indices):
    """The exponent of the product of x_a over the indices."""
    return tuple(int(a in indices) for a in range(N))


def mul(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = {}
    for f, d in q.items():  # the longer factor in the inner loop
        for e, c in p.items():
            _add_term(out, tuple(map(add, e, f)), c * d)
    return out


def times(f, g):
    """The product of two fractions."""
    den = dict(f[1])
    for pair, k in g[1].items():
        den[pair] = den.get(pair, 0) + k
    return mul(f[0], g[0]), den


@functools.lru_cache(maxsize=None)
def _difference_power(N, a, b, k):
    """(x_a - x_b)^k."""
    if not k:
        return {_unit(N): 1}
    return mul(_difference_power(N, a, b, k - 1), {_unit(N, a): 1, _unit(N, b): -1})


def fraction_sum(parts, N):
    """The sum of the fractions over one common denominator, the largest
    power of each pair.  Numerators over equal denominators are added
    first, so that each distinct denominator is raised once."""
    common, groups = {}, {}
    for num, den in parts:
        for pair, k in den.items():
            common[pair] = max(common.get(pair, 0), k)
        group = groups.setdefault(tuple(sorted(den.items())), {})
        for e, c in num.items():
            _add_term(group, e, c)
    total = {}
    for key, num in groups.items():
        den = dict(key)
        for (a, b), k in common.items():
            if k > den.get((a, b), 0):
                num = mul(num, _difference_power(N, a, b, k - den.get((a, b), 0)))
        for e, c in num.items():
            _add_term(total, e, c)
    return total, common


def divide_exact(num, den):
    """The quotient of num by the product of the (x_a - x_b)^k: long
    division in x_a by each factor; an ArithmeticError if one leaves a
    remainder."""
    for (a, b), k in sorted(den.items()):
        for _ in range(k):
            rest, num = dict(num), {}
            for d in range(max((e[a] for e in rest), default=0), 0, -1):
                for e in [e for e in rest if e[a] == d]:
                    q = e[:a] + (d - 1,) + e[a + 1:]
                    num[q] = c = rest.pop(e)
                    _add_term(rest, q[:b] + (q[b] + 1,) + q[b + 1:], c)
            if rest:
                raise ArithmeticError(f"not divisible by x_{a + 1} - x_{b + 1}")
    return num


def project(terms, N):
    """The symmetric polynomial with these terms in e_1..e_{N-1}, with
    e_N = 1, as {z-weight: coefficient}, by leading-term elimination; a
    ValueError naming a transposition that does not fix the input."""
    violation = XPolynomial(N, terms).swap_violation()
    if violation is not None:
        raise ValueError("not symmetric under x_{} <-> x_{}".format(*violation))
    work, out = dict(terms), {}
    while work:
        alpha = max(work)
        c = work[alpha]
        expo = tuple(alpha[i] - alpha[i + 1] for i in range(N - 1)) + (alpha[-1],)
        _add_term(out, expo[:-1], c)
        for e, d in _elementary_product(N, expo).terms.items():
            _add_term(work, e, -c * d)
    return out


def gauge_row(N, j):
    """The real gauge row B_j = sum over k != j of (x_j + x_k) / (x_j - x_k),
    over one common denominator."""
    parts = []
    for k in range(N):
        if k != j:
            s = 1 if j < k else -1  # the pair's denominator is x_a - x_b, a < b
            parts.append(({_unit(N, j): s, _unit(N, k): s}, {(min(j, k), max(j, k)): 1}))
    return fraction_sum(parts, N)


def curvature(N, a, b):
    """-4 x_a x_b / (x_a - x_b)^2, a < b."""
    return {_unit(N, a, b): -4}, {(a, b): 2}


def term_shapes(order):
    """Every (curv, gauge, mom) with 2 curv + gauge + mom = order and
    mom >= 1, most derivative factors first: curv curvature pairs, gauge
    gauge factors and mom derivative factors on distinct indices.  The
    purely multiplicative shapes are left to normal ordering."""
    return tuple((c, order - 2 * c - m, m) for m in range(order, 0, -1)
                 for c in range((order - m) // 2, -1, -1))


def _pair_sets(indices, k):
    """Every set of k disjoint pairs (a, b), a < b, from the increasing
    indices, once each: the pair of its least index first."""
    if not k:
        yield ()
        return
    for i, a in enumerate(indices):
        for b in indices[i + 1:]:
            rest = [c for c in indices[i + 1:] if c != b]
            for more in _pair_sets(rest, k - 1):
                yield ((a, b),) + more


def placements(order, mom, indices):
    """Every placement on the indices of the gauge factors and the disjoint
    curvature pairs of the order-j terms with mom derivative factors, as
    (sign, gauge indices, curvature pairs); the factors of i of the
    expansion leave the sign (-1)^curv."""
    for curv, gauge, m in term_shapes(order):
        if m != mom:
            continue
        for bset in itertools.combinations(indices, gauge):
            left = [a for a in indices if a not in bset]
            for pairs in _pair_sets(left, curv):
                yield (-1) ** curv, bset, pairs


@functools.lru_cache(maxsize=None)
def placement_engine(order, w, N):
    """The engine's image of z^w as {weight: integer κ-polynomial} over
    N^order: one fraction per placement of the derivative, gauge and
    curvature factors, summed over one common denominator for each mom,
    divided exactly and projected."""
    f = _elementary_product(N, w)
    rows = [gauge_row(N, b) for b in range(N)]
    image = {}
    for mom in range(order, 0, -1):
        parts = []
        for mset in itertools.combinations(range(N), mom):
            g = f
            for a in mset:
                g = apply_momentum(g, a + 1)
            if g.is_zero:
                continue
            rest = [a for a in range(N) if a not in mset]
            for sign, bset, pairs in placements(order, mom, rest):
                term = {e: sign * c for e, c in g.terms.items()}, {}
                for b in bset:
                    term = times(term, rows[b])
                for pair in pairs:
                    term = times(term, curvature(N, *pair))
                parts.append(term)
        power = order - mom
        for v, c in project(divide_exact(*fraction_sum(parts, N)), N).items():
            image.setdefault(v, [0] * order)[power] = c * 2 ** mom * N ** power
    for cs in image.values():
        while not cs[-1]:
            cs.pop()
    return {v: tuple(cs) for v, cs in image.items()}


def gauge_value(order, mom, N, xs):
    """The gauge and curvature factors of the order-j terms with mom
    derivative factors, summed over their placements on the indices
    mom..N-1, at the point xs."""
    def row(b):
        return sum((xs[b] + xs[k]) / (xs[b] - xs[k]) for k in range(N) if k != b)

    def curv(a, b):
        return -4 * xs[a] * xs[b] / (xs[a] - xs[b]) ** 2

    return sum(sign * math.prod(map(row, bset)) * math.prod(curv(*p) for p in pairs)
               for sign, bset, pairs in placements(order, mom, range(mom, N)))


def bialternant_image(lam, N):
    """The Schur polynomial of a partition with N parts as
    {weight: integer}: the alternant a_{λ+δ}, divided exactly by every
    x_a - x_b, a < b, and projected."""
    v = [p + N - 1 - i for i, p in enumerate(lam)]
    alternant = {}
    for perm in itertools.permutations(range(N)):
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        alternant[tuple(v[p] for p in perm)] = -1 if odd else 1
    pairs = dict.fromkeys(itertools.combinations(range(N), 2), 1)
    return project(divide_exact(alternant, pairs), N)

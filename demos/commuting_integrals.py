"""The commuting integrals of motion in action.

The order-2 integral is the (gauge-transformed, sign-normalized)
Hamiltonian; orders 3 and 4 complete the commuting family for three and
four particles.  All actions here are exact.
"""
from gegenlab import (
    ZPolynomial,
    apply_integral,
    commutator_residual,
    epsilon2,
    transcribed_operator,
)
from gegenlab.serialize import operator_text, zpoly_text

print("=" * 70)
print("Eigen actions on the coordinate z_1 (three particles)")
print("=" * 70)
z1 = ZPolynomial.variable(2, 1)
for order in (2, 3):
    out = apply_integral(order, z1, 3)
    print(f"  order {order}:  {zpoly_text(out)}")
print("  excitation energy from the diagonal form:",
      repr(epsilon2((1, 0), 3)))

print()
print("=" * 70)
print("Closed-form z-space operator (three particles, order 2)")
print("=" * 70)
print(operator_text(transcribed_operator(3, 2)))

print()
print("=" * 70)
print("Action on a non-eigen monomial, engine vs closed form")
print("=" * 70)
mono = ZPolynomial.monomial(2, (1, 1))
print("  engine:       ", zpoly_text(apply_integral(2, mono, 3)))
print("  closed form:  ", zpoly_text(transcribed_operator(3, 2).apply(mono)))

print()
print("=" * 70)
print("Commutators vanish exactly")
print("=" * 70)
for (j, k, N) in [(2, 3, 3), (2, 3, 4), (2, 4, 4), (3, 4, 4)]:
    rep = commutator_residual(j, k, N, 4)
    print(f"  [order {j}, order {k}] at N={N}: "
          f"{'zero' if rep.is_zero else 'NONZERO'} "
          f"on {rep.checked} monomials")

"""The characteristic operator and its factorized spectrum.

On an eigenpolynomial the t-parametrized combination of the integrals acts
as the product of (t - l_j) over the spectral vector l of the weight.
"""
from gegenlab import ZPolynomial, char_apply, char_eigenvalue, gen_eigen, l_vector
from gegenlab.serialize import kr_str, zpoly_text

print("=" * 70)
print("Spectral vectors (three particles)")
print("=" * 70)
for m in [(0, 0), (1, 0), (1, 1), (2, 1)]:
    lv = l_vector(m, 3)
    comps = ", ".join(kr_str(lv.component(j)) for j in (1, 2, 3))
    print(f"  l{m} = ({comps})")

print()
print("=" * 70)
print("Factorized action on P(1,1)")
print("=" * 70)
m = (1, 1)
P = gen_eigen(m, 3)
coeffs = char_apply(P, 3)            # symbolic t, ascending powers
spectrum = char_eigenvalue(m, 3)
print("  polynomial:", zpoly_text(P))
for power, (c, e) in enumerate(zip(coeffs, spectrum)):
    match = "ok" if c == P.scale(e) else "MISMATCH"
    print(f"  t^{power}: coefficient is eigenvalue*P -> {match}"
          f"   (eigenvalue {kr_str(e)})")

print()
print("=" * 70)
print("Four-particle vacuum: product of (t - l_j) with l = (3k, k, -k, -3k)")
print("=" * 70)
for power, e in enumerate(char_eigenvalue((0, 0, 0), 4)):
    print(f"  t^{power}: {kr_str(e)}")

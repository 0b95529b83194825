"""Build finite fields as explicit towers and poke at their structure.

Every element of a field of order Q is an integer index 0..Q-1; the index
encodes power-basis coordinates little-endian, so the base field sits at
indices 0..q-1 of its extension.
"""

from ppf.fields import build_extension, build_prime_field, build_tower

# A prime field, then the quadratic extension with the lexicographically
# smallest irreducible modulus (reproducible across machines).
f5 = build_prime_field(5)
f25 = build_extension(f5, 2)
print("F_25 modulus (low-degree first):", f25.modulus)   # t^2 + 2

x = 7                     # coords (2, 1) = 2 + t
y = 13                    # coords (3, 2) = 3 + 2t
fmt = f25.format_idx
print(f"x = {fmt(x)}, y = {fmt(y)}, coords of x: {f25.decode(x)}")
print(f"x + y = {fmt(f25.add(x, y))}, x * y = {fmt(f25.mul(x, y))}, "
      f"x / y = {fmt(f25.div(x, y))}, x^10 = {fmt(f25.pow(x, 10))}")

# The Frobenius map x -> x^5 generates the Galois group; the trace lands in F_5.
print("frobenius(x):", fmt(f25.frobenius(x)))
print("trace(x):", f25.trace(x), "(an F_5 element)")
print("trace is onto: preimage counts", end=" ")
counts = [0] * 5
for a in range(25):
    counts[f25.trace(a)] += 1
print(counts)

# Multiplicative structure: canonical generator, subgroups of roots of unity.
g = f25.generator
print("canonical generator:", f25.format_idx(g), "of order", f25.element_order(g))
mu6 = f25.subgroup_mu(6)
print("mu_6 (norm-one subgroup):", [f25.format_idx(v) for v in mu6])
print("omega (order 3):", f25.format_idx(f25.order3_element()))

# Solving a^(q-1) = lam: possible exactly for lam in mu_{q+1}.
lam = f25.neg(1)
a = f25.solve_power_q_minus_1(lam)
print(f"a with a^4 = -1: {f25.format_idx(a)}; check: {f25.format_idx(f25.pow(a, 4))}")

# Two-level towers: F_2 -> F_4 -> F_16 keeps the trace relative to F_4.
f16 = build_tower(2, k=2, n=2)
print("\nF_16 over F_4: modulus", f16.modulus, "| base order", f16.base.order)
print("traces into F_4:", sorted({f16.trace(v) for v in range(16)}))

# The largest field under the default cap, Q = 2^20, as F_2 -> F_{2^10} ->
# F_{(2^10)^2}: the modulus comes from Rabin's irreducibility test, and the
# generator and the log/exp tables from array arithmetic, so it builds quickly.
cap_tower = build_tower(2, k=10, n=2)
print("\nF_{2^20} over F_{2^10}: modulus", cap_tower.modulus,
      "| F_{2^10} modulus", cap_tower.base.modulus)
print("canonical generator:", cap_tower.format_idx(cap_tower.generator))

"""The extension field as a vector space: coordinates, dual bases, and the
two structural homomorphisms (component traces down, linear combination up).
"""

from ppf.fields import build_tower
from ppf.linalg import (
    Basis,
    dual_basis,
    eta,
    eta_inverse,
    is_linearly_independent,
    kernel_of_trace_maps,
    rho,
    rho_inverse,
)

f9 = build_tower(3, n=2)
t = 3  # index of the adjoined root

# Independence is a rank computation; for two nonzero elements it agrees
# with the ratio test (a2/a1)^(q-1) != 1.
print("{1, t} independent:", is_linearly_independent(f9, [1, t]))
print("{t, 2t} independent:", is_linearly_independent(f9, [t, f9.mul(2, t)]))

# Every basis has a unique trace-form dual: Tr(v_i u_j) = delta_ij.
basis = Basis(f9, [1, t])
dual = basis.dual()
print("dual of {1, t}:", [f9.format_idx(u) for u in dual.elems])
gram = [[f9.trace(f9.mul(v, u)) for u in dual.elems] for v in basis.elems]
print("trace Gram matrix:", gram)
print("dual of dual is original:", dual_basis(f9, dual.elems).elems == basis.elems)

# rho sends x to its component traces; its inverse is the dual combination.
v = [2, 5]
assert is_linearly_independent(f9, v)
for x in (0, 1, 7):
    image = rho(f9, v, x)
    back = rho_inverse(f9, v, image)
    print(f"rho(x={f9.format_idx(x)}) = {image}, rho^-1 back = {f9.format_idx(back)}")

# eta goes the other way: coordinates -> linear combination.
coords = (2, 1)
y = eta(f9, v, coords)
print(f"eta{coords} = {f9.format_idx(y)}, eta^-1 = {eta_inverse(f9, v, y)}")

# Degenerate sets have nontrivial trace kernels: q^(n - rank) elements.
print("kernel for a rank-1 set:", [f9.format_idx(k) for k in kernel_of_trace_maps(f9, [t, f9.mul(2, t)])])
print("kernel for a basis:", kernel_of_trace_maps(f9, v))

# Power-basis coordinates (the digits of the index, `decode`) are rho
# against the dual of the power basis.
pdual = Basis(f9, [1, t]).dual()
print("rho with dual of power basis recovers coordinates:",
      all(rho(f9, pdual.elems, x) == tuple(f9.decode(x)) for x in range(9)))

"""Build the hermitian Clifford generators and their graded basis.

Walks through the Pauli iteration, the anticommutation relations, the
chirality element, and the trace-orthogonal graded elements used as the
coordinate basis for states.  Every dense matrix here is one graded element
E_A from basis_element: the generators are the grade-1 elements, and the
chirality is the extended-mode index 2m + 1.
"""

import numpy as np

from genbloch import basis_element, full_basis, verify_algebra
from genbloch.clifford import index_mask, side

np.set_printoptions(precision=3, suppress=True, linewidth=120)


def gammas(m, mode="standard"):
    """Gamma_1 .. Gamma_2m, and Gamma_{2m+1} too in extended mode."""
    return [basis_element(m, (i,), mode) for i in range(1, side(m, mode) + 1)]


# --- generators -----------------------------------------------------------
# m = 1 starts from the first two Pauli matrices; every further step tensors
# the existing generators with sigma1 and appends I (x) sigma2, I (x) sigma3.
for m in (1, 2):
    gams = gammas(m)
    print(f"m = {m}: {len(gams)} generators of dimension {2**m}")
    for i, g in enumerate(gams, start=1):
        print(f"  Gamma_{i} =\n{g}")

# the relations Gamma_i Gamma_j + Gamma_j Gamma_i = 2 delta_ij hold exactly,
# because every entry is 0, +-1 or +-i
g = gammas(3)
worst = max(
    float(np.max(np.abs(g[i] @ g[j] + g[j] @ g[i] - (2.0 * np.eye(8) if i == j else 0))))
    for i in range(6) for j in range(6)
)
print(f"\nm = 3 anticommutator residual: {worst} (exact zero)")

# --- chirality ------------------------------------------------------------
# the phased product of all generators anticommutes with each of them and
# squares to the identity; appending it gives 2m+1 anticommuting elements
for m in (1, 2, 3):
    chi = basis_element(m, (2 * m + 1,), "extended")
    gams = gammas(m)
    anti = max(float(np.max(np.abs(chi @ g + g @ chi))) for g in gams)
    print(f"m = {m}: chirality anticommutes (residual {anti}), square = I:",
          np.array_equal(chi @ chi, np.eye(2 ** m) + 0j))
print("extended set sizes:", [len(gammas(m, "extended")) for m in (1, 2, 3)])

# --- graded elements ------------------------------------------------------
# products over increasing multi-indices with the phase i^{k(k-1)/2} are
# hermitian; at m = 1 the full basis is I, sigma1, sigma2, -sigma3
b1 = full_basis(1)
for idx in b1.indices:
    print(f"m=1 element {idx}:\n{b1.element(idx)}")

print("\nm=1 grade-2 element (the pseudoscalar direction):")
print(basis_element(1, (1, 2)))

# --- Pauli strings and the exact certificate --------------------------------
# every element is one phased Pauli string i^p X^x Z^z, stored as (x, z, p)
# at the bitmask of its multi-index (index i is bit i - 1);
# trace(E_A E_B) = 2^m delta_AB holds because the (x, z) masks are distinct,
# so verify_algebra checks all 4^m x 4^m pairs exactly, at every m
b2 = full_basis(2)
for idx in [(1, 2), (1, 3), (1, 4)]:
    mask, _ = index_mask(idx, b2.side)
    print(f"m=2 element {idx}: mask={mask:04b} x={b2.x[mask]:02b} z={b2.z[mask]:02b} "
          f"p={b2.p[mask]}")
for m in (2, 6):
    report = verify_algebra(full_basis(m))
    print(f"\nm = {m} residual report: {report}")

"""Closed-form spectra against the eigensolver oracle.

Vector configurations give doublets, grade-2 configurations give quartets
governed by the invariants (r, T4, D3); the factorized characteristic
polynomials reproduce the dense computation coefficient by coefficient.
"""

import numpy as np

from genbloch import (
    antisym,
    char_poly,
    epsilon_D3,
    factorized_charpoly,
    numeric_spectrum,
    tensor_config,
    two_tensor_invariants,
    two_tensor_spectrum,
    tunnel_spectrum,
    vector,
    vector_spectrum,
)
from genbloch.invariants import InvariantSet

np.set_printoptions(precision=6, suppress=True)

# --- vector doublets ---------------------------------------------------------
g = vector(3, [0.3, 0.1, 0, 0, 0.2, 0])
s = vector_spectrum(3, g)
oracle = numeric_spectrum(tensor_config(3, 1, g))
print("vector spectrum:", s.eigenvalues)
print("oracle difference:", np.max(np.abs(s.eigenvalues - oracle.eigenvalues)))
print("multiplets:", s.multiplets)

# adding the top-grade pseudoscalar extends the ball by one dimension
s2 = vector_spectrum(2, vector(2, [0.6, 0, 0, 0]), pseudoscalar=0.8)
print("\nvector + pseudoscalar with unit norm:", s2.eigenvalues)

# --- m=2 quartets --------------------------------------------------------------
g = antisym(2, 2, {(1, 2): 0.6, (3, 4): 0.3})
s = two_tensor_spectrum(2, g)
print("\nm=2 quartet:", s.eigenvalues)
print("same three-coordinate family:", tunnel_spectrum(0.6, 0.3, 0.0).eigenvalues)

# --- m=3 octets and the cubic invariant ---------------------------------------
a = 1 / np.sqrt(3)
g3 = antisym(3, 2, {(1, 2): a, (3, 4): a, (5, 6): a})
inv = two_tensor_invariants(g3)
print(f"\nm=3 block: r = {inv.r:.6f}, T4 = {inv.T4:.6f}, D3 = {inv.D3:.6f}")
s3 = two_tensor_spectrum(3, g3)
oracle3 = numeric_spectrum(tensor_config(3, 2, g3))
print("octet:", s3.eigenvalues)
print("oracle difference:", np.max(np.abs(s3.eigenvalues - oracle3.eigenvalues)))

# D3 = 0 collapses the two quartets onto each other
g0 = antisym(3, 2, {(1, 2): 0.7, (3, 4): 0.35})
print("\nD3 =", epsilon_D3(g0), " degeneracy:",
      two_tensor_spectrum(3, g0).multiplets)

# --- factorized characteristic polynomials -------------------------------------
pred = factorized_charpoly(2, "vector", InvariantSet(r=1.0, T4=0.0))
print("\nvector characteristic polynomial at unit norm (ascending):", pred)

g4 = antisym(4, 2, {(1, 2): 0.5})
pred4 = factorized_charpoly(4, "two_tensor", two_tensor_invariants(g4))
direct4 = char_poly(tensor_config(4, 2, g4))
print("m=4 factorization vs dense recursion, worst coefficient difference:",
      np.max(np.abs(pred4 - direct4)))

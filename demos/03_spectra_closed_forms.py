"""Closed-form spectra against the eigensolver oracle.

One formula, (scalar + sum_k s_k mu_k) / 2^m over the normal-form
amplitudes mu of the bordered matrix M = [[0, v^T], [-v, G]], gives the
spectrum of every state in the so(2m+2) family: vector configurations give
doublets, grade-2 configurations give quartets governed by the invariants
(r, T4, D3), and grades 1 and 2 together take their sign vectors from the
chirality sign Pf(M); the factorized characteristic polynomials reproduce
the dense computation coefficient by coefficient.

The paper's identities are checked claims beside the tests, outside the
package: run this demo with tests/ on the path, PYTHONPATH=src:tests.
"""

import numpy as np

from genbloch import (
    antisym,
    closed_form_spectrum,
    encode,
    hermitian_eigenvalues,
    numeric_spectrum,
    state_coords,
    tensor_config,
    two_tensor_invariants,
    vector,
)
from genbloch.invariants import InvariantSet

from claims import char_poly, epsilon_D3, factorized_charpoly, tunnel_spectrum

np.set_printoptions(precision=6, suppress=True)

# --- vector doublets ---------------------------------------------------------
g = vector(3, [0.3, 0.1, 0, 0, 0.2, 0])
s = closed_form_spectrum(state_coords(3, grades={1: g}))
oracle = numeric_spectrum(tensor_config(3, 1, g))
print("vector spectrum:", s.eigenvalues)
print("oracle difference:", np.max(np.abs(s.eigenvalues - oracle.eigenvalues)))
print("multiplets:", s.multiplets)

# adding the top-grade pseudoscalar extends the ball by one dimension
s2 = closed_form_spectrum(state_coords(2, grades={1: vector(2, [0.6, 0, 0, 0]),
                                                 4: {(1, 2, 3, 4): 0.8}}))
print("\nvector + pseudoscalar with unit norm:", s2.eigenvalues)

# the scalar coordinate enters the same formula: (1/2 +- |v|) / 8 at scalar 1/2
half = state_coords(3, scalar=0.5, grades={1: g})
s_half = closed_form_spectrum(half).eigenvalues
print("scalar 1/2:", s_half)
print("oracle difference:", np.max(np.abs(s_half - hermitian_eigenvalues(encode(half)))))

# --- m=2 quartets --------------------------------------------------------------
g = antisym(2, 2, {(1, 2): 0.6, (3, 4): 0.3})
s = closed_form_spectrum(state_coords(2, grades={2: g}))
print("\nm=2 quartet:", s.eigenvalues)
print("same three-coordinate family:", tunnel_spectrum(0.6, 0.3, 0.0).eigenvalues)

# --- grades 1 and 2 together: the bordered matrix M ---------------------------
mixed = state_coords(2, mode="extended", grades={
    1: {(1,): 0.2, (5,): -0.3}, 2: {(1, 2): 0.25, (3, 5): 0.1, (2, 4): -0.15}})
s_mixed = closed_form_spectrum(mixed).eigenvalues
print("\nm=2 extended grades 1 and 2:", s_mixed)
print("oracle difference:", np.max(np.abs(s_mixed - hermitian_eigenvalues(encode(mixed)))))

# --- m=3 octets and the cubic invariant ---------------------------------------
a = 1 / np.sqrt(3)
g3 = antisym(3, 2, {(1, 2): a, (3, 4): a, (5, 6): a})
inv = two_tensor_invariants(g3)
print(f"\nm=3 block: r = {inv.r:.6f}, T4 = {inv.T4:.6f}, D3 = {inv.D3:.6f}")
s3 = closed_form_spectrum(state_coords(3, grades={2: g3}))
oracle3 = numeric_spectrum(tensor_config(3, 2, g3))
print("octet:", s3.eigenvalues)
print("oracle difference:", np.max(np.abs(s3.eigenvalues - oracle3.eigenvalues)))

# D3 = 0 collapses the two quartets onto each other
g0 = antisym(3, 2, {(1, 2): 0.7, (3, 4): 0.35})
print("\nD3 =", epsilon_D3(g0), " degeneracy:",
      closed_form_spectrum(state_coords(3, grades={2: g0})).multiplets)

# --- factorized characteristic polynomials -------------------------------------
pred = factorized_charpoly(2, "vector", InvariantSet(r=1.0, T4=0.0))
print("\nvector characteristic polynomial at unit norm (ascending):", pred)

g4 = antisym(4, 2, {(1, 2): 0.5})
pred4 = factorized_charpoly(4, "two_tensor", two_tensor_invariants(g4))
direct4 = char_poly(tensor_config(4, 2, g4))
print("m=4 factorization vs dense recursion, worst coefficient difference:",
      np.max(np.abs(pred4 - direct4)))

"""Density matrices as graded tensor coordinates, and back.

Shows the encode/decode codec, pure tensor configurations, and the
extended-mode expansion over the 2m+1-generator family.
"""

import numpy as np

from genbloch import (
    antisym,
    decode,
    encode,
    state_coords,
    tensor_config,
    vector,
)
from genbloch.linalg import hermitian_eigenvalues

np.set_printoptions(precision=4, suppress=True, linewidth=120)

# --- encoding ---------------------------------------------------------------
# a state is rho = 2^{-m} (scalar I + sum over grades of G o E); the scalar
# equals the trace, so normalized states carry scalar 1
coords = state_coords(1, grades={1: {(1,): 1.0}})
rho = encode(coords)
print("m=1 vector state (1,0):\n", rho)
print("idempotent (pure):", np.allclose(rho @ rho, rho))

# a single grade-2 coordinate at m=2
coords = state_coords(2, grades={2: {(1, 2): 0.6}})
rho = encode(coords)
print("\nm=2 bivector state, G_12 = 0.6; spectrum:", hermitian_eigenvalues(rho))

# --- decoding ---------------------------------------------------------------
# trace projection recovers every coordinate; the round trip is exact
back = decode(rho)
print("decoded grade-2 entries:", dict(back.grade(2).items()))
print("round-trip residual:", np.max(np.abs(encode(back) - rho)))

rng = np.random.default_rng(0)
a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
h = (a + a.conj().T) / 2
h = h / np.trace(h).real
coords3 = decode(h)
print("\nrandom m=3 state decodes into grades:",
      {k: len(entries) for k, entries in coords3.grades.items()})
print("round-trip residual:", np.max(np.abs(encode(coords3) - h)))

# --- tensor configurations ---------------------------------------------------
# identity plus a single grade: the families whose spectra have closed forms
g1 = vector(2, [0, 0, 0, 1])
print("\nvector configuration spectrum:", hermitian_eigenvalues(tensor_config(2, 1, g1)))

g2 = antisym(3, 2, {(1, 2): 1 / np.sqrt(3), (3, 4): 1 / np.sqrt(3), (5, 6): 1 / np.sqrt(3)})
rho3 = tensor_config(3, 2, g2)
print("m=3 bivector configuration trace:", np.trace(rho3).real)

# --- the 2m+1 family ----------------------------------------------------------
# grades 0..m over 2m+1 indices count 4^m orthogonal elements, so this
# expansion also spans every hermitian matrix; the projection residual is zero
ext = state_coords(2, mode="extended", grades={1: {(5,): 1.0}})
std = state_coords(2, grades={4: {(1, 2, 3, 4): 1.0}})
print("\nextended vector along direction 5 equals the standard pseudoscalar state:",
      np.max(np.abs(encode(ext) - encode(std))))

coords_ext = decode(h, mode="extended")
print("extended projection residual on a random m=3 state:",
      np.max(np.abs(encode(coords_ext) - h)))

"""Rotations, their unitary lift, and the quantities they leave unchanged.

The coordinate tensors transform under orthogonal matrices; conjugating the
state by the lifted unitary produces exactly the same motion, which is why
spectra depend on the coordinates only through invariants.

The paper's identities are checked claims beside the tests, outside the
package: run this demo with tests/ on the path, PYTHONPATH=src:tests.
"""

import numpy as np

from genbloch import (
    AntisymTensor,
    antisym,
    encode,
    frobenius_r,
    hermitian_eigenvalues,
    orthogonal_from_generator,
    rotate_coords,
    state_coords,
    trace_T4,
)

from claims import conjugate_state, dual_tensor, epsilon_D3, pseudo_vector_V, spin_lift

np.set_printoptions(precision=5, suppress=True)
rng = np.random.default_rng(1)

# --- the lift ---------------------------------------------------------------
# rotate_coords moves coordinates with L alone; the spin lift U, the Clifford
# side of the same rotation, is a checked claim (claims.spin_lift)
alpha = antisym(2, 2, {(1, 2): 0.7, (1, 3): -0.2, (2, 4): 0.4})
el = orthogonal_from_generator(alpha)
u = spin_lift(alpha)
print("L orthogonal:", np.max(np.abs(el.T @ el - np.eye(4))))
print("U unitary:  ", np.max(np.abs(u @ u.conj().T - np.eye(4))))

# rotating coordinates then encoding equals conjugating the encoded state
coords = state_coords(2, grades={
    1: {(1,): 0.3, (3,): -0.5},
    2: {(1, 2): 0.4, (2, 3): 0.2},
    3: {(1, 2, 3): 0.25},
})
lhs = encode(rotate_coords(coords, el))
rhs = conjugate_state(encode(coords), u)
print("compatibility residual:", np.max(np.abs(lhs - rhs)))

# spectra are rotation invariant...
before = hermitian_eigenvalues(encode(coords))
after = hermitian_eigenvalues(lhs)
print("spectrum shift under rotation:", np.max(np.abs(before - after)))

# --- invariants -------------------------------------------------------------
g = antisym(3, 2, {(i, j): float(rng.uniform(-1, 1))
                   for i in range(1, 7) for j in range(i + 1, 7)})
el6 = orthogonal_from_generator(antisym(3, 2, {(1, 4): 0.9, (2, 5): -0.3}))
rotated = AntisymTensor.from_matrix(3, el6 @ g.as_matrix() @ el6.T)
print("\nr  invariant:", frobenius_r(g) - frobenius_r(rotated))
print("T4 invariant:", trace_T4(g) - trace_T4(rotated))
print("D3 invariant:", epsilon_D3(g) - epsilon_D3(rotated))

# a reflection flips the orientation and with it the sign of D3
flip = np.diag([-1.0, 1, 1, 1, 1, 1])
mirrored = AntisymTensor.from_matrix(3, flip @ g.as_matrix() @ flip.T)
print("D3 under reflection:", epsilon_D3(g), "->", epsilon_D3(mirrored))

# the dual-tensor identity ties (r, T4) to a quadratic in the dual
dm = dual_tensor(g).as_matrix()
print("\n2 r^2 - T4 =", 2 * frobenius_r(g) ** 2 - trace_T4(g))
print("tr(dual^T dual)/32 =", np.trace(dm.T @ dm) / 32)

# over 7 indices the triple contraction becomes a 7-component object whose
# squared length is rotation invariant; supported on 1..6 it reduces to D3
g7 = antisym(3, 2, {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}, side=7)
print("\npseudo-vector of the canonical block:", pseudo_vector_V(g7))

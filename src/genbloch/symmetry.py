"""Rotations of tensor coordinates and their unitary lift on states.

Conventions (fixed once, verified by the compatibility identity below):

* A generator is a grade-2 antisymmetric parameter array alpha_{ij}, i < j.
  Its orthogonal matrix is L = exp(A) with A[j, i] = +alpha_{ij} (A is the
  transpose of the tensor's own antisymmetric matrix), so a
  single alpha_{12} = theta rotates axis 1 toward axis 2 by theta
  (L = [[cos, -sin], [sin, cos]] on that plane) and det L = +1.

* The unitary lift is U = exp(-(i/4) sum_{i,j} alpha_{ij} * i Gamma_i Gamma_j)
  with the sum over both index orders, i.e. exp(-(i/2) sum_{i<j} ...).

* These satisfy  U Gamma_i U^dag = sum_k L[i, k] Gamma_k, and the normative
  compatibility identity

      encode(rotate_coords(G, L)) = U^dag encode(G) U .

* Grade-k coordinates transform through the k-th compound (exterior power)
  of L:  G'_I = sum_J det(L[I, J]) G_J over increasing k-tuples, which is
  the antisymmetrized k-fold product L x ... x L.  The rule uses no
  Clifford algebra, so comparing it with the spin-lift conjugation below
  checks one engine against another.

* Both exponentials come from the one hermitian eigensolver in linalg:
  L = exp(A) is exp(-i H) for the hermitian H = iA, and U is exp(-i H)
  for the hermitian H = (1/2) sum_{i<j} alpha_{ij} i Gamma_i Gamma_j.
"""

from __future__ import annotations

import numpy as np

from . import clifford
from .coords import AntisymTensor, StateCoords
from .errors import DimensionMismatch, ModeMismatch, NotUnitary
from .linalg import as_matrix, exp_i_hermitian

ORTHO_TOL = 1e-10


def orthogonal_from_generator(alpha: AntisymTensor) -> np.ndarray:
    """L = exp(A) in SO(side), as the real part of exp(-i (iA)) for the hermitian iA.

    A rotation angle theta comes out of the eigensolver with an error of
    about theta * eps, so once the largest angle exceeds ORTHO_TOL / eps
    (about 4.5e5 rad) L is no longer known to ORTHO_TOL and NotUnitary is
    raised.  The imaginary residue is validated here and orthogonality by
    check_orthogonal before returning.
    """
    # A[j, i] = +alpha_{ij}: the transpose of the tensor's own matrix
    a = alpha.as_matrix().T
    # A is normal, so its largest singular value is the largest rotation angle
    theta_max = float(np.linalg.norm(a, 2))
    err = theta_max * np.finfo(float).eps
    if err > ORTHO_TOL:
        raise NotUnitary(f"rotation angle {theta_max:.3e} rad: exp(A) is known only to "
                         f"{err:.1e}, above {ORTHO_TOL:.0e}")
    el = exp_i_hermitian(1j * a, sign=-1)
    imag = float(np.max(np.abs(el.imag)))
    if imag > ORTHO_TOL:
        raise NotUnitary(f"exponential of the generator has imaginary residue {imag:.3e}")
    return check_orthogonal(el.real)


def check_orthogonal(el, side: int | None = None) -> np.ndarray:
    """The package's one orthogonality rule, for a real L or a complex unitary:
    el as an array if max|L^dagger L - I| <= ORTHO_TOL, else NotUnitary."""
    el = np.asarray(el)
    if el.ndim != 2 or el.shape[0] != el.shape[1]:
        raise DimensionMismatch("rotation matrix must be square")
    if side is not None and el.shape[0] != side:
        raise DimensionMismatch(f"rotation matrix dim {el.shape[0]} != {side}")
    res = float(np.max(np.abs(el.conj().T @ el - np.eye(el.shape[0]))))
    if res > ORTHO_TOL:
        raise NotUnitary(f"matrix is not orthogonal: residual {res:.3e} exceeds {ORTHO_TOL:.0e}")
    return el


def spin_lift(alpha: AntisymTensor, basis: clifford.CliffordBasis | None = None) -> np.ndarray:
    """Unitary implementing the rotation generated by alpha on the state space."""
    m = alpha.of_grade(2).m
    if alpha.side != 2 * m:
        raise ModeMismatch("spin_lift rotates the 2m standard generators")
    if basis is None:
        basis = clifford.cached_basis(m, "standard")
    if basis.m != m or basis.mode != "standard":
        raise ModeMismatch("basis must be the standard basis for the same m")
    # E_{ij} = i Gamma_i Gamma_j; both index orders of the repeated-index
    # sum double each stored i<j term
    return exp_i_hermitian(0.5 * basis.expand(alpha.values), sign=-1)


def rotate_coords(coords: StateCoords, el) -> StateCoords:
    """Apply an orthogonal matrix grade-wise; scalar untouched.

    Output entry I of grade k is sum_J det(L[I, J]) G_J.  For each stored
    J the minors of every I come from one stacked det, and each output sum
    is added in the stored order of J.
    """
    side = coords.side
    el = check_orthogonal(np.asarray(el, dtype=float), side)
    new_grades = {}
    for k, tensor in coords.grades.items():
        outs = list(clifford.multi_indices(side, k))
        rows = el[np.subtract(outs, 1)]  # (len(outs), k, side)
        total = np.zeros(len(outs))
        for in_idx, v in tensor.items():
            total = total + np.linalg.det(rows[:, :, np.subtract(in_idx, 1)]) * v
        vals = {out: t for out, t in zip(outs, total.tolist()) if t != 0.0}
        new_grades[k] = AntisymTensor(coords.m, k, side, vals)
    return StateCoords(m=coords.m, mode=coords.mode, scalar=coords.scalar, grades=new_grades)


def conjugate_state(rho, u) -> np.ndarray:
    """U^dag rho U; the spectrum is preserved by similarity."""
    rho = as_matrix(rho)
    u = check_orthogonal(as_matrix(u), rho.shape[0])
    return u.conj().T @ rho @ u

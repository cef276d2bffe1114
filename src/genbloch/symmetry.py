"""Rotations of tensor coordinates by an orthogonal matrix.

Conventions:

* A generator is a grade-2 antisymmetric parameter array alpha_{ij}, i < j.
  Its orthogonal matrix is L = exp(A) with A[j, i] = +alpha_{ij} (A is the
  transpose of the tensor's own antisymmetric matrix), so a
  single alpha_{12} = theta rotates axis 1 toward axis 2 by theta
  (L = [[cos, -sin], [sin, cos]] on that plane) and det L = +1.
  L = exp(A) is exp(-i H) for the hermitian H = iA, from the one hermitian
  eigensolver in linalg.

* Grade-k coordinates transform through the k-th compound (exterior power)
  of L:  G'_I = sum_J det(L[I, J]) G_J over increasing k-tuples, which is
  the antisymmetrized k-fold product L x ... x L.  The rule uses no
  Clifford algebra, so the compatibility identity with the spin lift of the
  same generator (identities.spin_lift) checks one engine against another.
"""

from __future__ import annotations

import numpy as np

from . import clifford
from .coords import AntisymTensor, StateCoords
from .errors import DimensionMismatch, NotUnitary
from .linalg import exp_minus_i_hermitian

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
    el = exp_minus_i_hermitian(1j * a)
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


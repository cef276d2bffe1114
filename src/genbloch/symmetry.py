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
  same generator (spin_lift in tests/claims.py) checks one engine against another.
"""

from __future__ import annotations

import numpy as np

from . import clifford
from .coords import AntisymTensor, StateCoords
from .errors import DimensionMismatch, NonFiniteResult, NotUnitary, wire_field
from .linalg import as_matrix, exp_minus_i_hermitian

ORTHO_TOL = 1e-10


def orthogonal_from_generator(alpha: AntisymTensor) -> np.ndarray:
    """L = exp(A) in SO(side), as the real part of exp(-i (iA)) for the hermitian iA.

    A rotation angle theta comes out of the eigensolver with an error of
    about theta * eps, so once the largest angle exceeds ORTHO_TOL / eps
    (about 4.5e5 rad) L is no longer known to ORTHO_TOL and NotUnitary is
    raised.  The imaginary residue is validated by real_part and
    orthogonality by check_orthogonal before returning.
    """
    # A[j, i] = +alpha_{ij}: the transpose of the tensor's own matrix
    a = wire_field(alpha, AntisymTensor, "alpha").as_matrix().T
    # A is normal, so its largest singular value is the largest rotation angle
    theta_max = float(np.linalg.norm(a, 2))
    err = theta_max * np.finfo(float).eps
    if err > ORTHO_TOL:
        raise NotUnitary(f"rotation angle {theta_max:.3e} rad: exp(A) is known only to "
                         f"{err:.1e}, above {ORTHO_TOL:.0e}")
    return check_orthogonal(real_part(exp_minus_i_hermitian(1j * a),
                                      "exponential of the generator"))


def real_part(el, name: str) -> np.ndarray:
    """The package's one realness rule: the real part of el as floats, or
    NotUnitary naming it when an imaginary part exceeds ORTHO_TOL."""
    imag = float(np.max(np.abs(np.imag(el))))
    if imag > ORTHO_TOL:
        raise NotUnitary(f"{name} has imaginary residue {imag:.3e}")
    return np.asarray(np.real(el), dtype=float)


def check_orthogonal(el, side: int | None = None) -> np.ndarray:
    """The package's one orthogonality rule, for a real L or a complex unitary:
    el as an array if max|L^dagger L - I| <= ORTHO_TOL, else NotUnitary; a
    matrix that is not square and finite (linalg.as_matrix) is refused first."""
    as_matrix(el)
    el = np.asarray(el)
    if side is not None and el.shape[0] != side:
        raise DimensionMismatch(f"rotation matrix dim {el.shape[0]} != {side}")
    res = float(np.max(np.abs(el.conj().T @ el - np.eye(el.shape[0]))))
    if res > ORTHO_TOL:
        raise NotUnitary(f"matrix is not orthogonal: residual {res:.3e} exceeds {ORTHO_TOL:.0e}")
    return el


def rotate_coords(coords: StateCoords, el) -> StateCoords:
    """Apply an orthogonal matrix grade-wise; scalar untouched.

    Output entry I of grade k is sum_J det(L[I, J]) G_J, over every I of the
    grade in wire order (NonFiniteResult if one overflows); an exact 0.0 is
    dropped, and the grade stays.  For each stored J the minors of every I come
    from one stacked det, and each output sum is added in the stored order of J.
    """
    side = wire_field(coords, StateCoords, "coords").side
    el = real_part(check_orthogonal(el, side), "rotation matrix")
    basis = clifford.cached_basis(coords.m, coords.mode)
    new_grades = {}
    for k, entries in coords.grades.items():
        outs = basis.masks[basis.grade[basis.masks] == k]
        rows = el[clifford.mask_indices(outs, k, side) - 1]  # (len(outs), k, side)
        total = np.zeros(len(outs))
        for cols, v in zip(clifford.mask_indices(list(entries), k, side) - 1, entries.values()):
            total = total + np.linalg.det(rows[:, :, cols]) * v
        if not np.isfinite(total).all():
            raise NonFiniteResult()
        keep = total != 0.0
        new_grades[k] = dict(zip(outs[keep].tolist(), total[keep].tolist()))
    return StateCoords(m=coords.m, mode=coords.mode, scalar=coords.scalar, grades=new_grades)

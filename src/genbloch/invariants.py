"""Rotation invariants of graded tensor coordinates.

For a grade-2 tensor G (antisymmetric matrix) the spectrum-determining
invariants are

    r  = sum_{i<j} G_ij^2          (degree 2)
    T4 = trace((G^T G)^2)          (degree 4)
    D3 = eps_{i1..i6} G_{i1 i2} G_{i3 i4} G_{i5 i6}   (degree 3, six indices)

D3 equals 48 times the Pfaffian of G, which is how two_tensor_invariants
computes it, with spectra.pfaffian; the epsilon sum itself and the
dual-tensor identities are checked claims of the identities module.  Every r
and T4 of the package comes from frobenius_r and trace_T4, and every report
of a state from coords_invariants, the invariants command's and validate's
alike; a state of the so(2m+2) family adds its spectra.normal_form.
"""

from __future__ import annotations

import numpy as np

from .clifford import Record
from .coords import AntisymTensor, StateCoords, sum_of_squares
from .errors import InvariantMismatch, MalformedInput
from .linalg import wire_field
from .spectra import normal_form, pfaffian


def frobenius_r(g: AntisymTensor) -> float:
    """r = sum_{i<j} G_ij^2 (half the squared Frobenius norm of the full matrix)."""
    return wire_field(g, AntisymTensor, "g").of_grade(2).norm_sq()


def trace_T4(g: AntisymTensor) -> float:
    """T4 = trace((G^T G)^2) of a grade-2 AntisymTensor."""
    mat = wire_field(g, AntisymTensor, "g").as_matrix()
    gtg = mat.T @ mat
    return float(np.trace(gtg @ gtg))


def require_sums_of_squares(r, t4=0.0) -> None:
    """The one (r, T4) sign rule: sums of squares, so MalformedInput unless
    each is >= -1e-12 (NaN is not)."""
    if not (r >= -1e-12 and t4 >= -1e-12):
        raise MalformedInput("r and T4 are sums of squares and must be nonnegative")


class InvariantSet(Record):
    """Named invariants with their scale dimensions fixed by construction."""

    __slots__ = ("r", "T4", "D3", "extras")

    def __init__(self, r: float, T4: float, D3: float | None = None, extras: dict | None = None):
        self._set(r, T4, D3, {} if extras is None else extras)
        require_sums_of_squares(self.r, self.T4)

    def to_dict(self) -> dict:
        return {"r": self.r, "T4": self.T4, "D3": self.D3, "extras": dict(self.extras)}


def two_tensor_invariants(g: AntisymTensor) -> InvariantSet:
    """InvariantSet for a grade-2 tensor; D3 only exists at side 6."""
    r = frobenius_r(g)
    t4 = trace_T4(g)
    if t4 > 2.0 * r * r + 1e-9 * max(1.0, r * r):
        raise InvariantMismatch(f"T4 = {t4} exceeds the Cauchy-Schwarz bound 2 r^2 = {2 * r * r}")
    d3 = None
    extras = {}
    if g.side in (4, 6):
        extras["pfaffian"] = float(pfaffian(g.as_matrix()))
    if g.side == 6:
        d3 = 48.0 * extras["pfaffian"]
    return InvariantSet(r=r, T4=t4, D3=d3, extras=extras)


def coords_invariants(coords: StateCoords, normal=None) -> InvariantSet:
    """Invariants of whatever grades a coordinate set carries.

    Grade 2 provides (r, T4, D3); grade 1 and the top grade are reported in
    extras so the CLI can describe mixed inputs; a state of the so(2m+2) family
    adds mu and sign Pf M of its normal form as normal_form_amplitudes and
    pfaffian_sign, which fix its spectrum: normal when given, else spectra.normal_form's.
    """
    g2 = wire_field(coords, StateCoords, "coords").grade(2)
    inv = (two_tensor_invariants(g2) if g2.values
           else InvariantSet(r=0.0, T4=0.0, D3=(0.0 if coords.side == 6 else None)))
    extras = dict(inv.extras)
    if coords.grades.get(1):
        extras["vector_norm_sq"] = float(sum_of_squares(coords.grades[1].values()))
    top = coords.grades.get(coords.side) if coords.mode == "standard" else None
    if top:  # its one mask sets every index
        extras["pseudoscalar"] = top[(1 << coords.side) - 1]
    if normal is None:
        normal = normal_form(coords.m, coords.mode, coords.grades)
    if normal is not None:
        extras["normal_form_amplitudes"] = normal[0].tolist()
        extras["pfaffian_sign"] = float(np.sign(normal[1]))
    return InvariantSet(r=inv.r, T4=inv.T4, D3=inv.D3, extras=extras)

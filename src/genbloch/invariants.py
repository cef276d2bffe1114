"""Rotation invariants of graded tensor coordinates.

For a grade-2 tensor G (antisymmetric matrix) the spectrum-determining
invariants are

    r  = sum_{i<j} G_ij^2          (degree 2)
    T4 = trace((G^T G)^2)          (degree 4)
    D3 = eps_{i1..i6} G_{i1 i2} G_{i3 i4} G_{i5 i6}   (degree 3, six indices)

D3 equals 48 times the Pfaffian of G, which is how two_tensor_invariants
computes it; the epsilon sum itself and the dual-tensor identities are
checked claims of the identities module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coords import AntisymTensor, StateCoords
from .errors import DimensionMismatch, InvariantMismatch
from .figures import require_sums_of_squares


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix by perfect-matching expansion.

    Exact recursion along the first row; 15 terms at dimension 6.  Intended
    for the small dimensions used here (<= 10).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch("pfaffian requires a square matrix")
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0
    if n == 2:
        return float(a[0, 1])
    total = 0.0
    rest = list(range(1, n))
    for pos, j in enumerate(rest):
        sub = [k for k in rest if k != j]
        minor = a[np.ix_(sub, sub)]
        total += (-1.0) ** pos * a[0, j] * pfaffian(minor)
    return total


def frobenius_r(g: AntisymTensor) -> float:
    """r = sum_{i<j} G_ij^2 (half the squared Frobenius norm of the full matrix)."""
    return g.of_grade(2).norm_sq()


def trace_T4(g: AntisymTensor) -> float:
    """T4 = trace((G^T G)^2) on the full antisymmetric matrix."""
    mat = g.as_matrix()
    gtg = mat.T @ mat
    return float(np.trace(gtg @ gtg))


@dataclass(frozen=True)
class InvariantSet:
    """Named invariants with their scale dimensions fixed by construction."""

    r: float
    T4: float
    D3: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
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


def vector_invariants(g: AntisymTensor, pseudoscalar: float | None = None) -> InvariantSet:
    """Quadratic invariant of a vector configuration (optionally with pseudoscalar)."""
    norm_sq = g.of_grade(1).norm_sq()
    extras = {"vector_norm_sq": norm_sq}
    if pseudoscalar is not None:
        norm_sq += float(pseudoscalar) ** 2
        extras["pseudoscalar"] = float(pseudoscalar)
    return InvariantSet(r=norm_sq, T4=0.0, D3=None, extras=extras)


def coords_invariants(coords: StateCoords) -> InvariantSet:
    """Invariants of whatever grades a coordinate set carries.

    Grade 2 provides (r, T4, D3); grade 1 and the top grade are reported in
    extras so the CLI can describe mixed inputs.
    """
    g2 = coords.grade(2)
    if g2.values:
        inv = two_tensor_invariants(g2)
    else:
        inv = InvariantSet(r=0.0, T4=0.0, D3=(0.0 if coords.side == 6 else None))
    extras = dict(inv.extras)
    g1 = coords.grade(1)
    if g1.values:
        extras["vector_norm_sq"] = g1.norm_sq()
    if coords.mode == "standard":
        top = coords.grade(coords.side)
        if top.values:
            extras["pseudoscalar"] = top.get(tuple(range(1, coords.side + 1)))
    return InvariantSet(r=inv.r, T4=inv.T4, D3=inv.D3, extras=extras)

"""Rotation invariants of graded tensor coordinates.

For a grade-2 tensor G (antisymmetric matrix) the spectrum-determining
invariants are

    r  = sum_{i<j} G_ij^2          (degree 2)
    T4 = trace((G^T G)^2)          (degree 4)
    D3 = eps_{i1..i6} G_{i1 i2} G_{i3 i4} G_{i5 i6}   (degree 3, six indices)

D3 equals 48 times the Pfaffian of G, which is how two_tensor_invariants
computes it.  Every Levi-Civita contraction goes through one routine,
epsilon_contract, with the sign of each index order from the package's one
permutation parity (clifford.normalize_key): the 720-term D3 sum
(epsilon_sum_D3, checked against 48 Pf by epsilon_D3), the linear and
quadratic duals, and the O(7) pseudo-vector.  The dual-tensor
constructions tie 2 r^2 - T4 to quadratic functions of the dual, which is
what makes the z variable of the domains module computable directly from
the coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .clifford import multi_indices, normalize_key
from .coords import AntisymTensor, StateCoords
from .errors import (
    DimensionMismatch,
    InvariantMismatch,
    UnknownName,
    UnsupportedM,
)
from .figures import require_sums_of_squares


def perm_sign(perm) -> int:
    """Parity of a sequence of distinct integers (+1 even, -1 odd)."""
    return normalize_key(perm)[1]


@lru_cache(maxsize=None)
def _signed_pairings(n: int) -> tuple:
    """(parity, ((p1, p2), (p3, p4), ...)) of each permutation p of range(n), in order."""
    return tuple((perm_sign(p), tuple(zip(p[::2], p[1::2])))
                 for p in itertools.permutations(range(n)))


def epsilon_contract(mat: np.ndarray, lead: tuple, factors: int):
    """sum_p eps_{lead, p} mat[p1, p2] ... mat[p_{2f-1}, p_{2f}] over every
    order p of the 0-based indices of mat that are not in lead.

    eps_{lead, p} is the sign of (lead, sorted rest) times the parity of p; terms
    are added in itertools.permutations order, each formed left to right from its sign.
    """
    rest = [x for x in range(mat.shape[0]) if x not in lead]
    if len(rest) != 2 * factors:
        raise DimensionMismatch(f"{len(rest)} free indices cannot fill {factors} factors")
    sub = mat[np.ix_(rest, rest)].tolist()
    base = perm_sign(tuple(lead) + tuple(rest))
    total = 0.0
    for sign, pairs in _signed_pairings(len(rest)):
        term = base * sign
        for i, j in pairs:
            term = term * sub[i][j]
        total += term
    return total


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


def epsilon_sum_D3(g: AntisymTensor) -> float:
    """Brute-force eps contraction over all 720 index permutations (m = 3)."""
    if g.of_grade(2).side != 6:
        raise DimensionMismatch("the triple eps contraction needs 6 indices (m = 3)")
    return epsilon_contract(g.as_matrix(), (), 3)


def epsilon_D3(g: AntisymTensor) -> float:
    """The cubic invariant D3; eps-sum with the 48*Pfaffian fast path cross-checked."""
    brute = epsilon_sum_D3(g)
    fast = 48.0 * pfaffian(g.as_matrix())
    scale = max(1.0, abs(brute))
    if abs(brute - fast) > 1e-10 * scale:
        raise InvariantMismatch(f"eps-sum {brute} and 48*Pf {fast} disagree")
    return brute


def dual_tensor(g: AntisymTensor) -> AntisymTensor:
    """Dual grade-2 tensor.

    m=2:  Gd_{ij} = eps_{ijkl} G_{kl}     (linear dual)
    m=3:  Ad_{ij} = eps_{ij k1..k4} G_{k1 k2} G_{k3 k4}  (quadratic dual)

    Both sums run over all orders of the contracted indices, matching the
    repeated-index convention of the defining expressions.
    """
    if g.of_grade(2).side not in (4, 6):
        raise UnsupportedM(f"dual_tensor supports sides 4 and 6, got {g.side}")
    mat = g.as_matrix()
    vals = {}
    for i, j in multi_indices(g.side, 2):
        total = epsilon_contract(mat, (i - 1, j - 1), g.side // 2 - 1)
        if total != 0.0:
            vals[(i, j)] = total
    return AntisymTensor(g.m, 2, g.side, vals)


def dual_identity_residual(g: AntisymTensor) -> float:
    """|2r^2 - T4 - quadratic-dual expression|; zero in exact arithmetic.

    m=2: 2r^2 - T4 = (trace(Gd G))^2 / 16
    m=3: 2r^2 - T4 = trace(Ad^T Ad) / 32
    """
    r = frobenius_r(g)
    t4 = trace_T4(g)
    lhs = 2.0 * r * r - t4
    dual = dual_tensor(g)
    if g.side == 4:
        rhs = float(np.trace(dual.as_matrix() @ g.as_matrix())) ** 2 / 16.0
    else:
        dm = dual.as_matrix()
        rhs = float(np.trace(dm.T @ dm)) / 32.0
    return abs(lhs - rhs)


def det_identity_check(g: AntisymTensor) -> tuple[float, float]:
    """(2r^2 - T4, 4 det G) for a 4x4 grade-2 tensor; equal up to rounding."""
    if g.of_grade(2).side != 4:
        raise UnsupportedM("the determinant identity is specific to side 4 (m = 2)")
    lhs = 2.0 * frobenius_r(g) ** 2 - trace_T4(g)
    rhs = 4.0 * float(np.linalg.det(g.as_matrix()))
    return lhs, rhs


def pseudo_vector_V(g: AntisymTensor) -> np.ndarray:
    """V_i = eps_{i,i1..i6} G_{i1 i2} G_{i3 i4} G_{i5 i6} over 7 indices.

    When G is supported on indices 1..6, V_7 reduces to the 6-index D3 and
    the other components vanish.
    """
    if g.of_grade(2).side != 7:
        raise DimensionMismatch("pseudo_vector_V needs a side-7 grade-2 tensor")
    mat = g.as_matrix()
    return np.array([epsilon_contract(mat, (i,), 3) for i in range(7)])


SCALE_DIMENSIONS = {
    "scalar": 1,
    "r": 2,
    "D3": 3,
    "T4": 4,
    "r^2": 4,
}


def scale_dimension(name: str) -> int:
    """Homogeneity degree of a named invariant under G -> s G."""
    try:
        return SCALE_DIMENSIONS[name]
    except KeyError:
        raise UnknownName(name) from None


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

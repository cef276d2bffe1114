"""Codec between density matrices and graded antisymmetric tensor coordinates.

A state is expanded as

    rho = 2^{-m} * sum_k sum_{i1<..<ik} G_{i1..ik} E_{i1..ik}

with each increasing multi-index summed once and keyed by its bitmask
(clifford.index_mask); AntisymTensor is the tuple-keyed view of one grade.
Because the basis satisfies trace(E_A E_B) = 2^m delta_AB, the inverse map
is the plain trace projection G_A = trace(rho E_A), real for the hermitian
part (linalg.require_hermitian) that decode projects.  The scalar
coordinate equals the trace, so unit-trace states (the one rule:
require_unit_trace) have scalar 1.  Positivity is deliberately NOT
validated here; deciding it is the job of the domains module.
"""

from __future__ import annotations

import math

import numpy as np

from . import clifford
from .errors import (
    BadIndex,
    DimensionMismatch,
    GradeMismatch,
    GradeOutOfRange,
    MalformedInput,
    NonFiniteResult,
    NonUnitTrace,
    ResourceLimit,
)
from .linalg import as_matrix, require_hermitian, wire_field

TRACE_TOL = 1e-8


def sum_of_squares(values):
    """Sum of v * v added left to right, elementwise when the values are arrays.

    The builtin sum() of floats is compensated from Python 3.12 on, so it
    would not add in this order there.
    """
    total = 0.0
    for v in values:
        total = total + v * v
    return total


class AntisymTensor(clifford.Record):
    """Grade-k totally antisymmetric real array over indices 1..side, the
    tuple-keyed view of one grade (StateCoords.grade): only strictly
    increasing index tuples are stored, odd permutations are implied by
    sign, absent keys are zero."""

    __slots__ = ("m", "k", "side", "values")

    def __init__(self, m: int, k: int, side: int, values: dict):
        self._set(m, k, side, values)
        clifford._check_m(self.m)  # bounds side, and with it every mask
        if self.side not in (2 * self.m, 2 * self.m + 1):
            raise DimensionMismatch(f"side {self.side} invalid for m={self.m}")
        grade_entries(self.k, self.side, self.values, increasing=True)

    def get(self, indices) -> float:
        """Signed component for an arbitrary order of k indices."""
        _, sign = clifford.index_mask(indices, self.side)
        return sign * self.of_grade(len(indices)).values.get(tuple(sorted(indices)), 0.0)

    def items(self):
        return self.values.items()

    def norm_sq(self) -> float:
        """Sum of squares over increasing tuples (the paper-style squared norm)."""
        return float(sum_of_squares(self.values.values()))

    def scaled(self, s: float) -> "AntisymTensor":
        return AntisymTensor(self.m, self.k, self.side,
                             {key: s * v for key, v in self.values.items()})

    def of_grade(self, k: int) -> "AntisymTensor":
        """The package's one grade rule: self, or GradeMismatch unless its grade is k."""
        if self.k != k:
            raise GradeMismatch(f"expected a grade-{k} tensor, got grade {self.k}")
        return self

    def as_matrix(self) -> np.ndarray:
        """Full antisymmetric side x side matrix (grade 2 only)."""
        entries = self.of_grade(2).values
        mat = np.zeros((self.side, self.side))
        i, j = np.array(list(entries), dtype=np.intp).reshape(-1, 2).T - 1
        mat[i, j] = list(entries.values())
        mat[j, i] = -mat[i, j]
        return mat

    @staticmethod
    def from_matrix(m: int, mat, side: int | None = None) -> "AntisymTensor":
        mat = np.asarray(mat, dtype=float)
        side = mat.shape[0] if side is None else side
        if mat.shape != (side, side):
            raise DimensionMismatch(f"matrix shape {mat.shape} != ({side},{side})")
        if np.max(np.abs(mat + mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
            raise MalformedInput("matrix is not antisymmetric")
        vals = {(i, j): float(mat[i - 1, j - 1]) for i in range(1, side + 1)
                for j in range(i + 1, side + 1) if mat[i - 1, j - 1] != 0.0}
        return AntisymTensor(m, 2, side, vals)


def grade_entries(k: int, side: int, entries, increasing: bool = False) -> dict:
    """{mask: value} of grade k over 1..side from a mapping {indices: value}
    or (indices, value) pairs, the indices in any order unless increasing
    (clifford.index_mask): each value is signed by the permutation that
    sorts them, and the values of one index set are added, in input order,
    at the set's first place.  BadIndex for indices of another grade,
    MalformedInput for an entry that is no (indices, value) pair, a value
    that is no number, a bool, or a sum that is not finite.
    """
    slots: dict = {}
    for pair in entries.items() if isinstance(entries, (dict, AntisymTensor)) else entries:
        try:
            key, v = pair
        except (TypeError, ValueError):
            raise MalformedInput(f"grade {k}: expected (indices, value) pairs, "
                                 f"got {pair!r:.60}") from None
        key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
        mask, sign = clifford.index_mask(key, side, increasing)
        if len(key) != k:
            raise BadIndex(f"key {key} has grade {len(key)}, expected {k}")
        # a float needs no reading; one that is not finite meets the sum's check
        x = v if type(v) is float else wire_field(v, float, f"value at {tuple(sorted(key))}")
        slots[mask] = slots.get(mask, 0.0) + sign * x
        if not math.isfinite(slots[mask]):
            raise MalformedInput(f"non-finite value at {tuple(sorted(key))}")
    return slots


def _view(m: int, k: int, side: int, entries: dict) -> AntisymTensor:
    keys = map(tuple, clifford.mask_indices(list(entries), k, side).tolist())
    return AntisymTensor(m, k, side, dict(zip(keys, entries.values())))


def antisym(m: int, k: int, entries=None, side: int | None = None) -> AntisymTensor:
    """An AntisymTensor from any entries that grade_entries reads."""
    side = 2 * m if side is None else side
    return _view(m, k, side, grade_entries(k, side, entries or {}))


def vector(m: int, components, side: int | None = None) -> AntisymTensor:
    """Grade-1 tensor from a dense component list."""
    side = 2 * m if side is None else side
    comps = list(components)
    if len(comps) != side:
        raise DimensionMismatch(f"expected {side} components, got {len(comps)}")
    return antisym(m, 1, [((i + 1,), c) for i, c in enumerate(comps) if c != 0.0], side)


class StateCoords(clifford.Record):
    """The dual coordinates of a state: the scalar and, per grade k, its
    {mask: value} entries in input order, as grade_entries gives them.  A
    grade stays present when it holds no entry or only zeros."""

    __slots__ = ("m", "mode", "scalar", "grades")

    def __init__(self, m: int, mode: str, scalar: float, grades: dict):
        self._set(m, mode, scalar, grades)
        clifford._check_m(self.m)
        if not np.isfinite(self.scalar):
            raise MalformedInput(f"non-finite scalar {self.scalar}")
        top = clifford.max_grade(self.m, self.mode)
        for k, entries in self.grades.items():
            if not 1 <= k <= top:
                raise GradeOutOfRange(f"grade {k} out of range 1..{top} for mode {self.mode!r}")
            clifford.mask_indices(list(entries), k, self.side)  # GradeMismatch for another grade

    @property
    def side(self) -> int:
        return clifford.side(self.m, self.mode)

    def grade(self, k: int) -> AntisymTensor:
        """Grade k as a tuple-keyed AntisymTensor, empty when the coords hold none."""
        return _view(self.m, k, self.side, self.grades.get(k, {}))

    def coefficient(self, indices) -> float:
        """Signed coefficient for an arbitrary index order; () gives the scalar."""
        mask, sign = clifford.index_mask(indices, self.side)
        return sign * self.grades.get(len(indices), {0: self.scalar}).get(mask, 0.0)

    def wire_entries(self, k: int) -> tuple:
        """(indices, values) of grade k in wire order: the (n, k) index array,
        rows increasing lexicographically, and the values in the same order."""
        entries = self.grades[k]
        idx = clifford.mask_indices(list(entries), k, self.side)
        order = np.lexsort(idx.T[::-1])
        return idx[order], np.array(list(entries.values()), dtype=float)[order]


def state_coords(m: int, mode: str = "standard", scalar: float = 1.0,
                 grades: dict | None = None) -> StateCoords:
    """Convenience constructor; a grade may be an AntisymTensor of the mode's
    side, or any entries that grade_entries reads."""
    clifford._check_m(m)  # before any index is held to the side m gives
    side = clifford.side(m, mode)
    items: dict = {}
    for k, val in (grades or {}).items():
        k = int(k)
        if isinstance(val, AntisymTensor) and (val.of_grade(k).side != side or val.m != m):
            raise DimensionMismatch(f"tensor at grade {k} has wrong shape metadata")
        # keys such as 1 and "01" name one grade, whose entries all add up
        items.setdefault(k, []).extend(val.items() if isinstance(val, (dict, AntisymTensor))
                                       else val)
    built = {k: grade_entries(k, side, entries) for k, entries in items.items()}
    return StateCoords(m=m, mode=mode, scalar=float(scalar), grades=built)


def encode(coords: StateCoords) -> np.ndarray:
    """Density-matrix representation: 2^{-m} sum of G_A E_A over increasing indices."""
    coords = wire_field(coords, StateCoords, "coords")
    return encode_grades(coords.m, coords.mode, coords.scalar, coords.grades)


def encode_grades(m: int, mode: str, scalar: float, grades: dict, check_trace: bool = True):
    """encode of a state's parts, or of a stack's with an (n,) column per mask,
    or ResourceLimit, with check_trace, unless each trace lies within
    TRACE_TOL of the scalar."""
    basis = clifford.cached_basis(m, mode)
    coeffs = {0: scalar}
    for entries in grades.values():
        coeffs.update(entries)
    rho = basis.expand(coeffs) / basis.dim
    if check_trace and not np.all(abs(np.trace(rho, axis1=-2, axis2=-1).real - scalar)
                                  <= TRACE_TOL):
        raise ResourceLimit("encoding these coordinates rounds their trace away "
                            "(input beyond floating-point range?)")
    return rho


def require_unit_trace(trace) -> None:
    """The package's one unit-trace rule: NonUnitTrace unless |Re trace - 1| <= TRACE_TOL.

    A matrix meets it through np.trace, coordinates through their scalar,
    which is exactly the trace of the matrix they encode.
    """
    tr = float(np.real(trace))
    if not abs(tr - 1.0) <= TRACE_TOL:  # NaN is refused too
        raise NonUnitTrace(f"trace {tr} differs from 1 by more than {TRACE_TOL}")


def decode(rho, mode: str = "standard") -> StateCoords:
    """Trace-project the hermitian part of a unit-trace matrix onto the graded coordinates.

    Either mode's family holds 4^m orthogonal elements, so it spans every
    hermitian matrix and encode(decode(rho)) returns rho to rounding; with
    mode="extended" the coordinates are grades 0..m over the 2m + 1 indices.
    """
    rho = as_matrix(rho)
    basis = clifford.cached_basis(clifford.m_from_dim(rho.shape[0]), mode)
    rho = require_hermitian(rho)
    require_unit_trace(np.trace(rho))
    # entries near the float range can overflow the projection's sums
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = basis.project(rho).real
    if not np.isfinite(coeffs).all():
        raise NonFiniteResult("coordinates are not finite (input beyond floating-point range?)")
    grades: dict = {}
    for mask, val in zip(basis.masks[1:].tolist(), coeffs[1:].tolist()):
        if val != 0.0:
            grades.setdefault(mask.bit_count(), {})[mask] = val
    return StateCoords(m=basis.m, mode=basis.mode, scalar=float(coeffs[0]), grades=grades)


def tensor_config(m: int, k: int, tensor: AntisymTensor, mode: str = "standard") -> np.ndarray:
    """Pure tensor configuration rho = 2^{-m} (I + G o E^{(k)})."""
    return encode(state_coords(m, mode=mode, scalar=1.0, grades={k: tensor}))


# ---------------------------------------------------------------------------
# wire format


def coords_to_json(coords: StateCoords) -> dict:
    coords = wire_field(coords, StateCoords, "coords")
    grades = {}
    for k in sorted(coords.grades):
        idx, values = coords.wire_entries(k)
        grades[str(k)] = [{"idx": i, "val": v} for i, v in zip(idx.tolist(), values.tolist())]
    return {"m": coords.m, "mode": coords.mode, "scalar": coords.scalar, "grades": grades}


def entry_list(entries, name: str) -> list:
    """[(idx tuple, val), ...] from the wire list [{"idx": [...], "val": x}, ...]
    in field name, in input order, or MalformedInput naming the entry that
    does not fit."""
    out = []
    for n, e in enumerate(wire_field(entries, list, name)):
        try:
            if not isinstance(e["idx"], list):
                raise TypeError
            out.append((tuple(e["idx"]), wire_field(e["val"], float, name)))
        except (KeyError, TypeError, ValueError):
            raise MalformedInput(f"field '{name}[{n}]': expected "
                                 f"{{idx: list, val: number}}, got {e!r:.60}") from None
    return out


def coords_from_json(obj) -> StateCoords:
    obj = wire_field(obj, dict, "coords")
    m = wire_field(obj.get("m"), int, "m")
    grades = {}
    for k, v in wire_field(obj.get("grades") or {}, dict, "grades").items():
        try:
            int(k)
        except ValueError:
            raise MalformedInput(f"field 'grades': expected int keys, got {k!r:.60}") from None
        grades[k] = entry_list(v, f"grades.{k}")
    return state_coords(m, mode=obj.get("mode", "standard"), grades=grades,
                        scalar=wire_field(obj.get("scalar", 1.0), float, "scalar"))

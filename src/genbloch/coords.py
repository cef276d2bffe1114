"""Codec between density matrices and graded antisymmetric tensor coordinates.

A state is expanded as

    rho = 2^{-m} * sum_k sum_{i1<..<ik} G_{i1..ik} E_{i1..ik}

with each increasing multi-index summed once.  Because the basis satisfies
trace(E_A E_B) = 2^m delta_AB, the inverse map is the plain trace projection
G_A = trace(rho E_A), real for the hermitian part (linalg.require_hermitian)
that decode projects.  The scalar coordinate equals the trace, so unit-trace
states (the one rule: require_unit_trace) have scalar 1.  Positivity is
deliberately NOT validated here; deciding it is the job of the domains module.
"""

from __future__ import annotations

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


def antisym_matrices(side: int, entries: dict) -> np.ndarray:
    """Antisymmetric side x side matrix from {(i, j): G_ij}, 1-based i < j.

    The values may be arrays of one shape S; the result is then an
    S + (side, side) stack.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in entries.values()))
    mat = np.zeros(shape + (side, side))
    for (i, j), v in entries.items():
        mat[..., i - 1, j - 1] = v
        mat[..., j - 1, i - 1] = np.negative(v)
    return mat


class AntisymTensor(clifford.Record):
    """Grade-k totally antisymmetric real array over indices 1..side.

    Only strictly increasing index tuples are stored; odd permutations are
    implied by sign, absent keys are zero.
    """

    __slots__ = ("m", "k", "side", "values")

    def __init__(self, m: int, k: int, side: int, values: dict):
        self._set(m, k, side, values)
        clifford._check_m(self.m)  # bounds side, and with it every multi-index table
        if self.side not in (2 * self.m, 2 * self.m + 1):
            raise DimensionMismatch(f"side {self.side} invalid for m={self.m}")
        for key, val in self.values.items():
            if len(clifford.multi_index(key, self.side)) != self.k:
                raise BadIndex(f"key {key} has grade {len(key)}, expected {self.k}")
            if not np.isfinite(val):
                raise MalformedInput(f"non-finite value at {key}")

    def get(self, indices) -> float:
        """Signed component for an arbitrary index order."""
        key, sign = clifford.normalize_key(indices)
        return sign * self.values.get(key, 0.0)

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
        return antisym_matrices(self.side, self.of_grade(2).values)

    @staticmethod
    def from_matrix(m: int, mat, side: int | None = None) -> "AntisymTensor":
        mat = np.asarray(mat, dtype=float)
        side = mat.shape[0] if side is None else side
        if mat.shape != (side, side):
            raise DimensionMismatch(f"matrix shape {mat.shape} != ({side},{side})")
        if np.max(np.abs(mat + mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
            raise MalformedInput("matrix is not antisymmetric")
        vals = {(i, j): float(mat[i - 1, j - 1]) for i, j in clifford.multi_indices(side, 2)
                if mat[i - 1, j - 1] != 0.0}
        return AntisymTensor(m, 2, side, vals)


def antisym(m: int, k: int, entries: dict | None = None, side: int | None = None) -> AntisymTensor:
    """Build an AntisymTensor from possibly unordered index keys."""
    side = 2 * m if side is None else side
    vals: dict = {}
    for key, v in (entries or {}).items():
        norm, sign = clifford.normalize_key(key if isinstance(key, (tuple, list)) else (key,))
        vals[norm] = vals.get(norm, 0.0) + sign * float(v)
    return AntisymTensor(m, k, side, vals)


def vector(m: int, components, side: int | None = None) -> AntisymTensor:
    """Grade-1 tensor from a dense component list."""
    side = 2 * m if side is None else side
    comps = list(components)
    if len(comps) != side:
        raise DimensionMismatch(f"expected {side} components, got {len(comps)}")
    return AntisymTensor(m, 1, side,
                         {(i + 1,): float(c) for i, c in enumerate(comps) if c != 0.0})


def _check_grade(m: int, k: int, mode: str) -> None:
    top = clifford.max_grade(m, mode)
    if not (1 <= k <= top):
        raise GradeOutOfRange(f"grade {k} out of range 1..{top} for mode {mode!r}")


class StateCoords(clifford.Record):
    """Scalar plus one antisymmetric tensor per grade: the dual coordinates of a state."""

    __slots__ = ("m", "mode", "scalar", "grades")

    def __init__(self, m: int, mode: str, scalar: float, grades: dict):
        self._set(m, mode, scalar, grades)  # grades: grade k -> AntisymTensor
        if not np.isfinite(self.scalar):
            raise MalformedInput(f"non-finite scalar {self.scalar}")
        for k, tensor in self.grades.items():
            _check_grade(self.m, k, self.mode)
            if tensor.of_grade(k).side != self.side or tensor.m != self.m:
                raise DimensionMismatch(f"tensor at grade {k} has wrong shape metadata")

    @property
    def side(self) -> int:
        return clifford.side(self.m, self.mode)

    def grade(self, k: int) -> AntisymTensor:
        return self.grades.get(k, AntisymTensor(self.m, k, self.side, {}))

    def coefficient(self, indices) -> float:
        if len(indices) == 0:
            return self.scalar
        return self.grade(len(indices)).get(indices)


def state_coords(m: int, mode: str = "standard", scalar: float = 1.0,
                 grades: dict | None = None) -> StateCoords:
    """Convenience constructor; grade values may be AntisymTensor or {key: val} dicts."""
    side = clifford.side(m, mode)
    built = {}
    for k, val in (grades or {}).items():
        k = int(k)
        if isinstance(val, AntisymTensor):
            built[k] = val
        else:
            built[k] = antisym(m, k, val, side=side)
    return StateCoords(m=m, mode=mode, scalar=float(scalar), grades=built)


def encode(coords: StateCoords) -> np.ndarray:
    """Density-matrix representation: 2^{-m} sum of G_A E_A over increasing indices,
    or ResourceLimit unless its trace lies within TRACE_TOL of the scalar coordinate."""
    basis = clifford.cached_basis(coords.m, coords.mode)
    coeffs = {(): coords.scalar}
    for tensor in coords.grades.values():
        coeffs.update(tensor.values)
    rho = basis.expand(coeffs) / basis.dim
    if not abs(np.trace(rho).real - coords.scalar) <= TRACE_TOL:
        raise ResourceLimit("encoding these coordinates rounds their trace away "
                            "(input beyond floating-point range?)")
    return rho


def require_unit_trace(trace) -> None:
    """The package's one unit-trace rule: NonUnitTrace unless |Re trace - 1| <= TRACE_TOL.

    A matrix meets it through np.trace, coordinates through their scalar,
    which is exactly the trace of the matrix they encode.
    """
    tr = float(np.real(trace))
    if abs(tr - 1.0) > TRACE_TOL:
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
    grades: dict[int, dict] = {}
    scalar = 1.0
    for idx, val in zip(basis.indices, coeffs):
        if len(idx) == 0:
            scalar = float(val)
        elif val != 0.0:
            grades.setdefault(len(idx), {})[idx] = float(val)
    built = {k: AntisymTensor(basis.m, k, basis.side, v) for k, v in grades.items()}
    return StateCoords(m=basis.m, mode=basis.mode, scalar=scalar, grades=built)


def tensor_config(m: int, k: int, tensor: AntisymTensor, mode: str = "standard") -> np.ndarray:
    """Pure tensor configuration rho = 2^{-m} (I + G o E^{(k)})."""
    return encode(state_coords(m, mode=mode, scalar=1.0, grades={k: tensor}))


# ---------------------------------------------------------------------------
# wire format


def tensor_entries_to_json(tensor: AntisymTensor) -> list:
    return [{"idx": [int(i) for i in key], "val": float(v)} for key, v in sorted(tensor.items())]


def coords_to_json(coords: StateCoords) -> dict:
    return {
        "m": coords.m,
        "mode": coords.mode,
        "scalar": coords.scalar,
        "grades": {str(k): tensor_entries_to_json(t) for k, t in sorted(coords.grades.items())},
    }


def entry_list(entries, name: str) -> dict:
    """{tuple(idx): val} from the wire list [{"idx": [...], "val": x}, ...] in
    field name, or MalformedInput naming the entry that does not fit."""
    out = {}
    for n, e in enumerate(wire_field(entries, list, name)):
        try:
            if not isinstance(e["idx"], list):
                raise TypeError
            out[tuple(e["idx"])] = wire_field(e["val"], float, name)
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
            grade = int(k)
        except ValueError:
            raise MalformedInput(f"field 'grades': expected int keys, got {k!r:.60}") from None
        grades[grade] = entry_list(v, f"grades.{k}")
    return state_coords(m, mode=obj.get("mode", "standard"), grades=grades,
                        scalar=wire_field(obj.get("scalar", 1.0), float, "scalar"))

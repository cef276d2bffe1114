"""Codec between density matrices and graded antisymmetric tensor coordinates.

A state is expanded as

    rho = 2^{-m} * sum_k sum_{i1<..<ik} G_{i1..ik} E_{i1..ik}

with each increasing multi-index summed once and keyed by its bitmask
(clifford.index_mask): a grade is {mask: value} under one rule (check_grade),
in StateCoords and AntisymTensor alike; antisym builds one from index tuples.
Because the basis satisfies trace(E_A E_B) = 2^m delta_AB, the inverse map
is the plain trace projection G_A = trace(rho E_A), real for the hermitian
part (linalg.require_hermitian) that decode projects.  The scalar
coordinate equals the trace, so unit-trace states (the one rule:
require_unit_trace) have scalar 1.  Positivity is deliberately NOT
validated here; deciding it is the job of the domains module.  A record holds
wire_field's floats; a refusal is a GenblochError, which cli.run() reports (others propagate).
"""

from __future__ import annotations

import math

import numpy as np

from . import _is_int, clifford, sum_of_squares
from .errors import (
    BadIndex,
    DimensionMismatch,
    GradeMismatch,
    GradeOutOfRange,
    MalformedInput,
    NonFiniteResult,
    NonUnitTrace,
    ResourceLimit,
    _check_m,
    wire_field,
)
from .linalg import as_matrix, require_hermitian

TRACE_TOL = 1e-8


class AntisymTensor(clifford.Record):
    """Grade-k totally antisymmetric real array over indices 1..side: one grade's
    {mask: value}, as StateCoords holds it; items gives (increasing indices, value)
    pairs, odd permutations are implied by sign, absent masks are zero."""

    __slots__ = ("m", "k", "side", "values")

    def __init__(self, m: int, k: int, side: int, values: dict):
        _check_m(m)  # bounds side, and with it every mask
        if side not in (2 * m, 2 * m + 1):
            raise DimensionMismatch(f"side {side} invalid for m={m}")
        if not 1 <= wire_field(k, int, "k") <= side:
            raise GradeOutOfRange(f"grade {k} out of range 1..{side}")
        self._set(m, k, side, check_grade(k, side, values))

    def get(self, indices) -> float:
        """Signed component for an arbitrary order of k indices."""
        mask, sign = clifford.index_mask(indices, self.side)
        return sign * self.of_grade(len(indices)).values.get(mask, 0.0)

    def items(self):
        idx = clifford.mask_indices(list(self.values), self.k, self.side).tolist()
        return zip(map(tuple, idx), self.values.values())

    def norm_sq(self) -> float:
        """Sum of squares over the stored entries (the paper-style squared norm)."""
        return sum_of_squares(self.values.values())

    def scaled(self, s: float) -> "AntisymTensor":
        s = wire_field(s, float, "s")
        return AntisymTensor(self.m, self.k, self.side,
                             {key: s * v for key, v in self.values.items()})

    def of_grade(self, k: int) -> "AntisymTensor":
        """self, or GradeMismatch unless its grade is k."""
        if self.k != k:
            raise GradeMismatch(f"expected a grade-{k} tensor, got grade {self.k}")
        return self

    def as_matrix(self) -> np.ndarray:
        """Full antisymmetric side x side matrix (grade 2 only)."""
        entries = self.of_grade(2).values
        mat = np.zeros((self.side, self.side))
        i, j = clifford.mask_indices(list(entries), 2, self.side).T - 1
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
        return AntisymTensor(m, 2, side, {1 << i | 1 << j: mat[i, j] for i in range(side)
                                          for j in range(i + 1, side) if mat[i, j] != 0.0})


def check_grade(k: int, side: int, entries: dict) -> dict:
    """The one grade rule, giving the {mask: float} a record stores: BadIndex for a mask
    that is no int, GradeMismatch unless it sets k of bits 0..side-1, else wire_field's."""
    out = {}
    for mask, v in wire_field(entries, dict, f"grade {k}").items():
        if type(mask) is not int:
            raise BadIndex(f"grade {k}: mask {mask!r:.60} is no Python int")
        if mask >> side or mask.bit_count() != k:
            raise GradeMismatch(f"mask {mask} is not of grade {k} over 1..{side}")
        out[mask] = wire_field(v, float, lambda: f"value at mask {mask}")
    return out


def check_grade_keys(keys, m: int, mode: str) -> None:
    """GradeOutOfRange unless each grade k of a state is an int (genbloch._is_int)
    within 1..clifford.max_grade, ModeMismatch for an unknown mode."""
    top = clifford.max_grade(m, mode)
    for k in keys:
        if not (_is_int(k) and 1 <= k <= top):
            raise GradeOutOfRange(f"grade {k} out of range 1..{top} for mode {mode!r}")


def _grade_key(k) -> int:
    """A grade key as an int: an int that is no bool, or a str int() reads ("01" is 1)."""
    try:
        return int(k) if isinstance(k, str) else wire_field(k, int, "grades")
    except ValueError:  # MalformedInput is one
        raise MalformedInput(f"field 'grades': expected int keys, got {k!r:.60}") from None


def grade_entries(k: int, side: int, entries) -> dict:
    """{mask: value} of grade k over 1..side from a mapping {indices: value} or
    (indices, value) pairs, the indices in any order (clifford.index_mask): each
    value is signed by the permutation that sorts them, and the values of one
    index set are added, in input order, at the set's first place.  BadIndex for
    indices of another grade, MalformedInput for an entry that is no (indices,
    value) pair, a value the float rule refuses or a sum that is not finite."""
    slots: dict = {}
    for pair in entries.items() if isinstance(entries, (dict, AntisymTensor)) else entries:
        try:
            key, v = pair
        except (TypeError, ValueError):
            raise MalformedInput(f"grade {k}: expected (indices, value) pairs, "
                                 f"got {pair!r:.60}") from None
        key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
        mask, sign = clifford.index_mask(key, side)
        if len(key) != k:
            raise BadIndex(f"key {key} has grade {len(key)}, expected {k}")
        slots[mask] = slots.get(mask, 0.0) + sign * wire_field(v, float, lambda: f"value at {key}")
        if not math.isfinite(slots[mask]):
            raise MalformedInput(f"non-finite value at {tuple(sorted(key))}")
    return slots


def antisym(m: int, k: int, entries=None, side: int | None = None) -> AntisymTensor:
    """An AntisymTensor from any entries that grade_entries reads."""
    side = 2 * m if side is None else side
    return AntisymTensor(m, k, side, grade_entries(k, side, entries or {}))


def vector(m: int, components, side: int | None = None) -> AntisymTensor:
    """Grade-1 tensor from a dense component list."""
    side = 2 * m if side is None else side
    comps = [wire_field(c, float, f"component {i}") for i, c in enumerate(components, 1)]
    if len(comps) != side:
        raise DimensionMismatch(f"expected {side} components, got {len(comps)}")
    return antisym(m, 1, [((i + 1,), c) for i, c in enumerate(comps) if c != 0.0], side)


class StateCoords(clifford.Record):
    """The dual coordinates of a state: the scalar and, per grade k, its
    {mask: value} entries (check_grade) in input order.  A grade stays
    present when it holds no entry or only zeros."""

    __slots__ = ("m", "mode", "scalar", "grades")

    def __init__(self, m: int, mode: str, scalar: float, grades: dict):
        _check_m(m)
        scalar = wire_field(scalar, float, "scalar")
        check_grade_keys(wire_field(grades, dict, "grades"), m, mode)
        side = clifford.side(m, mode)
        self._set(m, mode, scalar, {k: check_grade(k, side, g) for k, g in grades.items()})

    @property
    def side(self) -> int:
        return clifford.side(self.m, self.mode)

    def grade(self, k: int) -> AntisymTensor:
        """Grade k as an AntisymTensor of the record's own entries, empty when it holds none."""
        return AntisymTensor(self.m, k, self.side, self.grades.get(k, {}))

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
    _check_m(m)  # before any index is held to the side m gives
    side = clifford.side(m, mode)
    items: dict = {}
    grades = wire_field(grades or {}, dict, "grades")
    keys = [_grade_key(k) for k in grades]
    check_grade_keys(keys, m, mode)  # before any entry is read
    for k, g in zip(keys, grades.values()):
        if isinstance(g, AntisymTensor) and (g.of_grade(k).side != side or g.m != m):
            raise DimensionMismatch(f"tensor at grade {k} has wrong shape metadata")
        if not isinstance(g, AntisymTensor) and not hasattr(g, "__iter__"):
            raise MalformedInput(f"grade {k}: expected (indices, value) pairs, got {g!r:.60}")
        # keys such as 1 and "01" name one grade, whose entries all add up
        items.setdefault(k, []).extend(g.items() if isinstance(g, (dict, AntisymTensor)) else g)
    built = {k: grade_entries(k, side, entries) for k, entries in items.items()}
    return StateCoords(m=m, mode=mode, scalar=scalar, grades=built)


def encode(coords: StateCoords) -> np.ndarray:
    """Density-matrix representation: 2^{-m} sum of G_A E_A over increasing indices."""
    coords = wire_field(coords, StateCoords, "coords")
    return encode_grades(coords.m, coords.scalar, coords.grades)


def encode_grades(m: int, scalar: float, grades: dict, check_trace: bool = True):
    """encode of a state's parts, or of a stack's with an (n,) column per mask, in either
    mode through the extended table (clifford).  With check_trace: ResourceLimit unless
    each trace lies within TRACE_TOL of the scalar, then NonFiniteResult if an entry overflowed."""
    basis = clifford.cached_basis(m, "extended")
    coeffs = {0: scalar}
    for entries in grades.values():
        coeffs.update(entries)
    rho = basis.expand(coeffs) / basis.dim
    if check_trace:
        if not np.all(abs(np.trace(rho, axis1=-2, axis2=-1).real - scalar) <= TRACE_TOL):
            raise ResourceLimit("encoding these coordinates rounds their trace away "
                                "(input beyond floating-point range?)")
        if not np.isfinite(rho).all():
            raise NonFiniteResult()
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
    return StateCoords(m=basis.m, mode=basis.mode, scalar=coeffs[0], grades=grades)


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
            out.append((tuple(wire_field(e["idx"], list, name)), wire_field(e["val"], float, name)))
        except (KeyError, TypeError, ValueError):
            raise MalformedInput(f"field '{name}[{n}]': expected "
                                 f"{{idx: list, val: number}}, got {e!r:.60}") from None
    return out


def coords_from_json(obj) -> StateCoords:
    obj = wire_field(obj, dict, "coords")
    m = wire_field(obj.get("m"), int, "m")
    grades = {}
    for k, v in wire_field(obj.get("grades") or {}, dict, "grades").items():
        _grade_key(k)  # a key is refused before its entries are read
        grades[k] = entry_list(v, f"grades.{k}")
    return state_coords(m, mode=obj.get("mode", "standard"), grades=grades,
                        scalar=wire_field(obj.get("scalar", 1.0), float, "scalar"))

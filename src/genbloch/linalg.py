"""Dense complex linear algebra kernels.

The one hermiticity rule (require_hermitian), LAPACK eigenvalues of the
hermitian part (``numpy.linalg.eigvalsh``; ``eigh`` only for exp(-i H))
and the JSON field reader, all on ``complex128`` numpy arrays.

The eigenvalues are the ground-truth oracle used to validate every
closed-form spectrum elsewhere in the package, and the one engine behind
positivity verdicts of general states.  They share
no code with the normal-form spectra or with the characteristic polynomial
of the identities module: the routes stay independently checkable against
each other.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DimensionMismatch, MalformedInput, NotHermitian

HERM_TOL = 1e-10


def _as_square(a) -> np.ndarray:
    """Coerce to complex128 with square trailing dims, validating finiteness."""
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError):
        raise MalformedInput(f"expected a numeric matrix, got {a!r:.60}") from None
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise MalformedInput("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array, validating shape and finiteness."""
    m = _as_square(a)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def require_hermitian(a) -> np.ndarray:
    """The package's one hermiticity rule, for a matrix or a (..., n, n) stack:
    NotHermitian unless max|a - a^dagger| <= HERM_TOL * max(1, max|a|) per matrix.
    Returns a itself when exactly hermitian (LAPACK's rounding sees its signed
    zeros), else the hermitian part a/2 + a^dagger/2, which cannot overflow."""
    a = _as_square(a)
    adj = np.swapaxes(a, -1, -2).conj()
    with np.errstate(over="ignore"):  # an inf residual is above any bound
        res = np.max(np.abs(a - adj), axis=(-2, -1), initial=0.0)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    bad = np.flatnonzero(res > HERM_TOL * scale)
    if bad.size:
        res, scale = np.ravel(res)[bad[0]], np.ravel(scale)[bad[0]]
        raise NotHermitian(f"hermiticity residual {res:.3e} exceeds {HERM_TOL:.1e} * {scale:.3e}")
    return a / 2 + adj / 2 if res.any() else a


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of the hermitian part of a matrix (..., n for a stack)."""
    return np.linalg.eigvalsh(require_hermitian(h))


def exp_minus_i_hermitian(h) -> np.ndarray:
    """exp(-i H) for hermitian H via its LAPACK eigendecomposition."""
    w, v = np.linalg.eigh(require_hermitian(h))
    return (v * np.exp(-1j * w)) @ v.conj().T


def matrix_to_json(a) -> dict:
    """Wire format: {"dim": n, "entries": [[re, im], ...]} row-major."""
    m = as_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"dim": int(m.shape[0]), "entries": entries}


def wire_field(value, kind: type, name: str):
    """A JSON field as kind (dict, list, float by float(), int by operator.index, which
    refuses 2.0, "2" and True), or MalformedInput naming the field; a library entry
    point reads its record arguments (StateCoords, AntisymTensor, CliffordBasis) here
    too.  Every number of an input is read here; a float refuses True, an int beyond
    float range and a value that is not finite (json.load reads Infinity, NaN and 1e400), too."""
    try:
        out = operator.index(value) if kind is int else float(value) if kind is float else value
        if (isinstance(out, kind) and not isinstance(value, bool)
                and (kind is not float or math.isfinite(out))):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise MalformedInput(f"field {name!r}: expected {kind.__name__}, got {value!r:.60}")


def matrix_from_json(obj, dim_rule=None) -> np.ndarray:
    """The matrix of the wire format.  Its dim is held to dim_rule, when given
    (a state's to clifford.m_from_dim), and the count of its entries to dim^2
    before any entry is read."""
    obj = wire_field(obj, dict, "matrix")
    dim = wire_field(obj.get("dim"), int, "dim")
    entries = wire_field(obj.get("entries"), list, "entries")
    if dim_rule is not None:
        dim_rule(dim)
    try:
        if len(entries) != dim * dim:
            raise ValueError
        flat = np.array([complex(wire_field(re, float, "entries"), wire_field(im, float, "entries"))
                         for re, im in entries], dtype=complex).reshape(dim, dim)
    except MalformedInput:
        raise
    except (TypeError, ValueError):
        raise MalformedInput(f"field 'entries': expected {dim} x {dim} [re, im] pairs "
                             f"of numbers, got {len(entries)} entries") from None
    return as_matrix(flat)

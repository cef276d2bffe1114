"""Dense complex linear algebra kernels.

Hermitian eigensystems (LAPACK, through ``numpy.linalg.eigh``) and
Faddeev-LeVerrier characteristic polynomials.
Everything operates on plain ``complex128`` numpy arrays.

The eigensolver is the ground-truth oracle used to validate every
closed-form spectrum elsewhere in the package, and the one engine behind
positivity verdicts of general states and matrix exponentials.  It shares
no code with the characteristic-polynomial path or with the normal-form
spectra: the routes stay independently checkable against each other.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import NotHermitian


def _as_square(a) -> np.ndarray:
    """Coerce to complex128 with square trailing dims, validating finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array, validating shape and finiteness."""
    m = _as_square(a)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_residual(a: np.ndarray):
    """Max-norm of a - a^dagger; one value per matrix of a (..., n, n) stack."""
    res = np.max(np.abs(a - np.swapaxes(a, -1, -2).conj()), axis=(-2, -1), initial=0.0)
    return float(res) if a.ndim == 2 else res


def _check_hermitian(a: np.ndarray, tol: float) -> np.ndarray:
    """Raise NotHermitian unless every matrix of the stack has residual < tol * max(1, |a|)."""
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    res = hermiticity_residual(a)
    bad = np.flatnonzero(res >= tol * scale)
    if bad.size:
        res, scale = np.ravel(res)[bad[0]], np.ravel(scale)[bad[0]]
        raise NotHermitian(f"hermiticity residual {res:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return a


def require_hermitian(a, tol: float = 1e-10) -> np.ndarray:
    return _check_hermitian(as_matrix(a), tol)


def hermitian_eigensystem(h):
    """Eigenvalues (ascending) and eigenvector columns (LAPACK) of a hermitian
    matrix, or of each matrix of a (..., n, n) stack; every matrix is checked."""
    return np.linalg.eigh(_check_hermitian(_as_square(h), 1e-12))


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending real eigenvalues of a hermitian matrix (..., n for a stack)."""
    return hermitian_eigensystem(h)[0]


def char_poly(a, herm_tol: float = 1e-10) -> np.ndarray:
    """Coefficients of det(A - lambda I), ascending powers of lambda.

    Faddeev-LeVerrier recursion; requires hermitian input so the
    coefficients are real.  The imaginary residue of every coefficient is
    checked against 1e-10 (relative to the coefficient scale) before
    truncating to real.
    """
    a = require_hermitian(a, herm_tol)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    m = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs[n - k] = c
        m = am + c * np.eye(n, dtype=complex)
    # Faddeev-LeVerrier yields det(lambda I - A); det(A - lambda I) flips by (-1)^n.
    if n % 2 == 1:
        coeffs = -coeffs
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    imag_res = float(np.max(np.abs(coeffs.imag)))
    if imag_res > 1e-10 * scale:
        raise NotHermitian(f"characteristic polynomial has imaginary residue {imag_res:.3e}")
    return coeffs.real.copy()


def exp_i_hermitian(h, sign: int = 1) -> np.ndarray:
    """exp(sign * i * H) for hermitian H via its eigendecomposition."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    w, v = hermitian_eigensystem(h)
    phases = np.exp(1j * sign * w)
    return (v * phases) @ v.conj().T


def matrix_to_json(a) -> dict:
    """Wire format: {"dim": n, "entries": [[re, im], ...]} row-major."""
    m = as_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"dim": int(m.shape[0]), "entries": entries}


def as_int(value) -> int:
    """An integer field: operator.index of value, so 2.0, "2" and True are refused."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = as_int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return as_matrix(flat.reshape(dim, dim))

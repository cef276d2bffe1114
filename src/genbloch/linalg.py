"""Dense complex linear algebra kernels.

Kronecker products, a cyclic Jacobi eigensolver for hermitian matrices
and Faddeev-LeVerrier characteristic polynomials. Everything operates on
plain ``complex128`` numpy arrays.

The Jacobi solver is the ground-truth oracle used to validate every
closed-form spectrum elsewhere in the package, so it deliberately shares
no code with the characteristic-polynomial path or with the normal-form
spectra: the routes stay independently checkable against each other.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, NotHermitian

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array, validating shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


def hermiticity_residual(a: np.ndarray) -> float:
    """Max-norm of a - a^dagger."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    a = as_matrix(a)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    res = hermiticity_residual(a)
    if res >= tol * scale:
        raise NotHermitian(f"hermiticity residual {res:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product with block layout (i*dimB + k, j*dimB + l) = A[i,j] B[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def _jacobi(h: np.ndarray, tol: float):
    """Cyclic-by-row complex Jacobi diagonalization.

    Each (p, q) rotation is the unitary J = Phi(p) . R(theta) that zeroes
    H[p, q]:  Phi strips the phase of the pivot, R is the classical real
    rotation with tan(theta) the stable root of t^2 + 2*tau*t - 1 = 0,
    tau = (H[q,q] - H[p,p]) / (2 |H[p,q]|).

    Returns (eigenvalues ascending, eigenvector columns in matching order).
    """
    n = h.shape[0]
    a = h.astype(complex).copy()
    v = np.eye(n, dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real]), v
    scale = max(1.0, float(np.linalg.norm(h)))
    target = tol * scale

    def off_norm():
        return math.sqrt(2.0 * sum(abs(a[i, j]) ** 2 for i in range(n) for j in range(i + 1, n)))

    cap = JACOBI_MAX_SWEEPS
    sweeps = 0
    while off_norm() >= target:
        if sweeps >= cap:
            raise NoConvergence(
                f"Jacobi did not reach off-norm {target:.3e} in {cap} sweeps"
            )
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                hpq = a[p, q]
                mag = abs(hpq)
                if mag < 1e-300:
                    continue
                phi = hpq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = 1.0 if tau == 0.0 else math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                app = a[p, p].real - t * mag
                aqq = a[q, q].real + t * mag
                # columns: col_p' = phi*c*col_p - s*col_q ; col_q' = phi*s*col_p + c*col_q
                colp, colq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = phi * c * colp - s * colq
                a[:, q] = phi * s * colp + c * colq
                # rows (left-multiply by J^dagger)
                rowp, rowq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = np.conj(phi) * c * rowp - s * rowq
                a[q, :] = np.conj(phi) * s * rowp + c * rowq
                a[p, p] = app
                a[q, q] = aqq
                a[p, q] = 0.0
                a[q, p] = 0.0
                colp, colq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = phi * c * colp - s * colq
                v[:, q] = phi * s * colp + c * colq
    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def hermitian_eigensystem(h, tol: float = JACOBI_TOL):
    """Eigenvalues (ascending) and eigenvectors of a hermitian matrix."""
    h = as_matrix(h)
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 0.0)
    if hermiticity_residual(h) >= tol * scale:
        raise NotHermitian("matrix is not hermitian within tol")
    return _jacobi(h, tol)


def hermitian_eigenvalues(h, tol: float = JACOBI_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a hermitian matrix via cyclic Jacobi."""
    return hermitian_eigensystem(h, tol)[0]


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


def exp_i_hermitian(h, sign: int = 1, tol: float = JACOBI_TOL) -> np.ndarray:
    """exp(sign * i * H) for hermitian H via the Jacobi eigendecomposition."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    w, v = hermitian_eigensystem(h, tol)
    phases = np.exp(1j * sign * w)
    return (v * phases) @ v.conj().T


def matrix_to_json(a) -> dict:
    """Wire format: {"dim": n, "entries": [[re, im], ...]} row-major."""
    m = as_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"dim": int(m.shape[0]), "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return as_matrix(flat.reshape(dim, dim))

"""Independent reference for checking genbloch answers.

Nothing here imports genbloch.  Basis elements are built symbolically as
phased Pauli strings (the generator layout of the Pauli iteration written
out in closed form), turned into matrices from their X/Z bit masks, and
states are decided with ``numpy.linalg.eigvalsh``.  The conventions follow
the documented ones:

* generators for m qubits: for j = 0..m-1,
  Gamma_{2j+1} = I^j (x) (X if j == 0 else Y) (x) X^(m-1-j) and
  Gamma_{2j+2} = I^j (x) (Y if j == 0 else Z) (x) X^(m-1-j);
* E_A = i^{k(k-1)/2} Gamma_{i1} ... Gamma_{ik} for increasing A;
* extended mode appends Gamma_{2m+1} = (-i)^m Gamma_1 ... Gamma_{2m};
* rho = 2^-m (scalar I + sum_A G_A E_A), so G_A = Re tr(rho E_A).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

I, X, Y, Z = 0, 1, 2, 3
# single-qubit products P_a P_b = i^p P_c, as (p, c)
_MUL = {}
for _a in range(4):
    _MUL[(I, _a)] = (0, _a)
    _MUL[(_a, I)] = (0, _a)
    _MUL[(_a, _a)] = (0, I)
for _a, _b, _c in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
    _MUL[(_a, _b)] = (1, _c)
    _MUL[(_b, _a)] = (3, _c)

# Either verdict is accepted when |2^m lambda_min| is within this margin.
Z_MARGIN = 1e-6
SPECTRUM_TOL = 1e-9
COORD_TOL = 1e-9


def _mul(p, q):
    """Product of phased strings (phase power of i, tuple of Pauli codes)."""
    phase = p[0] + q[0]
    out = []
    for a, b in zip(p[1], q[1]):
        ph, c = _MUL[(a, b)]
        phase += ph
        out.append(c)
    return phase % 4, tuple(out)


@lru_cache(maxsize=None)
def generators(m: int, extended: bool = False) -> tuple:
    gens = []
    for j in range(m):
        for first, later in ((X, Y), (Y, Z)):
            s = [I] * j + [first if j == 0 else later] + [X] * (m - 1 - j)
            gens.append((0, tuple(s)))
    if extended:
        prod = (0, (I,) * m)
        for g in gens:
            prod = _mul(prod, g)
        gens.append(((prod[0] + 3 * m) % 4, prod[1]))
    return tuple(gens)


def side(m: int, mode: str) -> int:
    return 2 * m if mode == "standard" else 2 * m + 1


@lru_cache(maxsize=None)
def index_set(m: int, mode: str) -> tuple:
    """Every increasing multi-index of the orthogonal family, grade 0 first."""
    n = side(m, mode)
    top = 2 * m if mode == "standard" else m
    return tuple(idx for k in range(top + 1) for idx in itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def element_string(m: int, mode: str, idx: tuple) -> tuple:
    gens = generators(m, mode == "extended")
    prod = (0, (I,) * m)
    for i in idx:
        prod = _mul(prod, gens[i - 1])
    k = len(idx)
    return (prod[0] + k * (k - 1) // 2) % 4, prod[1]


def _masks(string: tuple) -> tuple:
    m = len(string)
    x = z = 0
    n_y = 0
    for q, p in enumerate(string):
        bit = 1 << (m - 1 - q)
        if p in (X, Y):
            x |= bit
        if p in (Y, Z):
            z |= bit
        n_y += p == Y
    return x, z, n_y


@lru_cache(maxsize=None)
def _sign_table(m: int) -> np.ndarray:
    """(-1)^popcount(z & c) for every z and column c."""
    c = np.arange(2 ** m)
    par = np.zeros((2 ** m, 2 ** m), dtype=np.int64)
    for zz in range(2 ** m):
        v = zz & c
        cnt = np.zeros_like(v)
        while np.any(v):
            cnt += v & 1
            v >>= 1
        par[zz] = cnt & 1
    return 1.0 - 2.0 * par


def _placement(m: int, mode: str, idx: tuple):
    """(rows, cols, values) of the single nonzero per column of E_idx."""
    phase, string = element_string(m, mode, idx)
    x, z, n_y = _masks(string)
    cols = np.arange(2 ** m)
    vals = (1j ** ((phase + n_y) % 4)) * _sign_table(m)[z]
    return cols ^ x, cols, vals


def element(m: int, idx, mode: str = "standard") -> np.ndarray:
    rows, cols, vals = _placement(m, mode, tuple(idx))
    out = np.zeros((2 ** m, 2 ** m), dtype=complex)
    out[rows, cols] = vals
    return out


def encode(m: int, mode: str, scalar: float, coords: dict) -> np.ndarray:
    """rho from {increasing index tuple: value}."""
    dim = 2 ** m
    rho = scalar * np.eye(dim, dtype=complex)
    for idx, val in coords.items():
        if val != 0.0:
            rows, cols, vals = _placement(m, mode, tuple(idx))
            rho[rows, cols] += val * vals
    return rho / dim


def decode(rho: np.ndarray, mode: str = "standard") -> tuple:
    """(scalar, {idx: G_idx}) for every nonzero-grade index of the family."""
    dim = rho.shape[0]
    m = int(round(math.log2(dim)))
    coeffs = {}
    scalar = 1.0
    for idx in index_set(m, mode):
        rows, cols, vals = _placement(m, mode, idx)
        # tr(rho E) = sum_c rho[c, r(c)] E[r(c), c]
        val = float(np.real(np.sum(rho[cols, rows] * vals)))
        if idx:
            coeffs[idx] = val
        else:
            scalar = val
    return scalar, coeffs


def z_min(rho: np.ndarray) -> float:
    """2^m times the smallest eigenvalue: order one for any state."""
    return float(rho.shape[0] * np.linalg.eigvalsh(rho)[0])


def verdict_ok(z: float, admissible: bool) -> bool:
    """Whether an admissibility verdict is right for a state with this z_min."""
    if abs(z) <= Z_MARGIN:
        return True
    return admissible == (z > 0.0)


def antisym_matrix(n: int, entries: dict) -> np.ndarray:
    a = np.zeros((n, n))
    for (i, j), v in entries.items():
        a[i - 1, j - 1] = v
        a[j - 1, i - 1] = -v
    return a


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian by Parlett-Reid style Gaussian elimination with pivoting."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n % 2:
        return 0.0
    pf = 1.0
    for k in range(0, n - 1, 2):
        p = k + 1 + int(np.argmax(np.abs(a[k, k + 1:])))
        if p != k + 1:
            a[[k + 1, p], :] = a[[p, k + 1], :]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            pf = -pf
        if a[k, k + 1] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2:] / a[k, k + 1]
            # eliminate the couplings of rows k+2.. to k via row/column k+1
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return float(pf)


def invariants(side_n: int, g2: dict) -> dict:
    """r, T4 and (side 6) D3 = 48 Pf of a grade-2 tensor."""
    a = antisym_matrix(side_n, g2)
    gtg = a.T @ a
    out = {"r": float(sum(v * v for v in g2.values())), "T4": float(np.trace(gtg @ gtg))}
    out["D3"] = 48.0 * pfaffian(a) if side_n == 6 else None
    out["pfaffian"] = pfaffian(a) if side_n in (4, 6) else None
    return out


def expm_antisym(a: np.ndarray) -> np.ndarray:
    """exp(A) for real antisymmetric A through the hermitian matrix iA."""
    w, v = np.linalg.eigh(1j * a)
    return np.real((v * np.exp(-1j * w)) @ v.conj().T)


def rotation_matrix(side_n: int, alpha: dict) -> np.ndarray:
    """L = exp(A) with A[j, i] = +alpha_ij for i < j."""
    return expm_antisym(-antisym_matrix(side_n, alpha))


def rt4_admissible(r: float, t4: float, tol: float = 1e-9):
    """Verdict of the (r, T4) inequality; None within tol of its boundary."""
    lower = max((r + 1.0) ** 2 - 2.0, 0.0)
    upper = 2.0 * r * r
    slack = min(1.0 - r, upper - t4, t4 - lower)
    if abs(slack) <= tol:
        return None
    return slack > 0.0


def tunnel_states(points: np.ndarray) -> np.ndarray:
    """Stack of m = 2 states with G_12 = x, G_34 = y, G_23 = z."""
    e12, e34, e23 = (element(2, idx) for idx in ((1, 2), (3, 4), (2, 3)))
    x, y, z = (points[:, i, None, None] for i in range(3))
    return (np.eye(4) + x * e12 + y * e34 + z * e23) / 4.0

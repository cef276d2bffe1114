"""Closed-form probability spectra of the so(2m+2) family of states.

The family is the scalar with the extended-mode grades 1 and 2 over the
2m + 1 indices, v and the matrix G, or the standard-mode grades 1, 2, 2m - 1
and 2m, which are the same coordinates through E_{1..2m} = (-1)^m E_{2m+1}
and E_{1..2m minus a} = (-1)^{a+1} E_{a,2m+1}; every state at m <= 2 is in
it.  Such a state is a quadratic form in 2m + 2 Majorana operators on one
chirality, so with mu_0..mu_m the paired singular values of the bordered
matrix M = [[0, v^T], [-v, G]] the eigenvalues of rho = 2^{-m}(c I + X) are

    lambda_s = (c + sum_k s_k mu_k) / 2^m

over the 2^m sign vectors s with prod_k s_k = (-1)^m sign Pf(M), exactly,
at every m and scalar c (Bravyi, quant-ph/0404180).  A vector has
mu = (|v|, 0, ..., 0), the doublet (c +- |v|) / 2^m; a grade-2 tensor alone
has Pf(M) = 0.  The paper's quartet polynomials of these values are checked
claims of the identities module.

bordered_parts writes M from the grades of one state or of a stack,
normal_form gives its (mu, Pf M), with the package's one Pfaffian
(pfaffian), for closed_form_spectrum, domains.lowest_eigenvalues and the
invariants report, and sign_sums gives the eigenvalues, row by row.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import Record, m_from_dim
from .coords import StateCoords, require_unit_trace, sum_of_squares
from .errors import DimensionMismatch, GradeMismatch, KindMismatch
from .linalg import as_matrix, hermitian_eigenvalues, wire_field

CLUSTER_TOL = 1e-8


class Spectrum(Record):
    """Sorted eigenvalues with their multiplet structure."""

    __slots__ = ("m", "eigenvalues", "multiplets")

    def __init__(self, m: int, eigenvalues: np.ndarray, multiplets: list):
        self._set(m, eigenvalues, multiplets)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "multiplets": [[v, k] for v, k in self.multiplets],
        }


def spectrum_from_values(m: int, values) -> Spectrum:
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size != 2 ** m:
        raise GradeMismatch(f"expected {2 ** m} eigenvalues, got {vals.size}")
    # a multiplet is each run of the sorted values between gaps above CLUSTER_TOL
    runs = np.split(vals, np.flatnonzero(np.diff(vals) > CLUSTER_TOL) + 1)
    return Spectrum(m=m, eigenvalues=vals,
                    multiplets=[(float(np.mean(run)), run.size) for run in runs])


def numeric_spectrum(rho) -> Spectrum:
    """Oracle spectrum of a unit-trace density matrix (LAPACK eigensolver)."""
    rho = as_matrix(rho)
    m = m_from_dim(rho.shape[0])
    vals = hermitian_eigenvalues(rho)
    require_unit_trace(np.trace(rho))
    return spectrum_from_values(m, vals)


def sign_sums(scalar, mu, pf) -> np.ndarray:
    """Sorted eigenvalues (scalar + sum_k s_k mu_k) / 2^m over the 2^m sign
    vectors s with prod_k s_k = (-1)^m sign pf, taken as (-1)^m when pf is 0.

    mu is a (..., m + 1) array of normal-form amplitudes and pf the (...)
    Pfaffians of normal_form; the result is (..., 2^m).  Each sum
    is added left to right, elementwise, so a stack gives each state's own
    values bit for bit.
    """
    m = mu.shape[-1] - 1
    bits = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
    # s_0..s_{m-1} run over every sign vector; s_m makes the product the chirality
    chirality = (-1) ** m * np.where(np.asarray(pf) < 0, -1, 1)
    last = chirality[..., None] * (1 - 2 * (bits.sum(axis=1) % 2))
    total = 0.0
    for k in range(m):
        total = total + (1 - 2 * bits[:, k]) * mu[..., k, None]
    total = total + last * mu[..., m, None]
    return np.sort((scalar + total) / 2 ** m, axis=-1)


def pfaffian(a):
    """Pfaffian of a real antisymmetric matrix, or of each one of a (..., n, n) stack.

    Parlett-Reid elimination with pivoting (Wimmer, arXiv:1102.3440), O(n^3):
    step k swaps rows and columns k + 1 and p in place, p the row of the largest
    entry of column k below the diagonal (which negates the Pfaffian when
    p != k + 1), and eliminates with it; the Pfaffian is the product of the
    pivots.  Every operation is elementwise across the stack, so a stack gives
    each matrix's own value bit for bit.  Side 0 gives 1 and an odd side 0.
    """
    a = np.array(a, dtype=float)
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise DimensionMismatch("pfaffian requires square matrices")
    if n % 2:
        return np.zeros(a.shape[:-2])[()]
    stack = a.reshape((math.prod(a.shape[:-2]), n, n))
    pf = np.ones(len(stack))
    zero = np.zeros(len(stack), dtype=bool)
    each = np.arange(len(stack))
    for k in range(0, n, 2):
        p = k + 1 + np.argmax(np.abs(stack[:, k + 1:, k]), axis=1)
        stack[each, k + 1], stack[each, p] = stack[each, p], stack[each, k + 1]
        stack[each, :, k + 1], stack[each, :, p] = stack[each, :, p], stack[each, :, k + 1]
        pivot = stack[:, k, k + 1]
        zero |= pivot == 0.0
        pf = np.where(p != k + 1, -pf, pf) * pivot
        tau = stack[:, k, k + 2:] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
        col = stack[:, k + 2:, k + 1]
        tail = stack[:, k + 2:, k + 2:] + tau[:, :, None] * col[:, None, :]
        stack[:, k + 2:, k + 2:] = tail - col[:, :, None] * tau[:, None, :]
    # a zero pivot leaves a zero column: the Pfaffian is 0 (and not 0 * inf)
    return np.where(zero, 0.0, pf).reshape(a.shape[:-2])[()] + 0.0


def bordered_parts(m: int, mode: str, grades: dict):
    """The bordered matrix M = [[0, v^T], [-v, G]] of states in the so(2m+2)
    family, shape (..., 2m + 2, 2m + 2), else None.

    grades is {k: {mask: value}} as StateCoords holds it, or for a stack of
    states sharing (m, mode) an (n,) column per mask.  A grade counts when it
    holds a nonzero value.  An entry over one of the 2m + 1 extended indices
    goes into row and column 0 (v), one over two into the block (G), and the
    standard grades 2m - 1 and 2m go there through their complements.
    """
    n, standard = 2 * m + 1, mode == "standard"
    first = next((x for entries in grades.values() for x in entries.values()), 0.0)
    shape = getattr(first, "shape", ())
    nonzero = np.any if shape else bool
    active = [k for k, entries in sorted(grades.items()) if any(map(nonzero, entries.values()))]
    if not set(active) <= ({1, 2, 2 * m - 1, 2 * m} if standard else {1, 2}):
        return None
    bordered = np.zeros(shape + (n + 1, n + 1))
    for k in active:
        for mask, x in grades[k].items():
            if standard and k >= max(2, 2 * m - 1):  # to the complement (module docstring)
                a = (mask ^ (1 << (n - 1)) - 1).bit_length()
                mask, x = mask ^ (1 << n) - 1, (-1) ** (m if k == 2 * m else a + 1) * x
            low, high = (mask & -mask).bit_length(), mask.bit_length()
            low = 0 if low == high else low  # a vector entry borders row and column 0
            bordered[..., low, high], bordered[..., high, low] = x, -x
    bordered[..., 1:, 0] = -bordered[..., 0, 1:]  # -v whole: an absent entry is -0.0 there
    return bordered


def normal_form(m: int, mode: str, grades: dict):
    """(mu, Pf M) of the bordered matrix M of the so(2m+2) family's grades
    (bordered_parts), else None: M's paired singular values mu_0 >= ... >= mu_m,
    shape (..., m + 1), and its Pfaffian, shape (...).

    When M's block G is zero in every state, M has rank 2 and mu is (|v|, 0,
    ..., 0), |v| the square root of v's squares added left to right, so the
    doublet comes out exact.
    """
    bordered = bordered_parts(m, mode, grades)
    if bordered is None:
        return None
    if bordered[..., 1:, 1:].any():
        mu = np.linalg.svd(bordered, compute_uv=False)[..., ::2]
    else:
        mu = np.zeros(bordered.shape[:-2] + (m + 1,))
        mu[..., 0] = np.sqrt(sum_of_squares(np.moveaxis(bordered[..., 0, 1:], -1, 0)))
    return mu, pfaffian(bordered)


def closed_form_spectrum(coords: StateCoords) -> Spectrum:
    """Closed-form spectrum of a state of the so(2m+2) family (see bordered_parts)."""
    coords = wire_field(coords, StateCoords, "coords")
    normal = normal_form(coords.m, coords.mode, coords.grades)
    if normal is None:
        raise KindMismatch("no closed form: input is outside the so(2m+2) family "
                           "(grades 1, 2, 2m-1, 2m; extended grades 1, 2)")
    return spectrum_from_values(coords.m, sign_sums(coords.scalar, *normal))

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
has Pf(M) = 0, and at m = 2 mu = ((a_+ + a_-) / 2, |a_+ - a_-| / 2, 0) of
the paper's tunnel lengths a_pm (genbloch.tunnel_amplitudes), so its region
is the pair of elliptic tunnels a_pm <= 1.  The paper's quartet polynomials
of these values are checked claims of the tests (tests/claims.py), outside
the package.

bordered_parts writes M from the grades of one state or of a stack in either
mode, normal_form gives its mu and sign Pf M, with the package's one Pfaffian
(pfaffian), for closed_form_spectrum, domains.lowest_eigenvalues and the
invariants report, and sign_sums gives the eigenvalues, row by row.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import sum_of_squares, tunnel_amplitudes
from .clifford import Record, m_from_dim
from .coords import StateCoords, require_unit_trace
from .errors import DimensionMismatch, GradeMismatch, KindMismatch, wire_field
from .linalg import as_matrix, hermitian_eigenvalues

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
    Pfaffian fractions of normal_form; the result is (..., 2^m).  Each sum
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
    pivots, carried as np.frexp's fraction and binary exponent (_pfaffian_parts)
    and joined once, so it is the plain product's bits wherever that stays in
    range.  Every operation is elementwise across the stack, so a stack gives
    each matrix's own value bit for bit.  Side 0 gives 1 and an odd side 0.
    """
    return np.ldexp(*_pfaffian_parts(a)) + 0.0


def _pfaffian_parts(a):
    """(f, e) with Pf(a) = f 2^e, f 0 or 0.5 <= |f| < 1 and e an integer, of one
    matrix or each of a stack (pfaffian): f keeps the Pfaffian's sign at any scale."""
    a = np.array(a, dtype=float)
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise DimensionMismatch("pfaffian requires square matrices")
    shape = a.shape[:-2]
    if n % 2:
        return np.zeros(shape)[()], 0
    stack = a.reshape((math.prod(shape), n, n))
    pf, exponent = np.ones(len(stack)), np.zeros(len(stack), dtype=int)
    zero = np.zeros(len(stack), dtype=bool)
    each = np.arange(len(stack))
    for k in range(0, n, 2):
        p = k + 1 + np.argmax(np.abs(stack[:, k + 1:, k]), axis=1)
        stack[each, k + 1], stack[each, p] = stack[each, p], stack[each, k + 1]
        stack[each, :, k + 1], stack[each, :, p] = stack[each, :, p], stack[each, :, k + 1]
        pivot = stack[:, k, k + 1]
        zero |= pivot == 0.0
        fraction, shift = np.frexp(pivot)
        pf, carry = np.frexp(np.where(p != k + 1, -pf, pf) * fraction)
        exponent += shift + carry
        tau = stack[:, k, k + 2:] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
        col = stack[:, k + 2:, k + 1]
        tail = stack[:, k + 2:, k + 2:] + tau[:, :, None] * col[:, None, :]
        stack[:, k + 2:, k + 2:] = tail - col[:, :, None] * tau[:, None, :]
    # a zero pivot leaves a zero column: the Pfaffian is 0 (and not 0 * inf)
    return np.where(zero, 0.0, pf).reshape(shape)[()], exponent.reshape(shape)[()]


def bordered_parts(m: int, grades: dict):
    """The bordered matrix M = [[0, v^T], [-v, G]] of states in the so(2m+2)
    family, shape (..., 2m + 2, 2m + 2), else None.

    grades is {k: {mask: value}} as StateCoords holds it in either mode, or for a
    stack of states sharing m an (n,) column per mask.  A grade counts when it holds
    a nonzero value; the family is every grade k <= 2 or k >= 2m - 1.  An entry over
    one of the 2m + 1 extended indices goes into row and column 0 (v), one over two
    into the block (G), and one of a grade k > m (a standard one) via its complement.
    """
    n = 2 * m + 1
    first = next((x for entries in grades.values() for x in entries.values()), 0.0)
    shape = getattr(first, "shape", ())
    nonzero = np.any if shape else bool
    active = [k for k, entries in sorted(grades.items()) if any(map(nonzero, entries.values()))]
    if any(2 < k < 2 * m - 1 for k in active):
        return None
    bordered = np.zeros(shape + (n + 1, n + 1))
    for k in active:
        for mask, x in grades[k].items():
            if k > m:  # to the complement (module docstring)
                a = (mask ^ (1 << (n - 1)) - 1).bit_length()
                mask, x = mask ^ (1 << n) - 1, (-1) ** (m if k == 2 * m else a + 1) * x
            low, high = (mask & -mask).bit_length(), mask.bit_length()
            low = 0 if low == high else low  # a vector entry borders row and column 0
            bordered[..., low, high], bordered[..., high, low] = x, -x
    bordered[..., 1:, 0] = -bordered[..., 0, 1:]  # -v whole: an absent entry is -0.0 there
    return bordered


def normal_form(m: int, grades: dict):
    """(mu, pf) of the so(2m+2) family's bordered matrix M (bordered_parts), else None:
    M's paired singular values mu_0 >= ... >= mu_m, shape (..., m + 1), and pf, Pf M's
    fraction by np.frexp, shape (...): the sign of Pf M, also where Pf M underflows.

    Two cases are exact, in closed form, and any other is LAPACK's SVD.  When
    M's block G is zero in every state, M has rank 2 and mu is (|v|, 0, ...,
    0), |v| the square root of v's squares added left to right, so the
    doublet comes out exact.  At m = 2, when M's rows 0 and 5 are zero in
    every state (a grade-2 tensor alone), mu is (mu_0, mu_1, 0) of the
    package's tunnel_amplitudes of the 4 x 4 block, which the ball module's
    atlas computes from Python floats to the same bits.
    """
    bordered = bordered_parts(m, grades)
    if bordered is None:
        return None
    mu = np.zeros(bordered.shape[:-2] + (m + 1,))
    if not bordered[..., 1:, 1:].any():
        mu[..., 0] = np.sqrt(sum_of_squares(np.moveaxis(bordered[..., 0, 1:], -1, 0)))
    elif m == 2 and not bordered[..., (0, 5), :].any():
        g = [bordered[..., i, j] for i, j in itertools.combinations(range(1, 5), 2)]
        mu[..., 0], mu[..., 1] = tunnel_amplitudes(g)
    else:
        mu = np.linalg.svd(bordered, compute_uv=False)[..., ::2]
    return mu, _pfaffian_parts(bordered)[0]


def closed_form_spectrum(coords: StateCoords) -> Spectrum:
    """Closed-form spectrum of a state of the so(2m+2) family (see bordered_parts)."""
    coords = wire_field(coords, StateCoords, "coords")
    normal = normal_form(coords.m, coords.grades)
    if normal is None:
        raise KindMismatch("no closed form: input is outside the so(2m+2) family "
                           "(grades 1, 2, 2m-1, 2m; extended grades 1, 2)")
    return spectrum_from_values(coords.m, sign_sums(coords.scalar, *normal))

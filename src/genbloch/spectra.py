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

bordered_parts recognises (v, G) in a StateCoords, normal_form_amplitudes
gives (mu, Pf M) of one state or a stack, and sign_sums the eigenvalues;
normal_form joins the first two for one StateCoords, and closed_form_spectrum
and the domains module's positivity verdict both take it from there.
"""

from __future__ import annotations

import numpy as np

from .clifford import Record, m_from_dim
from .coords import AntisymTensor, StateCoords, require_unit_trace, sum_of_squares
from .errors import GradeMismatch, KindMismatch
from .invariants import pfaffian
from .linalg import as_matrix, hermitian_eigenvalues

CLUSTER_TOL = 1e-8


def cluster_values(values) -> list:
    """Group sorted values into (mean, multiplicity) clusters by gaps above CLUSTER_TOL."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return []
    clusters = []
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[i - 1] > CLUSTER_TOL:
            chunk = vals[start:i]
            clusters.append((float(np.mean(chunk)), int(chunk.size)))
            start = i
    return clusters


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
    return Spectrum(m=m, eigenvalues=vals, multiplets=cluster_values(vals))


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
    Pfaffians of normal_form_amplitudes; the result is (..., 2^m).  Each sum
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


def normal_form_amplitudes(m: int, v=None, g=None) -> tuple:
    """(mu, Pf M) of the bordered matrix M = [[0, v^T], [-v, G]] of side 2m + 2:
    its paired singular values mu_0 >= ... >= mu_m, shape (..., m + 1), and its
    Pfaffian, shape (...).

    v is a (..., n) array and g a (..., n', n') array of antisymmetric
    matrices over the first n, n' <= 2m + 1 extended indices, or None for a
    state without that part.  Without g, M has rank 2 and mu is (|v|, 0, ...,
    0), |v| the square root of v's squares added left to right, so the
    doublet comes out exact.
    """
    shape = v.shape[:-1] if v is not None else np.shape(g)[:-2] if g is not None else ()
    bordered = np.zeros(shape + (2 * m + 2, 2 * m + 2))
    mu = np.zeros(shape + (m + 1,))
    if v is not None:
        bordered[..., 0, 1:v.shape[-1] + 1] = v
        bordered[..., 1:v.shape[-1] + 1, 0] = -v
    if g is not None:
        side = np.shape(g)[-1]
        bordered[..., 1:side + 1, 1:side + 1] = g
        mu = np.linalg.svd(bordered, compute_uv=False)[..., ::2]
    elif v is not None:
        mu[..., 0] = np.sqrt(sum_of_squares(np.moveaxis(v, -1, 0)))
    return mu, pfaffian(bordered)


def bordered_parts(coords: StateCoords):
    """(v, G) when coords lie in the so(2m+2) family, else None.

    v is the grade-1 part as an array over the 2m + 1 extended indices
    (zeros for a state without one); G is the grade-2 part as a grade-2 AntisymTensor, over the first 2m indices when
    a standard-mode state has no grade 2m - 1, None for a state without one.
    A grade counts when it has a nonzero entry; the scalar alone is v = 0.
    """
    m, n, standard = coords.m, 2 * coords.m + 1, coords.mode == "standard"
    active = [k for k, t in sorted(coords.grades.items())
              if any(x != 0.0 for x in t.values.values())]
    if not set(active) <= ({1, 2, 2 * m - 1, 2 * m} if standard else {1, 2}):
        return None
    v, g = np.zeros(n), {}
    for k in active:
        for key, x in coords.grades[k].items():
            if standard and k == 2 * m:  # E_{1..2m} = (-1)^m E_{2m+1}
                key, x = (n,), (-1) ** m * x
            elif standard and k == 2 * m - 1 and m > 1:  # E_{1..2m - a} = (-1)^{a+1} E_{a,2m+1}
                (a,) = set(range(1, n)) - set(key)
                key, x = (a, n), (-1) ** (a + 1) * x
            if len(key) == 1:
                v[key[0] - 1] = x
            else:
                g[key] = x
    if not g:
        return v, None
    side = n if not standard or 2 * m - 1 in active else 2 * m
    return v, AntisymTensor(m, 2, side, g)


def normal_form(coords: StateCoords):
    """(mu, Pf M, r) of a state of the so(2m+2) family (see bordered_parts), or
    None outside it; r is the sum of squares of v and then of G's entries."""
    parts = bordered_parts(coords)
    if parts is None:
        return None
    v, g = parts
    mu, pf = normal_form_amplitudes(coords.m, v, None if g is None else g.as_matrix())
    r = float(sum_of_squares(v)) + (0.0 if g is None else g.norm_sq())
    return mu, pf, r


def closed_form_spectrum(coords: StateCoords) -> Spectrum:
    """Closed-form spectrum of a state of the so(2m+2) family (see bordered_parts)."""
    found = normal_form(coords)
    if found is None:
        raise KindMismatch("no closed form: input is outside the so(2m+2) family "
                           "(grades 1, 2, 2m-1, 2m; extended grades 1, 2)")
    mu, pf, _ = found
    return spectrum_from_values(coords.m, sign_sums(coords.scalar, mu, pf))

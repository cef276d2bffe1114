"""Closed-form probability spectra of pure vector and 2-tensor configurations.

A pure configuration rho = 2^{-m}(c I + X) splits into m commuting terms
with eigenvalues +-mu_k, its normal-form amplitudes, so its eigenvalues are

    lambda_s = (c + sum_k s_k mu_k) / 2^m   over all 2^m sign vectors s,

exactly, at every m and every scalar coordinate c: one formula, sign_sums.
A vector (grade 1, with the top-grade pseudoscalar p or in extended mode)
has mu = (n, 0, ..., 0), n^2 = sum_i G_i^2 + p^2: the doublet (c +- n) / 2^m.
The generators are a Jordan-Wigner set of Majorana operators, so a grade-2
configuration G o E^{(2)} is a quadratic Majorana form, and rotating G to
its real antisymmetric normal form leaves mu_1..mu_m, the paired singular
values of G, for side 2m+1 tensors as well (Bravyi, quant-ph/0404180).  The
paper's quartet polynomials of these values are checked claims of the
identities module.

pure_config recognises the two configurations in a StateCoords, and
normal_form_amplitudes gives their amplitudes, of one state or a stack;
closed_form_spectrum and the domains module take every spectrum from them.
"""

from __future__ import annotations

import numpy as np

from .clifford import Record, m_from_dim
from .coords import AntisymTensor, StateCoords, require_unit_trace, vector
from .errors import GradeMismatch, KindMismatch
from .invariants import vector_invariants
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


def sign_sums(scalar, mu) -> np.ndarray:
    """Sorted eigenvalues (scalar + sum_k s_k mu_k) / 2^m over all 2^m sign vectors s.

    mu is a (..., m) array of normal-form amplitudes; the result is (..., 2^m).
    """
    m = mu.shape[-1]
    signs = 1 - 2 * ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1)
    # one (2^m, m) @ (m,) product per row keeps each sum in one order
    return np.sort((scalar + (signs @ mu[..., None])[..., 0]) / 2 ** m, axis=-1)


def normal_form_amplitudes(m: int, kind: str, x) -> np.ndarray:
    """Normal-form amplitudes mu_1..mu_m, shape (..., m), of pure configurations.

    "vector": x is the squared norm r (vector_invariants(...).r), a number or
    an array, and mu = (sqrt(r), 0, ..., 0).  "two_tensor": x is a (..., side,
    side) stack of antisymmetric matrices, whose singular values come in
    equal pairs; one of each of the m largest pairs is kept (side 2m+1 has
    one more, zero, which is dropped).
    """
    if kind == "vector":
        r = np.asarray(x, dtype=float)
        return np.concatenate([np.sqrt(r)[..., None], np.zeros(r.shape + (m - 1,))], axis=-1)
    return np.linalg.svd(x, compute_uv=False)[..., : 2 * m : 2]


def normal_form_eigenvalues(g2) -> np.ndarray:
    """Sorted eigenvalues (1 + sum_k s_k mu_k) / 2^m of rho = 2^{-m}(I + G o E^{(2)}).

    g2 is a grade-2 AntisymTensor, or a (..., side, side) stack of
    antisymmetric matrices with m = side // 2, giving (..., 2^m) values.
    """
    if isinstance(g2, AntisymTensor):
        g2 = g2.as_matrix()
    return sign_sums(1.0, normal_form_amplitudes(g2.shape[-1] // 2, "two_tensor", g2))


def pure_config(coords: StateCoords):
    """(kind, payload) when the coords are a pure tensor configuration, else None.

    "vector": payload (grade-1 tensor over 2m indices, pseudoscalar or None),
    for grades 1 and 2m in standard mode or grade 1 in extended mode; the
    scalar alone counts too.  "two_tensor": payload the grade-2 tensor of a
    standard-mode state with no other grade.
    """
    m = coords.m
    active = {k for k, t in coords.grades.items() if any(v != 0.0 for v in t.values.values())}
    if coords.mode == "extended":
        # an extended vector is a standard vector plus pseudoscalar in disguise:
        # the (2m+1)-th generator equals (-1)^m times the top-grade element
        if active <= {1}:
            g1 = coords.grade(1)
            comps = [g1.get((i,)) for i in range(1, coords.side)]
            pseudo = (-1.0) ** m * g1.get((coords.side,))
            return "vector", (vector(m, comps), pseudo if pseudo != 0.0 else None)
        return None
    top = coords.side
    if active <= {1, top}:
        pseudo = coords.grade(top).get(tuple(range(1, top + 1))) if top in active else None
        return "vector", (coords.grade(1), pseudo)
    if active == {2}:
        return "two_tensor", coords.grade(2)
    return None


def pure_amplitudes(m: int, kind: str, payload) -> np.ndarray:
    """normal_form_amplitudes of a configuration from its pure_config (kind, payload)."""
    x = vector_invariants(*payload).r if kind == "vector" else payload.as_matrix()
    return normal_form_amplitudes(m, kind, x)


def closed_form_spectrum(coords: StateCoords) -> Spectrum:
    """Closed-form spectrum of a pure vector or grade-2 configuration (see pure_config)."""
    pure = pure_config(coords)
    if pure is None:
        raise KindMismatch("no closed form: input is not a pure vector or 2-tensor configuration")
    return spectrum_from_values(coords.m, sign_sums(coords.scalar, pure_amplitudes(coords.m, *pure)))

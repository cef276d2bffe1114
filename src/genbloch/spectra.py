"""Closed-form probability spectra for vector and 2-tensor configurations.

Vector configurations (grade 1, optionally with the top-grade pseudoscalar
coordinate p) have the doublet spectrum

    lambda = (1 +- n) / 2^m,   n^2 = sum_i G_i^2 + p^2,

each value with multiplicity 2^{m-1}.

The generators are a Jordan-Wigner set of Majorana operators, so a grade-2
configuration G o E^{(2)} is a quadratic Majorana form.  Rotating G to its
real antisymmetric normal form (2x2 blocks with amplitudes mu_1..mu_m, the
paired singular values of G) splits it into m commuting terms with
eigenvalues +-mu_k, hence the eigenvalues

    lambda_s = (1 + sum_k s_k mu_k) / 2^m   over all 2^m sign vectors s,

exactly, at every m and for side 2m+1 tensors as well (Bravyi,
quant-ph/0404180).  The paper's quartet polynomials of these values are
checked claims of the identities module.

pure_config recognises the two configurations in a StateCoords, and
closed_form_spectrum computes their spectrum; `spectrum --closed-form` and
the positivity verdict of the domains module both go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import m_from_dim
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


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with their multiplet structure."""

    m: int
    eigenvalues: np.ndarray
    multiplets: list

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


def vector_spectrum(m: int, g1: AntisymTensor, pseudoscalar: float | None = None) -> Spectrum:
    """Doublet spectrum (1 +- norm)/2^m, each side 2^{m-1}-fold."""
    if g1.of_grade(1).m != m or g1.side != 2 * m:
        raise GradeMismatch("vector_spectrum needs a grade-1 tensor over 2m indices")
    norm = math.sqrt(vector_invariants(g1, pseudoscalar).r)
    lo = (1.0 - norm) / 2 ** m
    hi = (1.0 + norm) / 2 ** m
    vals = np.array([lo] * 2 ** (m - 1) + [hi] * 2 ** (m - 1))
    return spectrum_from_values(m, vals)


def normal_form_eigenvalues(g2) -> np.ndarray:
    """Sorted eigenvalues (1 + sum_k s_k mu_k) / 2^m of rho = 2^{-m}(I + G o E^{(2)}).

    mu_1..mu_m are the normal-form amplitudes of G: the singular values of
    its antisymmetric matrix come in equal pairs, and one of each of the m
    largest pairs is kept (a side 2m+1 tensor has one more singular value,
    zero, which is dropped).  The sign vectors s run over all 2^m choices.
    g2 is a grade-2 AntisymTensor, or a (..., side, side) stack of
    antisymmetric matrices with m = side // 2, giving (..., 2^m) values.
    """
    if isinstance(g2, AntisymTensor):
        g2 = g2.as_matrix()
    m = g2.shape[-1] // 2
    mu = np.linalg.svd(g2, compute_uv=False)[..., : 2 * m : 2]
    signs = 1 - 2 * ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1)
    # one (2^m, m) @ (m,) product per matrix keeps each sum in one order
    return np.sort((1.0 + (signs @ mu[..., None])[..., 0]) / 2 ** m, axis=-1)


def two_tensor_spectrum(m: int, g2: AntisymTensor) -> Spectrum:
    """Closed-form spectrum of rho = 2^{-m}(I + G o E^{(2)}), exact at every m."""
    if g2.of_grade(2).m != m or g2.side != 2 * m:
        raise GradeMismatch("two_tensor_spectrum needs a grade-2 tensor over 2m indices")
    return spectrum_from_values(m, normal_form_eigenvalues(g2))


def pure_config(coords: StateCoords):
    """(kind, payload) when the coords are a pure tensor configuration, else None.

    "vector": payload (grade-1 tensor over 2m indices, pseudoscalar or None),
    for unit scalar plus grades 1 and 2m in standard mode or grade 1 in
    extended mode; the scalar alone counts too.  "two_tensor": payload the
    grade-2 tensor of a standard-mode state with no other grade.
    """
    if abs(coords.scalar - 1.0) > 1e-10:
        return None
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


def closed_form_spectrum(coords: StateCoords) -> Spectrum:
    """Closed-form spectrum of a pure vector or grade-2 configuration (see pure_config)."""
    pure = pure_config(coords)
    if pure is None:
        raise KindMismatch("no closed form: input is not a pure vector or 2-tensor configuration")
    kind, payload = pure
    if kind == "vector":
        return vector_spectrum(coords.m, *payload)
    return two_tensor_spectrum(coords.m, payload)

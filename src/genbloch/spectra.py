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
quant-ph/0404180).  At m = 3, grouping by s = sign(Pf G) s_1 s_2 s_3
yields the paper's two quartets, whose monic polynomials in z = 2^m lambda
are

    Pbar_s(z) = z^4 - 4 z^3 + 2 (3 - r) z^2
                + (4 (r - 1) - s D3 / 6) z
                + (2 - (r + 1)^2 + T4 + s D3 / 6),      s = +-1.

These coefficients were fixed against the numeric oracle (the widely
circulated 64/3 and 256/3 prefactors on D3 overstate the cubic term by a
factor of 512, and the linear term carries 4(r-1), not -(r-1)).  The
quartets are a checked identity: the tests evaluate Pbar_s at the
normal-form eigenvalues, and factorized_charpoly multiplies them out.

pure_config recognises the two configurations in a StateCoords, and
closed_form_spectrum computes their spectrum; `spectrum --closed-form` and
the positivity verdict of the domains module both go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import AntisymTensor, StateCoords, require_unit_trace, vector
from .errors import (
    ComplexRoots,
    GradeMismatch,
    KindMismatch,
    UnsupportedM,
)
from .figures import discriminant
from .invariants import InvariantSet, vector_invariants
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


def degeneracy_pattern(spectrum: Spectrum) -> list:
    """(value, multiplicity) clusters of a spectrum."""
    return cluster_values(spectrum.eigenvalues)


def numeric_spectrum(rho) -> Spectrum:
    """Oracle spectrum of a unit-trace density matrix (LAPACK eigensolver)."""
    rho = as_matrix(rho)
    vals = hermitian_eigenvalues(rho)
    require_unit_trace(rho)
    m = int(round(math.log2(rho.shape[0])))
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


def _pbar_coefficients(r: float, t4: float, d3: float, s: float) -> np.ndarray:
    """Ascending z-coefficients of Pbar_s."""
    return np.array([
        2.0 - (r + 1.0) ** 2 + t4 + s * d3 / 6.0,
        4.0 * (r - 1.0) - s * d3 / 6.0,
        2.0 * (3.0 - r),
        -4.0,
        1.0,
    ])


def quartet_eigenvalues(m: int, inv: InvariantSet) -> np.ndarray:
    """The m = 2 grade-2 spectrum (1 +- sqrt(r +- sqrt(2 r^2 - T4))) / 4 from (r, T4).

    The (r, T4) region of the domains module is read off this form; other m
    go through normal_form_eigenvalues, which works from the tensor itself.
    """
    if m != 2:
        raise UnsupportedM(f"the (r, T4) quartet closed form is for m = 2, got m = {m}")
    r = inv.r
    root = math.sqrt(discriminant(r, inv.T4))
    out = []
    for s_out in (1.0, -1.0):
        for s_in in (1.0, -1.0):
            arg = r + s_in * root
            if arg < -1e-12:
                raise ComplexRoots(f"r - sqrt(2r^2-T4) = {arg} is negative")
            out.append((1.0 + s_out * math.sqrt(max(arg, 0.0))) / 4.0)
    return np.sort(np.array(out))


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


def tunnel_spectrum(x: float, y: float, z: float) -> Spectrum:
    """m = 2 family G_12 = x, G_34 = y, G_23 = z: quartet (1 +- alpha_pm)/4."""
    ap = math.hypot(x + y, z)
    am = math.hypot(x - y, z)
    vals = np.array([(1 + ap) / 4, (1 - ap) / 4, (1 + am) / 4, (1 - am) / 4])
    return spectrum_from_values(2, vals)


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


def _polypow(poly: np.ndarray, n: int) -> np.ndarray:
    out = np.array([1.0])
    base = np.asarray(poly, dtype=float)
    while n > 0:
        if n & 1:
            out = np.convolve(out, base)
        base = np.convolve(base, base)
        n >>= 1
    return out


def factorized_charpoly(m: int, config_kind: str, inv: InvariantSet) -> np.ndarray:
    """Monic coefficients (ascending in lambda) of det(rho - lambda I) predicted
    by the factorized closed forms.

    vector:      (lambda^2 - lambda/2^{m-1} + (1-r)/2^{2m})^{2^{m-1}}
    two_tensor:  product of the Pbar quartets at z = 2^m lambda, each raised
                 to 2^{m-3} (a single quartet with D3 = 0 at m = 2).
    """
    if config_kind == "vector":
        base = np.array([(1.0 - inv.r) / 4 ** m, -1.0 / 2 ** (m - 1), 1.0])
        return _polypow(base, 2 ** (m - 1))
    if config_kind == "two_tensor":
        if m < 2:
            raise KindMismatch("two_tensor needs m >= 2")
        d3 = inv.D3 if inv.D3 is not None else 0.0
        if m != 3 and d3 != 0.0:
            raise KindMismatch(f"a cubic invariant only exists at m = 3, got D3 = {d3}")
        scale = np.array([(2.0 ** m) ** k for k in range(5)])
        if m == 2:
            lam_poly = _pbar_coefficients(inv.r, inv.T4, 0.0, 1.0) * scale
            out = lam_poly
        else:
            plus = _pbar_coefficients(inv.r, inv.T4, d3, 1.0) * scale
            minus = _pbar_coefficients(inv.r, inv.T4, d3, -1.0) * scale
            out = _polypow(np.convolve(plus, minus), 2 ** (m - 3))
        return out / out[-1]
    raise KindMismatch(f"unknown configuration kind {config_kind!r}")

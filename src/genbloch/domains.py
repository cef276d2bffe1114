"""Admissibility of parameter configurations: generalized Bloch spheres.

One rule decides every state (positivity): it is admissible when its
smallest eigenvalue is >= -tol.  Only the source of lambda_min depends on
the route: the closed-form spectrum of a pure vector or grade-2
configuration (spectra.pure_config), the LAPACK eigenvalues otherwise.

In closed form the rule draws the paper's regions.  Vector configurations
are admissible on the unit ball of the (2m- or 2m+1-dimensional)
coordinate norm; the (r, T4) wedge of grade-2 configurations at m = 2 and
its elliptic tunnels are drawn by the figures module and checked point by
point in the identities module, with the characteristic-polynomial sign
rule.

The sampler decides whole arrays at once: sampled tensors go through the
stacked normal-form engine (spectra) and the stacked LAPACK oracle
(linalg), in chunks of CHUNK_BYTES of density matrices; both smallest
eigenvalues are held to positivity's rule with DEFAULT_TOL.  Like
figures.figure_columns, sample_domain returns a table, (column names, one
array per column), so a sample and a figure share one path to their output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import _check_m, cached_basis, multi_indices
from .coords import StateCoords, antisym_matrices, sum_of_squares
from .errors import GradeOutOfRange, ResourceLimit
from .figures import DEFAULT_TOL, require_sums_of_squares
from .invariants import InvariantSet, two_tensor_invariants, vector_invariants
from .linalg import hermitian_eigenvalues
from .spectra import closed_form_spectrum, normal_form_eigenvalues, pure_config

# sample_domain classifies draws in chunks whose rho stack takes this many
# bytes, so its peak memory does not grow with the sample count
CHUNK_BYTES = 2 ** 20


@dataclass(frozen=True)
class DomainVerdict:
    """Admissibility decision with the active/violated constraint named."""

    admissible: bool
    boundary: bool
    violated: str | None
    invariants_used: InvariantSet | None
    tol: float

    def __post_init__(self):
        if self.admissible and self.violated is not None:
            raise ValueError("admissible verdicts cannot carry a violated constraint")

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "boundary": self.boundary,
            "violated": self.violated,
            "invariants_used": self.invariants_used.to_dict() if self.invariants_used else None,
            "tol": self.tol,
        }


def min_eigenvalue_verdict(min_eig: float, violated: str, tol: float = DEFAULT_TOL,
                           invariants_used: InvariantSet | None = None) -> DomainVerdict:
    """Positivity verdict from a smallest eigenvalue: admissible when it is >= -tol."""
    admissible = min_eig >= -tol
    return DomainVerdict(
        admissible=admissible,
        boundary=admissible and abs(min_eig) <= tol,
        violated=None if admissible else violated,
        invariants_used=invariants_used,
        tol=tol,
    )


# spectra.pure_config kind -> (route, constraint named when lambda_min < -tol)
_ROUTES = {
    "vector": ("vector_ball", "bloch_ball"),
    "two_tensor": ("quartet_roots", "quartet_positivity"),
    None: ("min_eigenvalue", "positivity"),
}


def positivity(coords: StateCoords, rho, tol: float = DEFAULT_TOL) -> tuple:
    """(verdict, route) for a state given both as coords and as its density matrix rho.

    Every route applies one rule, lambda_min >= -tol; only the source of
    lambda_min differs: the closed-form spectrum of a pure vector or grade-2
    configuration, the LAPACK eigenvalues of rho otherwise.
    """
    kind, payload = pure_config(coords) or (None, None)
    route, violated = _ROUTES[kind]
    if kind is None:
        return min_eigenvalue_verdict(float(hermitian_eigenvalues(rho)[0]), violated, tol), route
    inv = vector_invariants(*payload) if kind == "vector" else two_tensor_invariants(payload)
    min_eig = float(closed_form_spectrum(coords).eigenvalues[0])
    return min_eigenvalue_verdict(min_eig, violated, tol, inv), route


def sample_domain(m: int, k: int, n: int, seed: int, box: float = 1.2) -> tuple:
    """Monte-Carlo atlas: n grade-k tensors uniform in [-box, box]^dim, each
    classified by the closed-form domain and by the eigenvalue oracle.

    Returns (column names, one array per column), as figures.figure_columns
    does: the draw index, its coefficients c0..c{dim-1} in multi_indices
    order, closed_admissible and oracle_admissible (bool), and the
    boundary_margin |lambda_min| of the closed form.
    """
    _check_m(m)
    if k not in (1, 2):
        raise GradeOutOfRange("sampling covers tensor grades 1 and 2")
    if n < 0 or n > 10 ** 6:
        raise ResourceLimit(f"sample count {n} out of range")
    # the draws span [-box, box], so 2 * box must be finite as well
    if not (math.isfinite(2.0 * box) and box >= 0):
        raise ResourceLimit(f"box must be a finite number >= 0 with 2 * box finite, got {box!r}")
    keys = list(multi_indices(2 * m, k))
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-box, box, size=(n, len(keys)))
    basis = cached_basis(m)
    min_closed = np.empty(n)
    oracle_min = np.empty(n)
    per = max(1, CHUNK_BYTES // (16 * basis.dim ** 2))
    for lo in range(0, n, per):
        columns = dict(zip(keys, draws[lo:lo + per].T))
        min_closed[lo:lo + per] = _closed_form_minima(m, k, columns)
        rho = basis.expand({(): 1.0, **columns}) / basis.dim
        oracle_min[lo:lo + per] = hermitian_eigenvalues(rho)[:, 0]
    names = (["index"] + [f"c{i}" for i in range(len(keys))]
             + ["closed_admissible", "oracle_admissible", "boundary_margin"])
    return names, [np.arange(n), *draws.T, min_closed >= -DEFAULT_TOL,
                   oracle_min >= -DEFAULT_TOL, np.abs(min_closed)]


def _closed_form_minima(m: int, k: int, columns: dict) -> np.ndarray:
    """Smallest closed-form eigenvalue of each tensor of a grade-k stack given as {key: values}."""
    if k == 1:
        r = sum_of_squares(columns.values())
        require_sums_of_squares(r)
        return (1.0 - np.sqrt(r)) / 2 ** m
    return normal_form_eigenvalues(antisym_matrices(2 * m, columns))[:, 0]

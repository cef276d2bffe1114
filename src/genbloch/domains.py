"""Admissibility of parameter configurations: generalized Bloch spheres.

One rule decides every state (positivity): it is admissible when its
smallest eigenvalue is >= -tol, and the constraint an inadmissible state
violates is "positivity".  Two routes give lambda_min: "normal_form", the
closed form spectra.sign_sums of a state in the so(2m+2) family
(spectra.normal_form), reported by the invariants it uses, the amplitudes
mu and the sign of Pf M of the bordered matrix M = [[0, v^T], [-v, G]];
and "min_eigenvalue", the LAPACK eigenvalues of any other state.

In closed form the rule draws the paper's regions.  Vector configurations
are admissible on the unit ball of the (2m- or 2m+1-dimensional)
coordinate norm; the (r, T4) wedge of grade-2 configurations at m = 2 and
its elliptic tunnels are drawn by the figures module and checked point by
point in the identities module, with the characteristic-polynomial sign
rule.

The sampler decides whole arrays at once: sampled tensors go through the
same closed form, stacked, and the stacked LAPACK oracle (linalg), in
chunks of CHUNK_BYTES of density matrices; both smallest eigenvalues are
held to positivity's rule with DEFAULT_TOL.  Like figures.figure_columns,
sample_domain returns a table, (column names, one array per column), so a
sample and a figure share one path to their output.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import Record, _check_m, cached_basis, multi_indices
from .coords import StateCoords, antisym_matrices, encode, require_unit_trace
from .errors import GradeOutOfRange, MalformedInput, ResourceLimit
from .figures import DEFAULT_TOL
from .invariants import InvariantSet
from .linalg import hermitian_eigenvalues
from .spectra import normal_form, normal_form_amplitudes, sign_sums

# sample_domain classifies draws in chunks whose rho stack takes this many
# bytes, so its peak memory does not grow with the sample count
CHUNK_BYTES = 2 ** 20


class DomainVerdict(Record):
    """Admissibility decision with the active/violated constraint named."""

    __slots__ = ("admissible", "boundary", "violated", "invariants_used", "tol")

    def __init__(self, admissible: bool, boundary: bool, violated: str | None,
                 invariants_used: InvariantSet | None, tol: float):
        self._set(admissible, boundary, violated, invariants_used, tol)
        if self.admissible and self.violated is not None:
            raise MalformedInput("admissible verdicts cannot carry a violated constraint")

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "boundary": self.boundary,
            "violated": self.violated,
            "invariants_used": self.invariants_used.to_dict() if self.invariants_used else None,
            "tol": self.tol,
        }


def min_eigenvalue_verdict(min_eig: float, tol: float = DEFAULT_TOL,
                           invariants_used: InvariantSet | None = None) -> DomainVerdict:
    """Positivity verdict from a smallest eigenvalue: admissible when it is >= -tol."""
    admissible = min_eig >= -tol
    return DomainVerdict(
        admissible=admissible,
        boundary=admissible and abs(min_eig) <= tol,
        violated=None if admissible else "positivity",
        invariants_used=invariants_used,
        tol=tol,
    )


def positivity(coords: StateCoords, rho, tol: float = DEFAULT_TOL) -> tuple:
    """(verdict, route) for a state given as coords and as its density matrix
    rho, or None to encode the coords only on the route that needs the matrix.

    A state of the so(2m+2) family takes route "normal_form": lambda_min from
    spectra.sign_sums, reported by r, T4 = 2 sum mu^4 and the amplitudes mu
    with the sign of Pf M.  Every other state takes route "min_eigenvalue":
    the LAPACK eigenvalues of rho.  Coords whose scalar (the trace) is not 1
    are no state: NonUnitTrace.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ResourceLimit(f"tol must be a finite number >= 0, got {tol!r}")
    require_unit_trace(coords.scalar)
    found = normal_form(coords)
    if found is None:
        rho = encode(coords) if rho is None else rho
        return min_eigenvalue_verdict(float(hermitian_eigenvalues(rho)[0]), tol), "min_eigenvalue"
    mu, pf, r = found
    inv = InvariantSet(r=r, T4=2.0 * float(np.sum(mu ** 4)),
                       extras={"normal_form_amplitudes": mu.tolist(),
                               "pfaffian_sign": float(np.sign(pf))})
    min_eig = float(sign_sums(coords.scalar, mu, pf)[0])
    return min_eigenvalue_verdict(min_eig, tol, inv), "normal_form"


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
    if seed < 0:
        raise ResourceLimit(f"seed must be an integer >= 0, got {seed}")
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
        chunk = draws[lo:lo + per]
        columns = dict(zip(keys, chunk.T))
        # a grade-1 draw is v itself, a grade-2 draw G
        v, g = (chunk, None) if k == 1 else (None, antisym_matrices(2 * m, columns))
        min_closed[lo:lo + per] = sign_sums(1.0, *normal_form_amplitudes(m, v, g))[:, 0]
        rho = basis.expand({(): 1.0, **columns}) / basis.dim
        oracle_min[lo:lo + per] = hermitian_eigenvalues(rho)[:, 0]
    names = (["index"] + [f"c{i}" for i in range(len(keys))]
             + ["closed_admissible", "oracle_admissible", "boundary_margin"])
    return names, [np.arange(n), *draws.T, min_closed >= -DEFAULT_TOL,
                   oracle_min >= -DEFAULT_TOL, np.abs(min_closed)]


"""Admissibility of parameter configurations: generalized Bloch spheres.

One rule decides every state (admits): it is admissible when its smallest
eigenvalue is >= -tol, and an inadmissible state violates "positivity".  One
path gives lambda_min of one state or of a stack sharing m, in either mode
(lowest_eigenvalues), on a route picked once per stack: "normal_form", the
closed form spectra.sign_sums of the so(2m+2) family, whose verdict reports
invariants.coords_invariants with the normal form it used, or
"min_eigenvalue", LAPACK's (linalg).  positivity takes it for one state;
sample_domain for at most MAX_ROWS draws, beside the same LAPACK oracle.
It holds its request to the one sample rule, ball._check_sample, which the
CLI runs before it picks an engine: a small atlas of a vector, or of a
grade-2 tensor at m <= 2, is answered by the ball module, from Python floats
with a Cholesky oracle, and any other here.
Its draws are the standard library's random.Random(seed).random() stream,
so no numpy.random is loaded, and it returns (column names, blocks): the
table in blocks of rows made as they are read, each one array per column
like figures.figure_columns.  The package's one memory budget, CHUNK_BYTES,
sizes both its stacks of density matrices and its blocks, so a table of any
length takes the memory of one block beside three results per draw.

In closed form the rule draws the paper's regions.  Vector configurations
are admissible on the unit ball of the (2m- or 2m+1-dimensional)
coordinate norm; the (r, T4) wedge of grade-2 configurations at m = 2 and
its elliptic tunnels are drawn by the figures module and checked point by
point by the tests' claims (tests/claims.py), with the characteristic-polynomial
sign rule.
"""

from __future__ import annotations

import random

import numpy as np

from . import CHUNK_BYTES, DEFAULT_TOL, admits
from .ball import _check_sample, _sample_names
from .clifford import Record, cached_basis
from .coords import StateCoords, encode_grades, require_unit_trace
from .errors import DimensionMismatch, MalformedInput, NonFiniteResult, _bounded, wire_field
from .invariants import InvariantSet, coords_invariants
from .linalg import as_matrix, hermitian_eigenvalues
from .spectra import normal_form, sign_sums


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
    """Positivity verdict from a smallest eigenvalue (admits): min_eig by the
    float rule (errors.wire_field), tol as positivity reads it."""
    min_eig = wire_field(min_eig, float, "min_eig")
    tol = _bounded(tol, "tol", "a finite number >= 0")
    admissible = admits(min_eig, tol)
    return DomainVerdict(
        admissible=admissible,
        boundary=admissible and abs(min_eig) <= tol,
        violated=None if admissible else "positivity",
        invariants_used=invariants_used,
        tol=tol,
    )


def _oracle_minima(m: int, scalar: float, grades: dict, rho=None, check_trace: bool = False):
    """LAPACK's lambda_min of one state or of each of a stack, in either mode:
    of rho, else of the matrices the grades encode (coords.encode_grades)."""
    rho = encode_grades(m, scalar, grades, check_trace) if rho is None else rho
    return hermitian_eigenvalues(rho)[..., 0]


def lowest_eigenvalues(m: int, scalar: float, grades: dict, rho=None) -> tuple:
    """(lambda_min, route, normal form) of one state or of a stack sharing
    m and the scalar, in either mode: grades as spectra.normal_form reads them,
    and rho their matrices, or None to encode them only if the route needs
    them.  The route is "normal_form" when the grades lie in the so(2m+2)
    family, with the normal form (mu, Pf M) of their bordered matrix; else
    "min_eigenvalue", with None.  The work and memory grow with the stack,
    so a caller bounds them by the stacks it passes.
    """
    normal = normal_form(m, grades)
    if normal is None:
        lam = _oracle_minima(m, scalar, grades, rho, check_trace=True)
        return lam, "min_eigenvalue", None
    return sign_sums(scalar, *normal)[..., 0], "normal_form", normal


def positivity(coords: StateCoords, rho, tol: float = DEFAULT_TOL) -> tuple:
    """(verdict, route) of lowest_eigenvalues on one state, given as coords
    and as its 2^m x 2^m density matrix rho or None; a "normal_form" verdict
    reports invariants.coords_invariants with the normal form it used.
    Coords whose scalar (the trace) is not 1 are no state: NonUnitTrace; a
    lambda_min beyond float range is NonFiniteResult.
    """
    coords = wire_field(coords, StateCoords, "coords")
    tol = _bounded(tol, "tol", "a finite number >= 0")
    if rho is not None and as_matrix(rho).shape != (2 ** coords.m,) * 2:
        raise DimensionMismatch(f"rho of shape {np.shape(rho)} is not 2^m x 2^m at m = {coords.m}")
    require_unit_trace(coords.scalar)
    min_eig, route, normal = lowest_eigenvalues(coords.m, coords.scalar, coords.grades, rho)
    # lambda_min overflows only where the invariants do: no verdict has it
    if not np.isfinite(min_eig):
        raise NonFiniteResult()
    inv = None if normal is None else coords_invariants(coords, normal)
    return min_eigenvalue_verdict(float(min_eig), tol, inv), route


def _uniform(rng: random.Random, rows: int, d: int, box: float) -> np.ndarray:
    """The next rows x d draws of rng, row-major, each -box + 2 box u for the next
    u = rng.random(): random()'s own 53 bits, (a >> 5) 2^26 + (b >> 6), of each two
    32-bit words (a, b) of the stream, which randbytes gives in order whatever the
    pieces it is read in."""
    a, b = np.frombuffer(rng.randbytes(8 * rows * d), dtype="<u4").reshape(-1, 2).T
    u = ((a >> 5) * 67108864.0 + (b >> 6)) * 2.0 ** -53
    return (-box + 2.0 * box * u).reshape(rows, d)


def sample_domain(m: int, k: int, n: int, seed: int, box: float = 1.2) -> tuple:
    """Monte-Carlo atlas: n grade-k tensors uniform in [-box, box]^dim, each
    classified by the closed-form domain and by the eigenvalue oracle.

    Draw j, row-major over the n x dim coefficients, is -box + 2 box u_j, with
    u_j the j-th random.Random(seed).random().  Returns (column names, blocks):
    the draw index, its coefficients c0..c{dim-1} in wire order,
    closed_admissible and oracle_admissible (bool), and the boundary_margin
    |lambda_min| of the closed form, the columns of each block of rows in turn.
    n is at most MAX_ROWS.  All n draws are decided first, in stacks of
    CHUNK_BYTES of density matrices, keeping three results per draw; a
    non-finite margin is NonFiniteResult then.  The blocks come lazily
    (_sample_blocks), their draws drawn again from a generator of the same
    seed, so the memory a caller holds is a block's whatever n and dim; a
    table without rows is one empty block.
    """
    m, k, n, seed, box = _check_sample(m, k, n, seed, box)
    basis = cached_basis(m)
    masks = basis.masks[basis.grade[basis.masks] == k].tolist()
    d = len(masks)
    rng = random.Random(seed)
    min_closed, oracle_min = np.empty(n), np.empty(n)
    per = max(1, CHUNK_BYTES // (16 * basis.dim ** 2))
    for lo in range(0, n, per):
        rows = min(per, n - lo)
        # a chunk of draws is one stack, a column per coefficient
        grades = {k: dict(zip(masks, _uniform(rng, rows, d, box).T))}
        min_closed[lo:lo + rows] = lowest_eigenvalues(m, 1.0, grades)[0]
        oracle_min[lo:lo + rows] = _oracle_minima(m, 1.0, grades)
    margin = np.abs(min_closed)
    if not np.isfinite(margin).all():
        raise NonFiniteResult()
    results = (admits(min_closed), admits(oracle_min), margin)
    return _sample_names(d), _sample_blocks(seed, box, d, results)


def _sample_blocks(seed: int, box: float, d: int, results: tuple):
    """sample_domain's blocks of rows, from the per-draw results of its draws:
    CHUNK_BYTES over a row's d + 4 cells and their spelling codes, 8 bytes
    each, so a block of a wider table has fewer rows and its memory does not
    grow with d."""
    rng, n = random.Random(seed), len(results[0])
    rows = max(1, CHUNK_BYTES // (16 * (d + 4)))
    for lo in range(0, max(n, 1), rows):
        hi = min(n, lo + rows)
        yield [np.arange(lo, hi), *_uniform(rng, hi - lo, d, box).T,
               *(column[lo:hi] for column in results)]

"""Admissibility of parameter configurations: generalized Bloch spheres.

One rule decides every state (positivity): it is admissible when its
smallest eigenvalue is >= -tol.  Only the source of lambda_min depends on
the route: the closed-form spectrum of a pure vector or grade-2
configuration (spectra.pure_config), the LAPACK eigenvalues otherwise.

In closed form the rule draws the paper's regions.  Vector configurations
are admissible on the unit ball of the (2m- or 2m+1-dimensional)
coordinate norm.  Grade-2 configurations at m = 2 fill the two-invariant
region

    max((r + 1)^2 - 2, 0) <= T4 <= 2 r^2,     0 <= r <= 1,

equivalently, in the variable z = 1/2 - sqrt(2 r^2 - T4), the wedge
|r - 1/2| <= z <= 1/2; rT4_domain keeps these inequalities as a checked
identity, and fig1 decides its whole grid by their array form.  The
three-parameter slice (G_12, G_34, G_23) = (x, y, z) is the intersection of
two orthogonal elliptic tunnels alpha_pm = sqrt((x +- y)^2 + z^2) <= 1.  The
characteristic polynomial sign rule is kept as a checked identity: writing
P(lambda) = sum_i (-1)^i a_i lambda^i, the state is positive semidefinite
exactly when every a_i is nonnegative (all roots are real, so the rule is
exact), but the Faddeev-LeVerrier coefficients lose their relative accuracy
as the dimension grows, so no runtime verdict depends on it.

The array forms of the (r, T4) and tunnel rules, and the figure datasets
drawn with them, live in the figures module: rT4_domain and
tunnel_membership apply them to one point.  The sampler decides whole
arrays at once too: sampled tensors go through the stacked normal-form
engine (spectra) and the stacked LAPACK oracle (linalg), in chunks of
CHUNK_BYTES of density matrices; both smallest eigenvalues are held to
positivity's rule with DEFAULT_TOL.  Like figure_columns, sample_domain
returns a table, (column names, one array per column), so a sample and a
figure share one path to their output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import _check_m, cached_basis, multi_indices
from .coords import AntisymTensor, StateCoords, antisym_matrices, sum_of_squares
from .errors import GradeMismatch, GradeOutOfRange, ResourceLimit, UnsupportedM
# figure_columns and figure_data live in figures and stay importable from here
from .figures import (
    DEFAULT_TOL,
    _RT4_CONSTRAINTS,
    _rT4_family,
    _tunnel_family,
    discriminant,
    figure_columns,
    figure_data,
    require_sums_of_squares,
)
from .invariants import (
    InvariantSet,
    dual_tensor,
    pfaffian,
    two_tensor_invariants,
    vector_invariants,
)
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


def rT4_domain(r: float, t4: float, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """The (r, T4) region for grade-2 configurations at m = 2."""
    inv = InvariantSet(r=max(r, 0.0), T4=max(t4, 0.0))
    failed, boundary = _rT4_family(np.array([r], dtype=float), np.array([t4], dtype=float), tol)
    violated = next((name for name, bad in zip(_RT4_CONSTRAINTS, failed[:, 0]) if bad), None)
    return DomainVerdict(admissible=violated is None, boundary=bool(boundary[0]),
                         violated=violated, invariants_used=inv, tol=tol)


def z_variable(r: float, t4: float) -> float:
    """z = 1/2 - sqrt(2 r^2 - T4); NegativeDiscriminant if 2 r^2 - T4 is genuinely negative."""
    return 0.5 - math.sqrt(discriminant(r, t4))


def z_from_coords(g2: AntisymTensor) -> float:
    """z computed directly from the tensor components (not through r, T4).

    side 4: z = 1/2 - 2 |G_12 G_34 - G_13 G_24 + G_14 G_23|  (the Pfaffian)
    side 6: z = 1/2 - sqrt(sum_{i<j} Ad_ij^2) / 4 via the quadratic dual.
    """
    if g2.of_grade(2).side == 4:
        return 0.5 - 2.0 * abs(pfaffian(g2.as_matrix()))
    if g2.side == 6:
        dual = dual_tensor(g2)
        return 0.5 - math.sqrt(dual.norm_sq()) / 4.0
    raise UnsupportedM(f"z_from_coords supports sides 4 and 6, got {g2.side}")


def tunnel_membership(x: float, y: float, z: float, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Intersection of the two elliptic tunnels alpha_pm <= 1."""
    ap, am, r, t4 = (float(v[0]) for v in _tunnel_family(np.array([[x, y, z]], dtype=float)))
    inv = InvariantSet(r=r, T4=t4)
    violated = None
    if ap > 1.0 + tol:
        violated = "tunnel_plus"
    elif am > 1.0 + tol:
        violated = "tunnel_minus"
    admissible = violated is None
    boundary = admissible and (abs(ap - 1.0) <= tol or abs(am - 1.0) <= tol)
    return DomainVerdict(admissible=admissible, boundary=boundary, violated=violated,
                         invariants_used=inv, tol=tol)


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


def descartes_positivity(poly, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Sign-rule verdict for a real-rooted characteristic polynomial.

    After making the polynomial monic, a_i = (-1)^{n-i} c_i are the
    elementary symmetric functions of the roots; the state is positive
    semidefinite iff all a_i >= 0 (> 0 strictly for definiteness).  The
    test runs in the rescaled variable z = n * lambda, which places the
    roots of an n-dimensional density matrix at order one, so the -tol
    relaxation admits boundary rank-deficient states while anything with
    an eigenvalue meaningfully below zero still fails.  (On the raw
    lambda coefficients an absolute tolerance would be useless: the
    determinant compresses a clearly negative eigenvalue by the product
    of the remaining ones, each about 1/n.)
    """
    c = np.asarray(poly, dtype=float)
    if c.ndim != 1 or c.size < 2 or c[-1] == 0.0:
        raise GradeMismatch("expected polynomial coefficients with nonzero leading term")
    q = c / c[-1]
    n = q.size - 1
    a = np.array([(-1.0) ** (n - i) * q[i] * float(n) ** (n - i) for i in range(n + 1)])
    violated = None
    for i in range(n + 1):
        if a[i] < -tol:
            violated = f"coeff_{i}"
            break
    admissible = violated is None
    boundary = admissible and bool(np.min(a) <= tol)
    return DomainVerdict(admissible=admissible, boundary=boundary, violated=violated,
                         invariants_used=None, tol=tol)


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

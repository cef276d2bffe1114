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

The figure datasets and the sampler decide whole arrays at once: the fig1
grid through rT4_domain's inequalities, tunnel points through the same
alpha_pm helper as tunnel_membership, sampled tensors through the stacked
normal-form engine (spectra) and the stacked LAPACK oracle (linalg), in
chunks of CHUNK_BYTES of density matrices; both smallest eigenvalues are
held to positivity's rule with DEFAULT_TOL.  A figure is built as columns
(figure_columns), one array per CSV column; figure_data reads the same
columns row by row.  No figure has more than MAX_FIGURE_ROWS candidate rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import _check_m, cached_basis
from .coords import AntisymTensor, StateCoords, antisym_matrices, sum_of_squares
from .errors import (
    BadResolution,
    GradeMismatch,
    GradeOutOfRange,
    NegativeDiscriminant,
    ResourceLimit,
    UnsupportedM,
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

DEFAULT_TOL = 1e-9
# figure_data's largest resolution: fig1 then has about 10^6 grid rows
MAX_RESOLUTION = 1001
# a figure's largest candidate row count: fig1's resolution^2 grid rows, or
# 2 resolution (3 resolution + 1) points on each tunnel surface of fig2 (two
# surfaces) and fig3 (four), counted before the fig3 clip
MAX_FIGURE_ROWS = 2 ** 20
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


# the (r, T4) constraints in the order rT4_domain names the first one violated
_RT4_CONSTRAINTS = ("r_negative", "r_upper", "T4_upper", "T4_lower")


def _rT4_family(r: np.ndarray, t4: np.ndarray, tol: float):
    """Which (r, T4) constraints fail, one row per _RT4_CONSTRAINTS entry, and
    the boundary flag of the admissible points, per (r, T4) pair."""
    lower = np.maximum((r + 1.0) ** 2 - 2.0, 0.0)
    upper = 2.0 * r * r
    failed = np.stack([r < -tol, r > 1.0 + tol, t4 > upper + tol, t4 < lower - tol])
    boundary = ~failed.any(axis=0) & (
        (np.abs(r - 1.0) <= tol) | (np.abs(t4 - upper) <= tol) | (np.abs(t4 - lower) <= tol))
    return failed, boundary


def rT4_domain(r: float, t4: float, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """The (r, T4) region for grade-2 configurations at m = 2."""
    inv = InvariantSet(r=max(r, 0.0), T4=max(t4, 0.0))
    failed, boundary = _rT4_family(np.array([r], dtype=float), np.array([t4], dtype=float), tol)
    violated = next((name for name, bad in zip(_RT4_CONSTRAINTS, failed[:, 0]) if bad), None)
    return DomainVerdict(admissible=violated is None, boundary=bool(boundary[0]),
                         violated=violated, invariants_used=inv, tol=tol)


def z_variable(r: float, t4: float) -> float:
    """z = 1/2 - sqrt(2 r^2 - T4); raises if the discriminant is genuinely negative."""
    disc = 2.0 * r * r - t4
    if disc < -1e-12:
        raise NegativeDiscriminant(f"2 r^2 - T4 = {disc} < 0")
    return 0.5 - math.sqrt(max(disc, 0.0))


def z_from_coords(g2: AntisymTensor) -> float:
    """z computed directly from the tensor components (not through r, T4).

    side 4: z = 1/2 - 2 |G_12 G_34 - G_13 G_24 + G_14 G_23|  (the Pfaffian)
    side 6: z = 1/2 - sqrt(sum_{i<j} Ad_ij^2) / 4 via the quadratic dual.
    """
    if g2.k != 2:
        raise GradeMismatch("z_from_coords needs a grade-2 tensor")
    if g2.side == 4:
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


def _require_invariants(r: np.ndarray, t4: np.ndarray | float = 0.0) -> None:
    """InvariantSet's check (r, T4 >= 0) on every entry, applied to the smallest."""
    if np.size(r):
        InvariantSet(r=float(np.min(r)), T4=float(np.min(t4)))


def _tunnel_family(pts: np.ndarray):
    """alpha_+, alpha_-, r and T4 of G_12 = x, G_34 = y, G_23 = z per (x, y, z) row.

    alpha_pm = sqrt((x +- y)^2 + z^2).  T4 = trace(G^4) is the squared
    Frobenius norm of G^2, whose nonzero entries are -x^2, -(x^2 + z^2),
    -(y^2 + z^2), -y^2 on the diagonal and xz, yz twice each off it.  The
    coordinates must be finite.
    """
    if not np.isfinite(pts).all():
        raise ValueError("non-finite tunnel coordinates")
    x, y, z = pts.T
    xx, yy, zz = x * x, y * y, z * z
    r = xx + yy + zz
    t4 = xx * xx + (xx + zz) ** 2 + (yy + zz) ** 2 + yy * yy + 2.0 * zz * (xx + yy)
    _require_invariants(r, t4)
    return np.hypot(x + y, z), np.hypot(x - y, z), r, t4


def _tunnel_admissible(pts: np.ndarray) -> np.ndarray:
    """tunnel_membership(x, y, z).admissible for every (x, y, z) row."""
    ap, am, _, _ = _tunnel_family(pts)
    return (ap <= 1.0 + DEFAULT_TOL) & (am <= 1.0 + DEFAULT_TOL)


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


@dataclass(frozen=True)
class SampleRecord:
    index: int
    coefficients: tuple
    closed_admissible: bool
    oracle_admissible: bool
    boundary_margin: float


@dataclass(frozen=True)
class SampleSet:
    m: int
    k: int
    n: int
    seed: int
    box: float
    records: list = field(repr=False)

    def disagreements(self, margin: float = 1e-8) -> list:
        return [rec for rec in self.records
                if rec.closed_admissible != rec.oracle_admissible
                and rec.boundary_margin > margin]

    def admissible_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.closed_admissible for r in self.records) / len(self.records)


def sample_domain(m: int, k: int, n: int, seed: int, box: float = 1.2) -> SampleSet:
    """Monte-Carlo atlas: n grade-k tensors uniform in [-box, box]^dim, each
    classified by the closed-form domain and by the eigenvalue oracle."""
    _check_m(m)
    if k not in (1, 2):
        raise GradeOutOfRange("sampling covers tensor grades 1 and 2")
    if n < 0 or n > 10 ** 6:
        raise ResourceLimit(f"sample count {n} out of range")
    if not (math.isfinite(box) and box >= 0):
        raise ResourceLimit(f"box must be a finite number >= 0, got {box!r}")
    side = 2 * m
    keys = ([(i,) for i in range(1, side + 1)] if k == 1
            else [(i, j) for i in range(1, side + 1) for j in range(i + 1, side + 1)])
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-box, box, size=(n, len(keys)))
    if not np.isfinite(draws).all():
        raise ValueError("non-finite tensor values")
    basis = cached_basis(m)
    min_closed = np.empty(n)
    oracle_min = np.empty(n)
    per = max(1, CHUNK_BYTES // (16 * basis.dim ** 2))
    for lo in range(0, n, per):
        columns = dict(zip(keys, draws[lo:lo + per].T))
        min_closed[lo:lo + per] = _closed_form_minima(m, k, columns)
        rho = basis.expand({(): 1.0, **columns}) / basis.dim
        oracle_min[lo:lo + per] = hermitian_eigenvalues(rho)[:, 0]
    records = [SampleRecord(index=idx, coefficients=tuple(coeffs), closed_admissible=closed_ok,
                            oracle_admissible=oracle_ok, boundary_margin=margin)
               for idx, (coeffs, closed_ok, oracle_ok, margin) in enumerate(zip(
                   draws.tolist(), (min_closed >= -DEFAULT_TOL).tolist(),
                   (oracle_min >= -DEFAULT_TOL).tolist(), np.abs(min_closed).tolist()))]
    return SampleSet(m=m, k=k, n=n, seed=seed, box=box, records=records)


def _closed_form_minima(m: int, k: int, columns: dict) -> np.ndarray:
    """Smallest closed-form eigenvalue of each tensor of a grade-k stack given as {key: values}."""
    if k == 1:
        r = sum_of_squares(columns.values())
        _require_invariants(r)
        return (1.0 - np.sqrt(r)) / 2 ** m
    return normal_form_eigenvalues(antisym_matrices(2 * m, columns))[:, 0]


def _tunnel_surface_points(kind: str, level: float, resolution: int, box: float) -> np.ndarray:
    """Parametric points of alpha_kind = level inside the box, one (x, y, z) row each."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    ts = np.linspace(-2.0 * box, 2.0 * box, 3 * resolution + 1)
    # math.cos/sin (not np.cos/sin, which may differ in the last bit) keep the
    # coordinates of earlier releases
    u = np.array([level * math.cos(theta) for theta in thetas])[:, None]  # x + y or x - y
    z = np.array([level * math.sin(theta) for theta in thetas])[:, None]
    if kind == "alpha_plus":
        x, y = (u + ts) / 2.0, (u - ts) / 2.0
    else:
        x, y = (ts + u) / 2.0, (ts - u) / 2.0
    pts = np.stack(np.broadcast_arrays(x, y, z), axis=-1).reshape(-1, 3)
    return pts[np.all(np.abs(pts) <= box, axis=1)]


_FIG1_COLUMNS = ("r", "T4", "admissible", "on_boundary")
_SURFACE_COLUMNS = ("x", "y", "z", "surface_id")
# (kind, level) of the tunnel surfaces drawn in fig2 and fig3
_SURFACES = {
    "fig2": (("alpha_plus", 1.0), ("alpha_minus", 1.0)),
    "fig3": (("alpha_plus", 1.0), ("alpha_plus", 0.1),
             ("alpha_minus", 1.0), ("alpha_minus", 0.01)),
}


def _fig1_columns(resolution: int) -> list:
    """r, T4, admissible and on_boundary over the resolution x resolution (r, T4) grid."""
    rs = np.linspace(0.0, 1.0, resolution)
    r = np.repeat(rs, resolution)
    t4 = np.tile(np.linspace(0.0, 2.0, resolution), resolution)
    failed, boundary = _rT4_family(r, t4, DEFAULT_TOL)
    return [r, t4, ~failed.any(axis=0), boundary]


def _surface_columns(which: str, resolution: int, paper_cube: bool) -> list:
    """x, y, z and surface_id of the points of fig2 (every candidate) or fig3
    (the admissible ones, optionally only those in the paper's unit cube)."""
    parts, tags = [], []
    for kind, level in _SURFACES[which]:
        pts = _tunnel_surface_points(kind, level, resolution, box=1.5)
        if which == "fig3":
            keep = _tunnel_admissible(pts)
            if paper_cube:
                keep &= np.all((pts >= -1e-12) & (pts <= 1 + 1e-12), axis=1)
            pts = pts[keep]
        parts.append(pts)
        tags.append(f"{kind}={level:g}")
    x, y, z = np.concatenate(parts).T
    # an object column shares one str per surface among all its rows
    return [x, y, z, np.repeat(np.array(tags, dtype=object), [len(pts) for pts in parts])]


def _rows(columns: list) -> list:
    """One tuple of Python scalars per row of the columns."""
    return list(zip(*(col.tolist() for col in columns)))


def _check_figure(which: str, resolution) -> int:
    """The resolution as an int, once which and resolution name a dataset of
    at most MAX_FIGURE_ROWS candidate rows."""
    if not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise BadResolution(f"resolution must be an integer >= 2, got {resolution!r}")
    if resolution > MAX_RESOLUTION:
        raise ResourceLimit(f"resolution {resolution} exceeds the maximum {MAX_RESOLUTION}")
    if which != "fig1" and which not in _SURFACES:
        raise BadResolution(f"unknown figure {which!r}")
    resolution = int(resolution)
    rows = (resolution ** 2 if which == "fig1"
            else len(_SURFACES[which]) * 2 * resolution * (3 * resolution + 1))
    if rows > MAX_FIGURE_ROWS:
        raise ResourceLimit(f"{which} at resolution {resolution} has {rows} candidate rows, "
                            f"above the maximum {MAX_FIGURE_ROWS}")
    return resolution


def figure_columns(which: str, resolution: int, paper_cube: bool = False) -> tuple:
    """(column names, one array per column) of a figure dataset.

    The columns of figure_data's rows: fig1 gives r, T4 (float) and
    admissible, on_boundary (bool); fig2 and fig3 give x, y, z (float) and
    surface_id (str).
    """
    resolution = _check_figure(which, resolution)
    if which == "fig1":
        return list(_FIG1_COLUMNS), _fig1_columns(resolution)
    return list(_SURFACE_COLUMNS), _surface_columns(which, resolution, paper_cube)


def _fig1(resolution: int) -> dict:
    rs = np.linspace(0.0, 1.0, resolution)
    curve_upper = [(float(r), float(2.0 * r * r)) for r in rs]
    lo = math.sqrt(2.0) - 1.0
    curve_lower = [(float(r), float((r + 1.0) ** 2 - 2.0))
                   for r in np.linspace(lo, 1.0, resolution)]
    return {
        "which": "fig1",
        "resolution": resolution,
        "grid_columns": list(_FIG1_COLUMNS),
        "grid": _rows(_fig1_columns(resolution)),
        "curve_upper": curve_upper,
        "curve_lower": curve_lower,
    }


def figure_data(which: str, resolution: int, paper_cube: bool = False) -> dict:
    """Datasets behind the three diagnostic figures, one tuple per row.

    fig1: (r, T4) grid with verdicts plus the two boundary curves.
    fig2: point clouds of the iso-surfaces alpha_pm = 1 over [-1.5, 1.5]^3.
    fig3: surface points alpha_plus in {1, 0.1}, alpha_minus in {1, 0.01}
          clipped to the admissible intersection (optionally to the paper's
          unit cube).
    The rows are figure_columns read row by row.
    """
    resolution = _check_figure(which, resolution)
    if which == "fig1":
        return _fig1(resolution)
    data = {
        "which": which,
        "resolution": resolution,
        "columns": list(_SURFACE_COLUMNS),
        "points": _rows(_surface_columns(which, resolution, paper_cube)),
    }
    if which == "fig3":
        data["paper_cube"] = paper_cube
    return data

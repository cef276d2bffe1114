"""Figure datasets and the array form of the region rules they draw.

fig1 is the (r, T4) wedge of grade-2 configurations at m = 2,

    max((r + 1)^2 - 2, 0) <= T4 <= 2 r^2,     0 <= r <= 1,

decided over its whole grid by one array form of the inequalities
(_rT4_family), which identities.rT4_domain applies to a single point.  fig2
and fig3 are point clouds of the elliptic tunnel surfaces
alpha_pm = sqrt((x +- y)^2 + z^2) of the slice (G_12, G_34, G_23) = (x, y, z);
fig3 keeps the points inside both tunnels (_tunnel_family, shared with
identities.tunnel_membership).  A figure is built as columns (figure_columns),
one array per CSV column; figure_data reads the same columns row by row.  No
figure has more than MAX_FIGURE_ROWS candidate rows.

This module also owns the package's rule on the invariants r and T4
themselves: both are sums of squares (require_sums_of_squares).  It imports
nothing of the package but its errors, so the CLI can draw a figure without
loading the algebra.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadResolution, ResourceLimit

DEFAULT_TOL = 1e-9
# figure_data's largest resolution: fig1 then has about 10^6 grid rows
MAX_RESOLUTION = 1001
# a figure's largest candidate row count: fig1's resolution^2 grid rows, or
# 2 resolution (3 resolution + 1) points on each tunnel surface of fig2 (two
# surfaces) and fig3 (four), counted before the fig3 clip
MAX_FIGURE_ROWS = 2 ** 20


def require_sums_of_squares(r, t4=0.0) -> None:
    """The package's one (r, T4) sign rule: both are sums of squares, so
    ValueError if any entry of either is below -1e-12 (scalars or arrays)."""
    if np.min(r, initial=0.0) < -1e-12 or np.min(t4, initial=0.0) < -1e-12:
        raise ValueError("r and T4 are sums of squares and must be nonnegative")


# the (r, T4) constraints in the order of _rT4_family's rows
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
    require_sums_of_squares(r, t4)
    return np.hypot(x + y, z), np.hypot(x - y, z), r, t4


def _tunnel_admissible(pts: np.ndarray) -> np.ndarray:
    """tunnel_membership(x, y, z).admissible for every (x, y, z) row."""
    ap, am, _, _ = _tunnel_family(pts)
    return (ap <= 1.0 + DEFAULT_TOL) & (am <= 1.0 + DEFAULT_TOL)


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

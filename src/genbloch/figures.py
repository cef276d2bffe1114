"""Figure datasets and the array form of the region rules they draw.

fig1 is the (r, T4) wedge of grade-2 configurations at m = 2,

    max((r + 1)^2 - 2, 0) <= T4 <= 2 r^2,     0 <= r <= 1,

decided over its whole grid by one array form of the inequalities
(_rT4_family).  fig2 and fig3 are point clouds of the elliptic tunnel surfaces
alpha_pm = sqrt((x +- y)^2 + z^2) of the slice (G_12, G_34, G_23) = (x, y, z);
fig3 keeps the points inside both tunnels.  The mirror y -> -y (G_34 -> -G_34) swaps
alpha_plus and alpha_minus, so each level's alpha_plus surface is built once
and mirrored.  A figure is built as columns (figure_columns), one array per
column of every output format, and fig1's two boundary curves as (r, T4)
columns (boundary_curves).  No figure has more than MAX_ROWS candidate rows.

The module computes no invariant: fig1's r and T4 are grid values, and the
tunnels need only alpha_pm.  It imports nothing of the package but
DEFAULT_TOL, MAX_ROWS and the errors, so the CLI can draw a figure without
loading the algebra.
"""

from __future__ import annotations

import math

import numpy as np

from . import DEFAULT_TOL, MAX_ROWS
from .errors import BadResolution, KindMismatch, ResourceLimit

# the half-width of the cube that holds every tunnel surface point
_BOX = 1.5


def _rT4_family(r: np.ndarray, t4: np.ndarray, tol: float):
    """(admissible, on_boundary) of each (r, T4) pair."""
    lower = np.maximum((r + 1.0) ** 2 - 2.0, 0.0)
    upper = 2.0 * r * r
    admissible = ~((r < -tol) | (r > 1.0 + tol) | (t4 > upper + tol) | (t4 < lower - tol))
    boundary = admissible & (
        (np.abs(r - 1.0) <= tol) | (np.abs(t4 - upper) <= tol) | (np.abs(t4 - lower) <= tol))
    return admissible, boundary


def _tunnel_surface_points(level: float, resolution: int) -> tuple:
    """Parametric points of alpha_plus = level inside the box, as x, y, z columns."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    ts = np.linspace(-2.0 * _BOX, 2.0 * _BOX, 3 * resolution + 1)
    # math.cos/sin (not np.cos/sin, which may differ in the last bit) keep the
    # coordinates of earlier releases
    u = np.array([level * math.cos(theta) for theta in thetas])[:, None]  # x + y
    z = np.array([level * math.sin(theta) for theta in thetas])[:, None]
    x, y, z = ((u + ts) / 2.0).ravel(), ((u - ts) / 2.0).ravel(), np.repeat(z.ravel(), len(ts))
    inside = (np.abs(x) <= _BOX) & (np.abs(y) <= _BOX) & (np.abs(z) <= _BOX)
    return x[inside], y[inside], z[inside]


# (kind, level) of the tunnel surfaces drawn in fig2 and fig3, in output order
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
    return [r, t4, *_rT4_family(r, t4, DEFAULT_TOL)]


def _surface_columns(which: str, resolution: int, paper_cube: bool) -> list:
    """x, y, z and surface_id of the points of fig2 (every candidate) or fig3
    (the admissible ones, optionally only those in the paper's unit cube).
    alpha_minus = level is alpha_plus = level mirrored, fig3's tunnel clip
    included: the clip is symmetric in alpha_pm."""
    surfaces, parts, tags = {}, [], []
    for kind, level in _SURFACES[which]:
        if level not in surfaces:
            x, y, z = _tunnel_surface_points(level, resolution)
            if which == "fig3":
                keep = ((np.hypot(x + y, z) <= 1.0 + DEFAULT_TOL)
                        & (np.hypot(x - y, z) <= 1.0 + DEFAULT_TOL))
                x, y, z = x[keep], y[keep], z[keep]
            surfaces[level] = x, y, z
        x, y, z = surfaces[level]
        if kind == "alpha_minus":
            y = 0.0 - y  # -y would turn the +0.0 of (t - u) / 2 into -0.0
        if paper_cube:
            cols = np.stack([x, y, z])
            x, y, z = cols[:, ((cols >= -1e-12) & (cols <= 1 + 1e-12)).all(axis=0)]
        parts.append((x, y, z))
        tags.append(f"{kind}={level:g}")
    x, y, z = (np.concatenate(cols) for cols in zip(*parts))
    # an object column shares one str per surface among all its rows
    return [x, y, z, np.repeat(np.array(tags, dtype=object), [len(cols[0]) for cols in parts])]


def _check_figure(which: str, resolution) -> int:
    """The resolution as an int, once which and resolution name a dataset of
    at most MAX_ROWS candidate rows: fig1's grid rows, or the points of every
    tunnel surface drawn, counted before the fig3 clip."""
    if not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise BadResolution(f"resolution must be an integer >= 2, got {resolution!r}")
    if which != "fig1" and which not in _SURFACES:
        raise BadResolution(f"unknown figure {which!r}")
    resolution = int(resolution)
    rows = (resolution ** 2 if which == "fig1"
            else len(_SURFACES[which]) * 2 * resolution * (3 * resolution + 1))
    if rows > MAX_ROWS:
        raise ResourceLimit(f"{which} at resolution {resolution} has {rows} candidate rows, "
                            f"above the maximum {MAX_ROWS}")
    return resolution


def figure_columns(which: str, resolution: int, paper_cube: bool = False) -> tuple:
    """(column names, one array per column) of a figure dataset.

    fig1 gives its (r, T4) grid as r, T4 (float) and admissible, on_boundary
    (bool); fig2 (alpha_pm = 1 over [-1.5, 1.5]^3) and fig3 (alpha_plus in
    {1, 0.1}, alpha_minus in {1, 0.01}, clipped to the admissible set and
    optionally to the paper's unit cube) give surface points as x, y, z
    (float) and surface_id (str).  paper_cube on fig1 or fig2 is KindMismatch.
    """
    if paper_cube and which != "fig3":
        raise KindMismatch(f"--paper-cube applies to fig3 only, not {which}")
    resolution = _check_figure(which, resolution)
    if which == "fig1":
        return ["r", "T4", "admissible", "on_boundary"], _fig1_columns(resolution)
    return ["x", "y", "z", "surface_id"], _surface_columns(which, resolution, paper_cube)


def boundary_curves(resolution: int) -> dict:
    """fig1's two boundary curves, each as (r, T4) columns of resolution points:
    curve_upper T4 = 2 r^2 over 0 <= r <= 1 and curve_lower T4 = (r + 1)^2 - 2
    over sqrt(2) - 1 <= r <= 1, where it leaves T4 = 0."""
    resolution = _check_figure("fig1", resolution)
    rs = np.linspace(0.0, 1.0, resolution)
    lows = np.linspace(math.sqrt(2.0) - 1.0, 1.0, resolution)
    # point by point: the array square x * x can differ from pow in the last bit
    return {"curve_upper": [rs, 2.0 * rs * rs],
            "curve_lower": [lows, np.array([(r + 1.0) ** 2 - 2.0 for r in lows])]}

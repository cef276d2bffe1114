"""Figure datasets and the array form of the region rules they draw.

fig1 is the (r, T4) wedge of grade-2 configurations at m = 2,

    max((r + 1)^2 - 2, 0) <= T4 <= 2 r^2,     0 <= r <= 1,

decided over its whole grid by one array form of the inequalities
(_rT4_family).  fig2 and fig3 are point clouds of the elliptic tunnel surfaces
alpha_pm = sqrt((x +- y)^2 + z^2) of the slice (G_12, G_34, G_23) = (x, y, z);
fig3 keeps the points inside both tunnels.  The mirror y -> -y (G_34 -> -G_34) swaps
alpha_plus and alpha_minus, so each level's alpha_plus surface is built once
and mirrored.  A figure is built as columns (figure_columns), one array per
column of every output format.  No figure has more than MAX_ROWS candidate
rows.

A figure of at most PLAIN_ROWS candidate rows is also built, value for value,
as lists of Python floats, bools and strs (_plain_columns), from math and the
same formulas one point at a time; numpy loads only on the array path.  fig3's
plain clip tries, per theta, only the t with |t| <= sqrt((1 + tol)^2 - w^2)
+ 1e-6, found by bisection: a - b is t to rounding, so no other t can pass it;
with the paper's cube it tries only the t whose point can lie in the cube
too, so each surface is built for its own cube (_plain_surface).  The CLI
answers with one form, chosen by size (_columns, which checks the request
once): lists at or below PLAIN_ROWS, arrays above.
fig1's two boundary curves, at most 1,024 points each, are always lists of
(r, T4) columns (_plain_curves).
Per fresh process, the plain path answers faster than numpy's import and the
array path together up to about 43,000 candidate rows of fig2 in JSON, 45,000
in SVG and 49,000 in CSV, and further for fig1, whose floats repeat (about
120,000 in JSON), and fig3, whose clip drops most candidates (about 125,000
in CSV); PLAIN_ROWS sits below every such crossover.

The module computes no invariant: fig1's r and T4 are grid values, and the
tunnels need only alpha_pm.  It imports nothing of the package but
DEFAULT_TOL, MAX_ROWS, the integer rule _is_int and the errors, so the CLI
can draw a figure without loading the algebra.
"""

from __future__ import annotations

import bisect
import math

from . import DEFAULT_TOL, MAX_ROWS, _is_int
from .errors import BadResolution, KindMismatch, ResourceLimit

# the most candidate rows of a figure built from Python floats, without numpy:
# fig1 up to resolution 181, fig2 up to 52, fig3 up to 36
PLAIN_ROWS = 2 ** 15

# the half-width of the cube that holds every tunnel surface point
_BOX = 1.5
# the bounds of the paper's unit cube [0, 1]^3, each widened by 1e-12
_CUBE = (-1e-12, 1 + 1e-12)


def _rT4_family(r, t4, tol: float):
    """(admissible, on_boundary) of each (r, T4) pair of the arrays r and t4."""
    import numpy as np

    lower = np.maximum((r + 1.0) ** 2 - 2.0, 0.0)
    upper = 2.0 * r * r
    admissible = ~((r < -tol) | (r > 1.0 + tol) | (t4 > upper + tol) | (t4 < lower - tol))
    boundary = admissible & (
        (np.abs(r - 1.0) <= tol) | (np.abs(t4 - upper) <= tol) | (np.abs(t4 - lower) <= tol))
    return admissible, boundary


def _tunnel_surface_points(level: float, resolution: int) -> tuple:
    """Parametric points of alpha_plus = level inside the box, as x, y, z columns."""
    import numpy as np

    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    ts = np.linspace(-2.0 * _BOX, 2.0 * _BOX, 3 * resolution + 1)
    # math.cos/sin (not np.cos/sin, which may differ in the last bit) keep the
    # coordinates of earlier releases
    u = np.array([level * math.cos(theta) for theta in thetas])[:, None]  # x + y
    z = np.array([level * math.sin(theta) for theta in thetas])[:, None]
    x, y, z = ((u + ts) / 2.0).ravel(), ((u - ts) / 2.0).ravel(), np.repeat(z.ravel(), len(ts))
    inside = (np.abs(x) <= _BOX) & (np.abs(y) <= _BOX)
    return x[inside], y[inside], z[inside]


# (kind, level) of the tunnel surfaces drawn in fig2 and fig3, in output order;
# no builder tests z: |z| = level |sin theta| <= 1 < _BOX for every level here
_SURFACES = {
    "fig2": (("alpha_plus", 1.0), ("alpha_minus", 1.0)),
    "fig3": (("alpha_plus", 1.0), ("alpha_plus", 0.1),
             ("alpha_minus", 1.0), ("alpha_minus", 0.01)),
}


def _fig1_columns(resolution: int) -> list:
    """r, T4, admissible and on_boundary over the resolution x resolution (r, T4) grid."""
    import numpy as np

    rs = np.linspace(0.0, 1.0, resolution)
    r = np.repeat(rs, resolution)
    t4 = np.tile(np.linspace(0.0, 2.0, resolution), resolution)
    return [r, t4, *_rT4_family(r, t4, DEFAULT_TOL)]


def _surface_columns(which: str, resolution: int, paper_cube: bool) -> list:
    """x, y, z and surface_id of the points of fig2 (every candidate) or fig3
    (the admissible ones, optionally only those in the paper's unit cube).
    alpha_minus = level is alpha_plus = level mirrored, fig3's tunnel clip
    included: the clip is symmetric in alpha_pm."""
    import numpy as np

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
            x, y, z = cols[:, ((cols >= _CUBE[0]) & (cols <= _CUBE[1])).all(axis=0)]
        parts.append((x, y, z))
        tags.append(f"{kind}={level:g}")
    x, y, z = (np.concatenate(cols) for cols in zip(*parts))
    # an object column shares one str per surface among all its rows
    return [x, y, z, np.repeat(np.array(tags, dtype=object), [len(cols[0]) for cols in parts])]


def _candidate_rows(which: str, resolution: int) -> int:
    """fig1's grid rows, or the points of every tunnel surface drawn, counted
    before the fig3 clip."""
    return (resolution ** 2 if which == "fig1"
            else len(_SURFACES[which]) * 2 * resolution * (3 * resolution + 1))


def _check_figure(which: str, resolution, paper_cube: bool = False) -> int:
    """The resolution as an int, once which, resolution and paper_cube name a
    dataset of at most MAX_ROWS candidate rows (_candidate_rows), an integer
    by the package's rule (genbloch._is_int), which loads no numpy."""
    if paper_cube and which != "fig3":
        raise KindMismatch(f"--paper-cube applies to fig3 only, not {which}")
    if not _is_int(resolution) or resolution < 2:
        raise BadResolution(f"resolution must be an integer >= 2, got {resolution!r}")
    if which != "fig1" and which not in _SURFACES:
        raise BadResolution(f"unknown figure {which!r}")
    resolution = int(resolution)
    rows = _candidate_rows(which, resolution)
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
    resolution = _check_figure(which, resolution, paper_cube)
    if which == "fig1":
        return ["r", "T4", "admissible", "on_boundary"], _fig1_columns(resolution)
    return ["x", "y", "z", "surface_id"], _surface_columns(which, resolution, paper_cube)


def _columns(which: str, resolution, paper_cube: bool = False) -> tuple:
    """The dataset the CLI answers with: _plain_columns, list columns, for a
    figure of at most PLAIN_ROWS candidate rows, and figure_columns, arrays,
    above; it checks the request once and passes the checked int on."""
    resolution = _check_figure(which, resolution, paper_cube)
    return (_plain_columns if _candidate_rows(which, resolution) <= PLAIN_ROWS
            else figure_columns)(which, resolution, paper_cube)


def _linspace(start: float, stop: float, num: int, endpoint: bool = True) -> list:
    """np.linspace(start, stop, num, endpoint=endpoint) of num >= 2 as Python
    floats, value for value: i * step + start, the last one stop."""
    step = (stop - start) / (num - 1 if endpoint else num)
    values = [i * step + start for i in range(num)]
    if endpoint:
        values[-1] = stop
    return values


def _plain_surface(level: float, resolution: int, clip: bool, cube: float = 0.0) -> tuple:
    """_tunnel_surface_points(level, resolution) as x, y, z lists; if clip, only
    the points that fig3's tunnel clip keeps, and if cube is 1.0 or -1.0 only
    those whose (x, cube y, z) lies in the paper's unit cube [lo, hi]^3 (the
    cube of alpha_plus, or of alpha_minus once mirrored).  a + b is u and
    a - b is t to rounding, so each theta tries only the t within 1e-6 of
    where they can pass, found by bisection of the sorted ts: for the clip
    |t| <= sqrt((1 + tol)^2 - w^2), no other t having hypot(a - b, w) <= 1 + tol;
    for the cube a = (u + t) / 2 and cube b = cube (u - t) / 2 in [lo, hi]."""
    ts = _linspace(-2.0 * _BOX, 2.0 * _BOX, 3 * resolution + 1)
    lo, hi = _CUBE
    x, y, z = [], [], []
    for theta in _linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False):
        u, w = level * math.cos(theta), level * math.sin(theta)
        reach = math.sqrt((1.0 + DEFAULT_TOL) ** 2 - w * w) if clip else math.inf
        first, last = -reach, reach
        if cube:
            if not lo <= w <= hi:
                continue
            ends = (u - 2.0 * cube * lo, u - 2.0 * cube * hi)
            first = max(first, 2.0 * lo - u, min(ends))
            last = min(last, 2.0 * hi - u, max(ends))
        for t in ts[bisect.bisect_left(ts, first - 1e-6):bisect.bisect_right(ts, last + 1e-6)]:
            a, b = (u + t) / 2.0, (u - t) / 2.0
            if abs(a) <= _BOX and abs(b) <= _BOX and (
                    not clip or math.hypot(a + b, w) <= 1.0 + DEFAULT_TOL
                    and math.hypot(a - b, w) <= 1.0 + DEFAULT_TOL) and (
                    not cube or lo <= a <= hi and lo <= cube * b <= hi):
                x.append(a)
                y.append(b)
                z.append(w)
    return x, y, z


def _plain_columns(which: str, resolution: int, paper_cube: bool = False) -> tuple:
    """figure_columns(which, resolution, paper_cube) with each column a list
    of Python floats, bools or strs, for a checked figure of at most PLAIN_ROWS
    candidate rows; tolist() of the array columns gives the same lists."""
    if which == "fig1":
        rs, t4s = _linspace(0.0, 1.0, resolution), _linspace(0.0, 2.0, resolution)
        tol = DEFAULT_TOL
        admissible, boundary = [], []
        for a in rs:
            # _rT4_family's rule one point at a time; the array ** 2 is x * x
            lower, upper = max((a + 1.0) * (a + 1.0) - 2.0, 0.0), 2.0 * a * a
            in_r, on_r = not (a < -tol or a > 1.0 + tol), abs(a - 1.0) <= tol
            for b in t4s:
                inside = in_r and not (b > upper + tol or b < lower - tol)
                admissible.append(inside)
                boundary.append(inside and (on_r or abs(b - upper) <= tol
                                            or abs(b - lower) <= tol))
        return (["r", "T4", "admissible", "on_boundary"],
                [[a for a in rs for _ in t4s], t4s * resolution, admissible, boundary])
    surfaces, columns = {}, [[], [], [], []]
    for kind, level in _SURFACES[which]:
        # alpha_minus is alpha_plus mirrored, y -> -y, so it shares its surface
        # but not its cube
        cube = (-1.0 if kind == "alpha_minus" else 1.0) if paper_cube else 0.0
        if (level, cube) not in surfaces:
            surfaces[level, cube] = _plain_surface(level, resolution, which == "fig3", cube)
        x, y, z = surfaces[level, cube]
        if kind == "alpha_minus":
            y = [0.0 - v for v in y]
        for column, part in zip(columns, (x, y, z, [f"{kind}={level:g}"] * len(x))):
            column += part
    return ["x", "y", "z", "surface_id"], columns


def _plain_curves(resolution: int) -> dict:
    """fig1's two boundary curves at a checked resolution, each as (r, T4) list
    columns of resolution Python floats: curve_upper T4 = 2 r^2 over 0 <= r <= 1
    and curve_lower T4 = (r + 1)^2 - 2 over sqrt(2) - 1 <= r <= 1, where it leaves T4 = 0."""
    rs = _linspace(0.0, 1.0, resolution)
    lows = _linspace(math.sqrt(2.0) - 1.0, 1.0, resolution)
    return {"curve_upper": [rs, [2.0 * r * r for r in rs]],
            "curve_lower": [lows, [(r + 1.0) ** 2 - 2.0 for r in lows]]}

"""Generalized Bloch spheres: where a parameter vector stays a state.

One rule decides every state: its smallest eigenvalue is >= -tol
(positivity), taken from a closed form for pure vector and grade-2
configurations and from the eigensolver otherwise.  Vector configurations
then live in a ball; grade-2 configurations at m = 2 live in the
two-invariant wedge max((r+1)^2 - 2, 0) <= T4 <= 2 r^2, equivalently the
intersection of two elliptic tunnels in the three-coordinate slice; the
sign rule on characteristic-polynomial coefficients is the same verdict
written as an identity.  Writes the figure datasets as CSV next to this script.
"""

import os

import numpy as np

from genbloch import (
    antisym,
    char_poly,
    descartes_positivity,
    encode,
    figure_data,
    hermitian_eigenvalues,
    min_eigenvalue_verdict,
    positivity,
    rT4_domain,
    sample_domain,
    state_coords,
    tensor_config,
    tunnel_membership,
    two_tensor_invariants,
    vector,
    z_from_coords,
    z_variable,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# --- vector ball ---------------------------------------------------------------
for grades in ({1: vector(2, [0.6, 0, 0, 0]), 4: {(1, 2, 3, 4): 0.8}},
               {1: vector(2, [1.1, 0, 0, 0])}):
    coords = state_coords(2, grades=grades)
    print(*positivity(coords, encode(coords)))

# --- the (r, T4) wedge ----------------------------------------------------------
for r, t4 in ((1.0, 2.0), (0.5, 0.4), (0.5, 0.6)):
    print(f"(r, T4) = ({r}, {t4}):", rT4_domain(r, t4))

# z = 1/2 - sqrt(2 r^2 - T4) computed two independent ways
g = antisym(2, 2, {(1, 2): 0.6, (3, 4): 0.3})
inv = two_tensor_invariants(g)
print("\nz via invariants:", z_variable(inv.r, inv.T4), " via components:", z_from_coords(g))

# --- tunnels ---------------------------------------------------------------------
for xyz in ((0, 0, 0), (0.5, 0.5, 0), (1, 1, 0)):
    print(f"tunnel{xyz}:", tunnel_membership(*xyz))

# closed form agrees with the eigensolver across the whole slice
pts = np.linspace(-1, 1, 11)
bad = 0
for x in pts:
    for y in pts:
        for z in pts:
            closed = tunnel_membership(float(x), float(y), float(z)).admissible
            gg = antisym(2, 2, {(1, 2): x, (3, 4): y, (2, 3): z})
            oracle = float(np.min(hermitian_eigenvalues(tensor_config(2, 2, gg)))) >= -1e-9
            bad += closed != oracle
print("grid disagreements:", bad)

# --- beyond pure configurations: smallest eigenvalue, and the sign rule -------------
rho = np.diag([1.1, -0.1, 0.0, 0.0])
print("\nnon-state by its smallest eigenvalue:",
      min_eigenvalue_verdict(float(hermitian_eigenvalues(rho)[0]), "positivity"))
print("non-state by the sign rule:", descartes_positivity(char_poly(rho)))

# --- Monte-Carlo atlas --------------------------------------------------------------
# sample_domain returns a table, (column names, one array per column), as figures do
atlas = dict(zip(*sample_domain(2, 2, 500, seed=7)))
closed, oracle = atlas["closed_admissible"], atlas["oracle_admissible"]
# a disagreement away from the boundary would be a wrong closed form
disagreements = int(np.sum((closed != oracle) & (atlas["boundary_margin"] > 1e-8)))
print(f"\n500 sampled bivectors: {100 * closed.mean():.1f}% admissible,"
      f" {disagreements} closed-form/oracle disagreements")

# --- figure datasets -----------------------------------------------------------------
for which, kwargs in (("fig1", {}), ("fig2", {}), ("fig3", {})):
    data = figure_data(which, 21, **kwargs)
    rows = data.get("grid", data.get("points"))
    cols = data.get("grid_columns", data.get("columns"))
    path = os.path.join(OUT, f"{which}.csv")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(int(v)) if isinstance(v, bool) else str(v)
                              for v in row) + "\n")
    print(f"{which}: wrote {len(rows)} rows to {path}")

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genbloch.coords import AntisymTensor, antisym, encode, state_coords, tensor_config, vector
from genbloch.domains import CHUNK_BYTES, DEFAULT_TOL, DomainVerdict, positivity, sample_domain
from genbloch.errors import (
    BadIndex,
    BadResolution,
    GradeMismatch,
    GradeOutOfRange,
    KindMismatch,
    NegativeDiscriminant,
    ResourceLimit,
)
from genbloch.figures import _tunnel_surface_points, figure_data
from genbloch.identities import (
    char_poly,
    descartes_positivity,
    quartet_eigenvalues,
    rT4_domain,
    tunnel_membership,
    z_from_coords,
    z_variable,
)
from genbloch.invariants import InvariantSet, frobenius_r, trace_T4, two_tensor_invariants
from genbloch.linalg import hermitian_eigenvalues
from genbloch.spectra import closed_form_spectrum

from conftest import random_coords, random_tensor, random_unit_trace_hermitian, table_rows

ORACLE_TOL = 1e-9


def oracle_positive(rho):
    return float(np.min(hermitian_eigenvalues(rho))) >= -ORACLE_TOL


def vector_verdict(g1, pseudoscalar=None):
    """positivity's verdict on the m = 2 vector configuration (g1, pseudoscalar)."""
    grades = {1: g1} if pseudoscalar is None else {1: g1, 4: {(1, 2, 3, 4): pseudoscalar}}
    coords = state_coords(2, grades=grades)
    verdict, route = positivity(coords, encode(coords))
    assert route == "vector_ball"
    return verdict


def test_vector_domain_interior():
    v = vector_verdict(vector(2, [0, 0, 0, 0]))
    assert v.admissible and not v.boundary and v.violated is None


def test_vector_domain_boundary_with_pseudoscalar():
    v = vector_verdict(vector(2, [0.6, 0, 0, 0]), pseudoscalar=0.8)
    assert v.admissible and v.boundary


def test_vector_domain_inadmissible_matches_oracle():
    g = vector(2, [1.1, 0, 0, 0])
    v = vector_verdict(g)
    assert not v.admissible and v.violated == "bloch_ball"
    assert not oracle_positive(tensor_config(2, 1, g))


def test_vector_domain_rotation_invariant(rng):
    # the verdict depends on the coordinates only through the norm
    from genbloch.symmetry import orthogonal_from_generator

    for scale in (0.4, 0.999, 1.001, 1.6):
        g = rng.normal(size=4)
        g = scale * g / np.linalg.norm(g)
        base = vector_verdict(vector(2, list(g)))
        for _ in range(100):
            el = orthogonal_from_generator(random_tensor(rng, 2, 2))
            rotated = vector_verdict(vector(2, list(el @ g)))
            assert rotated.admissible == base.admissible
            assert rotated.boundary == base.boundary


def test_rT4_examples():
    v = rT4_domain(1.0, 2.0)
    assert v.admissible and v.boundary
    v = rT4_domain(0.5, 0.4)
    assert v.admissible and not v.boundary
    v = rT4_domain(0.5, 0.6)
    assert not v.admissible and v.violated == "T4_upper"


def test_rT4_lower_violation():
    # r close to 1 with tiny T4 breaks the lower bound
    v = rT4_domain(0.9, 0.5)
    assert not v.admissible and v.violated == "T4_lower"


def _rT4_per_point(r, t4, tol=DEFAULT_TOL):
    """The scalar (r, T4) inequalities, kept as the reference of the array rule."""
    lower = max((r + 1.0) ** 2 - 2.0, 0.0)
    upper = 2.0 * r * r
    violated = None
    if r < -tol:
        violated = "r_negative"
    elif r > 1.0 + tol:
        violated = "r_upper"
    elif t4 > upper + tol:
        violated = "T4_upper"
    elif t4 < lower - tol:
        violated = "T4_lower"
    admissible = violated is None
    boundary = admissible and (
        abs(r - 1.0) <= tol or abs(t4 - upper) <= tol or abs(t4 - lower) <= tol)
    return admissible, boundary, violated


@pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL, 1e-3])
def test_rT4_matches_per_point(rng, tol):
    edges = [0.0, math.sqrt(2.0) - 1.0, 0.5, 1.0]
    rs = [e + d for e in edges for d in (-2 * tol, -tol / 2, 0.0, tol / 2, 2 * tol)]
    rs += [-0.3, 1.3] + rng.uniform(0.0, 1.0, 20).tolist()
    for r in rs:
        lower, upper = max((r + 1.0) ** 2 - 2.0, 0.0), 2.0 * r * r
        t4s = [b + d for b in (lower, upper, 0.0, 2.0)
               for d in (-2 * tol, -tol / 2, 0.0, tol / 2, 2 * tol)]
        for t4 in t4s + rng.uniform(0.0, 2.0, 5).tolist():
            v = rT4_domain(r, t4, tol)
            assert (v.admissible, v.boundary, v.violated) == _rT4_per_point(r, t4, tol)


@pytest.mark.parametrize("resolution", [2, 3, 21, 101])
def test_fig1_matches_per_point(resolution):
    rs = np.linspace(0.0, 1.0, resolution)
    t4s = np.linspace(0.0, 2.0, resolution)
    expected = [(float(r), float(t4), *_rT4_per_point(float(r), float(t4))[:2])
                for r in rs for t4 in t4s]
    grid = figure_data("fig1", resolution)["grid"]
    assert grid == expected
    assert all(type(v) is float for row in grid for v in row[:2])
    assert all(type(v) is bool for row in grid for v in row[2:])


CASE_KINDS = ["vector", "vector_pseudoscalar", "extended_vector", "grade2",
              "mixed_standard", "mixed_extended"]


def _case_coords(m, kind, rng):
    """Unit-scalar coords of one positivity route, before scaling."""
    mode = "extended" if kind in ("extended_vector", "mixed_extended") else "standard"
    if kind.startswith("mixed"):
        return random_coords(rng, m, mode=mode)
    if kind == "grade2":
        return state_coords(m, grades={2: random_tensor(rng, m, 2)})
    grades = {1: random_tensor(rng, m, 1, side=2 * m + (mode == "extended"))}
    if kind == "vector_pseudoscalar":
        grades[2 * m] = {tuple(range(1, 2 * m + 1)): float(rng.uniform(-1.0, 1.0))}
    return state_coords(m, mode=mode, grades=grades)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(1, 7)), st.sampled_from(CASE_KINDS), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.floats(-0.5, 0.5), st.sampled_from([-3e-6, 3e-6])),
       st.sampled_from([DEFAULT_TOL, 1e-3]), st.booleans())
def test_positivity_matches_oracle(m, kind, seed, z, tol, at_tol):
    # scale the non-scalar part so that 2^m lambda_min = z, shifted by -2^m tol
    # when at_tol, so both sides of the verdict's edge -tol are drawn
    coords = _case_coords(m, kind, np.random.default_rng(seed))
    x_min = 2 ** m * float(hermitian_eigenvalues(encode(coords))[0]) - 1.0
    assume(x_min < -1e-3)
    s = (1.0 - (z - at_tol * 2 ** m * tol)) / -x_min
    coords = state_coords(m, coords.mode,
                          grades={k: t.scaled(s) for k, t in coords.grades.items()})
    rho = encode(coords)
    lam = float(hermitian_eigenvalues(rho)[0])
    # near-boundary states are excluded, as in criterion 08
    assume(abs(2 ** m * lam) > 1e-6 and abs(2 ** m * (lam + tol)) > 1e-6)
    verdict, route = positivity(coords, rho, tol)
    assert verdict.admissible == (lam >= -tol)
    assert verdict.tol == tol
    if m == 1:
        expected = "vector_ball"  # every one-qubit state is a vector plus pseudoscalar
    else:
        expected = {"grade2": "quartet_roots", "mixed_standard": "min_eigenvalue",
                    "mixed_extended": "min_eigenvalue"}.get(kind, "vector_ball")
    assert route == expected


def test_domain_verdict_consistency():
    with pytest.raises(ValueError):
        DomainVerdict(admissible=True, boundary=False, violated="x", invariants_used=None,
                      tol=1e-9)


def test_z_variable_frozen():
    g = antisym(2, 2, {(1, 2): 0.6, (3, 4): 0.3})
    r, t4 = frobenius_r(g), trace_T4(g)
    assert abs(z_variable(r, t4) - 0.14) < 1e-12
    assert abs(z_from_coords(g) - 0.14) < 1e-12
    assert z_variable(0.0, 0.0) == 0.5
    assert z_from_coords(antisym(2, 2, {})) == 0.5


def test_z_routes_agree_m2_m3(rng):
    for m in (2, 3):
        for _ in range(25):
            g = random_tensor(rng, m, 2)
            z1 = z_variable(frobenius_r(g), trace_T4(g))
            z2 = z_from_coords(g)
            assert abs(z1 - z2) < 1e-10


def test_z_variable_negative_discriminant():
    with pytest.raises(NegativeDiscriminant):
        z_variable(0.1, 1.0)


def test_one_discriminant_rule():
    # 2 r^2 - T4 = -0.01: the m = 2 spectrum and the z variable refuse it alike
    raised = []
    for call in (lambda: z_variable(0.1, 0.03),
                 lambda: quartet_eigenvalues(2, InvariantSet(r=0.1, T4=0.03))):
        with pytest.raises(NegativeDiscriminant) as info:
            call()
        raised.append(type(info.value))
    assert raised == [NegativeDiscriminant, NegativeDiscriminant]
    # within 1e-12 of zero the discriminant counts as 0 on both routes
    r, t4 = 0.5, 0.5 + 1e-13
    assert z_variable(r, t4) == 0.5
    assert quartet_eigenvalues(2, InvariantSet(r=r, T4=t4)).tolist() == pytest.approx(
        [(1 - math.sqrt(r)) / 4] * 2 + [(1 + math.sqrt(r)) / 4] * 2)


def test_rz_region_on_tensors(rng):
    # on realizable tensors the admissible set is exactly |r - 1/2| <= z <= 1/2,
    # so no admissible tensor ever has z < 0: the negative-z branch of the
    # transformed inequalities never applies
    for _ in range(300):
        g = random_tensor(rng, 2, 2, box=0.8)
        r = frobenius_r(g)
        z = z_from_coords(g)
        admissible = oracle_positive(tensor_config(2, 2, g))
        in_wedge = (abs(r - 0.5) <= z + 1e-12) and z <= 0.5 + 1e-12 and r <= 1 + 1e-12
        assert admissible == in_wedge
        if admissible:
            assert z >= -1e-12


def test_tunnel_examples():
    v = tunnel_membership(0, 0, 0)
    assert v.admissible and not v.boundary
    v = tunnel_membership(0.5, 0.5, 0)
    assert v.admissible and v.boundary
    v = tunnel_membership(1, 1, 0)
    assert not v.admissible and v.violated == "tunnel_plus"
    v = tunnel_membership(0.2, -0.9, 0.5)
    assert not v.admissible and v.violated == "tunnel_minus"


def test_tunnel_agrees_with_rT4_on_grid():
    pts = np.linspace(-1.0, 1.0, 9)
    for x in pts:
        for y in pts:
            for z in pts:
                g = antisym(2, 2, {(1, 2): x, (3, 4): y, (2, 3): z})
                inv = two_tensor_invariants(g)
                a = tunnel_membership(float(x), float(y), float(z)).admissible
                b = rT4_domain(inv.r, inv.T4).admissible
                assert a == b


def test_descartes_examples():
    assert descartes_positivity(char_poly(np.eye(4) / 4)).admissible
    v = descartes_positivity(char_poly(np.diag([1.1, -0.1, 0.0, 0.0])))
    assert not v.admissible
    assert v.violated is not None


def test_descartes_boundary_detection():
    v = descartes_positivity(char_poly(np.diag([0.5, 0.5, 0.0, 0.0])))
    assert v.admissible and v.boundary


def test_descartes_vs_oracle(rng):
    for _ in range(100):
        rho = random_unit_trace_hermitian(rng, 8)
        verdict = descartes_positivity(char_poly(rho))
        assert verdict.admissible == oracle_positive(rho)


def test_m2_domain_equivalence(rng):
    # closed-form (r, T4) verdict against the eigensolver, including
    # boundary-adjacent rescalings
    checked = 0
    for _ in range(300):
        g = random_tensor(rng, 2, 2)
        inv = two_tensor_invariants(g)
        closed = rT4_domain(inv.r, inv.T4)
        rho = tensor_config(2, 2, g)
        min_eig = float(np.min(hermitian_eigenvalues(rho)))
        if abs(min_eig) <= 1e-8:
            continue
        assert closed.admissible == (min_eig >= -ORACLE_TOL)
        checked += 1
    assert checked > 250


def test_m2_domain_equivalence_near_boundary(rng):
    # rescale tensors to put the smallest eigenvalue near zero
    for _ in range(25):
        g = random_tensor(rng, 2, 2)
        rho = tensor_config(2, 2, g)
        min_eig = float(np.min(hermitian_eigenvalues(rho)))
        dev = 0.25 - min_eig  # deviation scale from the mixed state
        for factor in (0.9, 0.999, 1.001, 1.1):
            scale = factor * 0.25 / dev
            gs = g.scaled(scale)
            inv = two_tensor_invariants(gs)
            closed = rT4_domain(inv.r, inv.T4)
            min_s = float(np.min(hermitian_eigenvalues(tensor_config(2, 2, gs))))
            if abs(min_s) <= 1e-8:
                continue
            assert closed.admissible == (min_s >= -ORACLE_TOL)


def test_tunnel_grid_vs_oracle_coarse():
    pts = np.linspace(-1.0, 1.0, 9)
    for x in pts:
        for y in pts:
            for z in pts:
                closed = tunnel_membership(float(x), float(y), float(z)).admissible
                g = antisym(2, 2, {(1, 2): x, (3, 4): y, (2, 3): z})
                assert closed == oracle_positive(tensor_config(2, 2, g))


def _sample_table(m, k, n, seed, box=1.2):
    """sample_domain's columns by name."""
    names, columns = sample_domain(m, k, n, seed=seed, box=box)
    return dict(zip(names, columns))


def _coefficients(table):
    return table_rows([table[f"c{i}"] for i in range(len(table) - 4)])


def _disagreements(table, margin=1e-8):
    """Indices of the draws whose two verdicts differ, away from the boundary."""
    differ = table["closed_admissible"] != table["oracle_admissible"]
    return np.flatnonzero(differ & (table["boundary_margin"] > margin)).tolist()


def test_sample_domain_deterministic():
    a = _sample_table(2, 2, 50, seed=11)
    b = _sample_table(2, 2, 50, seed=11)
    assert _coefficients(a) == _coefficients(b)
    assert a["closed_admissible"].tolist() == b["closed_admissible"].tolist()
    assert table_rows(sample_domain(2, 1, 0, seed=3)[1]) == []


def test_sample_domain_agreement():
    table = _sample_table(2, 2, 300, seed=5)
    assert _disagreements(table, margin=1e-8) == []
    table3 = _sample_table(3, 2, 100, seed=5)
    assert _disagreements(table3, margin=1e-8) == []


@pytest.mark.parametrize("m, box", [(4, 0.2), (5, 0.15)])
def test_sample_domain_grade2_large_m(m, box):
    table = _sample_table(m, 2, 150, seed=9, box=box)
    assert _disagreements(table, margin=1e-8) == []
    assert set(table["closed_admissible"].tolist()) == {True, False}


def closed_form_min(m, grades):
    return closed_form_spectrum(state_coords(m, grades=grades)).eigenvalues[0]


def _sample_per_draw(m, k, n, seed, box):
    """The per-draw loop that sample_domain batches: the reference for its rows."""
    side = 2 * m
    keys = ([(i,) for i in range(1, side + 1)] if k == 1
            else [(i, j) for i in range(1, side + 1) for j in range(i + 1, side + 1)])
    draws = np.random.default_rng(seed).uniform(-box, box, size=(n, len(keys)))
    rows = []
    for idx in range(n):
        tensor = AntisymTensor(m, k, side, {key: float(v) for key, v in zip(keys, draws[idx])})
        min_closed = float(closed_form_min(m, {k: tensor}))
        oracle = float(np.min(hermitian_eigenvalues(tensor_config(m, k, tensor))))
        rows.append((idx, *(float(v) for v in draws[idx]),
                     min_closed >= -ORACLE_TOL, oracle >= -ORACLE_TOL, abs(min_closed)))
    return rows


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_sample_domain_matches_per_draw(m, k):
    n = 40
    if m == 6:
        assert n > CHUNK_BYTES // (16 * 4 ** m)  # this case spans several chunks
    # boxes that put both verdicts among the draws at most m
    box = 1.2 / math.sqrt(m) if k == 1 else 1.6 / m ** 1.5
    names, columns = sample_domain(m, k, n, seed=m, box=box)
    rows = table_rows(columns)
    assert rows == _sample_per_draw(m, k, n, m, box)
    assert names == (["index"] + [f"c{i}" for i in range(len(rows[0]) - 4)]
                     + ["closed_admissible", "oracle_admissible", "boundary_margin"])
    for index, *coefficients, closed_ok, oracle_ok, margin in rows:
        assert type(index) is int
        assert type(closed_ok) is bool and type(oracle_ok) is bool
        assert type(margin) is float
        assert all(type(c) is float for c in coefficients)


def test_closed_form_vector_with_pseudoscalar():
    g = vector(2, [0.6, 0.0, 0.0, 0.0])
    assert closed_form_min(2, {1: g}) == (1.0 - 0.6) / 4
    assert closed_form_min(2, {1: g, 4: {(1, 2, 3, 4): 0.8}}) == 0.0
    # 1 + 4 * 1e-16 added left to right stays 1; a compensated sum (builtin
    # sum() from Python 3.12 on) gives 1 + 2^-51 and a margin of -2^-55
    assert closed_form_min(3, {1: vector(3, [1.0, 1e-8, 1e-8, 1e-8, 1e-8, 0.0])}) == 0.0
    with pytest.raises(KindMismatch):
        closed_form_min(2, {1: g, 2: {(1, 2): 0.5}})


def test_sample_domain_ball_fraction():
    frac = float(np.mean(_sample_table(2, 1, 1000, seed=7)["closed_admissible"]))
    p = (math.pi ** 2 / 2) / 2.4 ** 4
    sigma = math.sqrt(p * (1 - p) / 1000)
    assert abs(frac - p) <= 3 * sigma


def test_sample_domain_guards():
    with pytest.raises(GradeOutOfRange):
        sample_domain(2, 3, 10, seed=0)
    with pytest.raises(ResourceLimit):
        sample_domain(2, 1, -1, seed=0)
    # 1e308 is finite, but the draws' span 2 * box is not
    for box in (math.nan, math.inf, -math.inf, -0.5, 1e308):
        with pytest.raises(ResourceLimit):
            sample_domain(2, 1, 1, seed=0, box=box)
    # the widest box allowed draws finite coefficients (their squares overflow)
    with np.errstate(over="ignore", invalid="ignore"):
        widest = _sample_table(2, 1, 3, seed=0, box=sys.float_info.max / 2)
    assert np.isfinite(_coefficients(widest)).all()
    with pytest.raises(ResourceLimit):
        sample_domain(7, 1, 0, seed=0)
    with pytest.raises(BadIndex):
        sample_domain(0, 1, 0, seed=0)


def test_fig1_matches_inequality():
    data = figure_data("fig1", 21)
    assert len(data["grid"]) == 21 * 21
    for r, t4, adm, _ in data["grid"]:
        expected = (max((r + 1) ** 2 - 2, 0.0) - 1e-9 <= t4 <= 2 * r * r + 1e-9
                    and r <= 1 + 1e-9)
        assert adm == expected
    assert data["curve_upper"][-1] == (1.0, 2.0)
    assert abs(data["curve_lower"][-1][0] - 1.0) < 1e-15
    assert abs(data["curve_lower"][-1][1] - 2.0) < 1e-12


def test_fig2_points_on_surfaces():
    data = figure_data("fig2", 8)
    assert data["points"], "fig2 emitted no points"
    for x, y, z, sid in data["points"]:
        if sid.startswith("alpha_plus"):
            assert abs(math.hypot(x + y, z) - 1.0) < 1e-12
        else:
            assert abs(math.hypot(x - y, z) - 1.0) < 1e-12
    pts = {(round(x, 9), round(y, 9), round(z, 9)) for x, y, z, _ in data["points"]}
    assert (1.0, 0.0, 0.0) in pts


def test_fig3_points_admissible_and_oracle_positive():
    data = figure_data("fig3", 6)
    assert data["points"]
    for x, y, z, _ in data["points"]:
        assert tunnel_membership(x, y, z).admissible
    for x, y, z, _ in data["points"][::7]:
        g = antisym(2, 2, {(1, 2): x, (3, 4): y, (2, 3): z})
        assert float(np.min(hermitian_eigenvalues(tensor_config(2, 2, g)))) >= -1e-8


def _surface_points_per_point(kind, level, resolution, box):
    """The per-point loop behind _tunnel_surface_points, kept as its reference."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    ts = np.linspace(-2.0 * box, 2.0 * box, 3 * resolution + 1)
    pts = []
    for theta in thetas:
        u = level * math.cos(theta)
        z = level * math.sin(theta)
        for t in ts:
            if kind == "alpha_plus":
                x, y = (u + t) / 2.0, (u - t) / 2.0
            else:
                x, y = (t + u) / 2.0, (t - u) / 2.0
            if abs(x) <= box and abs(y) <= box and abs(z) <= box:
                pts.append((float(x), float(y), float(z)))
    return pts


@pytest.mark.parametrize("resolution", [6, 26])
def test_fig3_matches_tunnel_membership(resolution):
    in_cube = lambda v: -1e-12 <= v <= 1 + 1e-12  # noqa: E731
    expected = {False: [], True: []}
    for kind, level in [("alpha_plus", 1.0), ("alpha_plus", 0.1),
                        ("alpha_minus", 1.0), ("alpha_minus", 0.01)]:
        candidates = _surface_points_per_point(kind, level, resolution, 1.5)
        # bit for bit, signed zeros included
        assert (np.array(candidates).tobytes()
                == _tunnel_surface_points(kind, level, resolution, 1.5).tobytes())
        for x, y, z in candidates:
            if tunnel_membership(x, y, z).admissible:
                row = (x, y, z, f"{kind}={level:g}")
                expected[False].append(row)
                if in_cube(x) and in_cube(y) and in_cube(z):
                    expected[True].append(row)
    for paper_cube in (False, True):
        points = figure_data("fig3", resolution, paper_cube=paper_cube)["points"]
        assert points == expected[paper_cube]
    assert 0 < len(expected[True]) < len(expected[False])


def test_fig3_paper_cube_subset():
    full = figure_data("fig3", 6)
    cube = figure_data("fig3", 6, paper_cube=True)
    assert set(cube["points"]) <= set(full["points"])
    for x, y, z, _ in cube["points"]:
        assert -1e-9 <= x <= 1 + 1e-9 and -1e-9 <= y <= 1 + 1e-9 and -1e-9 <= z <= 1 + 1e-9


def test_figure_bad_resolution():
    with pytest.raises(BadResolution):
        figure_data("fig1", 1)
    with pytest.raises(BadResolution):
        figure_data("fig9", 10)

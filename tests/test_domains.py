import json
from decimal import Decimal
from fractions import Fraction
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genbloch import MAX_ROWS, domains, spectra, sum_of_squares
from genbloch.clifford import cached_basis
from genbloch.coords import (
    StateCoords,
    antisym,
    encode,
    state_coords,
    tensor_config,
    vector,
)
from genbloch.domains import CHUNK_BYTES, DEFAULT_TOL, DomainVerdict, positivity, sample_domain
from genbloch.errors import (
    BadIndex,
    BadResolution,
    DimensionMismatch,
    GradeMismatch,
    GradeOutOfRange,
    KindMismatch,
    MalformedInput,
    NonFiniteResult,
    NonUnitTrace,
    ResourceLimit,
)
from genbloch.figures import (_plain_curves, _plain_surface, _rT4_family,
                              _tunnel_surface_points, figure_columns)
from genbloch.invariants import (
    InvariantSet,
    coords_invariants,
    frobenius_r,
    trace_T4,
    two_tensor_invariants,
)
from genbloch.linalg import hermitian_eigenvalues
from genbloch.spectra import closed_form_spectrum

from claims import (
    NegativeDiscriminant,
    char_poly,
    descartes_positivity,
    quartet_eigenvalues,
    rT4_domain,
    tunnel_membership,
    z_from_coords,
    z_variable,
)
from conftest import (random_coords, random_tensor, random_unit_trace_hermitian, sample_table,
                      table_rows)

ORACLE_TOL = 1e-9


def oracle_positive(rho):
    return float(np.min(hermitian_eigenvalues(rho))) >= -ORACLE_TOL


def vector_verdict(g1, pseudoscalar=None):
    """positivity's verdict on the m = 2 vector configuration (g1, pseudoscalar)."""
    grades = {1: g1} if pseudoscalar is None else {1: g1, 4: {(1, 2, 3, 4): pseudoscalar}}
    coords = state_coords(2, grades=grades)
    verdict, route = positivity(coords, encode(coords))
    assert route == "normal_form"
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
    assert not v.admissible and v.violated == "positivity"
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
    # r is checked first, against its range
    assert rT4_domain(-0.3, 0.1).violated == "r_negative"
    assert rT4_domain(1.3, 2.0).violated == "r_upper"


def test_rT4_lower_violation():
    # r close to 1 with tiny T4 breaks the lower bound
    v = rT4_domain(0.9, 0.5)
    assert not v.admissible and v.violated == "T4_lower"


@pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL, 1e-3])
def test_rT4_matches_per_point(rng, tol):
    # fig1's array rule agrees with the scalar inequalities of rT4_domain at
    # and around every edge, and names a violation exactly when it refuses
    edges = [0.0, math.sqrt(2.0) - 1.0, 0.5, 1.0]
    rs = [e + d for e in edges for d in (-2 * tol, -tol / 2, 0.0, tol / 2, 2 * tol)]
    rs += [-0.3, 1.3] + rng.uniform(0.0, 1.0, 20).tolist()
    points = []
    for r in rs:
        lower, upper = max((r + 1.0) ** 2 - 2.0, 0.0), 2.0 * r * r
        t4s = [b + d for b in (lower, upper, 0.0, 2.0)
               for d in (-2 * tol, -tol / 2, 0.0, tol / 2, 2 * tol)]
        points += [(r, t4) for t4 in t4s + rng.uniform(0.0, 2.0, 5).tolist()]
    admissible, boundary = _rT4_family(*np.array(points).T, tol)
    for (r, t4), a, b in zip(points, admissible.tolist(), boundary.tolist()):
        v = rT4_domain(r, t4, tol)
        assert (v.admissible, v.boundary, v.violated is None) == (a, b, a)


@pytest.mark.parametrize("resolution", [2, 3, 21, 101])
def test_fig1_matches_per_point(resolution):
    rs = np.linspace(0.0, 1.0, resolution)
    t4s = np.linspace(0.0, 2.0, resolution)
    expected = [(float(r), float(t4), v.admissible, v.boundary)
                for r in rs for t4 in t4s for v in [rT4_domain(float(r), float(t4))]]
    grid = table_rows(figure_columns("fig1", resolution)[1])
    assert grid == expected
    assert all(type(v) is float for row in grid for v in row[:2])
    assert all(type(v) is bool for row in grid for v in row[2:])


CASE_KINDS = ["vector", "vector_pseudoscalar", "extended_vector", "grade2",
              "mixed_standard", "mixed_extended", "bordered_standard", "bordered_extended"]


def _case_coords(m, kind, rng):
    """Unit-scalar coords of one positivity route, before scaling."""
    mode = "extended" if kind.endswith("extended") else "standard"
    if kind.startswith("mixed"):
        return random_coords(rng, m, mode=mode)
    if kind == "grade2":
        return state_coords(m, grades={2: random_tensor(rng, m, 2)})
    if kind.startswith("bordered"):
        # the so(2m+2) family: standard grades {1, 2, 2m - 1, 2m}, extended {1, 2}
        side = 2 * m + (mode == "extended")
        ks = {1, 2} & {*range(1, m + 1)} if mode == "extended" else {1, 2, 2 * m - 1, 2 * m}
        return state_coords(m, mode=mode,
                            grades={k: random_tensor(rng, m, k, side=side) for k in ks})
    grades = {1: random_tensor(rng, m, 1, side=2 * m + (mode == "extended"))}
    if kind == "vector_pseudoscalar":
        grades[2 * m] = {tuple(range(1, 2 * m + 1)): float(rng.uniform(-1.0, 1.0))}
    return state_coords(m, mode=mode, grades=grades)


@settings(max_examples=260, deadline=None, derandomize=True, database=None)
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
                          grades={k: coords.grade(k).scaled(s) for k in coords.grades})
    rho = encode(coords)
    lam = float(hermitian_eigenvalues(rho)[0])
    # near-boundary states are excluded, as in criterion 08
    assume(abs(2 ** m * lam) > 1e-6 and abs(2 ** m * (lam + tol)) > 1e-6)
    verdict, route = positivity(coords, rho, tol)
    assert verdict.admissible == (lam >= -tol)
    assert verdict.tol == tol
    assert verdict.violated == (None if verdict.admissible else "positivity")
    # every one- and two-qubit state is in the so(2m+2) family, and so is
    # every kind but a mixed one at any m
    if kind.startswith("mixed") and m > 2:
        assert route == "min_eigenvalue" and verdict.invariants_used is None
        return
    assert route == "normal_form"
    # the verdict reports the invariants command's report, bit for bit, with
    # the normal form it decided from: mu and sign Pf M
    used = verdict.invariants_used.to_dict()
    assert json.dumps(used, sort_keys=True) == json.dumps(
        coords_invariants(coords).to_dict(), sort_keys=True)
    mu, pf = spectra.normal_form(m, coords.grades)
    assert used["extras"]["normal_form_amplitudes"] == mu.tolist()
    assert used["extras"]["pfaffian_sign"] == float(np.sign(pf))
    # the amplitudes, the singular values of M (side 2m + 2), carry every
    # coordinate's square: sum mu^2 = |v|^2 + r within (2m + 2)^2 float64 eps
    r = sum(coords.grade(k).norm_sq() for k in coords.grades)
    eps = np.finfo(float).eps
    assert float(np.sum(mu ** 2)) == pytest.approx(r, rel=(2 * m + 2) ** 2 * eps)


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
    names, columns = sample_table(m, k, n, seed=seed, box=box)
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
    assert table_rows(sample_table(2, 1, 0, seed=3)[1]) == []


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
    rng = random.Random(seed)
    draws = np.reshape([-box + 2 * box * rng.random() for _ in range(n * len(keys))],
                       (n, len(keys)))
    rows = []
    for idx in range(n):
        tensor = antisym(m, k, {key: float(v) for key, v in zip(keys, draws[idx])}, side)
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
    names, columns = sample_table(m, k, n, seed=m, box=box)
    rows = table_rows(columns)
    assert rows == _sample_per_draw(m, k, n, m, box)
    assert names == (["index"] + [f"c{i}" for i in range(len(rows[0]) - 4)]
                     + ["closed_admissible", "oracle_admissible", "boundary_margin"])
    for index, *coefficients, closed_ok, oracle_ok, margin in rows:
        assert type(index) is int
        assert type(closed_ok) is bool and type(oracle_ok) is bool
        assert type(margin) is float
        assert all(type(c) is float for c in coefficients)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_sample_domain_vector_margin_is_the_doublet(m):
    # the sampler's vector minima come from the one closed form, bit for bit
    # the doublet formula |1 - sqrt(r)| / 2^m written out here
    _, columns = sample_table(m, 1, 50, seed=m, box=1.2 / math.sqrt(m))
    r = sum_of_squares(columns[1:1 + 2 * m])
    assert np.array_equal(columns[-1], np.abs((1 - np.sqrt(r)) / 2 ** m))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.sampled_from(["standard", "extended"]), st.booleans(),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.booleans())
# an extended grade 3 at m = 3 is off the family: 2 < 3 < 2m - 1
@example(3, "extended", False, 1, 0, False)
def test_stack_rows_decide_as_one_state(m, mode, family, n, seed, held):
    # a stack of n states sharing (m, mode) and masks takes one route, and
    # each row gets the lambda_min and route of its state decided alone
    rng = np.random.default_rng(seed)
    basis = cached_basis(m, mode)
    closed = {1, 2, 2 * m - 1, 2 * m} if mode == "standard" else {1, 2}
    grades_of = {k: basis.masks[basis.grade[basis.masks] == k]
                 for k in range(1, basis.max_grade + 1)}
    ks = [k for k in grades_of if k in closed and rng.random() < 0.7] or [1]
    others = [k for k in grades_of if k not in closed]
    if others and not family:
        ks.append(int(rng.choice(others)))
    stack = {}
    for k in sorted(ks):
        masks = rng.choice(grades_of[k], size=min(len(grades_of[k]), int(rng.integers(1, 5))),
                           replace=False)
        # nonzero values, so each row holds every mask of the stack
        stack[k] = {int(mask): rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.02, 0.6, size=n)
                    for mask in masks}
    states = [StateCoords(m, mode, 1.0, {k: {mask: float(col[row]) for mask, col in e.items()}
                                         for k, e in stack.items()}) for row in range(n)]
    rho = np.array([encode(state) for state in states]) if held else None
    lam, route, _ = domains.lowest_eigenvalues(m, 1.0, stack, rho)
    assert lam.shape == (n,)
    assert route == ("normal_form" if set(ks) <= closed else "min_eigenvalue")
    for row, state in enumerate(states):
        alone = None if rho is None else rho[row]
        one, one_route, _ = domains.lowest_eigenvalues(m, 1.0, state.grades, alone)
        verdict, verdict_route = positivity(state, alone)
        assert route == one_route == verdict_route
        assert lam[row].tobytes() == np.float64(one).tobytes()
        assert verdict.to_dict() == domains.min_eigenvalue_verdict(
            float(lam[row]), invariants_used=verdict.invariants_used).to_dict()


@pytest.mark.parametrize("grades", [
    {1: {(1,): 0.3}, 4: {(1, 2, 3, 4): 0.2}},
    {2: {(1, 2): 0.6, (3, 4): 0.3}},
    {1: {(1,): 0.3}, 2: {(1, 2): 0.2}},
], ids=["vector", "grade2", "mixed"])
def test_positivity_classifies_once(monkeypatch, grades):
    # positivity recognises the configuration once and takes the closed form
    # from it, without asking closed_form_spectrum to recognise it again
    calls = []

    def counting(m, held, _bordered_parts=spectra.bordered_parts):
        calls.append(held)
        return _bordered_parts(m, held)

    def refused(coords):
        raise AssertionError("positivity called closed_form_spectrum")

    for module in (domains, spectra):
        monkeypatch.setattr(module, "bordered_parts", counting, raising=False)
        monkeypatch.setattr(module, "closed_form_spectrum", refused, raising=False)
    coords = state_coords(2, grades=grades)
    verdict, _ = positivity(coords, None)
    assert len(calls) == 1 and calls[0] is coords.grades and verdict.admissible


def test_closed_form_vector_with_pseudoscalar():
    g = vector(2, [0.6, 0.0, 0.0, 0.0])
    assert closed_form_min(2, {1: g}) == (1.0 - 0.6) / 4
    assert closed_form_min(2, {1: g, 4: {(1, 2, 3, 4): 0.8}}) == 0.0
    # 1 + 4 * 1e-16 added left to right stays 1; a compensated sum (builtin
    # sum() from Python 3.12 on) gives 1 + 2^-51 and a margin of -2^-55
    assert closed_form_min(3, {1: vector(3, [1.0, 1e-8, 1e-8, 1e-8, 1e-8, 0.0])}) == 0.0
    with pytest.raises(KindMismatch):
        closed_form_min(3, {1: vector(3, [0.6, 0.0, 0.0, 0.0, 0.0, 0.0]), 3: {(1, 2, 3): 0.5}})


def test_closed_form_vector_with_grade2():
    # a vector with a grade-2 part is in the so(6) family at m = 2
    coords = state_coords(2, grades={1: vector(2, [0.6, 0.0, 0.0, 0.0]), 2: {(1, 2): 0.5}})
    oracle = hermitian_eigenvalues(encode(coords))
    assert np.max(np.abs(closed_form_spectrum(coords).eigenvalues - oracle)) < 1e-12


@pytest.mark.parametrize("grades", [
    {1: {(1,): 1.5}},
    {1: {(1,): 1.5}, 2: {(1, 2): 0.2}},
], ids=["vector_ball", "min_eigenvalue"])
@pytest.mark.parametrize("scalar", [2.0, 1.0 + 2e-8, 0.0])
def test_positivity_refuses_non_unit_trace(grades, scalar):
    # coords whose trace is not 1 are no state on any route, closed form or LAPACK
    with pytest.raises(NonUnitTrace):
        positivity(state_coords(2, scalar=scalar, grades=grades), None)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_positivity_bad_tol(tol):
    coords = state_coords(2, grades={2: {(1, 2): 0.6}})
    with pytest.raises(ResourceLimit, match="tol must be a finite number >= 0"):
        positivity(coords, encode(coords), tol)


@pytest.mark.parametrize("tol", ["x", None, True, np.True_, 1e-9j, Decimal("1e-9")],
                         ids=["str", "None", "True", "np.True_", "complex", "Decimal"])
def test_positivity_refuses_a_tol_that_is_no_float(tol):
    # the float rule reads tol before its range check, whose class and text it keeps
    coords = state_coords(2, grades={2: {(1, 2): 0.6}})
    with pytest.raises(ResourceLimit, match="tol must be a finite number >= 0"):
        positivity(coords, None, tol)


def test_positivity_reads_tol_as_a_float():
    coords = state_coords(2, grades={2: {(1, 2): 0.6}})
    for tol in (0, np.float32(0.5), Fraction(1, 4)):
        verdict, _ = positivity(coords, None, tol)
        assert type(verdict.tol) is float and verdict.tol == float(tol)


@pytest.mark.parametrize("tol", ["x", None, True, np.True_, 1e-9j, Decimal("1e-9"), math.nan,
                                 math.inf, -1.0],
                         ids=["str", "None", "True", "np.True_", "complex", "Decimal", "nan",
                              "inf", "negative"])
def test_min_eigenvalue_verdict_refuses_a_bad_tol(tol):
    # the public verdict reads tol as positivity does: one class and text
    with pytest.raises(ResourceLimit, match="tol must be a finite number >= 0"):
        domains.min_eigenvalue_verdict(0.1, tol)


@pytest.mark.parametrize("min_eig", ["x", None, True, 1j, Decimal("0.1"), math.nan, -math.inf],
                         ids=["str", "None", "True", "complex", "Decimal", "nan", "-inf"])
def test_min_eigenvalue_verdict_refuses_a_min_eig_that_is_no_float(min_eig):
    with pytest.raises(MalformedInput, match="field 'min_eig': expected float"):
        domains.min_eigenvalue_verdict(min_eig)


def test_positivity_refuses_a_lambda_min_beyond_float_range():
    # |v|^2 = 1e400 overflows, and lambda_min = 1 - |v| with it; the verdict
    # would report the overflowed invariants, so there is none
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteResult):
        positivity(state_coords(2, grades={1: {(1,): 1e200}}), None)


def test_min_eigenvalue_verdict_reads_its_numbers_as_floats():
    for min_eig, tol in ((0, 0), (np.float32(-0.25), Fraction(1, 2)), (Fraction(-1, 2), 0.25)):
        verdict = domains.min_eigenvalue_verdict(min_eig, tol)
        assert type(verdict.tol) is float and verdict.tol == float(tol)
        assert verdict.admissible == (float(min_eig) >= -float(tol))
        assert verdict.boundary == (verdict.admissible and abs(float(min_eig)) <= float(tol))
        assert type(verdict.admissible) is type(verdict.boundary) is bool


@pytest.mark.parametrize("box", [None, True, "1", 1j, Decimal("1")],
                         ids=["None", "True", "str", "complex", "Decimal"])
def test_sample_domain_refuses_a_box_that_is_no_float(box):
    with pytest.raises(ResourceLimit, match="box must be a finite number >= 0"):
        sample_domain(2, 2, 2, 0, box=box)


def test_sample_domain_reads_box_as_a_float():
    want = _sample_table(2, 2, 5, seed=3, box=1.0)
    for box in (1, Fraction(1), np.float32(1.0)):
        got = _sample_table(2, 2, 5, seed=3, box=box)
        assert all(np.array_equal(got[name], want[name]) for name in want)


def test_positivity_refuses_a_rho_of_another_size():
    # off the so(2m+2) family the verdict is LAPACK's lambda_min of rho, so a
    # rho that is not 2^m x 2^m would decide another matrix than the state's
    coords = state_coords(3, grades={1: {(1,): 0.3}, 3: {(1, 2, 3): 0.2}})
    family = state_coords(3, grades={1: {(1,): 0.3}})
    for state in (coords, family):
        for rho in (np.eye(4) / 4, np.eye(16) / 16):
            with pytest.raises(DimensionMismatch, match=r"not 2\^m x 2\^m at m = 3"):
                positivity(state, rho)
        for rho in (np.ones(8) / 8, np.eye(8)[:4]):
            with pytest.raises(DimensionMismatch, match="expected a square matrix"):
                positivity(state, rho)
        with pytest.raises(MalformedInput):
            positivity(state, [[1.0, 0.5], [0.5]])
        given, encoded = positivity(state, encode(state)), positivity(state, None)
        assert (given[0].to_dict(), given[1]) == (encoded[0].to_dict(), encoded[1])


def test_sample_domain_ball_fraction():
    frac = float(np.mean(_sample_table(2, 1, 1000, seed=7)["closed_admissible"]))
    p = (math.pi ** 2 / 2) / 2.4 ** 4
    sigma = math.sqrt(p * (1 - p) / 1000)
    assert abs(frac - p) <= 3 * sigma


@pytest.mark.parametrize("m, box", [(2, 1.2), (3, 1.0)])
def test_vector_atlas_fills_the_unit_ball(m, box):
    # the generalized Bloch sphere of the vector configurations is the unit
    # ball of R^2m, volume pi^m / m!; the box [-box, box]^2m holds it (box >= 1),
    # so the closed verdict's fraction of uniform draws is that volume over
    # (2 box)^2m: 0.14874 at (2, 1.2), 0.08075 at (3, 1.0).  The seed was fixed
    # before the fraction was looked at; the bound is 5 sigma of a binomial
    from genbloch import ball

    n, seed = 4000, 1
    names, [columns] = ball.atlas(m, 1, n, seed, box)
    table = dict(zip(names, columns))
    p = math.pi ** m / math.factorial(m) / (2 * box) ** (2 * m)
    frac = sum(table["closed_admissible"]) / n
    assert abs(frac - p) <= 5 * math.sqrt(p * (1 - p) / n), (frac, p)
    # the Cholesky oracle agrees with the closed form on every draw outside a
    # band of 1e-12 around -tol in 2^m lambda_min, far wider than its rounding
    lam = [(1.0 - math.sqrt(sum_of_squares(v))) / 2 ** m
           for v in zip(*(table[f"c{i}"] for i in range(2 * m)))]
    outside = [abs(2 ** m * (x + DEFAULT_TOL)) > 1e-12 for x in lam]
    assert sum(outside) == n
    assert all(o == c for o, c, away in zip(table["oracle_admissible"],
                                           table["closed_admissible"], outside) if away)


@pytest.mark.parametrize("m", range(1, 7))
def test_plain_oracle_decides_at_minus_tol(m):
    # v = (s, 0, ..., 0) has 2^m lambda_min = 1 - s, which is -2^m tol at
    # s = 1 + 2^m tol: the Cholesky oracle admits the draw just inside and
    # refuses the one just outside, 1e-3 of 2^m tol away on either side
    from genbloch import _generators, ball

    edge = 2 ** m * DEFAULT_TOL
    for s, admitted in ((1 + edge * (1 - 1e-3), True), (1 + edge * (1 + 1e-3), False),
                        (0.0, True), (-0.999, True), (-1.001, False)):
        for axis in range(2 * m):
            v = [0.0] * (2 * m)
            v[axis] = s
            a = ball._shifted(ball._entries(m, _generators(m)), v)
            assert ball._positive_definite(a) is admitted, (s, axis)


@pytest.mark.parametrize("m", range(1, 7))
def test_vector_atlas_matches_sample_domain(m):
    # the plain path's table is sample_domain's, value for value, on boxes
    # inside the ball, across it and far outside it, and at box 0
    from genbloch import ball

    n = 150 if m <= 4 else 15
    for box in (0.0, 0.4 / math.sqrt(m), 1.2 / math.sqrt(m), 1.2, 1e100):
        names, [columns] = ball.atlas(m, 1, n, m, box)
        want_names, want = sample_table(m, 1, n, m, box)
        assert names == want_names
        assert columns == [column.tolist() for column in want], box


@pytest.mark.parametrize("m", [1, 2])
def test_grade2_atlas_matches_sample_domain(m):
    # the plain grade-2 atlas is sample_domain's table, value for value, the
    # margin's digits included: at box 0, inside both tunnels, across them,
    # outside, and where the squares of the entries would overflow without
    # the closed form's rescale (1e200) or nearly would (1e100)
    from genbloch import ball

    across = {1: 1.5, 2: 0.5}[m]
    for box in (0.0, 0.15, across, 1.2, 1e100, 1e200):
        if m == 1 and box == 1e200:
            # m = 1's doublet |c| = sqrt(c^2) has no rescale: c^2 overflows on either path
            for engine in (ball.atlas, sample_table):
                with np.errstate(over="ignore"), pytest.raises(NonFiniteResult):
                    engine(m, 2, 150, m, box)
            continue
        names, [columns] = ball.atlas(m, 2, 150, m, box)
        want_names, want = sample_table(m, 2, 150, m, box)
        assert names == want_names
        assert columns == [column.tolist() for column in want], box
        if box in (0.15, across):
            assert set(columns[-3]) == ({True} if box == 0.15 else {True, False}), box


@pytest.mark.parametrize("m", range(1, 7))
def test_grade2_strings_are_the_basis_rows(m):
    # the plain atlas's Pauli strings of E_ij = i Gamma_i Gamma_j, by the
    # product rule, are CliffordBasis's rows of the grade-2 masks in wire order,
    # as the generators are its rows of grade 1
    from genbloch import ball

    basis = cached_basis(m)
    for k in (1, 2):
        masks = basis.masks[basis.grade[basis.masks] == k]
        rows = list(zip(basis.x[masks].tolist(), basis.z[masks].tolist(),
                        basis.p[masks].tolist()))
        assert ball._strings(m, k) == rows, k


def test_sample_domain_guards(monkeypatch):
    with pytest.raises(GradeOutOfRange):
        sample_domain(2, 3, 10, seed=0)
    with pytest.raises(ResourceLimit):
        sample_domain(2, 1, -1, seed=0)
    # every table answer is held to MAX_ROWS rows, sample's draws too: the
    # count is refused before anything is drawn
    with monkeypatch.context() as patch:
        patch.setattr(domains, "_uniform", None)  # a draw would be a TypeError
        with pytest.raises(ResourceLimit, match=f"sample count {MAX_ROWS + 1} out of range"):
            sample_domain(2, 1, MAX_ROWS + 1, seed=0)
        # MAX_ROWS draws pass every check and reach the basis
        patch.setattr(domains, "cached_basis", None)
        with pytest.raises(TypeError):
            sample_domain(2, 1, MAX_ROWS, seed=0)
    with pytest.raises(ResourceLimit, match="seed must be an integer >= 0, got -1"):
        sample_domain(2, 1, 1, seed=-1)
    # a count or seed that is no integer is refused before anything is drawn
    for n, seed in ((2.5, 0), ("3", 0), (None, 0), (2, 2.5), (2, "1")):
        with pytest.raises(ResourceLimit):
            sample_domain(2, 2, n, seed)
    # 1e308 is finite, but the draws' span 2 * box is not
    for box in (math.nan, math.inf, -math.inf, -0.5, 1e308):
        with pytest.raises(ResourceLimit):
            sample_domain(2, 1, 1, seed=0, box=box)
    # the widest box allowed draws finite coefficients, but their squares
    # overflow, so the margins are not finite and the table is refused
    widest = sys.float_info.max / 2
    assert np.isfinite(domains._uniform(random.Random(0), 3, 4, widest)).all()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteResult):
        sample_domain(2, 1, 3, seed=0, box=widest)
    with pytest.raises(ResourceLimit):
        sample_domain(7, 1, 0, seed=0)
    with pytest.raises(BadIndex):
        sample_domain(0, 1, 0, seed=0)


def test_sample_blocks_load_no_writer():
    # the engine sizes its blocks by the package's budget, not by the writer's
    code = ("import sys; from genbloch.domains import sample_domain; "
            "names, blocks = sample_domain(2, 2, 20, 0); "
            "assert sum(len(block[0]) for block in blocks) == 20; "
            "assert 'genbloch.text' not in sys.modules, 'text loaded'")
    src = os.path.dirname(os.path.dirname(os.path.abspath(domains.__file__)))
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_fig1_matches_inequality():
    data = {"grid": table_rows(figure_columns("fig1", 21)[1]),
            **{key: list(zip(*curve)) for key, curve in _plain_curves(21).items()}}
    assert len(data["grid"]) == 21 * 21
    for r, t4, adm, _ in data["grid"]:
        expected = (max((r + 1) ** 2 - 2, 0.0) - 1e-9 <= t4 <= 2 * r * r + 1e-9
                    and r <= 1 + 1e-9)
        assert adm == expected
    assert data["curve_upper"][-1] == (1.0, 2.0)
    assert abs(data["curve_lower"][-1][0] - 1.0) < 1e-15
    assert abs(data["curve_lower"][-1][1] - 2.0) < 1e-12


def test_fig2_points_on_surfaces():
    data = {"points": table_rows(figure_columns("fig2", 8)[1])}
    assert data["points"], "fig2 emitted no points"
    for x, y, z, sid in data["points"]:
        if sid.startswith("alpha_plus"):
            assert abs(math.hypot(x + y, z) - 1.0) < 1e-12
        else:
            assert abs(math.hypot(x - y, z) - 1.0) < 1e-12
    pts = {(round(x, 9), round(y, 9), round(z, 9)) for x, y, z, _ in data["points"]}
    assert (1.0, 0.0, 0.0) in pts


def test_fig3_points_admissible_and_oracle_positive():
    data = {"points": table_rows(figure_columns("fig3", 6)[1])}
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


def test_no_surface_level_reaches_the_box_in_z():
    # the surface builders test no z: |z| = level |sin theta| <= level, and
    # every level drawn is at most 1, below the box's half-width; the per-point
    # reference above keeps its z test, so fig3's test below still holds both
    # builders to the whole box rule
    from genbloch.figures import _BOX, _SURFACES

    levels = [level for surfaces in _SURFACES.values() for _, level in surfaces]
    assert levels and all(level <= 1.0 < _BOX for level in levels)


def _bits(rows) -> bytes:
    """The x, y, z of table rows as bytes: equal only bit for bit, signed zeros included."""
    return np.array([row[:3] for row in rows], dtype=float).tobytes()


@pytest.mark.parametrize("resolution", [6, 26])
def test_fig3_matches_tunnel_membership(resolution):
    in_cube = lambda v: -1e-12 <= v <= 1 + 1e-12  # noqa: E731
    expected = {False: [], True: []}
    fig2 = []
    for kind, level in [("alpha_plus", 1.0), ("alpha_plus", 0.1),
                        ("alpha_minus", 1.0), ("alpha_minus", 0.01)]:
        candidates = _surface_points_per_point(kind, level, resolution, 1.5)
        x, y, z = _tunnel_surface_points(level, resolution)
        # alpha_minus = level is the mirror y -> 0.0 - y of alpha_plus = level
        columns = (x, 0.0 - y, z) if kind == "alpha_minus" else (x, y, z)
        # bit for bit, signed zeros included
        assert np.array(candidates).tobytes() == np.column_stack(columns).tobytes()
        if level == 1.0:
            fig2 += [(x, y, z, f"{kind}={level:g}") for x, y, z in candidates]
        for x, y, z in candidates:
            if tunnel_membership(x, y, z).admissible:
                row = (x, y, z, f"{kind}={level:g}")
                expected[False].append(row)
                if in_cube(x) and in_cube(y) and in_cube(z):
                    expected[True].append(row)
    for paper_cube in (False, True):
        points = table_rows(figure_columns("fig3", resolution, paper_cube=paper_cube)[1])
        assert points == expected[paper_cube]
        assert _bits(points) == _bits(expected[paper_cube])
    assert 0 < len(expected[True]) < len(expected[False])
    # fig2 draws every candidate of both level-1 surfaces
    points = table_rows(figure_columns("fig2", resolution)[1])
    assert points == fig2 and _bits(points) == _bits(fig2)


def test_fig3_paper_cube_subset():
    full = {"points": table_rows(figure_columns("fig3", 6)[1])}
    cube = {"points": table_rows(figure_columns("fig3", 6, paper_cube=True)[1])}
    assert set(cube["points"]) <= set(full["points"])
    for x, y, z, _ in cube["points"]:
        assert -1e-9 <= x <= 1 + 1e-9 and -1e-9 <= y <= 1 + 1e-9 and -1e-9 <= z <= 1 + 1e-9


@pytest.mark.parametrize("level", [1.0, 0.1, 0.01])
def test_plain_surface_clip_keeps_what_the_array_clip_keeps(level):
    # the plain clip tries only the t near 0 that can pass; it keeps, bit for
    # bit, what the array clip keeps of every candidate
    for resolution in range(2, 61):
        x, y, z = _tunnel_surface_points(level, resolution)
        keep = ((np.hypot(x + y, z) <= 1.0 + DEFAULT_TOL)
                & (np.hypot(x - y, z) <= 1.0 + DEFAULT_TOL))
        expected = np.column_stack([x[keep], y[keep], z[keep]])
        assert len(expected)
        clipped = np.column_stack(_plain_surface(level, resolution, clip=True))
        assert clipped.tobytes() == expected.tobytes(), resolution


@pytest.mark.parametrize("level", [1.0, 0.1, 0.01])
def test_plain_surface_cube_keeps_what_the_array_cube_keeps(level):
    # with the paper's cube the plain build tries only the t whose point can
    # lie in it; it keeps, bit for bit, what the array path keeps of every
    # candidate after the clip, for alpha_plus (cube 1) and the mirror
    # alpha_minus (cube -1, y -> -y)
    for resolution in range(2, 61):
        x, y, z = _tunnel_surface_points(level, resolution)
        keep = ((np.hypot(x + y, z) <= 1.0 + DEFAULT_TOL)
                & (np.hypot(x - y, z) <= 1.0 + DEFAULT_TOL))
        for cube in (1.0, -1.0):
            cols = np.stack([x[keep], cube * y[keep], z[keep]])
            inside = ((cols >= -1e-12) & (cols <= 1 + 1e-12)).all(axis=0)
            expected = np.column_stack([x[keep][inside], y[keep][inside], z[keep][inside]])
            built = _plain_surface(level, resolution, clip=True, cube=cube)
            assert np.column_stack(built).tobytes() == expected.tobytes(), (resolution, cube)


@pytest.mark.parametrize("which", ["fig1", "fig2"])
def test_figure_columns_paper_cube_fig3_only(which):
    # the unit cube clips fig3's points only; the other figures refuse it
    with pytest.raises(KindMismatch, match=f"--paper-cube applies to fig3 only, not {which}"):
        figure_columns(which, 4, paper_cube=True)


def test_figure_bad_resolution():
    with pytest.raises(BadResolution):
        figure_columns("fig1", 1)
    with pytest.raises(BadResolution):
        figure_columns("fig9", 10)


def test_figure_resolution_is_an_integer():
    from genbloch.figures import _check_figure

    # an int or a numpy integer, read as an int; no other number or string
    assert _check_figure("fig1", np.int64(5)) == 5
    assert type(_check_figure("fig1", np.int64(5))) is int
    assert len(figure_columns("fig1", np.int64(5))[1][0]) == 25
    for resolution in (2, np.int64(2)):
        assert len(figure_columns("fig1", resolution)[1][0]) == 4
    for resolution in (True, 5.0, "5", 2.0, "2"):
        with pytest.raises(BadResolution, match="resolution must be an integer >= 2"):
            _check_figure("fig1", resolution)
        with pytest.raises(BadResolution, match="resolution must be an integer >= 2"):
            figure_columns("fig1", resolution)

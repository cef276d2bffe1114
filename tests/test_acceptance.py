"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Every tolerance is fixed here, not configurable.
"""

import math
import time

import numpy as np

from genbloch import clifford
from genbloch.clifford import basis_element, full_basis
from genbloch.coords import AntisymTensor, antisym, decode, encode, state_coords, tensor_config
from genbloch.figures import boundary_curves, figure_columns
from genbloch.identities import (
    char_poly,
    conjugate_state,
    descartes_positivity,
    dual_tensor,
    epsilon_D3,
    epsilon_sum_D3,
    factorized_charpoly,
    quartet_eigenvalues,
    rT4_domain,
    spin_lift,
    tunnel_membership,
)
from genbloch.invariants import frobenius_r, pfaffian, trace_T4, two_tensor_invariants
from genbloch.linalg import hermitian_eigenvalues
from genbloch.spectra import closed_form_spectrum
from genbloch.symmetry import orthogonal_from_generator, rotate_coords

from conftest import gammas, random_coords, random_tensor, random_unit_trace_hermitian, table_rows


def _report(num, description, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_algebra_generation():
    start = time.perf_counter()
    ok = True
    for m in range(1, 6):
        gams = gammas(m)
        eye2 = 2.0 * np.eye(2 ** m)
        for i in range(2 * m):
            for j in range(i, 2 * m):
                anti = gams[i] @ gams[j] + gams[j] @ gams[i]
                target = eye2 if i == j else np.zeros_like(anti)
                ok = ok and np.array_equal(anti, target)
        chi = basis_element(m, (2 * m + 1,), "extended")
        for g in gams:
            ok = ok and np.max(np.abs(chi @ g + g @ chi)) == 0.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, f"exact anticommutation and chirality, m=1..5, {elapsed:.2f}s < 10s", ok)


def test_criterion_02_basis_orthogonality():
    worst = 0.0
    for m in range(1, 5):
        basis = full_basis(m)
        order = basis.indices
        stack = np.stack([basis.element(idx) for idx in order])
        gram = np.einsum("aij,bji->ab", stack, stack)
        worst = max(worst, float(np.max(np.abs(gram - 2 ** m * np.eye(len(order))))))
    basis5 = full_basis(5)
    order5 = basis5.indices
    stack5 = np.stack([basis5.element(idx) for idx in order5])
    rng = np.random.default_rng(12345)
    for _ in range(200):
        a, b = rng.integers(0, len(order5), size=2)
        val = np.trace(stack5[a] @ stack5[b])
        target = 32.0 if a == b else 0.0
        worst = max(worst, float(abs(val - target)))
    _report(2, f"trace orthogonality: worst residual {worst:.2e} < 1e-10", worst < 1e-10)


def test_criterion_03_codec_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in (1, 2, 3):
        for _ in range(100):
            rho = random_unit_trace_hermitian(rng, 2 ** m)
            coords = decode(rho)
            worst = max(worst, float(np.max(np.abs(encode(coords) - rho))))
    _report(3, f"encode(decode) round trip: worst residual {worst:.2e} < 1e-10", worst < 1e-10)


def test_criterion_04_vector_spectra():
    rng = np.random.default_rng(11)
    worst = 0.0
    patterns_ok = True
    for m in (1, 2, 3, 4):
        for _ in range(50):
            g = random_tensor(rng, m, 1)
            s = closed_form_spectrum(state_coords(m, grades={1: g}))
            oracle = hermitian_eigenvalues(tensor_config(m, 1, g))
            worst = max(worst, float(np.max(np.abs(s.eigenvalues - oracle))))
            patterns_ok = patterns_ok and (
                [mult for _, mult in s.multiplets] == [2 ** (m - 1)] * 2
            )
    ok = worst < 1e-9 and patterns_ok
    _report(4, f"vector spectra vs oracle: worst |dLambda| {worst:.2e} < 1e-9, "
               f"doublet degeneracy 2 x 2^(m-1)", ok)


def test_criterion_05_two_tensor_spectra():
    rng = np.random.default_rng(13)
    worst2 = 0.0
    for _ in range(200):
        g = random_tensor(rng, 2, 2)
        s = closed_form_spectrum(state_coords(2, grades={2: g}))
        oracle = hermitian_eigenvalues(tensor_config(2, 2, g))
        worst2 = max(worst2, float(np.max(np.abs(s.eigenvalues - oracle))))

    worst3 = 0.0
    d3_nonzero_seen = 0
    for _ in range(50):
        g = random_tensor(rng, 3, 2)
        inv = two_tensor_invariants(g)
        if abs(inv.D3) > 1e-6:
            d3_nonzero_seen += 1
        s = closed_form_spectrum(state_coords(3, grades={2: g}))
        oracle = hermitian_eigenvalues(tensor_config(3, 2, g))
        worst3 = max(worst3, float(np.max(np.abs(s.eigenvalues - oracle))))

    # D3 = 0 inputs reproduce the two-invariant quartet at prefactor 1/8
    reduction_ok = True
    for _ in range(20):
        a, b = rng.uniform(-1, 1, size=2)
        g = antisym(3, 2, {(1, 2): a, (3, 4): b})
        vals = closed_form_spectrum(state_coords(3, grades={2: g})).eigenvalues
        r = a * a + b * b
        root = math.sqrt(max(2 * r * r - (2 * a ** 4 + 2 * b ** 4), 0.0))
        expected = np.sort(np.array([
            (1 + so * math.sqrt(max(r + si * root, 0.0))) / 8
            for so in (1, -1) for si in (1, -1)
        ]))
        reduction_ok = reduction_ok and (
            np.max(np.abs(vals[::2] - expected)) < 1e-9
            and np.max(np.abs(vals[1::2] - expected)) < 1e-9
        )

    # quartet factorization reproduces the m=4 characteristic polynomial
    fact_worst = 0.0
    tensors = [antisym(4, 2, {(1, 2): 0.5})]
    for _ in range(10):
        mu1, mu2 = rng.uniform(-1, 1, size=2)
        gmat = antisym(4, 2, {(1, 2): mu1, (3, 4): mu2}).as_matrix()
        el = orthogonal_from_generator(random_tensor(rng, 4, 2))
        tensors.append(AntisymTensor.from_matrix(4, el @ gmat @ el.T))
    for g in tensors:
        pred = factorized_charpoly(4, "two_tensor", two_tensor_invariants(g))
        direct = char_poly(tensor_config(4, 2, g))
        scale = np.maximum(1.0, np.abs(direct))
        fact_worst = max(fact_worst, float(np.max(np.abs(pred - direct) / scale)))

    ok = worst2 < 1e-9 and worst3 < 1e-9 and d3_nonzero_seen > 40 and reduction_ok \
        and fact_worst < 1e-8
    _report(5, f"2-tensor spectra: m=2 {worst2:.2e}, m=3 {worst3:.2e} (both < 1e-9, "
               f"{d3_nonzero_seen} D3!=0 cases), D3=0 reduction, "
               f"m=4 factorization {fact_worst:.2e} < 1e-8", ok)


def test_criterion_06_invariant_identities():
    rng = np.random.default_rng(17)
    worst_m2 = 0.0
    for _ in range(100):
        g = random_tensor(rng, 2, 2)
        lhs = 2 * frobenius_r(g) ** 2 - trace_T4(g)
        worst_m2 = max(worst_m2, abs(lhs - 4 * float(np.linalg.det(g.as_matrix()))))
    worst_m3 = 0.0
    for _ in range(100):
        g = random_tensor(rng, 3, 2)
        lhs = 2 * frobenius_r(g) ** 2 - trace_T4(g)
        dm = dual_tensor(g).as_matrix()
        worst_m3 = max(worst_m3, abs(lhs - float(np.trace(dm.T @ dm)) / 32.0))
    worst_pf = 0.0
    for _ in range(50):
        g = random_tensor(rng, 3, 2)
        worst_pf = max(worst_pf, abs(epsilon_sum_D3(g) - 48.0 * pfaffian(g.as_matrix())))
    canonical = epsilon_D3(antisym(3, 2, {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}))
    ok = worst_m2 < 1e-10 and worst_m3 < 1e-10 and worst_pf < 1e-10 and canonical == 48.0
    _report(6, f"invariant identities: det {worst_m2:.2e}, dual {worst_m3:.2e}, "
               f"Pfaffian {worst_pf:.2e} (all < 1e-10), canonical D3 = {canonical}", ok)


def test_criterion_07_rotation_compatibility():
    rng = np.random.default_rng(19)
    worst = 0.0
    for m in (2, 3):
        for _ in range(25):
            coords = random_coords(rng, m)
            alpha = random_tensor(rng, m, 2)
            u = spin_lift(alpha)
            el = orthogonal_from_generator(alpha)
            lhs = encode(rotate_coords(coords, el))
            rhs = conjugate_state(encode(coords), u)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _report(7, f"encode after rotate = conjugate after encode: worst {worst:.2e} < 1e-9",
            worst < 1e-9)


def test_criterion_08_domain_equivalence_m2():
    rng = np.random.default_rng(23)
    disagreements = 0
    checked = 0
    for _ in range(2000):
        g = random_tensor(rng, 2, 2, box=1.2)
        inv = two_tensor_invariants(g)
        closed = rT4_domain(inv.r, inv.T4).admissible
        min_closed = float(np.min(quartet_eigenvalues(2, inv)))
        oracle = float(np.min(hermitian_eigenvalues(tensor_config(2, 2, g)))) >= -1e-9
        if abs(min_closed) > 1e-8:
            checked += 1
            if closed != oracle:
                disagreements += 1
    boundary_pt = rT4_domain(1.0, 2.0)
    ok = disagreements == 0 and checked > 1900 and boundary_pt.admissible and boundary_pt.boundary
    _report(8, f"(r,T4) region vs oracle on 2000 tensors: {disagreements} disagreements "
               f"({checked} checked), (1,2) admissible boundary", ok)


def test_criterion_09_tunnel_geometry():
    pts = np.linspace(-1.0, 1.0, 21)
    xs, ys, zs = (a.ravel() for a in np.meshgrid(pts, pts, pts, indexing="ij"))
    closed = [tunnel_membership(float(x), float(y), float(z)).admissible
              for x, y, z in zip(xs, ys, zs)]
    # tensor_config(2, 2, g) of every grid point, expanded as one stack
    rho = clifford.cached_basis(2).expand({(): 1.0, (1, 2): xs, (3, 4): ys, (2, 3): zs}) / 4
    oracle = hermitian_eigenvalues(rho)[:, 0] >= -1e-10
    disagreements = int(np.count_nonzero(oracle != closed))
    fig3 = table_rows(figure_columns("fig3", 6)[1])
    fig3_ok = True
    for x, y, z, _ in fig3[::5]:
        g = antisym(2, 2, {(1, 2): x, (3, 4): y, (2, 3): z})
        fig3_ok = fig3_ok and float(np.min(hermitian_eigenvalues(tensor_config(2, 2, g)))) >= -1e-8
    ok = disagreements == 0 and fig3_ok
    _report(9, f"tunnel membership vs oracle on 21^3 grid: {disagreements} disagreements; "
               f"fig3 points oracle-positive", ok)


def test_criterion_10_descartes_fallback():
    rng = np.random.default_rng(29)
    disagreements = 0
    for _ in range(500):
        rho = random_unit_trace_hermitian(rng, 8)
        verdict = descartes_positivity(char_poly(rho), tol=1e-9)
        oracle = float(np.min(hermitian_eigenvalues(rho))) >= -1e-9
        if verdict.admissible != oracle:
            disagreements += 1
    _report(10, f"sign-rule fallback vs oracle on 500 random states: "
                f"{disagreements} disagreements", disagreements == 0)


def test_criterion_11_figure_reproduction():
    grid = table_rows(figure_columns("fig1", 101)[1])
    curves = {key: table_rows(curve) for key, curve in boundary_curves(101).items()}
    rows_ok = len(grid) == 101 * 101
    for r, t4, adm, _ in grid:
        expected = (max((r + 1.0) ** 2 - 2.0, 0.0) - 1e-9 <= t4 <= 2.0 * r * r + 1e-9
                    and 0.0 <= r <= 1.0 + 1e-9)
        rows_ok = rows_ok and adm == expected
    upper_end = curves["curve_upper"][-1]
    lower_end = curves["curve_lower"][-1]
    curves_ok = (abs(upper_end[0] - 1.0) < 1e-15 and abs(upper_end[1] - 2.0) < 1e-12
                 and abs(lower_end[0] - 1.0) < 1e-15 and abs(lower_end[1] - 2.0) < 1e-12)
    _report(11, "fig1 admissible set matches the inequality row-by-row at resolution 101; "
                "boundary curves meet at (1,2)", rows_ok and curves_ok)

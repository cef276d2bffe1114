import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbloch import identities, invariants
from genbloch.coords import AntisymTensor, antisym, state_coords
from genbloch.errors import (
    BadIndex,
    DimensionMismatch,
    GradeMismatch,
    InvariantMismatch,
    UnknownName,
    UnsupportedM,
)
from genbloch.identities import (
    det_identity_check,
    dual_identity_residual,
    dual_tensor,
    epsilon_D3,
    epsilon_sum_D3,
    perm_sign,
    pseudo_vector_V,
    scale_dimension,
)
from genbloch.invariants import (
    InvariantSet,
    coords_invariants,
    frobenius_r,
    pfaffian,
    trace_T4,
    two_tensor_invariants,
)
from genbloch.spectra import normal_form
from genbloch.symmetry import orthogonal_from_generator

from conftest import random_tensor


def test_frobenius_r_examples():
    assert frobenius_r(antisym(2, 2, {})) == 0.0
    g = antisym(2, 2, {(1, 2): 0.6, (3, 4): 0.8})
    assert abs(frobenius_r(g) - 1.0) < 1e-15


def test_frobenius_rotation_invariance(rng):
    g = random_tensor(rng, 2, 2)
    alpha = random_tensor(rng, 2, 2)
    el = orthogonal_from_generator(alpha)
    rotated = AntisymTensor.from_matrix(2, el @ g.as_matrix() @ el.T)
    assert abs(frobenius_r(rotated) - frobenius_r(g)) < 1e-10


def test_trace_T4_block():
    g = antisym(2, 2, {(1, 2): 0.7, (3, 4): -0.4})
    assert abs(trace_T4(g) - (2 * 0.7 ** 4 + 2 * 0.4 ** 4)) < 1e-14


def test_tunnel_expansion_is_trace_T4():
    # G(x, y, z) with G_12 = x, G_34 = y, G_23 = z: G^2 has -x^2, -(x^2 + z^2),
    # -(y^2 + z^2), -y^2 on the diagonal and xz, yz twice each off it, so
    # trace(G^4) is the sum of their squares
    for x, y, z in np.random.default_rng(7).uniform(-1.5, 1.5, size=(200, 3)):
        xx, yy, zz = x * x, y * y, z * z
        expansion = xx * xx + (xx + zz) ** 2 + (yy + zz) ** 2 + yy * yy + 2.0 * zz * (xx + yy)
        g = antisym(2, 2, {(1, 2): x, (3, 4): y, (2, 3): z})
        assert trace_T4(g) == pytest.approx(expansion, rel=16 * np.finfo(float).eps)
        assert frobenius_r(g) == pytest.approx(xx + yy + zz, rel=4 * np.finfo(float).eps)


def test_trace_T4_frozen():
    g = antisym(2, 2, {(1, 2): 0.6, (3, 4): 0.3})
    assert abs(trace_T4(g) - 0.2754) < 1e-14
    assert trace_T4(antisym(2, 2, {})) == 0.0


def test_grade_checks():
    with pytest.raises(GradeMismatch):
        frobenius_r(antisym(2, 1, {(1,): 1.0}))


def test_D3_canonical_block():
    g = antisym(3, 2, {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0})
    assert epsilon_D3(g) == 48.0
    assert epsilon_sum_D3(g) == 48.0


def test_D3_single_pair_vanishes():
    assert epsilon_D3(antisym(3, 2, {(1, 2): 1.0})) == 0.0


def test_D3_scaled_block():
    a = 1 / math.sqrt(3)
    g = antisym(3, 2, {(1, 2): a, (3, 4): a, (5, 6): a})
    assert abs(epsilon_D3(g) - 48 / 3 ** 1.5) < 1e-12
    assert abs(epsilon_D3(g) - 16 / math.sqrt(3)) < 1e-12


def test_D3_brute_vs_pfaffian(rng):
    for _ in range(50):
        g = random_tensor(rng, 3, 2)
        brute = epsilon_sum_D3(g)
        fast = 48.0 * pfaffian(g.as_matrix())
        assert abs(brute - fast) < 1e-10 * max(1.0, abs(brute))


def _pfaffian_by_matchings(a):
    """Pfaffian by expansion along the first row: the exponential reference."""
    n = len(a)
    if n % 2:
        return 0.0
    if n == 0:
        return 1.0
    total = 0.0
    for pos, j in enumerate(range(1, n)):
        rest = [k for k in range(1, n) if k != j]
        total += (-1.0) ** pos * a[0, j] * _pfaffian_by_matchings(a[np.ix_(rest, rest)])
    return total


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 14), st.integers(0, 2 ** 32 - 1), st.none() | st.integers(0, 13))
def test_pfaffian_elimination(n, seed, zero_row):
    # Parlett-Reid elimination: Pf^2 = det, the sign of the matching
    # expansion, and a stack gives each matrix's own value bit for bit
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = a - a.T
    if zero_row is not None and zero_row < n:
        a[zero_row, :] = a[:, zero_row] = 0.0
    pf = pfaffian(a)
    if n == 0:
        assert pf == 1.0
    if n % 2 or zero_row is not None and zero_row < n:
        assert pf == 0.0
    else:
        det = np.linalg.det(a) if n else 1.0
        assert abs(pf * pf - det) <= 1e-10 * abs(det)
    if n <= 8:
        assert np.sign(pf) == np.sign(_pfaffian_by_matchings(a))
    stack = np.stack([a, -a, 3.0 * a, np.zeros((n, n)), a[::-1, ::-1]]).reshape(5, 1, n, n)
    assert np.array_equal(pfaffian(stack), np.array([[pfaffian(x[0])] for x in stack]))


def test_D3_needs_six_indices():
    with pytest.raises(DimensionMismatch):
        epsilon_D3(antisym(2, 2, {(1, 2): 1.0}))


def test_dual_m2_two_block():
    a, b = 0.8, -0.5
    g = antisym(2, 2, {(1, 2): a, (3, 4): b})
    dual = dual_tensor(g)
    assert abs(dual.get((1, 2)) - 2 * b) < 1e-14
    assert abs(dual.get((3, 4)) - 2 * a) < 1e-14
    trace = np.trace(dual.as_matrix() @ g.as_matrix())
    lhs = 2 * frobenius_r(g) ** 2 - trace_T4(g)
    assert abs(trace ** 2 / 16 - 4 * a * a * b * b) < 1e-12
    assert abs(lhs - 4 * a * a * b * b) < 1e-12


def test_dual_m2_single_block_degenerate():
    g = antisym(2, 2, {(1, 2): 1.0})
    assert abs(2 * frobenius_r(g) ** 2 - trace_T4(g)) < 1e-14
    assert abs(np.trace(dual_tensor(g).as_matrix() @ g.as_matrix())) < 1e-14


def test_dual_identity_m2_random(rng):
    for _ in range(100):
        assert dual_identity_residual(random_tensor(rng, 2, 2)) < 1e-10


def test_dual_identity_m3_random(rng):
    for _ in range(100):
        assert dual_identity_residual(random_tensor(rng, 3, 2)) < 1e-10


def test_dual_unsupported_side():
    with pytest.raises(UnsupportedM):
        dual_tensor(random_tensor(np.random.default_rng(0), 4, 2))


def test_det_identity_frozen():
    g = antisym(2, 2, {(1, 2): 0.6, (3, 4): 0.3})
    lhs, rhs = det_identity_check(g)
    assert abs(lhs - 0.1296) < 1e-14
    assert abs(rhs - 0.1296) < 1e-14
    assert det_identity_check(antisym(2, 2, {})) == (0.0, 0.0)


def test_det_identity_random(rng):
    for _ in range(100):
        lhs, rhs = det_identity_check(random_tensor(rng, 2, 2))
        assert abs(lhs - rhs) < 1e-10


def test_pseudo_vector_reduction_to_D3():
    g = antisym(3, 2, {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}, side=7)
    v = pseudo_vector_V(g)
    assert np.allclose(v, [0, 0, 0, 0, 0, 0, 48.0], atol=1e-12)
    assert np.array_equal(pseudo_vector_V(antisym(3, 2, {}, side=7)), np.zeros(7))


def test_pseudo_vector_O7_invariance(rng):
    g = random_tensor(rng, 3, 2, side=7)
    base = pseudo_vector_V(g)
    for _ in range(10):
        q, r = np.linalg.qr(rng.normal(size=(7, 7)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        gm = q @ g.as_matrix() @ q.T
        rotated = AntisymTensor.from_matrix(3, gm, side=7)
        v = pseudo_vector_V(rotated)
        assert abs(np.sum(v ** 2) - np.sum(base ** 2)) < 1e-9 * max(1.0, np.sum(base ** 2))
        # V transforms as a vector under SO(7)
        assert np.max(np.abs(v - q @ base)) < 1e-9 * max(1.0, float(np.max(np.abs(base))))


def test_pseudo_vector_needs_side7():
    with pytest.raises(DimensionMismatch):
        pseudo_vector_V(antisym(3, 2, {(1, 2): 1.0}))


def test_scale_dimensions():
    assert scale_dimension("r") == 2
    assert scale_dimension("D3") == 3
    assert scale_dimension("T4") == 4
    assert scale_dimension("r^2") == 4
    assert scale_dimension("scalar") == 1
    with pytest.raises(UnknownName):
        scale_dimension("bogus")


def test_homogeneity_degrees(rng):
    g = random_tensor(rng, 3, 2)
    s = 0.5
    gs = g.scaled(s)
    assert abs(frobenius_r(gs) - s ** 2 * frobenius_r(g)) < 1e-12
    assert abs(epsilon_D3(gs) - s ** 3 * epsilon_D3(g)) < 1e-12
    assert abs(trace_T4(gs) - s ** 4 * trace_T4(g)) < 1e-12


def test_T4_cauchy_schwarz_bound(rng):
    for m in (2, 3, 4):
        for _ in range(333):
            g = random_tensor(rng, m, 2)
            r = frobenius_r(g)
            assert trace_T4(g) <= 2 * r * r + 1e-10 * max(1.0, r * r)


def test_invariant_guards_detect_tampering(monkeypatch):
    # each guard compares one quantity with a bound or a second route to it
    g = antisym(3, 2, {(1, 2): 0.3, (3, 4): 0.2, (5, 6): 0.1})
    monkeypatch.setattr(invariants, "trace_T4", lambda g: 1.0)  # above 2 r^2 = 0.0392
    with pytest.raises(InvariantMismatch, match="Cauchy-Schwarz"):
        two_tensor_invariants(g)
    monkeypatch.setattr(identities, "pfaffian", lambda a: 1.0)  # 48 Pf is 0.288
    with pytest.raises(InvariantMismatch, match="disagree"):
        epsilon_D3(g)


def test_D3_sign_under_reflection(rng):
    g = random_tensor(rng, 3, 2)
    flip = np.diag([-1.0, 1, 1, 1, 1, 1])
    reflected = AntisymTensor.from_matrix(3, flip @ g.as_matrix() @ flip.T)
    assert abs(epsilon_D3(reflected) + epsilon_D3(g)) < 1e-10


def test_all_invariants_rotation_invariant_m3(rng):
    for _ in range(10):
        g = random_tensor(rng, 3, 2)
        el = orthogonal_from_generator(random_tensor(rng, 3, 2))
        rotated = AntisymTensor.from_matrix(3, el @ g.as_matrix() @ el.T)
        assert abs(frobenius_r(rotated) - frobenius_r(g)) < 1e-9
        assert abs(trace_T4(rotated) - trace_T4(g)) < 1e-9
        # proper rotations preserve D3 itself, not just its magnitude
        assert abs(epsilon_D3(rotated) - epsilon_D3(g)) < 1e-9


def test_invariant_set_builders(rng):
    g = random_tensor(rng, 3, 2)
    inv = two_tensor_invariants(g)
    assert inv.r >= 0 and inv.T4 >= 0 and inv.D3 is not None
    assert abs(inv.extras["pfaffian"] - inv.D3 / 48.0) < 1e-12
    # a vector's amplitude adds the pseudoscalar's square (the normal_form verdict's mu_0)
    coords = state_coords(2, grades={1: {(1,): 0.6}, 4: {(1, 2, 3, 4): 0.8}})
    mu, pf = normal_form(2, coords.mode, coords.grades)
    extras = coords_invariants(coords).extras
    assert extras["normal_form_amplitudes"] == mu.tolist()
    assert abs(extras["normal_form_amplitudes"][0] - 1.0) < 1e-15
    with pytest.raises(ValueError):
        InvariantSet(r=-1.0, T4=0.0)


def test_perm_sign_basics():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1
    # parity is multiplicative over all 4! permutations
    total = sum(perm_sign(p) for p in itertools.permutations(range(4)))
    assert total == 0
    # a repeated entry is no permutation
    with pytest.raises(BadIndex):
        perm_sign((1, 1))

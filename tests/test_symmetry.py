import itertools

import numpy as np
import pytest

from genbloch.clifford import cached_basis
from genbloch.coords import antisym, decode, encode, state_coords, vector
from genbloch.errors import NotUnitary
from genbloch.identities import conjugate_state, spin_lift
from genbloch.linalg import hermitian_eigenvalues
from genbloch.symmetry import orthogonal_from_generator, rotate_coords

from conftest import gammas, random_coords, random_tensor, random_unit_trace_hermitian


def test_orthogonal_identity():
    el = orthogonal_from_generator(antisym(2, 2, {}))
    assert np.allclose(el, np.eye(4), atol=1e-14)


def test_orthogonal_quarter_turn():
    el = orthogonal_from_generator(antisym(1, 2, {(1, 2): np.pi / 2}))
    assert np.allclose(el, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_orthogonal_large_angle_exact():
    a = 1e3
    el = orthogonal_from_generator(antisym(1, 2, {(1, 2): a}))
    want = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
    assert np.max(np.abs(el - want)) < 1e-12


@pytest.mark.parametrize("angle", [1e6, 1.3e12])
def test_orthogonal_angle_beyond_precision(angle):
    # the angle is known to ~angle * eps, more than ORTHO_TOL past ~4.5e5 rad
    with pytest.raises(NotUnitary):
        orthogonal_from_generator(antisym(1, 2, {(1, 2): angle}))


def test_orthogonal_random_properties(rng):
    for m in (2, 3):
        alpha = random_tensor(rng, m, 2)
        el = orthogonal_from_generator(alpha)
        assert np.max(np.abs(el.T @ el - np.eye(2 * m))) < 1e-10
        assert abs(np.linalg.det(el) - 1.0) < 1e-10


def test_spin_lift_identity():
    u = spin_lift(antisym(2, 2, {}))
    assert np.allclose(u, np.eye(4), atol=1e-14)


def test_spin_lift_pi_rotation_m1():
    u = spin_lift(antisym(1, 2, {(1, 2): np.pi}))
    g1 = gammas(1)[0]
    assert np.max(np.abs(u @ g1 @ u.conj().T + g1)) < 1e-12


def test_spin_lift_conjugation_matches_rotation(rng):
    # U Gamma_i U^dag = sum_k L[i,k] Gamma_k with L from the same generator
    for m in (1, 2):
        alpha = random_tensor(rng, m, 2)
        u = spin_lift(alpha)
        el = orthogonal_from_generator(alpha)
        gams = gammas(m)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2 ** m))) < 1e-10
        for i in range(2 * m):
            lhs = u @ gams[i] @ u.conj().T
            rhs = sum(el[i, k] * gams[k] for k in range(2 * m))
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_rotate_coords_identity(rng):
    coords = random_coords(rng, 2)
    same = rotate_coords(coords, np.eye(4))
    for idx in cached_basis(2).indices:
        assert abs(same.coefficient(idx) - coords.coefficient(idx)) < 1e-14


def test_rotate_coords_vector_quarter_turn():
    coords = state_coords(2, grades={1: vector(2, [1, 0, 0, 0])})
    el = orthogonal_from_generator(antisym(2, 2, {(1, 2): np.pi / 2}))
    rotated = rotate_coords(coords, el)
    got = [rotated.grade(1).get((i,)) for i in range(1, 5)]
    assert np.allclose(got, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_encode_rotate_equals_conjugate_encode(rng):
    # the normative compatibility identity fixing all sign conventions
    for m in (2, 3):
        coords = random_coords(rng, m)
        alpha = random_tensor(rng, m, 2)
        u = spin_lift(alpha)
        el = orthogonal_from_generator(alpha)
        lhs = encode(rotate_coords(coords, el))
        rhs = conjugate_state(encode(coords), u)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_spectrum_invariant_under_rotation(rng):
    coords = random_coords(rng, 2)
    alpha = random_tensor(rng, 2, 2)
    el = orthogonal_from_generator(alpha)
    before = hermitian_eigenvalues(encode(coords))
    after = hermitian_eigenvalues(encode(rotate_coords(coords, el)))
    assert np.max(np.abs(before - after)) < 1e-9


def test_conjugate_state_properties(rng):
    rho = random_unit_trace_hermitian(rng, 4)
    assert np.array_equal(conjugate_state(rho, np.eye(4)), rho)
    alpha = random_tensor(rng, 2, 2)
    u = spin_lift(alpha)
    rotated = conjugate_state(rho, u)
    assert abs(np.trace(rotated) - np.trace(rho)) < 1e-12
    assert np.max(np.abs(hermitian_eigenvalues(rotated) - hermitian_eigenvalues(rho))) < 1e-10


def test_conjugate_state_rejects_non_unitary(rng):
    rho = random_unit_trace_hermitian(rng, 4)
    with pytest.raises(NotUnitary):
        conjugate_state(rho, 2.0 * np.eye(4))


def test_group_composition_on_disjoint_planes(rng):
    # generators in disjoint planes commute, so lifts and rotations compose exactly
    theta, phi = rng.uniform(-1, 1, size=2)
    a1 = antisym(2, 2, {(1, 2): theta})
    a2 = antisym(2, 2, {(3, 4): phi})
    u = spin_lift(a1) @ spin_lift(a2)
    el = orthogonal_from_generator(a1) @ orthogonal_from_generator(a2)
    gams = gammas(2)
    for i in range(4):
        lhs = u @ gams[i] @ u.conj().T
        rhs = sum(el[i, k] * gams[k] for k in range(4))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reflection_through_rotate_coords(rng):
    # reflections enter only as explicit diagonal flips, never via the exponential
    coords = random_coords(rng, 2)
    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    reflected = rotate_coords(coords, flip)
    before = hermitian_eigenvalues(encode(coords))
    after = hermitian_eigenvalues(encode(reflected))
    assert np.max(np.abs(before - after)) < 1e-9


@pytest.mark.parametrize("m", [4, 5, 6])
def test_rotate_full_state_matches_spin_lift(rng, m):
    # the spin lift exists in standard mode only; criterion 07 covers m = 2, 3
    coords = random_coords(rng, m)
    alpha = random_tensor(rng, m, 2)
    rotated = rotate_coords(coords, orthogonal_from_generator(alpha))
    conjugated = decode(conjugate_state(encode(coords), spin_lift(alpha)))
    for idx in cached_basis(m).indices:
        assert abs(rotated.coefficient(idx) - conjugated.coefficient(idx)) < 1e-9


def _rotate_per_entry(coords, el):
    """One det per (output, input) entry pair: the loop that rotate_coords
    stacks, and the reference for its grades, key order included."""
    grades = []
    for k, tensor in coords.grades.items():
        vals = {}
        for out_idx in itertools.combinations(range(1, coords.side + 1), k):
            total = 0.0
            for in_idx, v in tensor.items():
                sub = el[np.ix_([i - 1 for i in out_idx], [j - 1 for j in in_idx])]
                total += float(np.linalg.det(sub)) * v
            if total != 0.0:
                vals[out_idx] = total
        grades.append((k, list(vals.items())))
    return grades


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rotate_coords_matches_per_entry(rng, m, mode):
    coords = random_coords(rng, m, mode=mode)
    side = coords.side
    # a single-plane turn leaves many minors exactly zero, so the zero filter runs too
    sparse = state_coords(m, mode=mode, grades={
        k: {key: v for n, (key, v) in enumerate(t.items()) if n % 2 == 0}
        for k, t in coords.grades.items()})
    for state, alpha in ((coords, random_tensor(rng, m, 2, side=side)),
                         (sparse, antisym(m, 2, {(1, 2): 0.7}, side=side))):
        el = orthogonal_from_generator(alpha)
        got = rotate_coords(state, el)
        assert [(k, list(t.items())) for k, t in got.grades.items()] == \
            _rotate_per_entry(state, el)

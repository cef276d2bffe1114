import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbloch.clifford import cached_basis, full_basis, verify_algebra
from genbloch.coords import (
    AntisymTensor,
    antisym,
    coords_from_json,
    coords_to_json,
    decode,
    encode,
    state_coords,
    sum_of_squares,
    tensor_config,
    vector,
)
from genbloch.errors import (
    BadIndex,
    GradeMismatch,
    GradeOutOfRange,
    MalformedInput,
    NonFiniteResult,
    NonUnitTrace,
    NotHermitian,
    ResourceLimit,
)
from genbloch.identities import spin_lift, z_from_coords
from genbloch.invariants import frobenius_r
from genbloch.linalg import hermitian_eigenvalues
from genbloch.symmetry import orthogonal_from_generator

from conftest import SIGMA1, SIGMA3, random_coords, random_unit_trace_hermitian


def test_antisym_normalizes_keys():
    t = antisym(2, 2, {(3, 1): 0.5})
    assert t.values == {(1, 3): -0.5}
    assert t.get((3, 1)) == 0.5
    with pytest.raises(BadIndex):
        antisym(2, 2, {(1, 1): 1.0})


def test_encode_maximally_mixed():
    coords = state_coords(2)
    assert np.allclose(encode(coords), np.eye(4) / 4, atol=1e-15)


def test_encode_m1_projector():
    coords = state_coords(1, grades={1: {(1,): 1.0}})
    rho = encode(coords)
    assert np.allclose(rho, (np.eye(2) + SIGMA1) / 2, atol=1e-15)
    # rank-1 projector
    assert np.allclose(rho @ rho, rho, atol=1e-14)


def test_encode_m2_grade2_spectrum():
    coords = state_coords(2, grades={2: {(1, 2): 0.6}})
    vals = hermitian_eigenvalues(encode(coords))
    assert np.allclose(vals, [0.1, 0.1, 0.4, 0.4], atol=1e-12)


def test_decode_maximally_mixed():
    coords = decode(np.eye(4) / 4)
    assert abs(coords.scalar - 1.0) < 1e-12
    for k in range(1, 5):
        assert all(abs(v) < 1e-12 for v in coords.grade(k).values.values())


def test_decode_m1_pseudoscalar():
    coords = decode((np.eye(2) + SIGMA3) / 2)
    assert abs(coords.grade(2).get((1, 2)) - (-1.0)) < 1e-12
    assert coords.grade(1).norm_sq() < 1e-24


def test_roundtrip_random(rng):
    for m in (1, 2, 3):
        for _ in range(20):
            rho = random_unit_trace_hermitian(rng, 2 ** m)
            coords = decode(rho)
            assert np.max(np.abs(encode(coords) - rho)) < 1e-10


def test_decode_rejects_bad_input():
    with pytest.raises(NonUnitTrace):
        decode(np.eye(4))
    bad = np.eye(2, dtype=complex) / 2
    bad[0, 1] = 0.3
    with pytest.raises(NotHermitian):
        decode(bad)


def test_decode_overflow_typed_error():
    # a hermitian unit-trace matrix whose projection overflows: a typed error, no warnings
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[3, 0] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult):
            decode(rho)


def test_decode_linearity(rng):
    rho1 = random_unit_trace_hermitian(rng, 4)
    rho2 = random_unit_trace_hermitian(rng, 4)
    a = 0.3
    mix = decode(a * rho1 + (1 - a) * rho2)
    c1, c2 = decode(rho1), decode(rho2)
    for idx in cached_basis(2).indices:
        want = a * c1.coefficient(idx) + (1 - a) * c2.coefficient(idx)
        assert abs(mix.coefficient(idx) - want) < 1e-10


def test_norm_sq_adds_left_to_right():
    # builtin sum() of floats is compensated from Python 3.12 on and would give 1 + 2^-52
    assert vector(2, [1.0, 1e-8, 1e-8, 0.0]).norm_sq() == 1.0
    cols = [np.array([1.0, 0.5]), np.array([1e-8, 0.25]), np.array([1e-8, 0.0])]
    assert sum_of_squares(cols).tolist() == [1.0, 0.3125]


def test_coordinate_count():
    for m in (1, 2, 3):
        basis = cached_basis(m)
        non_scalar = [idx for idx in basis.indices if idx]
        assert len(non_scalar) == 4 ** m - 1


def test_tensor_config_zero():
    g = AntisymTensor(2, 1, 4, {})
    assert np.allclose(tensor_config(2, 1, g), np.eye(4) / 4, atol=1e-15)


def test_tensor_config_vector_m2():
    rho = tensor_config(2, 1, vector(2, [0, 0, 0, 1]))
    vals = hermitian_eigenvalues(rho)
    assert np.allclose(vals, [0.0, 0.0, 0.5, 0.5], atol=1e-12)


def test_tensor_config_m3_unit_r():
    a = 1 / np.sqrt(3)
    g = antisym(3, 2, {(1, 2): a, (3, 4): a, (5, 6): a})
    rho = tensor_config(3, 2, g)
    assert rho.shape == (8, 8)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert abs(g.norm_sq() - 1.0) < 1e-14


@pytest.mark.parametrize("call", [
    lambda t: t.as_matrix(),
    lambda t: tensor_config(2, 2, t),
    orthogonal_from_generator,
    spin_lift,
    frobenius_r,
    z_from_coords,
], ids=["as_matrix", "tensor_config", "orthogonal_from_generator", "spin_lift", "frobenius_r",
        "z_from_coords"])
def test_one_grade_rule(call):
    # a grade-1 tensor where grade 2 is needed is GradeMismatch at every entry point
    with pytest.raises(GradeMismatch, match="expected a grade-2 tensor, got grade 1"):
        call(antisym(2, 1, {(1,): 0.5}))


def test_tensor_beyond_max_m_refused():
    # m <= 6 bounds side, so no multi-index table grows past C(13, 6) rows
    with pytest.raises(ResourceLimit):
        AntisymTensor(7, 1, 14, {(1,): 0.5})


def test_tensor_config_grade_range():
    with pytest.raises(GradeOutOfRange):
        tensor_config(2, 5, AntisymTensor(2, 5, 4, {}))
    with pytest.raises(GradeOutOfRange):
        tensor_config(2, 3, AntisymTensor(2, 3, 5, {}), mode="extended")


def test_alt_expand_scalar_only():
    coords = state_coords(2, mode="extended")
    assert np.allclose(encode(coords), np.eye(4) / 4, atol=1e-15)


def test_alt_expand_chirality_direction():
    # extended vector along the 5th generator equals the standard pseudoscalar state
    ext = state_coords(2, mode="extended", grades={1: {(5,): 1.0}})
    std = state_coords(2, grades={4: {(1, 2, 3, 4): 1.0}})
    assert np.max(np.abs(encode(ext) - encode(std))) < 1e-14


def test_alt_project_reconstructs_everything(rng):
    # grades 0..m over 2m+1 indices are 4^m orthogonal elements: a complete
    # basis, so the projection residual vanishes for arbitrary states
    for m in (1, 2, 3):
        rho = random_unit_trace_hermitian(rng, 2 ** m)
        coords = decode(rho, mode="extended")
        assert coords.mode == "extended"
        assert np.max(np.abs(encode(coords) - rho)) < 1e-12


def test_alt_roundtrip_on_extended_configs(rng):
    coords = random_coords(rng, 2, mode="extended")
    rho = encode(coords)
    back = decode(rho, mode="extended")
    assert np.max(np.abs(encode(back) - rho)) < 1e-12
    for idx in cached_basis(2, "extended").indices:
        assert abs(back.coefficient(idx) - coords.coefficient(idx)) < 1e-10


def test_coords_json_roundtrip():
    coords = state_coords(2, grades={2: {(1, 2): 0.6}})
    obj = coords_to_json(coords)
    assert obj == {
        "m": 2,
        "mode": "standard",
        "scalar": 1.0,
        "grades": {"2": [{"idx": [1, 2], "val": 0.6}]},
    }
    back = coords_from_json(obj)
    assert back.grade(2).get((1, 2)) == 0.6


@pytest.mark.parametrize("text, field", [
    ('{"m": 2, "grades": {"1": [{"idx": [1], "val": Infinity}]}}', "grades.1[0]"),
    ('{"m": 2, "grades": {"2": [{"idx": [1, 2], "val": 1e400}]}}', "grades.2[0]"),
    ('{"m": 2, "grades": {"1": [{"idx": [1], "val": NaN}]}}', "grades.1[0]"),
    ('{"m": 2, "scalar": -Infinity}', "scalar"),
    ('{"m": 2, "grades": {"x": [{"idx": [1], "val": 0.5}]}}', "grades"),
    ('{"m": 2, "grades": {"1.0": [{"idx": [1], "val": 0.5}]}}', "grades"),
], ids=["val-infinity", "val-1e400", "val-nan", "scalar-infinity", "grade-key-x",
        "grade-key-float"])
def test_coords_from_json_refuses_non_numbers(text, field):
    # json.load reads Infinity, NaN and 1e400 as floats that are no finite number
    with pytest.raises(MalformedInput, match=re.escape(f"field '{field}'")):
        coords_from_json(json.loads(text))


_HUGE_G2 = state_coords(2, grades={2: {(1, 2): 1.3e200, (3, 4): -1.3e200}})


@pytest.mark.parametrize("scalar", [1.0, 0.5, 2.0, 0.0])
def test_encode_keeps_the_scalar_as_trace(scalar):
    coords = state_coords(2, scalar=scalar, grades={1: {(1,): 0.5}, 2: {(1, 3): -0.2}})
    assert np.trace(encode(coords)).real == scalar


@pytest.mark.parametrize("coords", [_HUGE_G2], ids=["rounded-away"])
def test_encode_refuses_trace_loss(coords):
    # the 1/4 on the diagonal is below the last digit of the 1.3e200 entries,
    # so the encoded matrix has trace 0
    with pytest.raises(ResourceLimit, match=re.escape(
            "encoding these coordinates rounds their trace away (input beyond floating-point range?)")):
        encode(coords)


@pytest.mark.parametrize("scalar", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_state_coords_refuses_non_finite_scalar(scalar):
    # NaN compares False against any tolerance, so a NaN scalar would reach a
    # verdict downstream; it is refused where the state is built
    with pytest.raises(MalformedInput, match="scalar"):
        state_coords(2, scalar=scalar, grades={1: {(1,): 0.5}})


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_antisym_tensor_refuses_non_finite_value(value):
    with pytest.raises(MalformedInput, match=re.escape("non-finite value at (1,)")):
        AntisymTensor(2, 1, 4, {(1,): value})


def test_full_basis_extended_certificate():
    report = verify_algebra(full_basis(2, "extended"))
    assert report["max_orthogonality_residual"] == 0.0
    assert report["pairs_checked"] == 256


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.sampled_from(["standard", "extended"]), st.integers(0, 2 ** 32 - 1))
def test_codec_matches_dense_traces(m, mode, seed):
    rng = np.random.default_rng(seed)
    basis = cached_basis(m, mode)
    rho = random_unit_trace_hermitian(rng, 2 ** m)
    indices = basis.indices
    rows = range(len(indices)) if m <= 3 else rng.choice(len(indices), size=64, replace=False)
    proj = basis.project(rho)
    for row in rows:
        want = np.trace(rho @ basis.element(indices[row]))
        assert abs(proj[row] - want) < 1e-12
    coords = random_coords(rng, m, mode=mode)
    back = decode(encode(coords), mode=mode)
    for idx in indices:
        assert abs(back.coefficient(idx) - coords.coefficient(idx)) < 1e-12

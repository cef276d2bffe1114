import copy
import itertools
import json
import math
import numbers
import pickle
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbloch import sum_of_squares
from genbloch.clifford import cached_basis, full_basis, max_grade, verify_algebra
from genbloch.coords import (
    AntisymTensor,
    StateCoords,
    antisym,
    check_grade,
    coords_from_json,
    coords_to_json,
    decode,
    encode,
    state_coords,
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
    wire_field,
)
from genbloch.invariants import coords_invariants, frobenius_r
from genbloch.linalg import hermitian_eigenvalues
from genbloch.symmetry import orthogonal_from_generator, rotate_coords
from genbloch.text import _coords_text

from claims import spin_lift, z_from_coords
from conftest import SIGMA1, SIGMA3, random_coords, random_unit_trace_hermitian


def test_antisym_normalizes_keys():
    t = antisym(2, 2, {(3, 1): 0.5})
    assert dict(t.items()) == {(1, 3): -0.5}
    assert t.get((3, 1)) == 0.5
    with pytest.raises(BadIndex):
        antisym(2, 2, {(1, 1): 1.0})


def _parity(order) -> int:
    """+1 or -1 by the count of inversions of order, apart from clifford's rule."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))


@st.composite
def _grade(draw):
    """(m, mode, k, entries): a few distinct index sets of one grade of the
    family, each keyed in a drawn order, at m = 1..6 on sides 2m and 2m + 1."""
    m = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["standard", "extended"]))
    side = 2 * m + (mode == "extended")
    k = draw(st.integers(1, max_grade(m, mode)))
    sets = draw(st.lists(st.sets(st.integers(1, side), min_size=k, max_size=k),
                         max_size=6, unique_by=lambda s: tuple(sorted(s))))
    values = st.floats(-1e3, 1e3, allow_subnormal=False)
    return m, mode, k, {tuple(draw(st.permutations(sorted(s)))): draw(values) for s in sets}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_grade())
def test_one_grade_layout(drawn):
    # antisym keys its entries by mask, as StateCoords does, and gives tuples back
    m, mode, k, entries = drawn
    side = 2 * m + (mode == "extended")
    t = antisym(m, k, entries, side)
    check_grade(k, side, t.values)
    sorted_form = {tuple(sorted(key)): _parity(key) * v for key, v in entries.items()}
    assert dict(t.items()) == sorted_form
    for key, v in sorted_form.items():
        # every order of the index set, all of them up to k = 5
        for order in itertools.islice(itertools.permutations(key), 120):
            assert t.get(order) == _parity(order) * v
    if k == 2:
        nonzero = {mask: v for mask, v in t.values.items() if v != 0.0}
        assert AntisymTensor.from_matrix(m, t.as_matrix(), side).values == nonzero
    assert state_coords(m, mode, grades={k: t}).grade(k).values == t.values
    assert copy.copy(t).values == t.values
    assert pickle.loads(pickle.dumps(t)).values == t.values


def test_repeated_wire_entries_add_up():
    # every entry that names one index set adds in, signed by the permutation
    # that sorts it: an exact repeat keeps the earlier value as well
    exact = coords_from_json({"m": 2, "grades": {"1": [{"idx": [1], "val": 0.1},
                                                       {"idx": [1], "val": 0.2}]}})
    assert exact.coefficient((1,)) == 0.1 + 0.2
    assert coords_invariants(exact).extras["vector_norm_sq"] == (0.1 + 0.2) ** 2
    permuted = coords_from_json({"m": 2, "grades": {"2": [{"idx": [1, 2], "val": 0.1},
                                                          {"idx": [2, 1], "val": -0.2}]}})
    assert permuted.coefficient((2, 1)) == -(0.1 + 0.2)
    assert coords_to_json(permuted)["grades"] == {"2": [{"idx": [1, 2], "val": 0.1 + 0.2}]}
    # so do entries under two spellings of one grade key
    spelled = coords_from_json({"m": 2, "grades": {"1": [{"idx": [1], "val": 0.1}],
                                                   "01": [{"idx": [1], "val": 0.2}]}})
    assert spelled.coefficient((1,)) == 0.1 + 0.2
    assert state_coords(2, grades={1: {(1,): 0.1}, "1": {(1,): 0.2}}).coefficient((1,)) == 0.1 + 0.2


def _wire_reference(obj) -> dict:
    """coords_to_json of a wire document by plain dicts: each idx sorted, its
    value signed by the parity of its inversions, repeats summed in input order."""
    grades = {}
    for k, entries in obj["grades"].items():
        sums = grades.setdefault(k, {})
        for e in entries:
            inversions = sum(a > b for a, b in itertools.combinations(e["idx"], 2))
            key = tuple(sorted(e["idx"]))
            sums[key] = sums.get(key, 0.0) + (-1) ** inversions * e["val"]
    return {"m": obj["m"], "mode": obj["mode"], "scalar": obj["scalar"],
            "grades": {k: [{"idx": list(key), "val": v} for key, v in sorted(sums.items())]
                       for k, sums in sorted(grades.items())}}


@st.composite
def _wire_coords(draw):
    m = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["standard", "extended"]))
    side = 2 * m if mode == "standard" else 2 * m + 1
    grades = {}
    for k in draw(st.sets(st.integers(1, side if mode == "standard" else m))):
        # a few index sets per grade, each drawn in any order, some more than once
        sets = draw(st.lists(st.sets(st.integers(1, side), min_size=k, max_size=k),
                             min_size=0, max_size=4))
        entries = draw(st.lists(st.tuples(st.sampled_from(sets), st.randoms()), max_size=8)
                       if sets else st.just([]))
        grades[str(k)] = [{"idx": rnd.sample(sorted(idx), k),
                           "val": draw(st.floats(-2.0, 2.0, allow_subnormal=False))}
                          for idx, rnd in entries]
    scalar = draw(st.floats(-2.0, 2.0))
    return {"m": m, "mode": mode, "scalar": scalar, "grades": grades}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_wire_coords())
def test_wire_round_trip_matches_plain_dicts(obj):
    coords = coords_from_json(json.loads(json.dumps(obj)))
    want = _wire_reference(obj)
    assert coords_to_json(coords) == want
    assert b"".join(_coords_text(coords)) == json.dumps(want, indent=2, sort_keys=True).encode()


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
    with pytest.raises(MalformedInput, match="field 'value at mask 1': expected float"):
        AntisymTensor(2, 1, 4, {1: value})


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


def _float_rule(v):
    """What the float rule reads v as: float(v) for a finite numbers.Real that
    is no bool, else None."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return None
    try:
        x = float(v)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


_NUMBERS = st.one_of(
    st.floats(), st.integers(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.fractions(), st.decimals(),
    st.complex_numbers(), st.complex_numbers().map(np.complex128),
    st.sampled_from([True, False, np.True_, np.False_, "0.5", "x", None, math.inf, -math.inf,
                     math.nan, 10 ** 400, Fraction(10 ** 400), 0.5 + 0j, np.complex128(0.5)]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_NUMBERS)
def test_one_float_rule_at_every_entry_point(v):
    # the wire reader, the builders, the record constructors and scaled accept
    # the same values and store the same Python float; the rest is MalformedInput
    want = _float_rule(v)
    if want is None:
        with pytest.raises(MalformedInput):
            wire_field(v, float, "v")
    else:
        assert wire_field(v, float, "v") == want
    reads = {
        "state_coords value": lambda: state_coords(2, grades={1: {(1,): v}}).grades[1][1],
        "state_coords scalar": lambda: state_coords(2, scalar=v).scalar,
        "antisym": lambda: antisym(2, 1, {(1,): v}).values[1],
        "StateCoords value": lambda: StateCoords(2, "standard", 1.0, {1: {1: v}}).grades[1][1],
        "StateCoords scalar": lambda: StateCoords(2, "standard", v, {}).scalar,
        "AntisymTensor": lambda: AntisymTensor(2, 1, 4, {1: v}).values[1],
        "vector": lambda: vector(2, [v, 0.0, 0.0, 0.0]).values.get(1, 0.0),
        "scaled": lambda: antisym(2, 1, {(1,): 1.0}).scaled(v).values[1],
    }
    for name, read in reads.items():
        if want is None:
            with pytest.raises(MalformedInput):
                read()
        else:
            got = read()
            assert type(got) is float and got == want, name


def test_antisym_refuses_a_numpy_bool():
    with pytest.raises(MalformedInput, match=re.escape("field 'value at (1,)'")):
        antisym(2, 1, {(1,): np.True_})


def test_records_store_a_fraction_as_a_float():
    coords = StateCoords(2, "standard", Fraction(1), {1: {0b1: Fraction(1, 2)}})
    assert type(coords.scalar) is float and type(coords.grades[1][1]) is float
    # the rotation sums the stored floats: a Fraction in the record would not mix
    rotated = rotate_coords(coords, np.eye(4)[[1, 0, 2, 3]])
    assert rotated.grades == {1: {0b10: 0.5}}


def test_state_coords_and_records_refuse_a_decimal_alike():
    for build in (lambda: state_coords(2, grades={1: {(1,): Decimal("0.5")}}),
                  lambda: StateCoords(2, "standard", 1.0, {1: {0b1: Decimal("0.5")}})):
        with pytest.raises(MalformedInput, match="expected float, got Decimal"):
            build()


@pytest.mark.parametrize("key", [1.5, True, "x", None, (1,), "1.0"],
                         ids=["float", "bool", "str", "None", "tuple", "float-str"])
def test_state_coords_refuses_a_grade_key_that_is_no_int(key):
    # a float key is not rounded to a grade, nor is True grade 1
    with pytest.raises(MalformedInput, match="field 'grades': expected int keys"):
        state_coords(2, grades={key: {(1,): 0.3}})
    with pytest.raises(MalformedInput, match="field 'grades': expected int keys"):
        coords_from_json({"m": 2, "grades": {key: [{"idx": [1], "val": 0.3}]}})


def test_grade_keys_name_grades_by_int():
    for key in (1, np.int64(1), "1", "01"):
        assert state_coords(2, grades={key: {(1,): 0.3}}).grades == {1: {0b1: 0.3}}
    # the record itself takes only int keys
    for key in ("1", True, 1.0):
        with pytest.raises(GradeOutOfRange):
            StateCoords(2, "standard", 1.0, {key: {0b1: 0.3}})


def test_records_refuse_grades_that_are_no_dict():
    for build in (lambda: AntisymTensor(2, 1, 4, [1]),
                  lambda: StateCoords(2, "standard", 1.0, [(1, {})]),
                  lambda: StateCoords(2, "standard", 1.0, 5),
                  lambda: state_coords(2, grades=[(1, {})])):
        with pytest.raises(MalformedInput, match="expected dict"):
            build()

import copy
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import genbloch
from genbloch import coords, domains, errors, figures, invariants, linalg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))

# prints the modules loaded by one CLI call on stderr, after its output on stdout
_LOADED = ("import sys; from genbloch.cli import run; code = run(sys.argv[1:]); "
           "print(' '.join(sorted(sys.modules)), file=sys.stderr); sys.exit(code)")


@pytest.mark.parametrize("argv", [
    ["figure", "fig2", "--resolution", "3", "--format", "svg"],
    ["domain", "--grid", "--paper-cube", "--resolution", "3"],
])
def test_figure_calls_load_only_figures(argv):
    res = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout
    loaded = set(res.stderr.split())
    assert {m for m in loaded if m.startswith("genbloch")} == {
        "genbloch", "genbloch.cli", "genbloch.errors", "genbloch.figures"}
    assert "dataclasses" not in loaded


_STATE = {"m": 2, "grades": {"2": [{"idx": [1, 2], "val": 0.6}, {"idx": [3, 4], "val": 0.3}]}}
_MATRIX = {"dim": 2, "entries": [[0.75, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0]]}
_ALPHA = {"m": 2, "alpha": [{"idx": [1, 3], "val": 0.4}]}


@pytest.mark.parametrize("argv", [
    ["basis", "--m", "2", "--verify"],
    ["basis", "--m", "2", "--element", "2:1,2"],
    ["encode", "--input", "state.json"],
    ["decode", "--input", "matrix.json"],
    ["invariants", "--input", "state.json"],
    ["spectrum", "--both", "--input", "state.json"],
    ["validate", "--input", "state.json"],
    ["rotate", "--input", "state.json", "--alpha", "alpha.json"],
    ["sample", "--m", "2", "--k", "2", "--samples", "5"],
    ["figure", "fig1", "--resolution", "3", "--format", "csv"],
    ["figure", "fig2", "--resolution", "3", "--format", "json"],
    ["figure", "fig3", "--resolution", "3", "--format", "svg"],
    ["domain", "--input", "state.json"],
    ["domain", "--grid", "--resolution", "3"],
    ["domain", "--samples", "5"],
], ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")))
def test_cli_calls_load_no_identities(tmp_path, argv):
    # the paper's identities are checked claims: no CLI answer depends on them
    for name, obj in (("state", _STATE), ("matrix", _MATRIX), ("alpha", _ALPHA)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    res = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout
    loaded = res.stderr.split()
    assert "genbloch.identities" not in loaded
    # the records are plain __slots__ classes: no call generates dataclass code
    assert "dataclasses" not in loaded


def test_public_names_resolve():
    for name in genbloch.__all__:
        assert getattr(genbloch, name) is not None
    assert set(genbloch.__all__) <= set(dir(genbloch))
    assert genbloch.figure_columns is genbloch.figures.figure_columns
    with pytest.raises(AttributeError):
        genbloch.no_such_name


def _records():
    from genbloch import (CliffordBasis, DomainVerdict, InvariantSet, Spectrum, antisym,
                          cached_basis, state_coords)

    basis = cached_basis(1)
    return [
        CliffordBasis(basis.m, basis.mode, basis.rows, basis.x, basis.z, basis.p),
        antisym(2, 1, {(1,): 0.5}),
        state_coords(2, grades={1: {(1,): 0.5}}),
        InvariantSet(0.5, 0.1),
        Spectrum(1, [0.25, 0.75], [(0.25, 1), (0.75, 1)]),
        DomainVerdict(True, False, None, None, 1e-9),
    ]


@pytest.mark.parametrize("index", range(6), ids=["CliffordBasis", "AntisymTensor", "StateCoords",
                                                 "InvariantSet", "Spectrum", "DomainVerdict"])
def test_records_are_immutable(index):
    record = _records()[index]
    for name in type(record).__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.other = 1
    # copy and pickle go through the constructor
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert pickle.dumps(twin) == pickle.dumps(record)


@pytest.mark.parametrize("index", range(6), ids=["CliffordBasis", "AntisymTensor", "StateCoords",
                                                 "InvariantSet", "Spectrum", "DomainVerdict"])
def test_records_print_their_fields(index):
    record = _records()[index]
    text = repr(record)
    assert text.startswith(f"{type(record).__name__}(") and "object at 0x" not in text
    assert all(f"{name}=" in text for name in type(record).__slots__)
    if index == 5:
        assert text == ("DomainVerdict(admissible=True, boundary=False, violated=None, "
                        "invariants_used=None, tol=1e-09)")


@pytest.mark.parametrize("call, error", [
    (lambda: linalg.hermitian_eigenvalues(np.zeros((2, 3))), "DimensionMismatch"),
    (lambda: linalg.as_matrix(np.zeros((2, 2, 2))), "DimensionMismatch"),
    (lambda: linalg.hermitian_eigenvalues(np.diag([1.0, np.nan])), "MalformedInput"),
    (lambda: figures.require_sums_of_squares(-1.0), "MalformedInput"),
    (lambda: invariants.InvariantSet(r=0.5, T4=-1.0), "MalformedInput"),
    (lambda: figures._tunnel_family(np.array([[0.0, np.inf, 0.0]])), "MalformedInput"),
    (lambda: coords.AntisymTensor.from_matrix(2, np.ones((4, 4))), "MalformedInput"),
    (lambda: domains.DomainVerdict(True, False, "positivity", None, 1e-9), "MalformedInput"),
], ids=["shape", "stack-as-matrix", "non-finite-matrix", "negative-r", "negative-T4",
        "non-finite-tunnel", "not-antisymmetric", "admissible-with-violation"])
def test_caller_input_errors_are_typed(call, error):
    # a documented GenblochError, still a ValueError for callers that catch that
    with pytest.raises(getattr(errors, error)) as info:
        call()
    assert isinstance(info.value, errors.GenblochError) and isinstance(info.value, ValueError)


def test_record_constructors_keep_their_defaults_and_checks():
    from genbloch import AntisymTensor, DomainVerdict, InvariantSet, StateCoords
    from genbloch.errors import (BadIndex, DimensionMismatch, GradeMismatch, GradeOutOfRange,
                                 MalformedInput, ResourceLimit)

    first, second = InvariantSet(r=0.5, T4=0.1), InvariantSet(0.5, 0.1)
    assert (first.D3, first.extras) == (None, {})
    assert first.extras is not second.extras
    assert InvariantSet(0.5, 0.1, 2.0, {"pfaffian": 1.0}).extras == {"pfaffian": 1.0}
    with pytest.raises(ValueError, match="sums of squares"):
        InvariantSet(r=-1.0, T4=0.0)
    with pytest.raises(ValueError, match="violated constraint"):
        DomainVerdict(admissible=True, boundary=False, violated="x", invariants_used=None,
                      tol=1e-9)
    with pytest.raises(ResourceLimit, match="m = 7 exceeds"):
        AntisymTensor(7, 1, 14, {})
    with pytest.raises(DimensionMismatch, match="side 3 invalid"):
        AntisymTensor(m=2, k=1, side=3, values={})
    with pytest.raises(BadIndex, match="has grade 2, expected 1"):
        AntisymTensor(2, 1, 4, {(1, 2): 0.5})
    with pytest.raises(MalformedInput, match="non-finite value"):
        AntisymTensor(2, 1, 4, {(1,): float("nan")})
    tensor = AntisymTensor(2, 1, 4, {(1,): 0.5})
    with pytest.raises(MalformedInput, match="non-finite scalar"):
        StateCoords(2, "standard", float("inf"), {})
    with pytest.raises(GradeOutOfRange):
        StateCoords(2, "standard", 1.0, {5: tensor})
    with pytest.raises(GradeMismatch):
        StateCoords(2, "standard", 1.0, {2: tensor})
    with pytest.raises(DimensionMismatch, match="wrong shape metadata"):
        StateCoords(m=2, mode="extended", scalar=1.0, grades={1: tensor})

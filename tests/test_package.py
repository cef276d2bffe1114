import ast
import copy
import functools
import importlib.util
import inspect
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import genbloch
from genbloch import cli, clifford, coords, domains, errors, invariants, linalg, spectra, symmetry

import claims

SRC = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
TESTS = os.path.dirname(os.path.abspath(claims.__file__))

# the public names and error classes of the claims module, which left the package
_CLAIM_NAMES = ("char_poly", "conjugate_state", "descartes_positivity", "det_identity_check",
                "dual_tensor", "epsilon_D3", "factorized_charpoly", "pseudo_vector_V",
                "quartet_eigenvalues", "rT4_domain", "scale_dimension", "spin_lift",
                "tunnel_membership", "tunnel_spectrum", "z_from_coords", "z_variable")
_CLAIM_ERRORS = ("UnsupportedM", "UnknownName", "ComplexRoots", "NegativeDiscriminant")

# prints the modules loaded by one CLI call on stderr, after its output on
# stdout and its diagnostics, also when argparse exits (--help)
_LOADED = ("import sys\nfrom genbloch.cli import run\ntry:\n    code = run(sys.argv[1:])\n"
           "finally:\n    print(' '.join(sorted(sys.modules)), file=sys.stderr)\nsys.exit(code)")


def _call(argv, cwd=None, path=None) -> tuple:
    """(exit code, stdout, stderr lines, modules loaded) of one CLI call in a
    fresh interpreter, with src/ and path, if given, on its PYTHONPATH."""
    pythonpath = os.pathsep.join(filter(None, [SRC, path]))
    res = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=pythonpath),
                         capture_output=True, text=True, timeout=120)
    *diagnostics, loaded = res.stderr.splitlines() or [""]
    return res.returncode, res.stdout, diagnostics, set(loaded.split())


def _genbloch(loaded) -> set:
    return {m for m in loaded if m.startswith("genbloch")}


def test_cli_import_loads_no_numpy():
    res = subprocess.run([sys.executable, "-c", "import sys, genbloch.cli; "
                          "print(' '.join(sorted(sys.modules)))"],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert "numpy" not in loaded
    # json loads only where JSON is read or written
    assert "json" not in loaded
    assert _genbloch(loaded) == {"genbloch", "genbloch.cli", "genbloch.errors"}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["validate", "--bogus"], 1),
    (["validate", "--input", "missing.json"], 1),
    (["validate", "--input", "malformed.json"], 1),
], ids=["help", "usage-error", "missing-input", "malformed-input"])
def test_help_and_refused_calls_load_no_numpy(tmp_path, argv, code):
    (tmp_path / "malformed.json").write_text('{"m": 2, "grades": ')
    got, out, diagnostics, loaded = _call(argv, cwd=tmp_path)
    assert got == code, diagnostics
    if code:
        assert out == "" and len(diagnostics) == 1 and diagnostics[0].startswith("genbloch:")
    else:
        assert out.startswith("usage: genbloch") and diagnostics == []
    assert "numpy" not in loaded
    assert _genbloch(loaded) == {"genbloch", "genbloch.cli", "genbloch.errors"}


_FIGURE_MODULES = {"genbloch", "genbloch.cli", "genbloch.errors", "genbloch.figures",
                   "genbloch.plain"}


@pytest.mark.parametrize("argv", [
    ["figure", "fig2", "--resolution", "3", "--format", "svg"],
    ["domain", "--grid", "--paper-cube", "--resolution", "3"],
    ["figure", "fig1", "--resolution", "101"],
])
def test_figure_calls_load_only_figures(argv):
    # a figure of at most figures.PLAIN_ROWS candidate rows is built and
    # spelled from Python floats, without numpy
    code, out, diagnostics, loaded = _call(argv)
    assert code == 0, diagnostics
    assert out
    assert _genbloch(loaded) == _FIGURE_MODULES
    assert "numpy" not in loaded
    assert "dataclasses" not in loaded
    # CSV and SVG read and write no JSON
    assert "json" not in loaded


@pytest.mark.parametrize("argv", [
    ["sample", "--m", "3", "--k", "1", "--samples", "75", "--format", "csv"],
    ["sample", "--m", "4", "--k", "1", "--samples", "9", "--format", "json"],
    ["domain", "--samples", "5", "--k", "1"],
    ["sample", "--m", "2", "--k", "2", "--samples", "800", "--format", "csv"],
    ["sample", "--m", "1", "--k", "2", "--samples", "2048", "--format", "json"],
    ["domain", "--samples", "5"],
])
def test_small_vector_atlas_loads_only_ball(argv):
    # a vector atlas, or a grade-2 one at m <= 2, of at most ball.PLAIN_CELLS
    # draws x 4^m is drawn, decided, checked and spelled from Python floats,
    # without numpy or the algebra
    code, out, diagnostics, loaded = _call(argv)
    assert code == 0, diagnostics
    assert out
    assert _genbloch(loaded) == {"genbloch", "genbloch.cli", "genbloch.errors", "genbloch.ball",
                                 "genbloch.plain"}
    assert "numpy" not in loaded
    assert "dataclasses" not in loaded
    assert ("json" in loaded) == ("json" in argv)


def test_package_import_loads_no_submodule():
    res = subprocess.run([sys.executable, "-c", "import sys, genbloch; "
                          "print(' '.join(sorted(sys.modules)))"],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert _genbloch(loaded) == {"genbloch"}
    assert "numpy" not in loaded


def test_shared_rules_have_one_home():
    # each rule that the numpy-free answers share with the array engine is
    # defined once, in the package or its errors
    from genbloch import ball

    homes = {
        genbloch: ("MAX_M", "_is_int", "admits", "sum_of_squares", "tunnel_amplitudes",
                   "_generators"),
        errors: ("wire_field", "_bounded", "_check_m"),
    }
    for home, names in homes.items():
        for name in names:
            rule = getattr(home, name)
            assert getattr(rule, "__module__", home.__name__) == home.__name__, name
    assert domains._check_sample is ball._check_sample


def test_figure_above_plain_rows_loads_numpy_and_text():
    # fig2's 32,656 candidate rows at resolution 52 are the most at or below
    # 2^15; at 53 it takes the array path
    code, out, diagnostics, loaded = _call(["figure", "fig2", "--resolution", "53",
                                            "--format", "svg"])
    assert code == 0, diagnostics
    assert out
    assert _genbloch(loaded) == _FIGURE_MODULES | {"genbloch.text"}
    assert "numpy" in loaded
    assert "dataclasses" not in loaded and "json" not in loaded


@pytest.mark.parametrize("argv, json_loaded", [
    (["sample", "--m", "2", "--k", "2", "--samples", "5", "--format", "csv"], False),
    (["domain", "--samples", "5"], False),
    (["sample", "--m", "2", "--k", "2", "--samples", "5"], True),
    (["figure", "fig1", "--resolution", "3", "--format", "json"], True),
], ids=["sample-csv", "domain-samples", "sample-json", "figure-json"])
def test_json_loads_only_for_json(argv, json_loaded):
    code, out, diagnostics, loaded = _call(argv)
    assert code == 0, diagnostics
    assert out
    assert ("json" in loaded) == json_loaded


_STATE = {"m": 2, "grades": {"2": [{"idx": [1, 2], "val": 0.6}, {"idx": [3, 4], "val": 0.3}]}}
_MATRIX = {"dim": 2, "entries": [[0.75, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0]]}
_ALPHA = {"m": 2, "alpha": [{"idx": [1, 3], "val": 0.4}]}


def _write_inputs(tmp_path) -> None:
    for name, obj in (("state", _STATE), ("matrix", _MATRIX), ("alpha", _ALPHA)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))


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
    # the paper's identities are checked claims beside the tests, outside the
    # package: no CLI answer loads them, even where they can be imported
    assert importlib.util.find_spec("genbloch.identities") is None
    assert not set(_CLAIM_NAMES) & set(genbloch.__all__)
    assert not [name for name in _CLAIM_ERRORS if hasattr(errors, name)]
    _write_inputs(tmp_path)
    code, out, diagnostics, loaded = _call(argv, cwd=tmp_path, path=TESTS)
    assert code == 0, diagnostics
    assert out
    assert "claims" not in loaded and "genbloch.identities" not in loaded
    # the records are plain __slots__ classes: no call generates dataclass code
    assert "dataclasses" not in loaded


# the calls of the installed-console-script step of the tier1 workflow: one
# answer per subcommand, each with its exit code, and one refusal
_SMOKE_CALLS = [
    (["basis", "--m", "2", "--verify"], 0),
    (["encode", "--input", "state.json"], 0),
    (["decode", "--input", "matrix.json"], 0),
    (["invariants", "--input", "state.json"], 0),
    (["spectrum", "--both", "--input", "state.json"], 0),
    (["validate", "--input", "hot.json"], 2),
    (["sample", "--m", "2", "--k", "2", "--samples", "5"], 0),
    # a grade-2 atlas at m = 3 takes the array path, which loads domains
    (["sample", "--m", "3", "--k", "2", "--samples", "5"], 0),
    # at its default resolution fig2 takes the array path, which loads text
    (["figure", "fig2", "--format", "svg"], 0),
    (["rotate", "--input", "state.json", "--alpha", "alpha.json"], 0),
    (["domain", "--grid", "--resolution", "3"], 0),
    (["validate", "--bogus"], 1),
]
_WORKFLOW = os.path.join(os.path.dirname(TESTS), ".github", "workflows", "tier1.yml")


def test_smoke_calls_load_every_module(tmp_path):
    # tier-1 checks what each answer is; the workflow's install step only runs
    # these calls through the installed entry point.  Together they load every
    # module file of the package, so a module that no answer loads fails here
    with open(_WORKFLOW) as fh:
        workflow = fh.read()
    _write_inputs(tmp_path)
    (tmp_path / "hot.json").write_text(json.dumps({"m": 2, "grades": {"1": [{"idx": [1],
                                                                             "val": 1.2}]}}))
    assert {argv[0] for argv, _ in _SMOKE_CALLS} == set(cli._COMMANDS)
    loaded = set()
    for argv, code in _SMOKE_CALLS:
        assert " ".join(argv) in workflow, argv
        got, out, diagnostics, modules = _call(argv, cwd=tmp_path)
        assert got == code and len(diagnostics) == (code == 1), diagnostics
        assert (out == "") == (code == 1)
        loaded |= _genbloch(modules)
    # __main__ is what `python -m genbloch` runs, not an import
    assert "python -m genbloch --help" in workflow
    res = subprocess.run([sys.executable, "-m", "genbloch", "--help"], env=dict(
        os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert res.returncode == 0 and res.stdout.startswith("usage: genbloch")
    files = [name[:-3] for name in os.listdir(os.path.dirname(genbloch.__file__))
             if name.endswith(".py")]
    shipped = {"genbloch" if name == "__init__" else f"genbloch.{name}" for name in files}
    assert loaded | {"genbloch.__main__"} == shipped


@functools.cache
def _numpy_at_import() -> frozenset:
    """The numpy submodules that `import numpy` alone loads in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", "import sys, numpy; print(' '.join(sys.modules))"],
                         capture_output=True, text=True, timeout=120, check=True)
    return frozenset(m for m in res.stdout.split() if m.startswith("numpy."))


@pytest.mark.parametrize("argv", [
    ["sample", "--m", "2", "--k", "1", "--samples", "5", "--format", "csv"],
    ["sample", "--m", "2", "--k", "1", "--samples", "5", "--format", "json"],
    ["sample", "--m", "2", "--k", "2", "--samples", "5", "--format", "csv"],
    ["sample", "--m", "2", "--k", "2", "--samples", "5", "--format", "json"],
    # the calls above take the plain path, which loads no numpy; these the array path
    ["sample", "--m", "3", "--k", "2", "--samples", "5", "--format", "csv"],
    ["sample", "--m", "3", "--k", "2", "--samples", "5", "--format", "json"],
    ["basis", "--m", "2", "--verify"],
    ["validate", "--input", "state.json"],
    ["spectrum", "--both", "--input", "state.json"],
    ["decode", "--input", "matrix.json"],
    ["figure", "fig2", "--resolution", "3"],
], ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")))
def test_answers_load_no_numpy_beyond_its_import(tmp_path, argv):
    # a numpy submodule that numpy does not load itself (numpy.random, numpy.ma)
    # is a cost of the answer: the sampler draws from the standard library
    _write_inputs(tmp_path)
    code, out, diagnostics, loaded = _call(argv, cwd=tmp_path)
    assert code == 0 and out, diagnostics
    assert {m for m in loaded if m.startswith("numpy.")} <= _numpy_at_import()


@pytest.mark.parametrize("argv", [
    ["validate", "--input", "state.json"],
    ["spectrum", "--both", "--input", "state.json"],
    ["invariants", "--input", "state.json"],
], ids=lambda argv: argv[0])
def test_object_answers_load_no_writers(tmp_path, argv):
    # an answer printed as one JSON object needs neither figures nor the table writers
    _write_inputs(tmp_path)
    code, out, diagnostics, loaded = _call(argv, cwd=tmp_path)
    assert code == 0, diagnostics
    assert json.loads(out)
    assert not {"genbloch.figures", "genbloch.text"} & loaded


@pytest.mark.parametrize("command, m, idx", [
    ("validate", 7, [1]),
    ("spectrum", 7, [1]),
    ("validate", 2, [15]),
], ids=["validate-m7", "spectrum-m7", "validate-bad-idx"])
def test_refused_state_loads_no_domains(tmp_path, command, m, idx):
    state = {"m": m, "grades": {"1": [{"idx": idx, "val": 0.1}]}}
    (tmp_path / "state.json").write_text(json.dumps(state))
    code, out, diagnostics, loaded = _call([command, "--input", "state.json"], cwd=tmp_path)
    assert code == 1 and out == "" and len(diagnostics) == 1, diagnostics
    assert not {"genbloch.domains", "genbloch.invariants", "genbloch.spectra"} & loaded


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
        CliffordBasis(basis.m, basis.mode, basis.masks, basis.grade, basis.x, basis.z, basis.p),
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
    (lambda: invariants.require_sums_of_squares(-1.0), "MalformedInput"),
    (lambda: invariants.InvariantSet(r=0.5, T4=-1.0), "MalformedInput"),
    (lambda: claims.tunnel_membership(0.0, np.inf, 0.0), "MalformedInput"),
    (lambda: coords.AntisymTensor.from_matrix(2, np.ones((4, 4))), "MalformedInput"),
    (lambda: domains.DomainVerdict(True, False, "positivity", None, 1e-9), "MalformedInput"),
    # an entry point that takes a record refuses anything else by name
    (lambda: coords.encode(None), "MalformedInput"),
    (lambda: spectra.closed_form_spectrum("x"), "MalformedInput"),
    (lambda: invariants.coords_invariants("x"), "MalformedInput"),
    (lambda: domains.positivity("x", None), "MalformedInput"),
    (lambda: symmetry.rotate_coords("x", np.eye(4)), "MalformedInput"),
    (lambda: symmetry.rotate_coords(coords.state_coords(2), [["a"] * 4] * 4), "MalformedInput"),
    (lambda: coords.coords_to_json("x"), "MalformedInput"),
    (lambda: symmetry.orthogonal_from_generator("x"), "MalformedInput"),
    (lambda: coords.antisym(2, 2, {(1, 2): "a"}), "MalformedInput"),
    (lambda: symmetry.rotate_coords(coords.state_coords(2), np.eye(3)), "DimensionMismatch"),
    (lambda: coords.vector(2, [0.1, 0.2]), "DimensionMismatch"),
    (lambda: coords.AntisymTensor.from_matrix(2, np.zeros((4, 3))), "DimensionMismatch"),
    (lambda: spectra.pfaffian(np.zeros((2, 3))), "DimensionMismatch"),
    (lambda: coords.antisym(2, 1, {(1,): 10 ** 400}), "MalformedInput"),
    (lambda: invariants.frobenius_r("x"), "MalformedInput"),
    (lambda: invariants.trace_T4("x"), "MalformedInput"),
    (lambda: invariants.two_tensor_invariants("x"), "MalformedInput"),
    (lambda: clifford.verify_algebra("x"), "MalformedInput"),
    (lambda: claims.spin_lift("x"), "MalformedInput"),
    (lambda: claims.epsilon_sum_D3("x"), "MalformedInput"),
    (lambda: claims.epsilon_D3("x"), "MalformedInput"),
    (lambda: claims.dual_tensor("x"), "MalformedInput"),
    (lambda: claims.dual_identity_residual("x"), "MalformedInput"),
    (lambda: claims.det_identity_check("x"), "MalformedInput"),
    (lambda: claims.pseudo_vector_V("x"), "MalformedInput"),
    (lambda: claims.z_from_coords("x"), "MalformedInput"),
    # a grade's entries are (indices, value) pairs, and get reads the tensor's own grade
    (lambda: coords.state_coords(2, grades={2: "x"}), "MalformedInput"),
    (lambda: coords.tensor_config(2, 2, "x"), "MalformedInput"),
    (lambda: coords.state_coords(2, grades={2: 5}), "MalformedInput"),
    (lambda: coords.tensor_config(2, 2, 5), "MalformedInput"),
    (lambda: coords.antisym(2, 2, {(1, 2): 0.3}).get((1,)), "GradeMismatch"),
    # the refusals of the claims beside the tests
    (lambda: claims.spin_lift(coords.antisym(2, 2, {(1, 5): 0.3}, side=5)), "ModeMismatch"),
    (lambda: claims.epsilon_contract(np.zeros((4, 4)), (), 3), "DimensionMismatch"),
    (lambda: claims.det_identity_check(coords.antisym(3, 2, {(1, 2): 0.3})), "UnsupportedM"),
    (lambda: claims.factorized_charpoly(1, "two_tensor", invariants.InvariantSet(0.3, 0.05)),
     "KindMismatch"),
    (lambda: claims.factorized_charpoly(2, "two_tensor",
                                        invariants.InvariantSet(0.3, 0.05, D3=1.0)),
     "KindMismatch"),
    (lambda: claims.factorized_charpoly(2, "x", invariants.InvariantSet(0.3, 0.05)),
     "KindMismatch"),
    (lambda: claims.z_from_coords(coords.antisym(4, 2, {(1, 2): 0.3})), "UnsupportedM"),
    (lambda: claims.descartes_positivity([1.0, 0.0]), "GradeMismatch"),
    (lambda: claims.tunnel_spectrum(0.1, np.inf, 0.2), "MalformedInput"),
    # a JSON string is no number, and a record's scalar and grade meet the rules of their reads
    (lambda: coords.coords_from_json({"m": 2, "grades": {"1": [{"idx": [1], "val": "0.5"}]}}),
     "MalformedInput"),
    (lambda: coords.StateCoords(2, "standard", "x", {}), "MalformedInput"),
    (lambda: coords.StateCoords(2, "standard", None, {}), "MalformedInput"),
    (lambda: coords.StateCoords(2, "standard", True, {}), "MalformedInput"),
    (lambda: coords.AntisymTensor(2, 0, 4, {}), "GradeOutOfRange"),
    (lambda: coords.AntisymTensor(2, 9, 4, {}), "GradeOutOfRange"),
    (lambda: coords.AntisymTensor(2, -1, 4, {}), "GradeOutOfRange"),
    (lambda: coords.AntisymTensor(2, True, 4, {}), "MalformedInput"),
    (lambda: coords.AntisymTensor(2, "x", 4, {}), "MalformedInput"),
], ids=["shape", "stack-as-matrix", "non-finite-matrix", "negative-r", "negative-T4",
        "non-finite-tunnel", "not-antisymmetric", "admissible-with-violation", "encode-None",
        "closed-form-str", "coords-invariants-str", "positivity-str", "rotate-coords-str", "rotate-matrix-str",
        "coords-to-json-str", "generator-str", "grade-entry-str", "rotate-matrix-size",
        "vector-length", "from-matrix-shape", "pfaffian-not-square", "grade-entry-huge-int",
        "frobenius-r-str", "trace-T4-str", "two-tensor-invariants-str", "verify-algebra-str",
        "spin-lift-str", "epsilon-sum-D3-str", "epsilon-D3-str", "dual-tensor-str",
        "dual-identity-residual-str", "det-identity-check-str", "pseudo-vector-V-str",
        "z-from-coords-str", "grade-entry-not-pair", "tensor-config-str", "grade-not-iterable",
        "tensor-config-not-iterable", "get-other-grade",
        "spin-lift-extended", "epsilon-contract-free-indices", "det-identity-side-6",
        "two-tensor-m1", "two-tensor-D3-off-m3", "unknown-kind",
        "z-from-coords-side-8", "descartes-zero-leading", "tunnel-spectrum-non-finite",
        "grade-value-json-str", "record-scalar-str", "record-scalar-None", "record-scalar-bool",
        "tensor-grade-0", "tensor-grade-9", "tensor-grade-negative", "tensor-grade-bool",
        "tensor-grade-str"])
def test_caller_input_errors_are_typed(call, error):
    # a documented GenblochError, still a ValueError for callers that catch that;
    # the claims beside the tests raise the classes that only they need
    with pytest.raises(getattr(errors, error, None) or getattr(claims, error)) as info:
        call()
    assert isinstance(info.value, errors.GenblochError) and isinstance(info.value, ValueError)


_NAN = float("nan")
_NAN_L = np.full((4, 4), _NAN)


@pytest.mark.filterwarnings("error")  # refused before any arithmetic warns
@pytest.mark.parametrize("call, error", [
    (lambda: symmetry.check_orthogonal(_NAN_L), "MalformedInput"),
    (lambda: symmetry.rotate_coords(coords.state_coords(2, grades={1: {(1,): 0.3}}), _NAN_L),
     "MalformedInput"),
    (lambda: invariants.require_sums_of_squares(_NAN), "MalformedInput"),
    (lambda: invariants.require_sums_of_squares(0.1, _NAN), "MalformedInput"),
    (lambda: invariants.InvariantSet(r=_NAN, T4=0.0), "MalformedInput"),
    (lambda: coords.require_unit_trace(_NAN), "NonUnitTrace"),
    (lambda: claims.rT4_domain(_NAN, 0.1), "MalformedInput"),
    (lambda: claims.rT4_domain(0.3, _NAN), "MalformedInput"),
    (lambda: coords.StateCoords(2, "x", 1.0, {}), "ModeMismatch"),
    (lambda: clifford.full_basis(True), "BadIndex"),
    (lambda: domains.sample_domain(True, 1, 3, 0), "BadIndex"),
    (lambda: domains.sample_domain(2, True, 3, 0), "GradeOutOfRange"),
    (lambda: domains.sample_domain(2, 2, True, 0), "ResourceLimit"),
    (lambda: domains.sample_domain(2, 2, 3, True), "ResourceLimit"),
    # a complex unitary is no rotation of real coordinates
    (lambda: symmetry.rotate_coords(coords.state_coords(2, grades={1: {(1,): 0.3, (2,): 0.1}}),
                                    np.diag([1j, 1, 1, 1])), "NotUnitary"),
    (lambda: coords.antisym(2, 1, {(1,): True}), "MalformedInput"),
    # a record's grade meets the one grade rule: int masks, finite number values
    (lambda: coords.StateCoords(2, "standard", 1.0, {1: {2.0: 0.3}}), "BadIndex"),
    (lambda: coords.StateCoords(2, "standard", 1.0, {1: {True: 0.3}}), "BadIndex"),
    (lambda: coords.StateCoords(2, "standard", 1.0, {2: {3: _NAN}}), "MalformedInput"),
    (lambda: coords.StateCoords(2, "standard", 1.0, {1: {1: True}}), "MalformedInput"),
], ids=["orthogonal-nan", "rotate-nan", "r-nan", "T4-nan", "invariant-set-nan", "trace-nan",
        "rT4-r-nan", "rT4-T4-nan", "unknown-mode", "basis-m-bool", "sample-m-bool",
        "sample-grade-bool", "sample-count-bool", "sample-seed-bool", "rotate-complex",
        "grade-value-bool", "record-mask-float", "record-mask-bool", "record-value-nan",
        "record-value-bool"])
def test_nan_bool_and_unknown_mode_are_refused(call, error):
    # each case meets the shared rule that the same input meets elsewhere
    with pytest.raises(getattr(errors, error)):
        call()


# the sites of the package's one integer rule (genbloch._is_int), each a call
# of one integer argument and the class it refuses a non-integer with
_INT_SITES = {
    "state_coords-m": (lambda v: coords.state_coords(v), "BadIndex"),
    "full_basis-m": (lambda v: clifford.full_basis(v), "BadIndex"),
    "grade-key": (lambda v: coords.check_grade_keys([v], 2, "standard"), "GradeOutOfRange"),
    "sample-k": (lambda v: domains.sample_domain(2, v, 3, 0), "GradeOutOfRange"),
    "sample-n": (lambda v: domains.sample_domain(2, 2, v, 0), "ResourceLimit"),
    "sample-seed": (lambda v: domains.sample_domain(2, 2, 3, v), "ResourceLimit"),
}


@pytest.mark.parametrize("site", list(_INT_SITES))
def test_one_integer_rule_at_every_site(site):
    # an int or a numpy integer is taken; a bool, a float or a str is refused,
    # with the site's own class (figure_columns: test_figure_resolution_is_an_integer)
    call, error = _INT_SITES[site]
    for value in (2, np.int64(2)):
        call(value)
    for value in (True, 2.0, "2"):
        with pytest.raises(getattr(errors, error)):
            call(value)


def test_spectra_loads_no_invariants():
    # the normal form and the Pfaffian live in spectra; invariants imports them
    res = subprocess.run([sys.executable, "-c", "import sys, genbloch.spectra; "
                          "print(' '.join(sorted(sys.modules)))"],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "genbloch.invariants" not in res.stdout.split()


@pytest.mark.parametrize("module", [spectra, domains, invariants])
def test_engine_takes_no_mode(module):
    # the engine decides both modes' states by their grades alone: no
    # function takes a mode and no code reads one
    tree = ast.parse(inspect.getsource(module))
    params = [a.arg for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Lambda))
              for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs]
    reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "mode"]
    assert "mode" not in params and reads == []


def test_record_constructors_keep_their_defaults_and_checks():
    from genbloch import AntisymTensor, DomainVerdict, InvariantSet, StateCoords, state_coords
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
    # a grade's entries are {mask: value}: here the one entry G_1 = 0.5
    entries = {0b1: 0.5}
    with pytest.raises(GradeMismatch):
        AntisymTensor(2, 1, 4, {0b11: 0.5})
    with pytest.raises(MalformedInput, match="field 'value at mask 1': expected float"):
        AntisymTensor(2, 1, 4, {0b1: float("nan")})
    with pytest.raises(MalformedInput, match="field 'scalar': expected float"):
        StateCoords(2, "standard", float("inf"), {})
    with pytest.raises(GradeOutOfRange):
        StateCoords(2, "standard", 1.0, {5: entries})
    with pytest.raises(GradeMismatch):
        StateCoords(2, "standard", 1.0, {2: entries})
    with pytest.raises(GradeMismatch):
        StateCoords(2, "standard", 1.0, {1: {0b10000: 0.5}})
    tensor = AntisymTensor(2, 1, 4, entries)
    with pytest.raises(DimensionMismatch, match="wrong shape metadata"):
        state_coords(m=2, mode="extended", grades={1: tensor})

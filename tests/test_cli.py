import json
import os
import subprocess
import sys

import numpy as np
import pytest

import genbloch
from genbloch.cli import run
from genbloch.coords import coords_to_json, state_coords
from genbloch.linalg import matrix_from_json, matrix_to_json

from conftest import table_rows


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def mixed_coords(tmp_path):
    return write_json(tmp_path / "mixed.json", coords_to_json(state_coords(2)))


@pytest.fixture
def g2_coords(tmp_path):
    coords = state_coords(2, grades={2: {(1, 2): 0.6, (3, 4): 0.3}})
    return write_json(tmp_path / "g2.json", coords_to_json(coords))


def test_validate_mixed_state(mixed_coords, capsys):
    assert run(["validate", "--input", mixed_coords]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["admissible"] is True
    assert out["route"] == "vector_ball"


def test_validate_inadmissible_exits_2(tmp_path, capsys):
    coords = state_coords(2, grades={1: {(1,): 1.2}})
    path = write_json(tmp_path / "hot.json", coords_to_json(coords))
    assert run(["validate", "--input", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["admissible"] is False and out["violated"] == "bloch_ball"


@pytest.mark.parametrize("grades, extra", [
    ({1: {(1,): 1.000000002}}, {2: {(1, 2): 1e-13}}),
    ({2: {(1, 2): 0.6 * 1.000000002, (3, 4): 0.4 * 1.000000002}}, {1: {(1,): 1e-13}}),
], ids=["vector", "grade2"])
def test_validate_route_independent(tmp_path, capsys, grades, extra):
    # 4 lambda_min = -2e-9, inside the default tol; a 1e-13 entry in another
    # grade moves the state off the closed-form route but must not change the verdict
    answers = []
    for name, g in (("pure", grades), ("perturbed", {**grades, **extra})):
        path = write_json(tmp_path / f"{name}.json", coords_to_json(state_coords(2, grades=g)))
        code = run(["validate", "--input", path])
        answers.append((code, json.loads(capsys.readouterr().out)["admissible"]))
    assert answers[0] == answers[1] == (0, True)


def test_validate_descartes_route(tmp_path, capsys):
    coords = state_coords(2, grades={1: {(1,): 0.3}, 2: {(1, 2): 0.2}})
    path = write_json(tmp_path / "mixedgrades.json", coords_to_json(coords))
    assert run(["validate", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "min_eigenvalue"


@pytest.mark.parametrize("argv", [["validate"], ["spectrum", "--oracle"]],
                         ids=["validate", "spectrum_oracle"])
def test_matrix_input_within_decode_hermiticity(tmp_path, capsys, argv):
    # decode accepts this residual, so the oracle must take the state too
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1], rho[1, 0] = 0.1, 0.1 + 5e-11j
    path = write_json(tmp_path / "rho.json", matrix_to_json(rho))
    assert run([*argv, "--input", path]) == 0, capsys.readouterr().err


def _mixed_state(rng, m, z_min):
    """I/2^m plus a scaled random traceless hermitian, with 2^m lambda_min = z_min."""
    dim = 2 ** m
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    h -= np.trace(h).real / dim * np.eye(dim)
    h_min = float(np.linalg.eigvalsh(h)[0])
    return np.eye(dim) / dim + (z_min - 1.0) / (dim * h_min) * h


@pytest.mark.parametrize("m, mode", [(5, "standard"), (6, "standard"), (5, "extended")])
@pytest.mark.parametrize("z_min", [0.5, 0.05, -0.05, -0.5])
def test_validate_mixed_large_m(tmp_path, capsys, rng, m, mode, z_min):
    # at 2^m = 64 characteristic-polynomial coefficients are too inexact to decide these
    path = write_json(tmp_path / "rho.json", matrix_to_json(_mixed_state(rng, m, z_min)))
    code = run(["validate", "--input", path, "--mode", mode])
    out = json.loads(capsys.readouterr().out)
    assert out["admissible"] is (z_min > 0)
    assert code == (0 if z_min > 0 else 2)
    assert out["route"] == "min_eigenvalue"


def test_validate_two_tensor_routes(tmp_path, capsys):
    c2 = state_coords(2, grades={2: {(1, 2): 0.5}})
    path = write_json(tmp_path / "t2.json", coords_to_json(c2))
    assert run(["validate", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "quartet_roots"
    c3 = state_coords(3, grades={2: {(1, 2): 0.4, (3, 4): 0.2}})
    path = write_json(tmp_path / "t3.json", coords_to_json(c3))
    assert run(["validate", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "quartet_roots"
    c5 = state_coords(5, grades={2: {(1, 2): 0.4, (3, 4): 0.2, (5, 6): 0.1, (7, 8): 0.05}})
    path = write_json(tmp_path / "t5.json", coords_to_json(c5))
    assert run(["validate", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "quartet_roots"


def test_spectrum_both_matches(g2_coords, capsys):
    assert run(["spectrum", "--input", g2_coords, "--both"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["closed_form"]["eigenvalues"], [0.025, 0.175, 0.325, 0.475],
                       atol=1e-12)
    assert np.allclose(out["oracle"]["eigenvalues"], [0.025, 0.175, 0.325, 0.475], atol=1e-12)
    assert out["max_diff"] < 1e-12


def test_spectrum_both_generic_grade2_m4(tmp_path, capsys):
    # four active rotation planes in a generic frame
    rng = np.random.default_rng(5)
    vals = {(i, j): float(rng.uniform(-0.2, 0.2)) for i in range(1, 9) for j in range(i + 1, 9)}
    path = write_json(tmp_path / "g4.json", coords_to_json(state_coords(4, grades={2: vals})))
    assert run(["spectrum", "--input", path, "--both"]) == 0
    assert json.loads(capsys.readouterr().out)["max_diff"] <= 1e-9


def test_spectrum_oracle_from_matrix(tmp_path, capsys):
    path = write_json(tmp_path / "rho.json", matrix_to_json(np.eye(4) / 4))
    assert run(["spectrum", "--input", path, "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["eigenvalues"], [0.25] * 4)


def test_encode_decode_roundtrip(tmp_path, capsys, g2_coords):
    mat_path = str(tmp_path / "mat.json")
    assert run(["encode", "--input", g2_coords, "--output", mat_path]) == 0
    rho = matrix_from_json(json.loads(open(mat_path).read()))
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert run(["decode", "--input", mat_path]) == 0
    out = json.loads(capsys.readouterr().out)
    grade2 = {tuple(e["idx"]): e["val"] for e in out["grades"]["2"]}
    assert abs(grade2[(1, 2)] - 0.6) < 1e-12
    assert abs(grade2[(3, 4)] - 0.3) < 1e-12


def test_invariants_output(g2_coords, capsys):
    assert run(["invariants", "--input", g2_coords]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["r"] - 0.45) < 1e-12
    assert abs(out["T4"] - 0.2754) < 1e-12


def test_basis_element_dump(capsys):
    assert run(["basis", "--m", "1", "--element", "2:1,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    mat = matrix_from_json(out["1,2,[1,2]"])
    assert np.array_equal(mat, -np.array([[1, 0], [0, -1]], dtype=complex))


def test_basis_verify_report(capsys):
    assert run(["basis", "--m", "2", "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_anticommutator_residual"] == 0.0
    assert out["n_elements"] == 16


def test_basis_verify_m6_exact(capsys):
    assert run(["basis", "--m", "6", "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pairs_checked"] == 4 ** 12
    assert out["max_anticommutator_residual"] == 0.0
    assert out["max_hermiticity_residual"] == 0.0
    assert out["max_orthogonality_residual"] == 0.0


# Linux carries a parent's peak RSS into its child across fork and exec, so
# a child of the (large) test process would report at least the test
# process's own peak; a small launcher process starts the measured command
_LAUNCHER = ("import os, sys; pid = os.spawnv(os.P_NOWAIT, sys.executable, sys.argv[1:]); "
             "_, status, usage = os.wait4(pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _genbloch_peak_rss_mb(args):
    """Exit code and peak RSS (MB) of one `python -m genbloch ...` child."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "genbloch", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    code, maxrss_kib = map(int, launched.stdout.split())
    return code, maxrss_kib / 1024  # ru_maxrss is in KiB on Linux


def test_validate_m6_peak_rss(tmp_path, rng):
    # the basis is a Pauli-string table, so one m = 6 call stays far below
    # the ~270 MB a dense 4^6 x 64 x 64 element stack would take
    path = write_json(tmp_path / "rho.json", matrix_to_json(_mixed_state(rng, 6, 0.3)))
    out = tmp_path / "out.json"
    code, peak_mb = _genbloch_peak_rss_mb(["validate", "--input", path, "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["admissible"] is True
    assert peak_mb < 150


def test_sample_m6_peak_rss(tmp_path):
    # the sampler classifies draws in fixed-size chunks; one 2000 x 64 x 64
    # complex rho stack alone would take about 130 MB
    out = tmp_path / "out.json"
    code, peak_mb = _genbloch_peak_rss_mb(["sample", "--m", "6", "--k", "1", "--samples", "2000",
                                           "--output", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["records"]) == 2000
    assert peak_mb < 80


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_figure_fig2_peak_rss(tmp_path, fmt):
    # fig2 at its default resolution writes 96,392 points from columns: 67 MB
    # (CSV) and 61 MB (SVG) on Linux x86-64, Python 3.11, numpy 2.4.  The bound
    # sits below the 77 MB that one row tuple per point takes there.
    out = tmp_path / f"fig2.{fmt}"
    code, peak_mb = _genbloch_peak_rss_mb(["figure", "fig2", "--format", fmt,
                                           "--output", str(out)])
    assert code == 0
    assert out.read_text().count("\n") == 96_393
    assert peak_mb < 75


def test_figure_fig1_csv_rows(tmp_path):
    path = str(tmp_path / "fig1.csv")
    assert run(["figure", "fig1", "--resolution", "101", "--format", "csv",
                "--output", path]) == 0
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "r,T4,admissible,on_boundary"
    assert len(lines) == 1 + 101 * 101
    for line in lines[1:]:
        r, t4, adm, _ = line.split(",")
        expected = (max((float(r) + 1) ** 2 - 2, 0.0) - 1e-9 <= float(t4)
                    <= 2 * float(r) ** 2 + 1e-9 and float(r) <= 1 + 1e-9)
        assert adm == ("1" if expected else "0")


def test_figure_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(["figure", "fig2", "--resolution", "5", "--format", "csv", "--output", p1])
    run(["figure", "fig2", "--resolution", "5", "--format", "csv", "--output", p2])
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_figure_svg(tmp_path):
    path = str(tmp_path / "fig3.svg")
    assert run(["figure", "fig3", "--resolution", "4", "--format", "svg",
                "--output", path]) == 0
    body = open(path).read()
    assert body.startswith("<svg") and "circle" in body


def test_sample_deterministic_output(tmp_path):
    p1, p2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    args = ["sample", "--m", "2", "--k", "2", "--samples", "25", "--seed", "9",
            "--format", "csv"]
    assert run(args + ["--output", p1]) == 0
    assert run(args + ["--output", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_sample_json_agreement(capsys):
    assert run(["sample", "--m", "2", "--k", "1", "--samples", "40", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["records"]) == 40
    for rec in out["records"]:
        if rec["boundary_margin"] > 1e-8:
            assert rec["closed_admissible"] == rec["oracle_admissible"]


def test_rotate_subcommand(tmp_path, capsys):
    coords = state_coords(2, grades={1: {(1,): 1.0}})
    cpath = write_json(tmp_path / "c.json", coords_to_json(coords))
    apath = write_json(tmp_path / "a.json",
                       {"m": 2, "alpha": [{"idx": [1, 2], "val": np.pi / 2}]})
    assert run(["rotate", "--input", cpath, "--alpha", apath]) == 0
    out = json.loads(capsys.readouterr().out)
    grade1 = {tuple(e["idx"]): e["val"] for e in out["grades"]["1"]}
    assert abs(grade1.get((2,), 0.0) - 1.0) < 1e-12
    assert abs(grade1.get((1,), 0.0)) < 1e-12


def test_validate_agrees_with_oracle_sign(tmp_path, capsys):
    # integration: validate verdict matches the oracle min-eigenvalue sign
    from genbloch.domains import sample_domain

    _, columns = sample_domain(2, 2, 30, seed=4)
    keys = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for index, *coefficients, _, oracle_admissible, margin in table_rows(columns):
        if margin <= 1e-8:
            continue
        vals = dict(zip(keys, coefficients))
        coords = state_coords(2, grades={2: vals})
        path = write_json(tmp_path / f"s{index}.json", coords_to_json(coords))
        code = run(["validate", "--input", path])
        capsys.readouterr()
        assert (code == 0) == oracle_admissible


def test_domain_input_mode(g2_coords, capsys):
    assert run(["domain", "--input", g2_coords]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["route"] == "quartet_roots" and out["admissible"] is True


def test_domain_grid_mode(tmp_path):
    path = str(tmp_path / "grid.csv")
    assert run(["domain", "--grid", "--resolution", "11", "--output", path]) == 0
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "r,T4,admissible,on_boundary"
    assert len(lines) == 1 + 11 * 11
    cube = str(tmp_path / "cube.csv")
    assert run(["domain", "--grid", "--paper-cube", "--resolution", "4",
                "--output", cube]) == 0
    assert open(cube).read().splitlines()[0] == "x,y,z,surface_id"


def test_domain_samples_mode(capsys):
    assert run(["domain", "--samples", "10", "--seed", "3", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 10 and out["k"] == 2


def test_domain_requires_one_mode(capsys):
    assert run(["domain"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_output_dir_override(tmp_path, monkeypatch, g2_coords):
    monkeypatch.setenv("GENBLOCH_OUTPUT_DIR", str(tmp_path))
    assert run(["encode", "--input", g2_coords, "--output", "enc.json"]) == 0
    assert (tmp_path / "enc.json").exists()


def test_usage_error_exit_1(capsys):
    assert run(["spectrum"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and len(err.strip().splitlines()) == 1


def test_unknown_command_exit_1(capsys):
    assert run(["bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_exit_1(capsys):
    assert run(["encode", "--input", "/nonexistent/x.json"]) == 1
    assert "error" in capsys.readouterr().err


def _one_diagnostic(captured):
    return len([ln for ln in captured.err.splitlines() if ln.startswith("genbloch:")]) == 1


@pytest.mark.parametrize("argv", [["validate"], ["domain"], ["spectrum", "--oracle"],
                                  ["spectrum", "--closed-form"]])
def test_coords_scalar_not_one_refused(tmp_path, capsys, argv):
    # the scalar coordinate is the trace: every state-reading subcommand
    # refuses a coords file whose scalar is not 1, as it refuses such a matrix
    path = write_json(tmp_path / "c.json", {"m": 2, "scalar": 2.0,
                                            "grades": {"1": [{"idx": [1], "val": 0.5}]}})
    assert run([*argv, "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert "trace 2.0 differs from 1" in captured.err


def test_decode_overflow_one_line(tmp_path, capsys):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[3, 0] = 1.7e308
    path = write_json(tmp_path / "rho.json", matrix_to_json(rho))
    assert run(["decode", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "genbloch: error: coordinates are not finite (input beyond floating-point range?)"]


def test_rotate_huge_generator_typed_error(tmp_path, capsys):
    coords = state_coords(2, grades={2: {(1, 2): 0.3}})
    cpath = write_json(tmp_path / "c.json", coords_to_json(coords))
    apath = write_json(tmp_path / "a.json", {"m": 2, "alpha": [{"idx": [1, 2], "val": 1.3e12}]})
    assert run(["rotate", "--input", cpath, "--alpha", apath]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)


_G1 = {"m": 2, "grades": {"1": [{"idx": [1], "val": 0.5}]}}
_HALF = {"dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}


@pytest.mark.parametrize("command, state, alpha", [
    ("invariants", {"m": 2, "grades": {"1": [{"idx": [None], "val": 0.5}]}}, None),
    ("invariants", {"m": None, "grades": {"1": [{"idx": [1], "val": 0.5}]}}, None),
    ("invariants", {"m": 2, "grades": {"1": [{"idx": [1], "val": None}]}}, None),
    ("invariants", {"m": 2, "grades": {"1": 5}}, None),
    ("invariants", {"m": 2, "grades": {"1": [{"idx": 1, "val": 0.5}]}}, None),
    ("validate", [1, 2], None),
    ("decode", {"dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], None]}, None),
    ("rotate", _G1, {"m": 2, "alpha": [{"idx": [1, 2], "val": None}]}),
    # integer fields are refused, not truncated
    ("invariants", {"m": 2, "grades": {"2": [{"idx": [1.9, 2], "val": 0.5}]}}, None),
    ("invariants", dict(_G1, m=2.7), None),
    ("invariants", {"m": 2, "grades": {"1": [{"idx": [True], "val": 0.5}]}}, None),
    ("decode", dict(_HALF, dim=2.9), None),
    # a matrix dimension that is not 2^m for an m >= 1
    ("decode", {"dim": 0, "entries": []}, None),
    ("validate", {"dim": 1, "entries": [[1.0, 0.0]]}, None),
    ("spectrum", {"dim": 3, "entries": [[1 / 3 if i % 4 == 0 else 0.0, 0.0] for i in range(9)]},
     None),
], ids=["idx-null", "m-null", "val-null", "grade-not-list", "idx-int", "top-level-list",
        "entry-null", "alpha-val-null", "idx-float", "m-float", "idx-bool", "dim-float",
        "dim-0", "dim-1", "dim-3"])
def test_malformed_json_one_line(tmp_path, capsys, command, state, alpha):
    argv = [command, "--input", write_json(tmp_path / "in.json", state)]
    if alpha is not None:
        argv += ["--alpha", write_json(tmp_path / "alpha.json", alpha)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("genbloch: error:")


@pytest.mark.parametrize("command, state, alpha, field", [
    ("invariants", {"m": 2, "grades": [1]}, None, "grades"),
    ("invariants", {"m": 2, "grades": {"1": [5]}}, None, "grades.1[0]"),
    ("invariants", dict(_G1, m=2.7), None, "m"),
    ("validate", [1, 2], None, "coords"),
    ("validate", 5, None, "coords"),
    ("decode", {"dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], None]}, None, "entries"),
    ("decode", {"dim": 2}, None, "entries"),
    ("rotate", _G1, [1, 2], "alpha file"),
    ("rotate", _G1, 5, "alpha file"),
    ("rotate", _G1, {"m": 2, "alpha": 5}, "alpha"),
    ("rotate", _G1, {"m": 2, "alpha": [{"idx": [1, 2]}]}, "alpha[0]"),
    ("rotate", _G1, {"alpha": [{"idx": [1, 2], "val": 0.1}]}, "m"),
    # a JSON integer beyond float range is no number
    ("validate", {"m": 2, "grades": {"2": [{"idx": [1, 2], "val": 10 ** 400}]}}, None,
     "grades.2[0]"),
    ("invariants", dict(_G1, scalar=10 ** 400), None, "scalar"),
    ("decode", dict(_HALF, entries=[[10 ** 400, 0], [0, 0], [0, 0], [0.5, 0]]), None, "entries"),
    ("rotate", _G1, {"m": 2, "alpha": [{"idx": [1, 2], "val": -10 ** 400}]}, "alpha[0]"),
], ids=["grades-list", "entry-not-object", "m-float", "top-level-list", "top-level-number",
        "entry-null", "entries-missing", "alpha-list", "alpha-number", "alpha-entries-number",
        "alpha-val-missing", "alpha-m-missing", "val-huge-int", "scalar-huge-int",
        "entry-huge-int", "alpha-val-huge-int"])
def test_malformed_wire_names_field(tmp_path, capsys, command, state, alpha, field):
    argv = [command, "--input", write_json(tmp_path / "in.json", state)]
    if alpha is not None:
        argv += ["--alpha", write_json(tmp_path / "alpha.json", alpha)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert len(captured.err.splitlines()) == 1 and f"field '{field}'" in captured.err


def _nonfinite_argv(tmp_path, command):
    if command == "sample":
        # |c|^2 of a draw from [-1e200, 1e200]^4 overflows, so every margin is
        # inf; CSV refuses it as JSON does
        return ["sample", "--m", "2", "--k", "1", "--samples", "2", "--box", "1e200",
                "--format", "csv"]
    # r and T4 overflow to inf; JSON has no finite spelling for them
    coords = state_coords(2, grades={2: {(1, 2): 1.3e200, (3, 4): -1.3e200}})
    return [command, "--input", write_json(tmp_path / "huge.json", coords_to_json(coords))]


@pytest.mark.parametrize("command", ["invariants", "validate", "sample"])
def test_nonfinite_result_exit_1(tmp_path, capsys, command):
    assert run(_nonfinite_argv(tmp_path, command)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert "not finite" in captured.err


@pytest.mark.parametrize("command", ["invariants", "validate", "sample"])
def test_nonfinite_result_one_stderr_line(tmp_path, command):
    # every stderr line counts, numpy's own RuntimeWarnings included
    argv = _nonfinite_argv(tmp_path, command)
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    res = subprocess.run([sys.executable, "-m", "genbloch", *argv],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 1 and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("genbloch: error:")


def test_python_m_genbloch_help():
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-m", "genbloch", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: genbloch")


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, genbloch.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("box", ["nan", "inf", "-inf", "-0.5", "1e308"])
def test_sample_bad_box_exit_1(capsys, box):
    assert run(["sample", "--m", "2", "--k", "2", "--samples", "1", f"--box={box}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)


def test_sample_zero_box(capsys):
    assert run(["sample", "--m", "2", "--k", "2", "--samples", "3", "--box", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(rec["coefficients"] == [0.0] * 6 for rec in out["records"])


@pytest.mark.parametrize("m", ["7", "0"])
def test_sample_unsupported_m_exit_1(capsys, m):
    assert run(["sample", "--m", m, "--k", "1", "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)


def test_figure_resolution_limit(capsys, monkeypatch):
    from genbloch import figures

    assert run(["figure", "fig1", "--resolution", str(figures.MAX_RESOLUTION + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    # the largest resolution passes validation (the dataset itself is not built here)
    monkeypatch.setattr(figures, "_fig1", lambda resolution: {"resolution": resolution})
    assert figures.figure_data("fig1", figures.MAX_RESOLUTION) == {"resolution": 1001}


def test_csv_row_numpy_scalars():
    from genbloch.cli import _csv_text

    row = [np.float64(0.1), np.bool_(True), np.bool_(False), np.int64(7), True, 2.5, "a"]
    assert _csv_text(list("abcdefg"), [[v] for v in row]) == "a,b,c,d,e,f,g\n0.1,1,0,7,1,2.5,a\n"


# The per-cell CSV and per-point SVG writers that the column writers
# replaced, kept as their reference: the output must not change by a byte.
def _csv_row_per_cell(values) -> str:
    out = []
    for v in values:
        if isinstance(v, (bool, np.bool_)):
            out.append("1" if v else "0")
        elif isinstance(v, float):
            out.append(float.__repr__(v))
        else:
            out.append(str(v))
    return ",".join(out)


def _csv_per_row(header, rows) -> str:
    return "\n".join([",".join(header)] + [_csv_row_per_cell(r) for r in rows]) + "\n"


def _svg_per_point(points, labels, size=640) -> str:
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    label_list = sorted(set(labels))
    color = {lab: palette[i % len(palette)] for i, lab in enumerate(label_list)}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    margin = 20
    scale = size - 2 * margin
    for (x, y), lab in zip(points, labels):
        px = margin + (x - x0) / span_x * scale
        py = size - margin - (y - y0) / span_y * scale
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.5" fill="{color[lab]}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


@pytest.mark.parametrize("which, paper_cube", [("fig1", False), ("fig2", False),
                                               ("fig3", False), ("fig3", True)])
def test_figure_writers_match_per_row(capsys, which, paper_cube):
    from genbloch.figures import figure_data

    cube = ["--paper-cube"] if paper_cube else []
    for resolution in range(2, 41):
        data = figure_data(which, resolution, paper_cube=paper_cube)
        if which == "fig1":
            header, rows = data["grid_columns"], data["grid"]
            points = [(r, t4) for r, t4, _, _ in rows]
            labels = ["admissible" if adm else "inadmissible" for _, _, adm, _ in rows]
        else:
            header, rows = data["columns"], data["points"]
            points = [(x, y) for x, y, _, _ in rows]
            labels = [sid for _, _, _, sid in rows]
        argv = ["figure", which, "--resolution", str(resolution), *cube]
        assert run(argv) == 0
        assert capsys.readouterr().out == _csv_per_row(header, rows)
        assert run(argv + ["--format", "svg"]) == 0
        assert capsys.readouterr().out == _svg_per_point(points, labels) + "\n"


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", [1, 2])
def test_sample_csv_matches_per_row(capsys, m, k):
    from genbloch.domains import sample_domain

    rows = table_rows(sample_domain(m, k, 40, seed=m + 10 * k)[1])
    dim = len(rows[0]) - 4
    header = (["index"] + [f"c{i}" for i in range(dim)]
              + ["closed_admissible", "oracle_admissible", "boundary_margin"])
    assert run(["sample", "--m", str(m), "--k", str(k), "--samples", "40",
                "--seed", str(m + 10 * k), "--format", "csv"]) == 0
    assert capsys.readouterr().out == _csv_per_row(header, rows)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", [1, 2])
def test_sample_json_matches_per_record(capsys, m, k):
    # the record -> dict loop that the column writer replaced, as its reference
    from genbloch.domains import sample_domain

    for n in (0, 1, 40):
        seed = m + 10 * k + n
        records = [{
            "index": index,
            "coefficients": list(coefficients),
            "closed_admissible": closed_admissible,
            "oracle_admissible": oracle_admissible,
            "boundary_margin": boundary_margin,
        } for index, *coefficients, closed_admissible, oracle_admissible, boundary_margin
            in table_rows(sample_domain(m, k, n, seed)[1])]
        payload = {"m": m, "k": k, "n": n, "seed": seed, "box": 1.2, "records": records}
        assert run(["sample", "--m", str(m), "--k", str(k), "--samples", str(n),
                    "--seed", str(seed), "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True,
                                                     allow_nan=False) + "\n"


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", [1, 2])
def test_sample_empty_csv_header(capsys, m, k):
    # with no draws the header still names every coefficient column
    argv = ["--m", str(m), "--k", str(k), "--format", "csv", "--samples"]
    assert run(["sample", *argv, "1"]) == 0
    header = capsys.readouterr().out.splitlines(keepends=True)[0]
    assert run(["sample", *argv, "0"]) == 0
    assert capsys.readouterr().out == header
    assert run(["domain", *argv, "0"]) == 0
    assert capsys.readouterr().out == header


def test_writers_match_per_row_on_hand_made_columns():
    from genbloch.cli import _csv_text, _svg_text

    columns = [
        [0.0, -0.0, 5e-324, -5e-324, 1e16, 0.1, -0.0],
        np.array([0.0, -0.0, 0.0, 1e16, 1e-7, np.nextafter(1.0, 2.0), -0.0]),
        [np.bool_(True), np.bool_(False), np.bool_(True), np.bool_(False),
         np.bool_(True), np.bool_(True), np.bool_(False)],
        [True, False, False, True, True, False, True],
        [0, -3, 7, 2 ** 40, np.int64(5), 1, 0],
        ["a", "b", "a", "alpha_plus=1", "", "b", "a"],
    ]
    header = [f"col{i}" for i in range(len(columns))]
    rows = list(zip(*columns))
    assert _csv_text(header, columns) == _csv_per_row(header, rows)
    assert _csv_text(header, [[] for _ in columns]) == _csv_per_row(header, [])
    assert _csv_text(header, []) == _csv_per_row(header, [])
    xs, ys, labels = columns[0], columns[1], columns[5]
    assert _svg_text(xs, ys, labels) == _svg_per_point(list(zip(xs, ys)), labels)
    # zero rows: both writers fall back to x = y = 0
    assert _svg_text([], [], []) == _svg_per_point([], [])


def test_float_speller_matches_repr(rng):
    from genbloch.cli import _spell_floats

    # magnitudes are spelled once and negatives prefixed: every sign, NaN of
    # either sign, infinities, subnormals, and values that occur with both signs
    nan = np.float64(np.nan)
    edges = np.array([0.0, -0.0, nan, -nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, -1e16,
                      0.1, -0.1, 1.0 / 3.0, np.nextafter(1.0, 2.0)])
    spread = rng.standard_normal(10 ** 5) * 10.0 ** rng.integers(-300, 300, 10 ** 5)
    mirrored = np.concatenate([spread[:1000], -spread[:1000]])
    for values in (edges, spread, mirrored, np.array([])):
        expected = list(map(float.__repr__, values.tolist()))
        assert _spell_floats(values).tolist() == expected


def test_pixel_speller_matches_format(rng):
    from genbloch.cli import _spell_hundredths

    # every k/800 in [20, 620]: the exact half-hundredth ties (such as 20.125,
    # which format rounds half-even) and the near-ties around every x.xx5
    ties = np.arange(16_000, 496_001) / 800
    # uniform pixels, and values outside (0, 640] that go to format directly
    edges = np.array([0.0, -0.0, 0.001, 0.005, 0.125, -0.004, -0.005, -1.0,
                      640.0, 640.004, 640.005, 640.006, 1e6, np.nan])
    for values in (ties, rng.uniform(20.0, 620.0, 10 ** 6), edges):
        expected = list(map("{:.2f}".format, values.tolist()))
        assert _spell_hundredths(values, 640).tolist() == expected


def test_figure_row_limit(capsys, monkeypatch):
    from genbloch import figures
    from genbloch.errors import ResourceLimit

    def candidates(which, resolution):
        surfaces = {"fig2": 2, "fig3": 4}[which]
        return surfaces * 2 * resolution * (3 * resolution + 1)

    # the benchmark's resolutions and fig1 at its largest resolution stay allowed
    for which, resolution in [("fig1", figures.MAX_RESOLUTION), ("fig2", 101), ("fig3", 26),
                              ("fig3", 28)]:
        assert figures._check_figure(which, resolution) == resolution
    # the first resolution above the limit is refused before any point is built
    monkeypatch.setattr(figures, "_tunnel_surface_points", None)
    for which in ("fig2", "fig3"):
        resolution = next(r for r in range(2, figures.MAX_RESOLUTION)
                          if candidates(which, r) > figures.MAX_FIGURE_ROWS)
        assert candidates(which, resolution - 1) <= figures.MAX_FIGURE_ROWS
        with pytest.raises(ResourceLimit):
            figures.figure_columns(which, resolution)
        assert run(["figure", which, "--resolution", str(resolution)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_diagnostic(captured)
    monkeypatch.undo()
    # at the limit a dataset is built; one row above it, it is refused
    for which in ("fig2", "fig3"):
        monkeypatch.setattr(figures, "MAX_FIGURE_ROWS", candidates(which, 5))
        assert len(figures.figure_data(which, 5)["points"]) > 0
        monkeypatch.setattr(figures, "MAX_FIGURE_ROWS", candidates(which, 5) - 1)
        with pytest.raises(ResourceLimit):
            figures.figure_data(which, 5)
    monkeypatch.setattr(figures, "MAX_FIGURE_ROWS", 5 * 5)
    assert len(figures.figure_data("fig1", 5)["grid"]) == 25
    monkeypatch.setattr(figures, "MAX_FIGURE_ROWS", 5 * 5 - 1)
    with pytest.raises(ResourceLimit):
        figures.figure_columns("fig1", 5)

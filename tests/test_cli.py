import argparse
import gc
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genbloch
from genbloch import spectra, sum_of_squares
from genbloch.cli import run
from genbloch.clifford import basis_element
from genbloch.coords import coords_to_json, state_coords
from genbloch.linalg import matrix_from_json, matrix_to_json
from genbloch.spectra import sign_sums

from conftest import random_tensor, sample_table, table_rows


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
    assert out["route"] == "normal_form"


def test_validate_inadmissible_exits_2(tmp_path, capsys):
    coords = state_coords(2, grades={1: {(1,): 1.2}})
    path = write_json(tmp_path / "hot.json", coords_to_json(coords))
    assert run(["validate", "--input", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["admissible"] is False and out["violated"] == "positivity"


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


def test_near_unit_scalar_keeps_the_closed_form(tmp_path, capsys):
    # a scalar within the unit-trace tolerance enters the closed form: the
    # vector stays on its route and spectrum --closed-form answers
    coords = {"m": 2, "scalar": 1.000000005, "grades": {"1": [{"idx": [1], "val": 0.5}]}}
    path = write_json(tmp_path / "near.json", coords)
    assert run(["validate", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "normal_form"
    assert run(["spectrum", "--closed-form", "--input", path]) == 0
    lo, hi = (1.000000005 - 0.5) / 4, (1.000000005 + 0.5) / 4
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == [lo, lo, hi, hi]


def test_validate_descartes_route(tmp_path, capsys):
    coords = state_coords(3, grades={1: {(1,): 0.3}, 3: {(1, 2, 3): 0.2}})
    path = write_json(tmp_path / "mixedgrades.json", coords_to_json(coords))
    assert run(["validate", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "min_eigenvalue"


def _family_states(rng, m, mode):
    """Random so(2m+2) family states at m: mixes of grades 1, 2, 2m - 1 and 2m
    (grades 1 and 2 in extended mode, grade 1 alone at m = 1), entries
    uniform in [-0.3, 0.3]."""
    side = 2 * m + (mode == "extended")
    mixes = [[1], [2], [1, 2]] if m > 1 or mode == "standard" else [[1]]
    if mode == "standard":
        mixes += [[2 * m - 1], [2 * m], [1, 2 * m], [2, 2 * m - 1], [1, 2, 2 * m - 1, 2 * m]]
    for ks in mixes:
        yield state_coords(m, mode=mode, grades={k: random_tensor(rng, m, k, side=side, box=0.3)
                                                 for k in ks})


def _same_bits(a, b) -> bool:
    """Two JSON objects with the same keys and the same float bits, signed zeros included."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_validate_normal_form_route(tmp_path, capsys):
    # every state of the so(2m+2) family, vector, grade 2 or both, is reported
    # by the invariants command's own report, bit for bit; its extras add the
    # normal form that the verdict uses, mu and sign Pf M
    for m, mode, grades, mu, keys in [
        (2, "standard", {1: {(1,): 0.3}, 2: {(1, 2): 0.2}}, [math.hypot(0.3, 0.2), 0.0, 0.0],
         {"pfaffian", "vector_norm_sq"}),
        # a one-qubit extended vector has no pseudoscalar to report
        (1, "extended", {1: {(1,): 0.3, (3,): 0.4}}, [0.5, 0.0], {"vector_norm_sq"}),
        # a pseudoscalar alone has no vector norm to report
        (2, "standard", {4: {(1, 2, 3, 4): 0.6}}, [0.6, 0.0, 0.0], {"pseudoscalar"}),
    ]:
        coords = state_coords(m, mode=mode, grades=grades)
        path = write_json(tmp_path / "family.json", coords_to_json(coords))
        assert run(["validate", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["route"] == "normal_form" and out["admissible"] is True
        used = out["invariants_used"]
        assert run(["invariants", "--input", path]) == 0
        assert _same_bits(used, json.loads(capsys.readouterr().out))
        amplitudes, pf = spectra.normal_form(m, coords.grades)
        assert used["extras"]["normal_form_amplitudes"] == amplitudes.tolist()
        assert amplitudes.tolist() == pytest.approx(mu)
        assert used["extras"]["pfaffian_sign"] == float(np.sign(pf)) == 0.0
        assert set(used["extras"]) == keys | {"normal_form_amplitudes", "pfaffian_sign"}
        # the amplitudes carry every coordinate's square: sum mu^2 = |v|^2 + r
        squares = sum(coords.grade(k).norm_sq() for k in coords.grades)
        assert sum(x * x for x in amplitudes.tolist()) == pytest.approx(squares, rel=1e-14)


@pytest.mark.parametrize("val", [1e-90, 0.1, 1.0])
def test_pfaffian_sign_of_a_tiny_state(tmp_path, capsys, val):
    # Pf(sM) = s^4 Pf(M) at m = 3: entries of 1e-90 keep the sign of 0.1 and
    # 1.0, though the product of M's pivots underflows there
    grades = {"2": [{"idx": [1, 2], "val": val}, {"idx": [3, 4], "val": val},
                    {"idx": [5, 6], "val": val}], "6": [{"idx": [1, 2, 3, 4, 5, 6], "val": val}]}
    assert run(["invariants", "--input", write_json(tmp_path / "c.json",
                                                    {"m": 3, "grades": grades})]) == 0
    assert json.loads(capsys.readouterr().out)["extras"]["pfaffian_sign"] == -1.0


def test_validate_reports_the_invariants_commands_r_and_T4(tmp_path, capsys):
    # every family state's verdict reports the invariants command's whole
    # object, bit for bit, at every m and in both modes: grade-2 states and
    # mixes of grades 1, 2, 2m - 1 and 2m
    rng = np.random.default_rng(25)
    states = [state_coords(3, grades={2: {(1, 2): 0.1, (3, 4): 0.1, (5, 6): 0.1}})]
    for m in range(2, 7):
        for mode in ("standard", "extended"):
            side = 2 * m + (mode == "extended")
            states += [state_coords(m, mode=mode, grades={2: random_tensor(rng, m, 2, side=side)})
                       for _ in range(3)]
    for m in range(1, 7):
        for mode in ("standard", "extended"):
            states += list(_family_states(rng, m, mode))
    for coords in states:
        path = write_json(tmp_path / "family.json", coords_to_json(coords))
        assert run(["validate", "--input", path]) in (0, 2)
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["route"] == "normal_form"
        assert run(["invariants", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        used = verdict["invariants_used"]
        assert (used["r"], used["T4"]) == (report["r"], report["T4"])
        assert _same_bits(used, report)


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("m", range(1, 7))
def test_invariants_report_fixes_the_spectrum(tmp_path, capsys, m, mode):
    # the report is complete: the amplitudes mu and sign Pf M that the
    # invariants command prints rebuild the closed-form spectrum bit for bit
    rng = np.random.default_rng(31 + 2 * m + (mode == "extended"))
    for coords in _family_states(rng, m, mode):
        path = write_json(tmp_path / "family.json", coords_to_json(coords))
        assert run(["invariants", "--input", path]) == 0
        extras = json.loads(capsys.readouterr().out)["extras"]
        rebuilt = sign_sums(1.0, np.array(extras["normal_form_amplitudes"]),
                            extras["pfaffian_sign"])
        assert run(["spectrum", "--closed-form", "--input", path]) == 0
        assert rebuilt.tolist() == json.loads(capsys.readouterr().out)["eigenvalues"]


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
    assert json.loads(capsys.readouterr().out)["route"] == "normal_form"
    c3 = state_coords(3, grades={2: {(1, 2): 0.4, (3, 4): 0.2}})
    path = write_json(tmp_path / "t3.json", coords_to_json(c3))
    assert run(["validate", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "normal_form"
    c5 = state_coords(5, grades={2: {(1, 2): 0.4, (3, 4): 0.2, (5, 6): 0.1, (7, 8): 0.05}})
    path = write_json(tmp_path / "t5.json", coords_to_json(c5))
    assert run(["validate", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "normal_form"


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


@pytest.mark.parametrize("element", ["garbage", "1:1"])
def test_basis_verify_refuses_element(capsys, element):
    # --verify prints the report of the whole family: a selector beside it,
    # well formed or not, is a usage error, not silently dropped
    for argv in (["--verify", "--element", element], ["--element", element, "--verify"]):
        assert run(["basis", "--m", "2", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_diagnostic(captured)
        assert captured.err.startswith("genbloch: usage error: argument --")
        assert "not allowed with argument" in captured.err


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_peak_rss_does_not_grow_with_the_draws(tmp_path, fmt):
    # the decisions keep three results per draw and the table is written one
    # block of rows at a time, so ten times the draws take about the same memory
    peaks = []
    for n in (10 ** 4, 10 ** 5):
        out = tmp_path / f"atlas-{n}.{fmt}"
        code, peak_mb = _genbloch_peak_rss_mb(["sample", "--m", "2", "--k", "2", "--samples",
                                               str(n), "--format", fmt, "--output", str(out)])
        assert code == 0
        peaks.append(peak_mb)
    # the CSV header and a line per draw; JSON spends 14 lines on each record
    lines = out.read_text().count("\n")
    assert lines == {"csv": 10 ** 5 + 1, "json": 14 * 10 ** 5 + 9}[fmt]
    assert peaks[1] - peaks[0] <= 8, peaks


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_block_memory_does_not_grow_with_the_width(tmp_path, fmt):
    # a block holds CHUNK_BYTES of a row's cells and codes, 16 bytes per cell:
    # 3,449 rows of (3, 2)'s 19 cells, so twice the draws take two blocks of the
    # same memory.  Blocks of 8,192 rows at every width grew by 11-12 MB between
    # such counts.  About 1 s per format on Linux x86-64, Python 3.11, numpy 2.4
    peaks = []
    for n in (3449, 2 * 3449):
        out = tmp_path / f"atlas-{n}.{fmt}"
        code, peak_mb = _genbloch_peak_rss_mb(["sample", "--m", "3", "--k", "2", "--samples",
                                               str(n), "--format", fmt, "--output", str(out)])
        assert code == 0
        peaks.append(peak_mb)
    assert peaks[1] - peaks[0] <= 4, peaks


@pytest.mark.parametrize("fmt", ["csv", "svg", "json"])
def test_figure_fig2_peak_rss(tmp_path, fmt):
    # fig2 at its default resolution writes 96,392 points from columns: 49 MB
    # (CSV), 42 MB (SVG) and 49 MB (JSON) on Linux x86-64, Python 3.11, numpy
    # 2.4.  The bound sits below the 77 MB that one row tuple per point takes
    # there, and the 98 MB of JSON dumped from row tuples.
    out = tmp_path / f"fig2.{fmt}"
    code, peak_mb = _genbloch_peak_rss_mb(["figure", "fig2", "--format", fmt,
                                           "--output", str(out)])
    assert code == 0
    # the CSV header or the SVG open and close tags, then one line per point;
    # JSON spends six lines on each point and twelve on the rest
    assert out.read_text().count("\n") == {"csv": 96_393, "svg": 96_394, "json": 578_364}[fmt]
    assert peak_mb < 75


def test_basis_dump_m5_peak_rss(tmp_path):
    # the dump prints 1,024 elements of 32 x 32, 44 MB of JSON, one element
    # built and spelled at a time: 34 MB on Linux x86-64, Python 3.11, numpy
    # 2.4, where the whole document held as one string took 118 MB
    out = tmp_path / "basis5.json"
    code, peak_mb = _genbloch_peak_rss_mb(["basis", "--m", "5", "--output", str(out)])
    assert code == 0
    # per element its key, dim, entries and closing lines, four per entry
    with open(out) as fh:
        assert sum(1 for _ in fh) == 1024 * (5 + 4 * 1024) + 2
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


@pytest.mark.parametrize("argv, code", [
    (["figure", "fig1", "--resolution", "5", "--format", "csv"], 0),
    (["figure", "fig1", "--resolution", "5", "--format", "json"], 0),
    (["figure", "fig1", "--resolution", "5", "--format", "svg"], 0),
    (["basis", "--m", "2", "--verify"], 0),
    (["basis", "--m", "2", "--element", "2:1,3"], 0),
    (["encode", "--input", "STATE"], 0),
    (["decode", "--input", "MATRIX"], 0),
    (["invariants", "--input", "STATE"], 0),
    (["spectrum", "--input", "STATE", "--both"], 0),
    (["rotate", "--input", "STATE", "--alpha", "ALPHA"], 0),
    (["validate", "--input", "STATE"], 0),
    (["validate", "--input", "HOT"], 2),
    (["sample", "--m", "2", "--k", "2", "--samples", "5", "--format", "csv"], 0),
    (["sample", "--m", "2", "--k", "2", "--samples", "5", "--format", "json"], 0),
    (["domain", "--input", "STATE"], 0),
    (["domain", "--grid", "--resolution", "5"], 0),
    (["domain", "--samples", "5"], 0),
    # the array path at fig2's default resolution, in many text blocks
    (["figure", "fig2", "--format", "svg"], 0),
    (["figure", "fig2", "--format", "json"], 0),
    # fig1 at 182 is the first above PLAIN_ROWS: an array grid and list curves
    (["figure", "fig1", "--resolution", "182", "--format", "json"], 0),
    # fig3 at 36 is the largest plain fig3, its tunnel clip pruned
    (["figure", "fig3", "--resolution", "36", "--paper-cube", "--format", "json"], 0),
    (["domain", "--grid", "--paper-cube", "--resolution", "28", "--format", "svg"], 0),
    # the basis dump is written one element at a time
    (["basis", "--m", "3"], 0),
    # a vector entry of 1e100 is a decided verdict, though numpy overflows on
    # the way: every RuntimeWarning is an error here (pyproject.toml)
    (["validate", "--input", "HUGE"], 2),
], ids=["csv", "json", "svg", "basis-verify", "basis-element", "encode", "decode", "invariants",
        "spectrum-both", "rotate", "validate-0", "validate-2", "sample-csv", "sample-json",
        "domain-input", "domain-grid", "domain-samples", "fig2-svg", "fig2-json",
        "fig1-182-json", "fig3-36-cube-json", "domain-cube-svg", "basis-dump", "validate-huge"])
def test_output_file_matches_stdout(tmp_path, capsys, argv, code):
    coords = state_coords(2, grades={2: {(1, 2): 0.6, (3, 4): 0.3}})
    files = {
        "STATE": write_json(tmp_path / "state.json", coords_to_json(coords)),
        "MATRIX": write_json(tmp_path / "rho.json", matrix_to_json(np.eye(4) / 4)),
        "ALPHA": write_json(tmp_path / "alpha.json",
                            {"m": 2, "alpha": [{"idx": [1, 3], "val": 0.4}]}),
        "HOT": write_json(tmp_path / "hot.json",
                          coords_to_json(state_coords(2, grades={1: {(1,): 1.2}}))),
        "HUGE": write_json(tmp_path / "huge.json",
                           coords_to_json(state_coords(2, grades={1: {(1,): 1e100}}))),
    }
    argv = [files.get(a, a) for a in argv]
    assert run(argv) == code
    path = tmp_path / "out"
    assert run(argv + ["--output", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out
    assert path.read_bytes() == captured.out.encode()


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


def test_rotate_alpha_repeats_add_up(tmp_path, capsys):
    # rotate's --alpha follows the coords rule: entries naming one plane add up
    cpath = write_json(tmp_path / "c.json", {"m": 2, "grades": {"1": [{"idx": [1], "val": 0.6}]}})
    outs = []
    for name, alpha in (("one", [{"idx": [1, 2], "val": 0.75}]),
                        ("exact", [{"idx": [1, 2], "val": 0.25}, {"idx": [1, 2], "val": 0.5}]),
                        ("permuted", [{"idx": [1, 2], "val": 1.0}, {"idx": [2, 1], "val": 0.25}])):
        apath = write_json(tmp_path / f"{name}.json", {"m": 2, "alpha": alpha})
        assert run(["rotate", "--input", cpath, "--alpha", apath]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("alpha", [{(1, 2): 0.5}, {(1, 5): 0.5, (2, 3): 0.3}, {(3, 5): -1.2},
                                   {(1, 5): math.pi / 2}],
                         ids=["a12", "a15-a23", "a35", "a15-quarter"])
def test_rotate_extended_state(tmp_path, capsys, alpha):
    # the generator spans the state's own 2m + 1 indices, as rotate_coords does
    from genbloch.coords import antisym
    from genbloch.symmetry import orthogonal_from_generator, rotate_coords

    coords = state_coords(2, "extended", grades={1: {(1,): 0.3, (5,): 0.2}, 2: {(2, 5): 0.1}})
    cpath = write_json(tmp_path / "c.json", coords_to_json(coords))
    apath = write_json(tmp_path / "a.json", {"m": 2, "alpha": [{"idx": list(i), "val": v}
                                                               for i, v in alpha.items()]})
    assert run(["rotate", "--input", cpath, "--alpha", apath]) == 0
    el = orthogonal_from_generator(antisym(2, 2, alpha, side=5))
    assert capsys.readouterr().out == _dumps(coords_to_json(rotate_coords(coords, el))) + "\n"


def test_rotate_alpha_m_differs_from_the_coords(tmp_path, capsys):
    cpath = write_json(tmp_path / "c.json", _G1)
    apath = write_json(tmp_path / "a.json", {"m": 3, "alpha": [{"idx": [1, 2], "val": 0.1}]})
    assert run(["rotate", "--input", cpath, "--alpha", apath]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert "m = 3" in captured.err and "m = 2" in captured.err


@pytest.mark.parametrize("m, message", [
    (7, "genbloch: error: m = 7 exceeds the supported maximum 6\n"),
    (0, "genbloch: error: m must be a positive integer, got 0\n"),
])
def test_coords_without_entries_hold_m_to_its_range(tmp_path, capsys, m, message):
    # coords with no grades still name an m, held to the range of every other input
    path = write_json(tmp_path / "c.json", {"m": m})
    assert run(["validate", "--input", path]) == 1
    assert capsys.readouterr().err == message


_VEC = [{"idx": [1], "val": 0.5}]


@pytest.mark.parametrize("argv, grades, code, expect", [
    (["rotate"], {"1": _VEC, "2": []}, 0, '"2": []'),
    (["rotate"], {"1": _VEC, "2": [{"idx": [1, 2], "val": 0.0}]}, 0, '"2": []'),
    (["invariants"], {"2": [{"idx": [1, 2], "val": 0.0}]}, 0, '"pfaffian": 0.0'),
    (["basis", "--m", "2", "--mode", "extended", "--element", "3:1,2,3"], None, 1,
     "genbloch: error: no basis element with index (1, 2, 3)\n"),
    (["basis", "--m", "2", "--element", "2:1,x"], None, 1,
     "genbloch: usage error: bad --element '2:1,x'; expected K:I1,I2,...\n"),
    (["basis", "--m", "2", "--element", "3:1,2"], None, 1,
     "genbloch: usage error: --element grade 3 does not match 2 indices\n"),
    (["validate"], {"2": [{"idx": [True, 2], "val": 0.1}]}, 1,
     "genbloch: error: indices (True, 2) must be Python ints\n"),
    (["validate"], {"2": [{"idx": [1.0, 2], "val": 0.1}]}, 1,
     "genbloch: error: indices (1.0, 2) must be Python ints\n"),
    (["validate"], {"2": [{"idx": [1, 5], "val": 0.1}]}, 1,
     "genbloch: error: index outside 1..4 in (1, 5)\n"),
    (["validate"], {"2": [{"idx": [1, 1], "val": 0.1}]}, 1,
     "genbloch: error: repeated index in (1, 1)\n"),
    # a grade key above 2m is one error, held before any of its entries is read
    (["validate"], {"5": [{"idx": [1, 2, 3, 4, 5], "val": 0.1}]}, 1,
     "genbloch: error: grade 5 out of range 1..4 for mode 'standard'\n"),
    (["validate"], {"5": []}, 1,
     "genbloch: error: grade 5 out of range 1..4 for mode 'standard'\n"),
    # a JSON string is no number, as true is none
    (["invariants"], {"1": [{"idx": [1], "val": "0.5"}]}, 1,
     "genbloch: error: field 'grades.1[0]': expected {idx: list, val: number}, "
     "got {'idx': [1], 'val': '0.5'}\n"),
], ids=["rotate-empty-grade", "rotate-zero-grade", "invariants-explicit-zero",
        "basis-beyond-family", "basis-bad-selector", "basis-grade-count", "bool-index",
        "float-index", "index-beyond-side", "repeated-index", "grade-beyond-2m",
        "grade-beyond-2m-empty", "string-value"])
def test_coords_edges(tmp_path, capsys, argv, grades, code, expect):
    # a present grade stays present when it holds no entry or only zeros, and
    # each index rule keeps its message
    if grades is not None:
        argv = [*argv, "--input", write_json(tmp_path / "c.json", {"m": 2, "grades": grades})]
    if argv[0] == "rotate":
        argv += ["--alpha", write_json(tmp_path / "a.json",
                                       {"m": 2, "alpha": [{"idx": [1, 2], "val": 0.3}]})]
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert expect in out if code == 0 else err == expect
    # the dense builder still gives the extended element the family leaves out
    assert basis_element(2, (1, 2, 3), "extended").shape == (4, 4)


def test_validate_agrees_with_oracle_sign(tmp_path, capsys):
    # integration: validate verdict matches the oracle min-eigenvalue sign
    _, columns = sample_table(2, 2, 30, seed=4)
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
    assert out["route"] == "normal_form" and out["admissible"] is True


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


def _with_state(argv, path):
    return [path if a == "STATE" else a for a in argv]


@pytest.mark.parametrize("argv", [
    ["--input", "STATE", "--paper-cube"],
    ["--input", "STATE", "--resolution", "7", "--format", "svg"],
    ["--samples", "2", "--paper-cube", "--format", "json"],
    ["--grid", "--resolution", "3", "--tol", "5", "--mode", "extended", "--seed", "9"],
    ["--input", "STATE", "--format", "json"],
    ["--grid", "--mode", "extended"],
    ["--grid", "--resolution", "3", "--tol", "5"],
])
def test_domain_refuses_flags_its_mode_does_not_use(g2_coords, capsys, argv):
    # each mode is validate, figure or sample, whose parser knows no such flag
    assert run(["domain", *_with_state(argv, g2_coords)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert captured.err.startswith("genbloch: usage error: unrecognized arguments:")


@pytest.mark.parametrize("domain, twin", [
    (["--input", "STATE"], ["validate", "--input", "STATE"]),
    (["--tol", "0.5", "--input", "STATE", "--mode", "standard"],
     ["validate", "--input", "STATE", "--mode", "standard", "--tol", "0.5"]),
    (["--grid", "--resolution", "11"], ["figure", "fig1", "--resolution", "11"]),
    (["--grid", "--resolution", "5", "--format", "svg"],
     ["figure", "fig1", "--resolution", "5", "--format", "svg"]),
    (["--grid", "--paper-cube", "--resolution", "28"],
     ["figure", "fig3", "--paper-cube", "--resolution", "28"]),
    (["--samples", "7", "--seed", "3"],
     ["sample", "--m", "2", "--k", "2", "--samples", "7", "--seed", "3", "--format", "csv"]),
    (["--samples", "4", "--m", "3", "--k", "1", "--box", "0.5", "--format", "json"],
     ["sample", "--m", "3", "--k", "1", "--samples", "4", "--box", "0.5", "--format", "json"]),
], ids=["validate", "validate-flags", "fig1", "fig1-svg", "fig3-cube", "sample", "sample-flags"])
def test_domain_mode_prints_its_twin(g2_coords, capsys, domain, twin):
    answers = []
    for argv in (["domain", *domain], twin):
        code = run(_with_state(argv, g2_coords))
        answers.append((code, capsys.readouterr()))
    assert answers[0] == answers[1] and answers[0][0] == 0 and answers[0][1].out


@pytest.mark.parametrize("command", [["validate"], ["spectrum"], ["domain"]],
                         ids=["validate", "spectrum", "domain"])
@pytest.mark.parametrize("own, flag", [(None, "extended"), ("standard", "extended"),
                                       ("extended", "standard")])
def test_mode_flag_naming_another_mode_is_refused(tmp_path, capsys, command, own, flag):
    # coords carry their own mode ("mode", standard when absent); a --mode
    # that names the other one is refused, not ignored
    obj = {"m": 2, "grades": {"1": [{"idx": [1], "val": 0.3}]}, **({"mode": own} if own else {})}
    path = write_json(tmp_path / "v.json", obj)
    assert run([*command, "--input", path, "--mode", flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert captured.err.startswith(f"genbloch: error: --mode {flag} differs")
    # naming the coords' own mode, or leaving the flag out, answers
    for argv in ([*command, "--input", path, "--mode", own or "standard"],
                 [*command, "--input", path]):
        assert run(argv) == 0 and capsys.readouterr().out


def test_usage_error_exit_1(capsys):
    assert run(["spectrum"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("which", ["fig1", "fig2"])
def test_figure_paper_cube_needs_fig3(capsys, which):
    assert run(["figure", which, "--paper-cube", "--resolution", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert "--paper-cube applies to fig3 only" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_validate_bad_tol_exit_1(g2_coords, capsys, tol):
    # an interior state: lambda_min = (1 - 0.6 - 0.3) / 4 > 0
    for command in ("validate", "domain"):
        assert run([command, "--input", g2_coords, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_diagnostic(captured)
        assert "tol must be a finite number >= 0" in captured.err


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


@pytest.mark.parametrize("argv", [
    ["validate", "--input", "deep.json"],
    ["decode", "--input", "deep.json"],
    ["spectrum", "--input", "deep.json"],
    ["encode", "--input", "deep.json"],
    ["rotate", "--input", "ok.json", "--alpha", "deep.json"],
], ids=["validate", "decode", "spectrum", "encode", "rotate-alpha"])
def test_deeply_nested_input_one_line(tmp_path, capsys, monkeypatch, argv):
    # json.load recurses once per bracket; past Python's recursion limit the
    # file is refused with one line, not a traceback
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    write_json(tmp_path / "ok.json", _G1)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "genbloch: error: deep.json: JSON nested too deeply"]


@pytest.mark.parametrize("text", [b'{"m": 2, "grades": ', b'{"m": 2, "mode": "\xe9"}'],
                         ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("argv", [
    ["validate", "--input", "bad.json"],
    ["rotate", "--input", "ok.json", "--alpha", "bad.json"],
], ids=["input", "rotate-alpha"])
def test_unreadable_input_file_one_line(tmp_path, capsys, monkeypatch, argv, text):
    # a file that json.load cannot read is MalformedInput naming it, as deep nesting is
    (tmp_path / "bad.json").write_bytes(text)
    write_json(tmp_path / "ok.json", _G1)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert captured.err.startswith("genbloch: error: bad.json: not UTF-8 JSON: ")


@pytest.mark.parametrize("exc", [TypeError, KeyError, ValueError, AttributeError])
def test_untyped_error_leaves_run(tmp_path, monkeypatch, exc):
    # run() reports GenblochError and OSError only: any other exception is a
    # defect, which a diagnostic line would hide
    from genbloch import invariants

    def answer(coords):
        raise exc("defect")

    monkeypatch.setattr(invariants, "coords_invariants", answer)
    with pytest.raises(exc, match="defect"):
        run(["invariants", "--input", write_json(tmp_path / "g1.json", _G1)])


@pytest.mark.parametrize("kind, printed", [("overflow", "inf"), ("invalid", "nan"),
                                           ("divide", None)])
def test_run_drops_only_overflow_and_invalid_warnings(monkeypatch, capsys, kind, printed):
    # tier-1 makes every RuntimeWarning an error (pyproject.toml); run() drops
    # numpy's overflow and invalid-value warnings in the answer and in its
    # writing, which NonFiniteResult reports, and lets any other reach the caller
    from genbloch import cli

    op = {"overflow": lambda: np.float64(1e308) * 10,
          "invalid": lambda: np.float64(np.inf) - np.inf,
          "divide": lambda: np.float64(1.0) / 0.0}[kind]

    def answer(args):
        op()
        return (f"{op()}\n".encode() for _ in (0,)), 0

    monkeypatch.setitem(cli._COMMANDS, "figure", ("", answer, ()))
    if printed is None:
        with pytest.raises(RuntimeWarning, match="divide by zero encountered"):
            run(["figure", "fig1"])
    else:
        assert run(["figure", "fig1"]) == 0
        assert capsys.readouterr().out == f"{printed}\n"
    # the filter ends with the call
    with pytest.raises(RuntimeWarning):
        op()


@pytest.mark.parametrize("command", ["decode", "spectrum", "validate"])
@pytest.mark.parametrize("flag", [["--m", "2"], ["--m=2"], ["--m", "5"]], ids=["m-2", "m=2", "m-5"])
def test_m_flag_refused_on_state_inputs(tmp_path, capsys, command, flag):
    # a state's m comes from its matrix dimension or its coords, never from a flag
    path = write_json(tmp_path / "rho.json", matrix_to_json(np.eye(4) / 4))
    assert run([command, "--input", path, *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert captured.err.startswith("genbloch: usage error:")


def test_decode_overflow_one_line(tmp_path, capsys):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[3, 0] = 1.7e308
    path = write_json(tmp_path / "rho.json", matrix_to_json(rho))
    assert run(["decode", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "genbloch: error: coordinates are not finite (input beyond floating-point range?)"]


def test_rotate_overflow_one_line(tmp_path, capsys):
    # alpha_12 = pi/4 adds the two entries into G'_2 = 1.5e308 * 2 cos(pi/4), beyond
    # float range: a result that is not finite, not an input value that is refused
    state = {"m": 1, "grades": {"1": [{"idx": [1], "val": 1.5e308},
                                      {"idx": [2], "val": 1.5e308}]}}
    alpha = {"m": 1, "alpha": [{"idx": [1, 2], "val": math.pi / 4}]}
    assert run(["rotate", "--input", write_json(tmp_path / "in.json", state),
                "--alpha", write_json(tmp_path / "alpha.json", alpha)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "genbloch: error: result is not finite (input beyond floating-point range?)"]


# a unit-scalar grade-2 state whose matrix rounds the 1/4 on its diagonal away
_HUGE_G2 = {"m": 2, "grades": {"2": [{"idx": [1, 2], "val": 1.3e200},
                                    {"idx": [3, 4], "val": -1.3e200}]}}


@pytest.mark.parametrize("which", ["--oracle", "--both"])
def test_spectrum_oracle_beyond_float_range_one_line(tmp_path, capsys, which):
    # the file's trace is its scalar, 1; the diagnostic names the float
    # range instead of blaming the trace of the rounded matrix
    path = write_json(tmp_path / "huge.json", _HUGE_G2)
    assert run(["spectrum", "--input", path, which]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert "floating-point range" in captured.err and "trace 0.0" not in captured.err


def test_spectrum_closed_form_beyond_float_range(tmp_path, capsys):
    # the closed form needs no matrix and still answers
    path = write_json(tmp_path / "huge.json", _HUGE_G2)
    assert run(["spectrum", "--input", path, "--closed-form"]) == 0
    # mu = (1.3e200, 1.3e200, 0) in closed form (spectra.normal_form), so the
    # extremes are (1 -+ 2.6e200) / 4, each the nearest float
    lo, hi = -6.5e+199, 6.5e+199
    assert capsys.readouterr().out == json.dumps(
        {"eigenvalues": [lo, 0.25, 0.25, hi], "m": 2, "multiplets": [[lo, 1], [0.25, 2], [hi, 1]]},
        indent=2) + "\n"


_TRACE_LOSS = ("genbloch: error: encoding these coordinates rounds their trace away "
               "(input beyond floating-point range?)")


@pytest.mark.parametrize("command, m, grades", [
    ("encode", 2, {}),
    # a grade-3 entry at m = 3 moves validate off the closed form onto the matrix
    ("validate", 3, {"3": [{"idx": [1, 2, 3], "val": 0.1}]}),
], ids=["encode", "validate-min-eigenvalue"])
def test_trace_loss_refused(tmp_path, capsys, command, m, grades):
    # the unit scalar is lost from the matrix of these coords, as in spectrum --oracle
    state = dict(_HUGE_G2, m=m, grades={**_HUGE_G2["grades"], **grades})
    assert run([command, "--input", write_json(tmp_path / "huge.json", state)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [_TRACE_LOSS]


def test_trace_loss_state_with_a_vector_has_the_closed_form(tmp_path, capsys):
    # grades 1 and 2 at m = 2 need no matrix: spectrum --closed-form answers
    state = dict(_HUGE_G2, grades={**_HUGE_G2["grades"], "1": [{"idx": [1], "val": 0.1}]})
    path = write_json(tmp_path / "h.json", state)
    assert run(["spectrum", "--closed-form", "--input", path]) == 0
    lo, hi = -6.4999999999999995e+199, 6.4999999999999995e+199
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == [lo, 0.25, 0.25, hi]


def test_encode_scalar_not_one(tmp_path, capsys):
    # encode keeps any scalar as the trace; only the state-reading subcommands need it 1
    path = write_json(tmp_path / "c.json", {"m": 2, "scalar": 2.0,
                                            "grades": {"1": [{"idx": [1], "val": 0.5}]}})
    assert run(["encode", "--input", path]) == 0
    assert np.trace(matrix_from_json(json.loads(capsys.readouterr().out))) == 2.0


@pytest.mark.parametrize("argv", [["validate"], ["spectrum", "--closed-form"]],
                         ids=["validate", "spectrum-closed-form"])
@pytest.mark.parametrize("grades", [{1: {(1,): 0.5, (3,): -0.2}}, {2: {(1, 2): 0.6, (3, 4): 0.3}},
                                    {1: {(1,): 0.3}, 2: {(1, 2): 0.2}}],
                         ids=["vector", "grade2", "vector-grade2"])
def test_pure_coords_answered_without_encoding(tmp_path, capsys, monkeypatch, argv, grades):
    # a state of the so(6) family is answered from its coords alone: no
    # matrix is expanded from them, by encode or by the stacked oracle
    from genbloch.clifford import CliffordBasis

    def refuse(basis, coeffs):
        raise AssertionError("encode called")

    monkeypatch.setattr(CliffordBasis, "expand", refuse)
    path = write_json(tmp_path / "c.json", coords_to_json(state_coords(2, grades=grades)))
    assert run([*argv, "--input", path]) == 0, capsys.readouterr().err
    # a state without a closed form does reach the patched expansion
    mixed = state_coords(3, grades={1: {(1,): 0.3}, 3: {(1, 2, 3): 0.2}})
    with pytest.raises(AssertionError, match="encode called"):
        run(["validate", "--input", write_json(tmp_path / "mixed.json", coords_to_json(mixed))])


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
    # json.dumps spells these Infinity and NaN, which json.load reads back as floats
    ("validate", {"m": 2, "grades": {"1": [{"idx": [1], "val": float("inf")}]}}, None,
     "grades.1[0]"),
    ("invariants", dict(_G1, scalar=float("nan")), None, "scalar"),
    ("decode", dict(_HALF, entries=[[0.5, 0], [0, 0], [0, 0], [float("-inf"), 0]]), None,
     "entries"),
    ("rotate", _G1, {"m": 2, "alpha": [{"idx": [1, 2], "val": float("nan")}]}, "alpha[0]"),
    ("validate", {"m": 2, "grades": {"x": [{"idx": [1], "val": 0.5}]}}, None, "grades"),
], ids=["grades-list", "entry-not-object", "m-float", "top-level-list", "top-level-number",
        "entry-null", "entries-missing", "alpha-list", "alpha-number", "alpha-entries-number",
        "alpha-val-missing", "alpha-m-missing", "val-huge-int", "scalar-huge-int",
        "entry-huge-int", "alpha-val-huge-int", "val-infinity", "scalar-nan", "entry-infinity",
        "alpha-val-nan", "grade-key-x"])
def test_malformed_wire_names_field(tmp_path, capsys, command, state, alpha, field):
    argv = [command, "--input", write_json(tmp_path / "in.json", state)]
    if alpha is not None:
        argv += ["--alpha", write_json(tmp_path / "alpha.json", alpha)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert len(captured.err.splitlines()) == 1 and f"field '{field}'" in captured.err


# well-formed coords whose encoded matrix overflows: encode's own answer, and
# validate's min_eigenvalue route, which encodes the state
_OVERFLOWING_ENCODINGS = {
    "encode-overflow": {"m": 2, "grades": {"1": [{"idx": [1], "val": 1.7e308}],
                                           "2": [{"idx": [2, 4], "val": 1.7e308}]}},
    "validate-overflow": {"m": 3, "grades": {"3": [{"idx": [1, 2, 3], "val": 1.7e308},
                                                   {"idx": [3, 4, 5], "val": 1.7e308}]}},
}


def _nonfinite_argv(tmp_path, command):
    if command.startswith("sample"):
        # |c|^2 of a draw from [-1e200, 1e200]^4 overflows, so every margin is
        # inf; CSV and JSON refuse it alike
        return ["sample", "--m", "2", "--k", "1", "--samples", "2", "--box", "1e200",
                "--format", "json" if command == "sample-json" else "csv"]
    if command in _OVERFLOWING_ENCODINGS:
        # every entry is finite, but their sum in the encoded matrix is not
        state = _OVERFLOWING_ENCODINGS[command]
        return [command.split("-")[0], "--input", write_json(tmp_path / "huge.json", state)]
    if command == "validate-vector":
        # |v|^2 = 1e400 overflows to inf, and with it the report's vector norm
        coords = state_coords(2, grades={1: {(1,): 1e200}})
        return ["validate", "--input", write_json(tmp_path / "huge.json", coords_to_json(coords))]
    # r and T4 overflow to inf; JSON has no finite spelling for them
    coords = state_coords(2, grades={2: {(1, 2): 1.3e200, (3, 4): -1.3e200}})
    return [command, "--input", write_json(tmp_path / "huge.json", coords_to_json(coords))]


@pytest.mark.parametrize("command", ["invariants", "validate", "validate-vector", "sample",
                                     "sample-json", *_OVERFLOWING_ENCODINGS])
def test_nonfinite_result_exit_1(tmp_path, capsys, command):
    assert run(_nonfinite_argv(tmp_path, command)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert "not finite" in captured.err


@pytest.mark.parametrize("command", ["invariants", "validate", "validate-vector", "sample",
                                     "sample-json", *_OVERFLOWING_ENCODINGS])
def test_nonfinite_result_one_stderr_line(tmp_path, command):
    # every stderr line counts, numpy's own RuntimeWarnings included
    argv = _nonfinite_argv(tmp_path, command)
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    res = subprocess.run([sys.executable, "-m", "genbloch", *argv],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 1 and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("genbloch: error:")
    assert "not finite" in res.stderr


@pytest.mark.parametrize("case", ["encode-overflow", "rotate-overflow", "fig1-rows", "basis-m6",
                                  "basis-element", "sample-margin", "sample-rows"])
def test_refused_answer_writes_no_output_file(tmp_path, capsys, case):
    # every check that can refuse an answer runs before its first piece is
    # made, so the --output file is never opened
    state = tmp_path / "state.json"
    argv = {
        "encode-overflow": ["encode", "--input", str(state)],
        "rotate-overflow": ["rotate", "--input", str(state), "--alpha", str(tmp_path / "a.json")],
        "fig1-rows": ["figure", "fig1", "--resolution", "1025"],
        "basis-m6": ["basis", "--m", "6"],
        "basis-element": ["basis", "--m", "2", "--element", "2:1,9"],
        "sample-margin": ["sample", "--m", "2", "--k", "1", "--samples", "20", "--box", "1e154"],
        "sample-rows": ["sample", "--m", "2", "--k", "1", "--samples", str(2 ** 20 + 1)],
    }[case]
    if case == "encode-overflow":
        write_json(state, _OVERFLOWING_ENCODINGS[case])
    elif case == "rotate-overflow":
        # a rotated sum beyond float range
        write_json(state, {"m": 1, "grades": {"1": [{"idx": [1], "val": 1.5e308},
                                                    {"idx": [2], "val": 1.5e308}]}})
        write_json(tmp_path / "a.json", {"m": 1, "alpha": [{"idx": [1, 2],
                                                             "val": 0.7853981633974483}]})
    out = tmp_path / "out.txt"
    assert run([*argv, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert not out.exists()


def test_validate_huge_vector_is_a_decided_verdict(tmp_path):
    # a vector entry of 1e100 has a finite report (|v|^2 = 1e200, mu_0 = 1e100)
    # and lambda_min = (1 - 1e100) / 4: inadmissible, exit 2, and on stderr no
    # line, numpy's own RuntimeWarnings included
    coords = state_coords(2, grades={1: {(1,): 1e100}})
    path = write_json(tmp_path / "huge.json", coords_to_json(coords))
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    res = subprocess.run([sys.executable, "-m", "genbloch", "validate", "--input", path],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 2 and res.stderr == ""
    assert "Infinity" not in res.stdout and "NaN" not in res.stdout
    out = json.loads(res.stdout)
    assert out["admissible"] is False and out["violated"] == "positivity"
    assert out["route"] == "normal_form"
    assert out["invariants_used"] == {
        "r": 0.0, "T4": 0.0, "D3": None,
        "extras": {"vector_norm_sq": 1e200, "normal_form_amplitudes": [1e100, 0.0, 0.0],
                   "pfaffian_sign": 0.0}}


def test_python_m_genbloch_help():
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-m", "genbloch", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: genbloch")


def test_help_prints_no_module_notes(capsys):
    # help describes the program in one line, not the cli module's notes
    from genbloch import cli

    with pytest.raises(SystemExit):
        run(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    notes = [" ".join(line.split()) for line in cli.__doc__.splitlines()[1:]]
    assert [line for line in notes if line and line in text] == []


# `python -m genbloch` as runpy runs it, with a probe that counts the cyclic
# collections started once numpy is loaded and an atexit hook that reports
# them on stderr, and whether the collector was on when the process ended
_PYTHON_M_AT_EXIT = (
    "import atexit, gc, runpy, sys\n"
    "late = []\n"
    "gc.callbacks.append(lambda phase, info: phase == 'start' and 'numpy' in sys.modules\n"
    "                    and late.append(info['generation']))\n"
    "atexit.register(lambda: print('collections', len(late), 'enabled', gc.isenabled(),\n"
    "                              file=sys.stderr))\n"
    "runpy.run_module('genbloch', run_name='__main__', alter_sys=True)\n")


def test_main_exit_contract(tmp_path, capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def python_m(*argv):
        return subprocess.run([sys.executable, "-c", _PYTHON_M_AT_EXIT, *argv], env=env,
                              capture_output=True, timeout=120)

    # main() turns the collector off before numpy loads, and leaves it off
    res = python_m("figure", "fig2")
    assert res.returncode == 0 and res.stderr == b"collections 0 enabled False\n"
    assert run(["figure", "fig2"]) == 0
    assert res.stdout == capsys.readouterr().out.encode()
    path = tmp_path / "fig2.csv"
    res_file = python_m("figure", "fig2", "--output", str(path))
    assert res_file.returncode == 0 and res_file.stdout == b""
    assert path.read_bytes() == res.stdout
    hot_coords = state_coords(2, grades={1: {(1,): 1.2}})
    hot = write_json(tmp_path / "hot.json", coords_to_json(hot_coords))
    res = python_m("validate", "--input", hot)
    assert res.returncode == 2 and res.stderr == b"collections 0 enabled False\n"
    assert json.loads(res.stdout)["admissible"] is False
    # the library path keeps normal collection: run() leaves the collector alone
    assert run(["validate", "--input", hot]) == 2
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, genbloch.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("flag", ["--box=nan", "--box=inf", "--box=-inf", "--box=-0.5",
                                  "--box=1e308", "--seed=-1"],
                         ids=["nan", "inf", "-inf", "-0.5", "1e308", "seed=-1"])
def test_sample_bad_box_exit_1(capsys, flag):
    assert run(["sample", "--m", "2", "--k", "2", "--samples", "1", flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    assert flag[2:].split("=")[0] in captured.err


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

    # fig1's resolution^2 grid rows reach the row limit at resolution 1024
    assert run(["figure", "fig1", "--resolution", "1025"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_diagnostic(captured)
    # the largest resolution passes validation (the dataset itself is not built here)
    monkeypatch.setattr(figures, "_fig1_columns", lambda resolution: {"resolution": resolution})
    assert figures.figure_columns("fig1", 1024)[1] == {"resolution": 1024}


def test_csv_row_numpy_scalars():
    from genbloch.plain import _csv_blocks

    row = [np.float64(0.1), np.bool_(True), np.bool_(False), np.int64(7), True, 2.5, "a"]
    assert b"".join(_csv_blocks(list("abcdefg"), [[np.asarray([v]) for v in row]])) == \
        b"a,b,c,d,e,f,g\n0.1,1,0,7,1,2.5,a\n"


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
    from genbloch.figures import figure_columns

    cube = ["--paper-cube"] if paper_cube else []
    for resolution in range(2, 41):
        header, columns = figure_columns(which, resolution, paper_cube=paper_cube)
        rows = table_rows(columns)
        if which == "fig1":
            points = [(r, t4) for r, t4, _, _ in rows]
            labels = ["admissible" if adm else "inadmissible" for _, _, adm, _ in rows]
        else:
            points = [(x, y) for x, y, _, _ in rows]
            labels = [sid for _, _, _, sid in rows]
        argv = ["figure", which, "--resolution", str(resolution), *cube]
        assert run(argv) == 0
        assert capsys.readouterr().out == _csv_per_row(header, rows)
        assert run(argv + ["--format", "svg"]) == 0
        assert capsys.readouterr().out == _svg_per_point(points, labels) + "\n"


def _atlas_box(m, k):
    """A box that puts both verdicts of both columns among a few dozen draws
    at every m: 1.2 leaves almost every draw at m >= 3 inadmissible."""
    return 1.2 / math.sqrt(m) if k == 1 else 1.6 / m ** 1.5


def _both_verdicts(rows) -> bool:
    return {row[-3] for row in rows} == {row[-2] for row in rows} == {True, False}


# a ball.PLAIN_CELLS that puts every vector atlas on the plain path
_EVERY_ATLAS = genbloch.MAX_ROWS * 4 ** genbloch.MAX_M


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", [1, 2])
def test_sample_csv_matches_per_row(capsys, monkeypatch, m, k):
    from genbloch import ball

    # every vector atlas on the plain path, against sample_table's array path
    monkeypatch.setattr(ball, "PLAIN_CELLS", _EVERY_ATLAS)
    box = _atlas_box(m, k)
    rows = table_rows(sample_table(m, k, 40, seed=m + 10 * k, box=box)[1])
    assert _both_verdicts(rows)
    dim = len(rows[0]) - 4
    header = (["index"] + [f"c{i}" for i in range(dim)]
              + ["closed_admissible", "oracle_admissible", "boundary_margin"])
    assert run(["sample", "--m", str(m), "--k", str(k), "--samples", "40",
                "--seed", str(m + 10 * k), "--box", repr(box), "--format", "csv"]) == 0
    assert capsys.readouterr().out == _csv_per_row(header, rows)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", [1, 2])
def test_sample_json_matches_per_record(capsys, monkeypatch, m, k):
    from genbloch import ball

    # the record -> dict loop that the column writer replaced, of sample_table's
    # array path, as the reference of the chooser's path and, up to 40 draws,
    # of every vector atlas on the plain path
    box = _atlas_box(m, k)
    for n in (0, 1, 40, 800):
        seed = m + 10 * k + n
        rows = table_rows(sample_table(m, k, n, seed, box)[1])
        assert n < 40 or _both_verdicts(rows)
        records = [{
            "index": index,
            "coefficients": list(coefficients),
            "closed_admissible": closed_admissible,
            "oracle_admissible": oracle_admissible,
            "boundary_margin": boundary_margin,
        } for index, *coefficients, closed_admissible, oracle_admissible, boundary_margin in rows]
        payload = {"m": m, "k": k, "n": n, "seed": seed, "box": box, "records": records}
        for cells in (ball.PLAIN_CELLS, _EVERY_ATLAS)[:2 if n <= 40 else 1]:
            with monkeypatch.context() as patch:
                patch.setattr(ball, "PLAIN_CELLS", cells)
                assert run(["sample", "--m", str(m), "--k", str(k), "--samples", str(n),
                            "--seed", str(seed), "--box", repr(box), "--format", "json"]) == 0
            assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True,
                                                         allow_nan=False) + "\n"


@pytest.mark.parametrize("m", range(1, 7))
def test_plain_atlas_matches_array_atlas_at_the_bound(capsys, monkeypatch, m):
    from genbloch import ball, domains

    # the most draws of at most PLAIN_CELLS draws x 4^m, and the next
    last = ball.PLAIN_CELLS // 4 ** m
    taken = []
    for path, module, name in (("plain", ball, "atlas"), ("array", domains, "sample_domain")):
        monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name), path=path:
                            taken.append(path) or f(*a))
    # a grade-2 atlas takes the plain path at m <= 2 only
    for k in (1, 2):
        box = _atlas_box(m, k)
        for n in (last, last + 1):
            path = "plain" if n == last and (k == 1 or m <= 2) else "array"
            assert _both_verdicts(table_rows(sample_table(m, k, n, m, box)[1]))
            for fmt in ("csv", "json"):
                argv = ["sample", "--m", str(m), "--k", str(k), "--samples", str(n),
                        "--seed", str(m), "--box", repr(box), "--format", fmt]
                outputs = []
                # the chooser's path, then each path forced
                for cells in (ball.PLAIN_CELLS, _EVERY_ATLAS, -1):
                    with monkeypatch.context() as patch:
                        patch.setattr(ball, "PLAIN_CELLS", cells)
                        taken.clear()
                        assert run(argv) == 0
                    outputs.append(capsys.readouterr().out)
                    if cells == ball.PLAIN_CELLS:
                        assert taken == [path], (n, taken)
                assert outputs.count(outputs[0]) == 3, argv


def _figure_json_per_row(which, resolution, paper_cube) -> str:
    """The row dump that figure JSON was once built from, as its reference:
    the columns as Python rows, fig1's boundary curves one point at a time."""
    from genbloch.figures import figure_columns

    names, columns = figure_columns(which, resolution, paper_cube=paper_cube)
    data = {"which": which, "resolution": resolution}
    if which == "fig1":
        rs = np.linspace(0.0, 1.0, resolution)
        lows = np.linspace(np.sqrt(2.0) - 1.0, 1.0, resolution)
        data.update(grid_columns=names, grid=table_rows(columns),
                    curve_upper=[(float(r), float(2.0 * r * r)) for r in rs],
                    curve_lower=[(float(r), float((r + 1.0) ** 2 - 2.0)) for r in lows])
    else:
        data.update(columns=names, points=table_rows(columns))
        if which == "fig3":
            data["paper_cube"] = paper_cube
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("which, paper_cube", [("fig1", False), ("fig2", False),
                                               ("fig3", False), ("fig3", True)])
def test_figure_json_matches_per_row(capsys, which, paper_cube):
    cube = ["--paper-cube"] if paper_cube else []
    # fig1 at 182 is the first above PLAIN_ROWS
    for resolution in [*range(2, 41), 101, *{"fig1": [182]}.get(which, [])]:
        assert run(["figure", which, "--resolution", str(resolution), "--format", "json",
                    *cube]) == 0
        assert capsys.readouterr().out == _figure_json_per_row(which, resolution, paper_cube)


@pytest.mark.parametrize("which, paper_cube", [("fig1", False), ("fig2", False),
                                               ("fig3", False), ("fig3", True)])
def test_plain_figures_match_array_figures(capsys, monkeypatch, which, paper_cube):
    from genbloch import figures, text

    # the largest resolution of at most PLAIN_ROWS candidate rows, and the next
    last = max(r for r in range(2, 1025) if figures._candidate_rows(which, r) <= figures.PLAIN_ROWS)
    # the chooser answers with list columns up to it and arrays past it
    assert type(figures._columns(which, last, paper_cube)[1][0]) is list
    assert isinstance(figures._columns(which, last + 1, paper_cube)[1][0], np.ndarray)
    bench = {"fig1": [101], "fig2": [101], "fig3": [26, 28]}[which]
    cube = ["--paper-cube"] if paper_cube else []
    for resolution in [*range(2, 41), *bench, last, last + 1]:
        for fmt in ("csv", "json", "svg"):
            argv = ["figure", which, "--resolution", str(resolution), "--format", fmt, *cube]
            outputs = []
            # every figure on the plain path, then every one on the array path,
            # the first array figure also in text blocks of a few rows each
            runs = [(figures.MAX_ROWS, genbloch.CHUNK_BYTES), (0, genbloch.CHUNK_BYTES)]
            if resolution == last + 1:
                runs.append((0, 2 ** 10))
            for plain_rows, budget in runs:
                monkeypatch.setattr(figures, "PLAIN_ROWS", plain_rows)
                monkeypatch.setattr(text, "CHUNK_BYTES", budget)
                assert run(argv) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs.count(outputs[0]) == len(outputs), argv


def test_plain_writers_match_array_writers():
    from genbloch import plain

    # no figure has an empty table or a -0.0, so the writers are held to them
    # here: each table as list columns and as array columns, the same text
    names = ["x", "y", "z", "surface_id"]
    xs = [0.0, -0.0, 0.0, -0.0, 0.5, 0.5, -0.5, 0.0]
    tables = [[[], [], [], []],
              [xs, [-v for v in xs], [0.25] * 8, ["b", "a", "a", "b", "c", "a", "b", "a"]]]
    for lists in tables:
        arrays = [np.array(col, dtype=float) for col in lists[:3]] + [
            np.array(lists[3], dtype=object)]
        assert (b"".join(plain._csv_blocks(names, [lists]))
                == b"".join(plain._csv_blocks(names, [arrays])))
        assert b"".join(plain._json_items([lists], 4)) == b"".join(plain._json_items([arrays], 4))
        assert (b"".join(plain._svg_text(lists[0], lists[1], lists[3]))
                == b"".join(plain._svg_text(arrays[0], arrays[1], arrays[3])))
    assert b"".join(plain._json_items([tables[0]], 4)) == b"[]"
    # a float column whose zeros, -0.0 first, repeat among repeated nonzero
    # values; SVG pixels of both zeros, with the smallest x 0.0 and -0.0
    zeros = [-0.0, 0.5, 0.0, 0.5, -0.0, -1.5, 0.0, -1.5, 0.5, -0.0, 0.0]
    arrays = [np.array(zeros), np.array(zeros[::-1])]
    assert (b"".join(plain._csv_blocks(["a", "b"], [[zeros, zeros[::-1]]]))
            == b"".join(plain._csv_blocks(["a", "b"], [arrays])))
    for xs in ([0.0, -0.0, 0.5, 0.0, 0.25, -0.0], [-0.0, 0.0, 0.5, -0.0, 0.25, 0.0]):
        ys, labels = [0.25, -0.0, 0.0, 1.0, -0.0, 0.0], ["a", "b", "a", "a", "b", "b"]
        assert (b"".join(plain._svg_text(xs, ys, labels))
                == b"".join(plain._svg_text(np.array(xs), np.array(ys),
                                           np.array(labels, dtype=object))))
    # leads and a tail are written as given, braces included
    records = [[1.5, 2.0], [3.0, 4.0]]
    leads = [',\n    {\n      "a": ', ',\n      "b": ']
    text = b"".join(plain._json_items([records], leads, "\n    }"))
    assert text == b"".join(plain._json_items([[np.array(col) for col in records]], leads,
                                             "\n    }"))
    assert json.loads(text) == [{"a": 1.5, "b": 3.0}, {"a": 2.0, "b": 4.0}]
    ends = ("a,b\n", "", "a,b\n")
    assert (b"".join(plain._table_text([records], ["", ","], "}\n", plain._CSV, ends))
            == b"".join(plain._table_text([[np.array(col) for col in records]], ["", ","],
                                         "}\n", plain._CSV, ends))
            == b"a,b\n1.5,3.0}\n2.0,4.0}\n")
    flags = [[True, False, False], [False, False, True]]
    arrays = [np.array(col) for col in flags]
    assert (b"".join(plain._csv_blocks(["a", "b"], [flags]))
            == b"".join(plain._csv_blocks(["a", "b"], [arrays])))
    assert b"".join(plain._json_items([flags], 2)) == b"".join(plain._json_items([arrays], 2))
    # a table whose blocks come in both forms is spelled as one
    assert (b"".join(plain._csv_blocks(["a", "b"], [flags, arrays, flags]))
            == b"".join(plain._csv_blocks(["a", "b"], [[np.concatenate([col] * 3)
                                                       for col in arrays]])))


def test_sample_draws_pinned(capsys):
    # draw j is -box + 2 box u_j, u_j the j-th random.Random(seed).random(),
    # a rule Python keeps from version to version
    assert run(["sample", "--m", "2", "--k", "2", "--samples", "2", "--seed", "7",
                "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "0,-0.4228013644004103,-0.8379619825811954,0.362242735295649,-1.0261529119978974,"
        "0.08611681033605412,-0.3223465994097947,0,0,0.14552218618723778")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_bytes_do_not_depend_on_stacks_or_blocks(capsys, monkeypatch, fmt):
    from genbloch import domains, text

    for n in (0, 1, 5):
        argv = ["sample", "--m", "2", "--k", "2", "--samples", str(n), "--seed", "3",
                "--format", fmt]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        with monkeypatch.context() as patch:
            # one draw per decided stack and one row per sample and text block
            patch.setattr(domains, "CHUNK_BYTES", 1)
            patch.setattr(text, "CHUNK_BYTES", 1)
            assert run(argv) == 0
        assert capsys.readouterr().out == expected


def _margin_overflow_refused(capsys, box):
    """sample at (2, 1) of 20 draws from [-box, box], refused in both formats
    with nothing on stdout."""
    for fmt in ("csv", "json"):
        assert run(["sample", "--m", "2", "--k", "1", "--samples", "20", "--box", str(box),
                    "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("genbloch: error: result is not finite "
                                "(input beyond floating-point range?)\n")


def _first_overflowing_draw(box) -> int:
    # at m = 2, k = 1 the margin |1 - sqrt(r)| / 4 is inf where r, the draw's
    # sum of squares, overflows
    rng = random.Random(0)
    sums = [sum_of_squares([-box + 2 * box * rng.random() for _ in range(4)]) for _ in range(20)]
    return [math.isinf(r) for r in sums].index(True)


def test_sample_refuses_a_margin_past_the_first_block_before_any_text(capsys, monkeypatch):
    from genbloch import ball, domains

    # the array path, with one row per sample block
    monkeypatch.setattr(ball, "PLAIN_CELLS", -1)
    monkeypatch.setattr(domains, "CHUNK_BYTES", 1)
    # the first block's one row is finite, a later one is not
    box = 1e154
    assert _first_overflowing_draw(box) >= 1
    _margin_overflow_refused(capsys, box)


def test_plain_atlas_refuses_a_margin_past_the_first_draw_before_any_text(capsys, monkeypatch):
    from genbloch import ball

    # the plain path: its one block holds every draw, and the oracle never runs
    monkeypatch.setattr(ball, "_positive_definite", None)
    assert 20 * 4 ** 2 <= ball.PLAIN_CELLS
    box = 1e154
    assert _first_overflowing_draw(box) >= 1
    _margin_overflow_refused(capsys, box)


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


def _spell_floats_concatenated(values):
    """The float speller's earlier rule: "-" + text built for every distinct magnitude."""
    bits = values.view(np.int64)
    magnitude, where = np.unique(bits & np.int64(2 ** 63 - 1), return_inverse=True)
    text = np.array(list(map(float.__repr__, magnitude.view(np.float64).tolist())), dtype=object)
    negative = (bits < 0) & ~np.isnan(values)
    return np.concatenate([text, "-" + text])[where + len(text) * negative]


def _unpadded(table, codes) -> list:
    """The text of each row codes picks of a speller's byte table, its padding dropped."""
    from genbloch.text import _PAD

    return [table[code].tobytes().replace(_PAD, b"").decode() for code in codes.tolist()]


def _spelled(values):
    """The full spellings the float speller's pieces stand for: "-" plus the
    magnitude's text where the sign mask is set, the text alone elsewhere."""
    from genbloch.text import _spell_floats

    table, codes, negative = _spell_floats(values)
    assert codes.shape == negative.shape == values.shape
    return [("-" if minus else "") + t
            for t, minus in zip(_unpadded(table, codes), negative.tolist())]


def test_writers_match_per_row_on_hand_made_columns():
    from genbloch.plain import _csv_blocks, _json_items, _svg_text

    columns = [
        [0.0, -0.0, 5e-324, -5e-324, 1e16, 0.1, -0.0],
        np.array([0.0, -0.0, 0.0, 1e16, 1e-7, np.nextafter(1.0, 2.0), -0.0]),
        [np.bool_(True), np.bool_(False), np.bool_(True), np.bool_(False),
         np.bool_(True), np.bool_(True), np.bool_(False)],
        [True, False, False, True, True, False, True],
        [0, -3, 7, 2 ** 40, np.int64(5), 1, 0],
        ["a", "b", "a", "alpha_plus=1", "", "b", "a"],
        [0.5, 2.0, 0.5, 1e-300, 3.0, 0.0, 7.25],
        [-0.5, -2.0, -0.5, -1e-300, -3.0, -0.0, -7.25],
        # UTF-8 of several widths, the CSV separator, quotes, and NULs, which
        # a string keeps where the writer's padding is dropped
        np.array(["\x00", "\u00e9", "\u2603", "a,b", '"q"', "x\x00", "\x00"], dtype=object),
    ]
    # the speller against its earlier rule: -0.0, NaN with its sign bit set,
    # and each float column, all-positive and all-negative ones included
    signed = [np.array([-0.0]), np.array([np.copysign(np.nan, -1.0), np.nan, 0.5, -0.5, -0.0])]
    for values in signed + [np.array(col, dtype=float) for col in columns[:2] + columns[6:8]]:
        assert _spelled(values) == _spell_floats_concatenated(values).tolist()
    header = [f"col{i}" for i in range(len(columns))]
    rows = list(zip(*columns))
    # lists of numpy scalars or mixed ints are array columns to the writers
    arrays = [np.asarray(col) for col in columns]
    assert b"".join(_csv_blocks(header, [arrays])) == _csv_per_row(header, rows).encode()
    listed = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]
    assert b"".join(_json_items([arrays], len(arrays))) == \
        json.dumps(listed, indent=2).replace("\n", "\n  ").encode()
    assert b"".join(_csv_blocks(header, [[[] for _ in columns]])) == \
        _csv_per_row(header, []).encode()
    # a column of empty strings is a field of no bytes: each row keeps its line
    empty = np.array(["", ""], dtype=object)
    assert b"".join(_csv_blocks(["s"], [[empty]])) == \
        _csv_per_row(["s"], [("",), ("",)]).encode()
    assert b"".join(_csv_blocks(header, [[]])) == _csv_per_row(header, []).encode()
    xs, ys, labels = columns[0], columns[1], columns[5]
    assert (b"".join(_svg_text(arrays[0], arrays[1], arrays[5]))
            == _svg_per_point(list(zip(xs, ys)), labels).encode())
    # zero rows: both writers fall back to x = y = 0
    assert b"".join(_svg_text([], [], [])) == _svg_per_point([], []).encode()


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e16, -1e16]
# rows of a table: one, a few, and more than one block of a 1 KiB budget holds
_TABLE_ROWS = [1, 2, 5, 40]


@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(rows=st.sampled_from(_TABLE_ROWS),
       floats=st.lists(st.floats(-1e16, 1e16), max_size=6),
       words=st.lists(st.text(max_size=4), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(rows=_TABLE_ROWS[0], floats=[], words=["a"], seed=0)
@example(rows=_TABLE_ROWS[1], floats=[0.1, -0.1], words=["", "b"], seed=1)
@example(rows=_TABLE_ROWS[2], floats=[-2.5], words=["alpha_plus=1"], seed=2)
@example(rows=_TABLE_ROWS[3], floats=[1.0 / 3.0], words=["a", "b", "c"], seed=3)
def test_row_blocks_match_per_row(rows, floats, words, seed):
    # columns of every cell kind, the floats of both signs with the edge values
    # among them
    from unittest import mock

    from genbloch import ball, domains, text
    from genbloch.cli import _answer_sample
    from genbloch.plain import _csv_blocks, _svg_text

    rng = np.random.default_rng(seed)
    pool = np.array(_EDGE_FLOATS + floats)
    draw = lambda: pool[rng.integers(0, len(pool), rows)]  # noqa: E731
    columns = [draw(), rng.integers(-10 ** 6, 10 ** 6, rows), rng.integers(0, 2, rows) == 1,
               np.array(words, dtype=object)[rng.integers(0, len(words), rows)], draw()]
    header = [f"col{i}" for i in range(len(columns))]
    xs, ys, labels = columns[0], columns[4], columns[3]
    # a sample document: each record's keys sorted, its coefficients one list
    sample = [np.arange(rows), columns[0], columns[2], ~columns[2], columns[4]]
    args = argparse.Namespace(m=2, k=1, samples=rows, seed=seed, box=1.2, format="json")
    names = ["index", "c0", "closed_admissible", "oracle_admissible", "boundary_margin"]
    records = [{"index": i, "coefficients": [c], "closed_admissible": closed,
                "oracle_admissible": oracle, "boundary_margin": margin}
               for i, c, closed, oracle, margin in table_rows(sample)]
    payload = {"m": 2, "k": 1, "n": rows, "seed": seed, "box": 1.2, "records": records}
    # a block holds the rows whose grid fits in the budget, one at least: one
    # row per block when the budget is below a row's width, a few rows at 1 KiB,
    # and all of these rows, some hundred bytes each, in the package's budget
    for budget, blocks in {1: rows, 2 ** 10: None, text.CHUNK_BYTES: 1}.items():
        # a vector atlas of any size on the array path, whose engine the mock stands in for
        with mock.patch.object(text, "CHUNK_BYTES", budget), \
                mock.patch.object(ball, "PLAIN_CELLS", -1), \
                mock.patch.object(domains, "sample_domain", lambda *_: (names, [sample])):
            csv = list(_csv_blocks(header, [columns]))
            svg = list(_svg_text(xs, ys, labels))
            document = b"".join(_answer_sample(args)[0])
        assert blocks is None or len(csv) == blocks and len(svg) == blocks + 2
        assert all(block.endswith(b"\n") for block in csv)
        assert b"".join(csv) == _csv_per_row(header, table_rows(columns)).encode()
        assert b"".join(svg) == _svg_per_point(list(zip(xs.tolist(), ys.tolist())),
                                               labels.tolist()).encode()
        assert document == json.dumps(payload, indent=2, sort_keys=True).encode()


def test_first_float_cell_negative(tmp_path, capsys):
    # a table's first cell takes its "-" after the head, not after a row lead
    from genbloch.plain import _csv_blocks, _json_items, _json_parts
    from genbloch.clifford import basis_element
    from genbloch.coords import decode, encode

    assert b"".join(_csv_blocks(["x", "y"], [[[-0.5, 1.0], [-0.0, -2.0]]])) == \
        b"x,y\n-0.5,-0.0\n1.0,-2.0\n"
    rows = [[-0.0, 2.5], [1e16, -5e-324]]
    points = _json_items([[np.array(col) for col in zip(*rows)]], 2)
    assert b"".join(_json_parts({}, {"points": points})) == \
        json.dumps({"points": rows}, indent=2).encode()
    # a matrix whose entries open with -1.0: E_12 = -sigma_3 at m = 1
    assert run(["basis", "--m", "1", "--element", "2:1,2"]) == 0
    expected = {"1,2,[1,2]": matrix_to_json(basis_element(1, (1, 2)))}
    assert expected["1,2,[1,2]"]["entries"][0][0] == -1.0
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    # decode of a state whose first coordinate is negative
    rho = encode(state_coords(2, grades={1: {(1,): -0.25}, 2: {(1, 2): -0.125}}))
    assert run(["decode", "--input", write_json(tmp_path / "rho.json", matrix_to_json(rho))]) == 0
    expected = coords_to_json(decode(rho))
    assert expected["grades"]["1"][0]["val"] < 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_float_speller_matches_repr(rng):
    # magnitudes are spelled once and negatives prefixed: every sign, NaN of
    # either sign, infinities, subnormals, and values that occur with both signs
    nan = np.float64(np.nan)
    edges = np.array([0.0, -0.0, nan, -nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, -1e16,
                      0.1, -0.1, 1.0 / 3.0, np.nextafter(1.0, 2.0)])
    spread = rng.standard_normal(10 ** 5) * 10.0 ** rng.integers(-300, 300, 10 ** 5)
    mirrored = np.concatenate([spread[:1000], -spread[:1000]])
    for values in (edges, spread, mirrored, np.array([])):
        expected = list(map(float.__repr__, values.tolist()))
        assert _spelled(values) == expected


def test_pixel_speller_matches_format(rng):
    from genbloch.text import _spell_hundredths

    # every k/800 in [20, 620]: the exact half-hundredth ties (such as 20.125,
    # which format rounds half-even) and the near-ties around every x.xx5
    ties = np.arange(16_000, 496_001) / 800
    # uniform pixels, and values outside (0, 640] that go to format directly
    edges = np.array([0.0, -0.0, 0.001, 0.005, 0.125, -0.004, -0.005, -1.0,
                      640.0, 640.004, 640.005, 640.006, 1e6, np.nan])
    for values in (ties, rng.uniform(20.0, 620.0, 10 ** 6), edges):
        expected = list(map("{:.2f}".format, values.tolist()))
        (wholes, first), (cents, second) = _spell_hundredths(values, 640)
        assert [a + b for a, b in zip(_unpadded(wholes, first),
                                      _unpadded(cents, second))] == expected


def test_figure_row_limit(capsys, monkeypatch):
    from genbloch import figures
    from genbloch.errors import ResourceLimit

    def candidates(which, resolution):
        surfaces = {"fig2": 2, "fig3": 4}[which]
        return surfaces * 2 * resolution * (3 * resolution + 1)

    # the benchmark's resolutions and fig1 at its largest resolution stay allowed
    for which, resolution in [("fig1", 1024), ("fig2", 101), ("fig3", 26), ("fig3", 28)]:
        assert figures._check_figure(which, resolution) == resolution
    with pytest.raises(ResourceLimit):
        figures._check_figure("fig1", 1025)
    # the first resolution above the limit is refused before any point is built
    monkeypatch.setattr(figures, "_tunnel_surface_points", None)
    for which in ("fig2", "fig3"):
        resolution = next(r for r in range(2, 1024) if candidates(which, r) > figures.MAX_ROWS)
        assert candidates(which, resolution - 1) <= figures.MAX_ROWS
        with pytest.raises(ResourceLimit):
            figures.figure_columns(which, resolution)
        assert run(["figure", which, "--resolution", str(resolution)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_diagnostic(captured)
    monkeypatch.undo()
    # at the limit a dataset is built; one row above it, it is refused
    for which in ("fig2", "fig3"):
        monkeypatch.setattr(figures, "MAX_ROWS", candidates(which, 5))
        assert len(table_rows(figures.figure_columns(which, 5)[1])) > 0
        monkeypatch.setattr(figures, "MAX_ROWS", candidates(which, 5) - 1)
        with pytest.raises(ResourceLimit):
            figures.figure_columns(which, 5)
    monkeypatch.setattr(figures, "MAX_ROWS", 5 * 5)
    assert len(table_rows(figures.figure_columns("fig1", 5)[1])) == 25
    monkeypatch.setattr(figures, "MAX_ROWS", 5 * 5 - 1)
    with pytest.raises(ResourceLimit):
        figures.figure_columns("fig1", 5)


_COMMAND_NAMES = ["basis", "encode", "decode", "invariants", "spectrum", "validate", "sample",
                  "figure", "rotate", "domain"]


def _parsed(parser, argv, capsys):
    """What parsing argv gives: its namespace, or its usage error, or its help text."""
    from genbloch.errors import UsageError

    try:
        return vars(parser.parse_args(argv))
    except UsageError as exc:
        return f"usage error: {exc}"
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out


@pytest.mark.parametrize("name", _COMMAND_NAMES)
def test_one_subparser_parses_as_the_full_parser(capsys, name):
    from genbloch.cli import build_parser

    alone, full = build_parser([name]), build_parser()
    # help; a missing required flag; bad choices; a bad type; an unknown flag;
    # an abbreviated flag
    calls = [[name, "--help"], [name], [name, "--mode", "odd"], [name, "fig9"],
             [name, "--format", "xml"], [name, "--m", "x"], [name, "--bogus"],
             [name, "--inp", "x.json"], [name, "--m", "2", "--k", "1", "--samples", "3"],
             [name, "fig1", "--format", "svg"], [name, "--input", "x.json", "--alpha", "a.json"]]
    for argv in calls:
        assert _parsed(alone, argv, capsys) == _parsed(full, argv, capsys), argv
    help_code, help_text = _parsed(alone, [name, "--help"], capsys)
    assert help_code == 0 and help_text.startswith(f"usage: genbloch {name} [-h]")


def test_run_builds_only_the_named_subcommand(monkeypatch, capsys, g2_coords):
    from genbloch import cli

    declared = []
    declare = cli._declare
    monkeypatch.setattr(cli, "_declare", lambda sub, name: declared.append(name)
                        or declare(sub, name))
    for argv, names in [(["validate", "--input", g2_coords], ["validate"]),
                        (["domain", "--input", g2_coords], ["domain", "validate"]),
                        (["domain", "--samples", "2"], ["domain", "sample"]),
                        (["domain", "--grid", "--resolution", "3"], ["domain", "figure"]),
                        (["bogus"], _COMMAND_NAMES), ([], _COMMAND_NAMES)]:
        declared.clear()
        run(argv)
        assert declared == names, argv
    capsys.readouterr()
    # -h and --help list every subcommand
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit):
            run([flag])
        assert "{" + ",".join(_COMMAND_NAMES) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--m", "2"], ["--m", "standard"], ["--mod", "extended"]],
                         ids=["m-2", "m-standard", "mod"])
def test_abbreviated_flag_refused(g2_coords, capsys, argv):
    # argparse would read --m and --mod as --mode
    assert run(["validate", "--input", g2_coords, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"genbloch: usage error: unrecognized arguments: {' '.join(argv)}"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_write_failure_one_line(g2_coords, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        res = subprocess.run([sys.executable, "-m", "genbloch", "validate", "--input", g2_coords],
                             env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["genbloch: error: [Errno 28] No space left on device"]


def _python_m(*argv, encoding="utf-8", stdout=subprocess.PIPE, preexec_fn=None):
    """A `python -m genbloch` call with stdout's encoding set, its stdout as bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING=encoding)
    return subprocess.run([sys.executable, "-m", "genbloch", *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, preexec_fn=preexec_fn, timeout=120)


@pytest.mark.parametrize("argv", [
    ["figure", "fig1", "--resolution", "3"],
    ["sample", "--m", "2", "--k", "2", "--samples", "5", "--format", "csv"],
    ["figure", "fig2", "--resolution", "53", "--format", "svg"],
    ["validate", "--input", "STATE"],
], ids=["list-table", "array-table", "array-svg", "json-object"])
def test_stdout_bytes_do_not_depend_on_its_encoding(tmp_path, g2_coords, argv):
    # an answer is UTF-8 bytes on stdout whatever text encoding the caller
    # gives stdout, the bytes its --output file holds
    argv = [g2_coords if arg == "STATE" else arg for arg in argv]
    outputs = []
    for encoding in ("utf-8", "utf-16", "ascii"):
        res = _python_m(*argv, encoding=encoding)
        assert res.returncode == 0 and res.stderr == b"", (encoding, res.stderr)
        outputs.append(res.stdout)
    path = tmp_path / "out"
    res = _python_m(*argv, "--output", str(path), encoding="utf-16")
    assert res.returncode == 0 and res.stdout == b""
    outputs.append(path.read_bytes())
    assert outputs[0] and outputs.count(outputs[0]) == len(outputs)


def test_closed_stdout_one_line(tmp_path, capsys):
    # with fd 1 closed Python sets sys.stdout to None: an answer for stdout is
    # refused with one diagnostic line, and one for --output is written
    argv = ["figure", "fig1", "--resolution", "2"]
    res = _python_m(*argv, stdout=None, preexec_fn=lambda: os.close(1))
    assert res.returncode == 1
    assert res.stderr.decode().splitlines() == [
        "genbloch: error: [Errno 9] stdout is closed or takes no bytes"]
    path = tmp_path / "out"
    res = _python_m(*argv, "--output", str(path), stdout=None, preexec_fn=lambda: os.close(1))
    assert res.returncode == 0 and res.stderr == b""
    assert run(argv) == 0
    assert path.read_bytes() == capsys.readouterr().out.encode()


def test_matrix_dim_refused_before_entries(tmp_path, capsys):
    # 128 x 128 entries that are not [re, im] pairs: the dimension is refused first
    path = write_json(tmp_path / "m7.json", {"dim": 128, "entries": ["x"] * 128 ** 2})
    assert run(["decode", "--input", path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "genbloch: error: m = 7 exceeds the supported maximum 6"]
    with pytest.raises(genbloch.errors.MalformedInput, match="expected 4 x 4"):
        matrix_from_json({"dim": 4, "entries": [[0.25, 0.0]] * 15})


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _signed_zero_coords(rng, m, mode):
    """Coords with every grade of the family filled, a third of the values -0.0."""
    from genbloch.clifford import cached_basis

    basis = cached_basis(m, mode)
    values = rng.standard_normal(len(basis.indices))
    values[::3] = -0.0
    grades = {}
    for idx, val in zip(basis.indices[1:], values[1:]):
        grades.setdefault(len(idx), {})[idx] = val
    return state_coords(m, mode=mode, scalar=values[0], grades=grades)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_matrix_and_coords_json_match_json_dumps(rng, m, mode):
    from genbloch.text import _coords_text, _matrix_text
    from genbloch.coords import encode

    coords = _signed_zero_coords(rng, m, mode)
    assert b"".join(_coords_text(coords)) == _dumps(coords_to_json(coords)).encode()
    empty = state_coords(m, mode=mode, grades={1: {}})
    assert b"".join(_coords_text(empty)) == _dumps(coords_to_json(empty)).encode()
    bare = state_coords(m, mode=mode)
    assert b"".join(_coords_text(bare)) == _dumps(coords_to_json(bare)).encode()
    rho = encode(coords)
    rho[::2] *= -1.0
    rho.imag[1::3] = -0.0
    assert b"".join(_matrix_text(rho)) == _dumps(matrix_to_json(rho)).encode()


@pytest.mark.parametrize("m", [1, 3])
def test_matrix_and_coords_answers_match_json_dumps(tmp_path, capsys, m):
    from genbloch.clifford import cached_basis
    from genbloch.coords import antisym, decode, encode
    from genbloch.symmetry import orthogonal_from_generator, rotate_coords

    coords = state_coords(m, grades={1: {(1,): 0.3, (2,): -0.0}, 2: {(1, 2): 0.2}})
    state = write_json(tmp_path / "c.json", coords_to_json(coords))
    rho = encode(coords)
    matrix = write_json(tmp_path / "rho.json", matrix_to_json(rho))
    alpha = write_json(tmp_path / "a.json", {"m": m, "alpha": [{"idx": [1, 2], "val": 0.4}]})
    rotated = rotate_coords(coords, orthogonal_from_generator(antisym(m, 2, {(1, 2): 0.4})))
    basis, extended = cached_basis(m), cached_basis(m, "extended")
    for argv, expected in [
        (["encode", "--input", state], matrix_to_json(rho)),
        (["decode", "--input", matrix, "--mode", "extended"],
         coords_to_json(decode(rho, mode="extended"))),
        (["rotate", "--input", state, "--alpha", alpha], coords_to_json(rotated)),
        (["basis", "--m", str(m)], {f"{m},{len(i)},[{','.join(map(str, i))}]":
                                    matrix_to_json(basis.element(i)) for i in basis.indices}),
        (["basis", "--m", str(m), "--element", "1:2"], {f"{m},1,[2]":
                                                        matrix_to_json(basis.element((2,)))}),
        (["basis", "--m", str(m), "--mode", "extended"],
         {f"{m},{len(i)},[{','.join(map(str, i))}]": matrix_to_json(extended.element(i))
          for i in extended.indices}),
    ]:
        assert run(argv) == 0
        assert capsys.readouterr().out == _dumps(expected) + "\n", argv


def test_coords_json_refuses_non_finite():
    from types import SimpleNamespace

    from genbloch.text import _coords_text
    from genbloch.errors import NonFiniteResult

    for value in (float("nan"), float("inf"), -float("inf")):
        entries = (np.array([[1], [2]]), np.array([0.5, value]))
        coords = SimpleNamespace(m=1, mode="standard", scalar=1.0, grades={1: None},
                                 wire_entries=lambda k, entries=entries: entries)
        with pytest.raises(NonFiniteResult, match="not finite"):
            _coords_text(coords)


def test_basis_dump_row_limit(capsys, monkeypatch):
    from genbloch import cli, clifford

    # the full dump has 16^m matrix entries: refused above the row limit before
    # any basis is built, while --element, --verify and m's own refusals stay
    monkeypatch.setattr(cli, "MAX_ROWS", 16 ** 2)
    calls = []
    monkeypatch.setattr(clifford, "full_basis", lambda *a: calls.append(a))
    for mode in ("standard", "extended"):
        assert run(["basis", "--m", "3", "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_diagnostic(captured)
        assert "above the maximum 256" in captured.err
    assert calls == []
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_ROWS", 16 ** 2)
    assert run(["basis", "--m", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 16
    for argv in (["basis", "--m", "3", "--verify"], ["basis", "--m", "3", "--element", "1:2"]):
        assert run(argv) == 0
        capsys.readouterr()
    for m, message in [("7", "exceeds the supported maximum 6"), ("0", "positive integer")]:
        assert run(["basis", "--m", m]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and _one_diagnostic(captured) and message in captured.err


# The CLI contract over generated calls: argv from each subcommand's own
# parser (built from cli._COMMANDS), and --input/--alpha files of coords,
# matrix and generator JSON, valid or with one field mutated.
_NUMBERS = st.one_of(st.floats(-0.4, 0.4), st.sampled_from([0.0, -0.0, 1.5, 1e300, -1e-300]))
_BAD_VALUES = st.sampled_from([None, True, "0.5", [], {}, 2.5, 7, 0, -1, float("inf"),
                               float("nan"), 10 ** 400])


# one m for every document of a call, so rotate's generator fits its state
_DOC_M = st.shared(st.integers(1, 3), key="m")


@st.composite
def _mutated(draw, doc):
    """doc, or doc with one field, found by a drawn path, set to a bad value."""
    if draw(st.integers(0, 3)) < 3:
        return doc
    paths, stack = [], [((), doc)]
    while stack:
        path, node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            paths.append(path + (key,))
            if isinstance(value, (dict, list)):
                stack.append((path + (key,), value))
    path = draw(st.sampled_from(paths))
    node = doc
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    # a list may instead be doubled: too many entries, or an index or pair too long
    twice = isinstance(value, list) and draw(st.booleans())
    node[path[-1]] = value * 2 if twice else draw(_BAD_VALUES)
    return doc


@st.composite
def _entries(draw, side, grades):
    return [{"idx": draw(st.lists(st.integers(1, side), min_size=k, max_size=k, unique=True)),
             "val": draw(_NUMBERS)} for k in grades]


@st.composite
def _coords_doc(draw):
    m = draw(_DOC_M)
    mode = draw(st.sampled_from(["standard", "extended"]))
    side = 2 * m + (mode == "extended")
    grades = {}
    top = min(m if mode == "extended" else side, 3)
    for entry in draw(_entries(side, draw(st.lists(st.integers(1, top), max_size=3)))):
        grades.setdefault(str(len(entry["idx"])), []).append(entry)
    doc = {"m": m, "grades": grades}
    if mode == "extended" or draw(st.booleans()):
        doc["mode"] = mode
    return draw(_mutated(doc))


@st.composite
def _matrix_doc(draw):
    m = draw(_DOC_M)
    dim = 2 ** m
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T + draw(st.floats(-2, 0)) * np.eye(dim)
    return draw(_mutated(matrix_to_json(rho / np.trace(rho).real)))


@st.composite
def _alpha_doc(draw):
    m = draw(_DOC_M)
    return draw(_mutated({"m": m, "alpha": draw(_entries(2 * m, [2] * draw(st.integers(0, 3))))}))


# each subcommand's --input documents, and rotate's --alpha; the other
# subcommands read coords or a matrix
_DOCS = {"encode": _coords_doc(), "invariants": _coords_doc(), "rotate": _coords_doc(),
         "decode": _matrix_doc(), "--alpha": _alpha_doc()}


def _mostly(good, bad):
    """good four times in five, else bad."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 4 else good)


# each flag's values, mostly valid ones, at m <= 3
_FLAG_VALUES = {
    "m": _mostly(st.integers(1, 3), st.just(0)), "k": _mostly(st.integers(1, 2), st.just(3)),
    "samples": _mostly(st.integers(0, 20), st.just(-1)),
    "resolution": _mostly(st.integers(2, 8), st.just(1)),
    "seed": _mostly(st.integers(0, 2 ** 32 - 1), st.sampled_from([-1, 2 ** 32])),
    "box": _mostly(st.floats(0, 2), st.sampled_from([-1.0, 1e308, float("nan")])),
    "tol": _mostly(st.floats(0, 1e-3), st.sampled_from([-1.0, float("inf")])),
    "element": _mostly(st.sampled_from(["2:1,3", "1:2", "3:1,2,4"]),
                       st.sampled_from(["0:", "x", "2:1,1", "2:1"]) | st.text(max_size=5)),
}


def _subcommand_actions(name):
    """The arguments subcommand name declares, from the parser run() builds for it."""
    from genbloch import cli

    sub = next(a for a in cli.build_parser([name])._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[name]._actions if a.dest not in ("help", "output")]


@st.composite
def _args(draw, name, skip=()):
    """argv for subcommand name's own arguments, each optional flag drawn or not,
    each value drawn from the flag's choices, _FLAG_VALUES or _DOCS."""
    argv, docs = [], {}
    for action in _subcommand_actions(name):
        flag = action.option_strings[0] if action.option_strings else None
        # a required argument is left out one time in 20, an optional one two times in 3
        if flag in skip or draw(st.integers(0, 19).map(lambda i: i == 19)
                                if action.required or flag is None
                                else st.integers(0, 2).map(lambda i: i > 0)):
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        if flag in ("--input", "--alpha"):
            either = _coords_doc() | _matrix_doc()
            value = docs[flag] = draw(_DOCS.get(name if flag == "--input" else flag, either))
        elif action.choices:
            value = draw(_mostly(st.sampled_from(action.choices), st.just("bogus")))
        else:
            value = draw(_FLAG_VALUES[action.dest])
        argv += [flag, value] if flag else [value]
    return argv, docs


@st.composite
def _cli_calls(draw, name):
    argv, docs = draw(_args(name))
    if name == "domain":
        # a domain mode hands the rest of argv to the subcommand it runs
        modes = [flag for flag in ("--input", "--grid", "--samples") if flag in argv]
        if len(modes) == 1:
            target = {"--input": "validate", "--grid": "figure", "--samples": "sample"}[modes[0]]
            rest, more = draw(_args(target, skip=(None, "--input", "--samples")))
            argv, docs = argv + rest, {**docs, **more}
    return [name, *argv], docs


@pytest.mark.parametrize("name", list(genbloch.cli._COMMANDS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_contract_on_generated_calls(name, data):
    import contextlib
    import io
    import tempfile

    argv, docs = data.draw(_cli_calls(name))
    with tempfile.TemporaryDirectory() as tmp:
        for flag, doc in docs.items():
            path = os.path.join(tmp, f"{flag[2:]}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = [path if arg is doc else arg for arg in argv]  # the doc's own slot
        argv = [str(arg) for arg in argv]
        # run() writes an answer's bytes to stdout's binary buffer
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    out.flush()
    out, err = out.buffer.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert argv[0] == "validate" or (argv[0] == "domain" and "--input" in argv), argv
    if code == 1:
        assert out == b"" and err.count("\n") == 1 and err.startswith("genbloch: "), (argv, err)
    else:
        assert err == "" and out.endswith(b"\n"), (argv, err)
        if out.startswith((b"{", b"[")):
            json.loads(out, parse_constant=lambda word: pytest.fail(f"{word} in {argv}"))

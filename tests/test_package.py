import json
import os
import subprocess
import sys

import pytest

import genbloch

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
    assert "genbloch.identities" not in res.stderr.split()


def test_public_names_resolve():
    for name in genbloch.__all__:
        assert getattr(genbloch, name) is not None
    assert set(genbloch.__all__) <= set(dir(genbloch))
    assert genbloch.figure_data is genbloch.figures.figure_data
    with pytest.raises(AttributeError):
        genbloch.no_such_name

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


def test_public_names_resolve():
    for name in genbloch.__all__:
        assert getattr(genbloch, name) is not None
    assert set(genbloch.__all__) <= set(dir(genbloch))
    assert genbloch.figure_data is genbloch.domains.figure_data
    with pytest.raises(AttributeError):
        genbloch.no_such_name

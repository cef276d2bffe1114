"""Every narrative demo runs to completion against the library in src/."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import genbloch

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run a copy, so files a demo writes next to itself land in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = os.path.dirname(os.path.dirname(os.path.abspath(genbloch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr

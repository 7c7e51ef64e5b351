"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # in a scratch directory, since a demo may write files (the region map)
    cp = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr

"""Each demo runs to the end in a fresh process, so an API change that breaks
one fails here.  Demo 05 writes ``demo_output/``, so every demo runs in a
temporary working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypcurv

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# the package as the tests import it, wherever the demo's directory is
SOURCE = str(Path(hypcurv.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sleepshare import cli

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    # a fresh interpreter each, as a reader runs them; an overflow or an
    # invalid value fails the demo as it fails the suite
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

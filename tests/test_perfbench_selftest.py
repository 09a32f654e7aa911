"""The benchmark's self-test against the present sources. It fails when a
function the benchmark's tracer wraps is renamed or loses the arguments
the tracer reads, so a refactor of a traced layer shows up here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert lines and lines[-1] == "0 failed", proc.stdout[-4000:]

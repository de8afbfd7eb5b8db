"""The benchmark harness still drives this checkout's program."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    """bench/selftest.py runs a tiny forward, energy report and traced step
    through spikegraph; a signature the harness relies on that changes
    fails here."""
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

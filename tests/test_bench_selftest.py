"""The benchmark harness still drives this checkout's program."""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    """bench/selftest.py runs a tiny forward, energy report and traced step
    through spikegraph; a signature the harness relies on that changes
    fails here."""
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["train_smf", "train_kd"])
def test_bench_losses_are_deterministic(workload):
    """bench/losses.py, on which every claim of unchanged losses rests,
    prints the same bytes in two fresh processes, with the teacher's
    forward and the weight-gradient GEMMs on worker threads: 2 finite
    steps, whose distillation terms are 0 without distillation and
    positive with it."""
    cmd = [sys.executable, os.path.join("bench", "losses.py"), "--workload", workload,
           "--seed", "1", "--steps", "2"]
    runs = [subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert runs[0].stdout == runs[1].stdout
    steps = json.loads(runs[0].stdout)["steps"]
    assert len(steps) == 2
    for step in steps:
        assert all(math.isfinite(step[k]) for k in ("loss", "l_task", "l_sdk", "l_fkd"))
        if workload == "train_smf":
            assert step["l_sdk"] == step["l_fkd"] == 0
        else:
            assert step["l_sdk"] > 0 and step["l_fkd"] > 0

"""The benchmark still runs and its checks pass; its timings are not judged.

Each run builds a seeded world, runs the six stages as child processes and
compares every analysis artifact with bench/reference.py byte for byte.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["full-table", "long-list"])
def test_bench_run_is_correct(workload):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0

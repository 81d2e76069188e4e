"""The benchmark harness runs against this checkout: bench/run.py binds
kimdiff's layer modules and several of their names and arguments, traces
its warm-up call, and reads the artifacts that evolve and verify write, so
renaming one of them, or changing what an artifact holds, fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["fd_verify", "spectral_evolve"])
def test_bench_contract_holds(workload):
    # no timed seconds: the warm-up call plus the harness's minimum of calls
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout.splitlines()[-2]
    assert result["failed"] == 0

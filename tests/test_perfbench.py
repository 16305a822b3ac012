"""The benchmark's own gates, run short: ``perfbench/run.py`` checks each bench
run's records against the golden CSV and each checkpoint round trip against
``to_checkpoint()``, and every check it makes must pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["rosenbrock", "deep_mlp"])
def test_benchmark_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["metrics"]["pass_ratio"]["value"] == 1.0
    assert "checkpoint_ms_p50" in result["metrics"]

"""The benchmark's own gates, run short: ``perfbench/run.py`` checks each bench
run's records against the golden CSV and each checkpoint round trip against
``to_checkpoint()``, and every check it makes must pass. ``bench run`` of the
wide MLP workload, which the benchmark checks against ``perfbench/golden/``,
must write those golden records too."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import host_class_note

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


def test_wide_mlp_bench_run_writes_the_golden_records(tmp_path):
    """``bench run`` of the wide MLP workload, at one BLAS thread as the
    benchmark runs it, writes its golden ``records.csv`` byte for byte."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-m", "optlab.cli", "run", "perfbench/wide_mlp.json",
         "--out", str(tmp_path), "--quiet"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    golden = (REPO / "perfbench" / "golden" / "wide_mlp.csv").read_bytes()
    assert (tmp_path / "records.csv").read_bytes() == golden, host_class_note()

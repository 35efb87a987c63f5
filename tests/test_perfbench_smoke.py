"""The benchmark's dataset_gen and probe_train workloads still run and pass
their checks.

dataset_gen checks that every generated row is a valid one-hot transcript and
that the labels are balanced, so a short run guards the batched dataset path
and its encoder end to end.  probe_train runs rl.train_probe, the only
workload on hypo.RunningPValue's path.  Each runs in a subprocess, as the
benchmark does; scratch files go to the git-ignored .perfbench/ in the
checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["dataset_gen", "probe_train"])
def test_workload_runs_and_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

"""The benchmark's dataset_gen workload still runs and passes its checks.

The workload checks that every generated row is a valid one-hot transcript
and that the labels are balanced, so a short run guards the batched dataset
path and its encoder end to end.  It runs in a subprocess, as the benchmark
does; its scratch files go to the git-ignored .perfbench/ in the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_dataset_gen_runs_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dataset_gen",
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

"""Two traced runs of one workload with one seed report identical counts
(critical.*, gw.lookups*, ...) and pass every output check, digests
included.

    python3 -m pytest perfbench/test_determinism.py    # takes several minutes
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
EXERCISED = {"exact-ladder": "gw.lookups", "crit-sweep": "critical.attempted",
             "cli-mixed": "documents.bytes_out"}


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    return {name: result["metrics"][name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_for_a_seed(workload):
    first = traced_counts(workload, 7)
    assert first[EXERCISED[workload]] > 0
    assert traced_counts(workload, 7) == first

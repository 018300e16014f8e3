"""The benchmark's own check: traced runs repeat their work counters exactly.

Wall times are never asserted; only counters are.  Run from the
repository root:

    python3 -m pytest -q perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _counters(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    counters = next(json.loads(line) for line in lines
                    if line.startswith('{"counters"'))["counters"]
    return counters, result["metrics"]


@pytest.mark.parametrize("workload", ["evolve", "fit", "verify"])
def test_two_runs_give_equal_counters(workload):
    first, metrics = _counters(workload, seed=3)
    second, _ = _counters(workload, seed=3)
    assert first == second
    assert first["commands"]            # every command left spans
    for name, value in first["pass"].items():
        assert metrics.get(name, {"value": value})["value"] == value, name

"""Tiny-size smoke test of the benchmark: every workload, including
``train``, which BENCHMARK.json leaves out, runs, passes its output checks
and emits exactly the metrics BENCHMARK.json names.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["session", "train", "cli"])
def test_every_metric_is_emitted(workload, trace):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--strokes-per-class", "3",
    ]
    proc = subprocess.run(
        [sys.executable, *command[1:]], cwd=HERE.parent, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))

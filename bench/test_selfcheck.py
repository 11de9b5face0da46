"""Quick self-check of the benchmark: every workload, including ``sample``
which BENCHMARK.json does not gate, runs at a tiny size and prints every
metric BENCHMARK.json names, with its unit.

    python3 -m pytest -q bench/test_selfcheck.py

It lives outside the test suite's ``testpaths``; it takes about 30 s.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in specs}
    for m in specs:
        assert printed[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(printed[m["name"]]["value"], float), m["name"]


@pytest.mark.parametrize("workload", ["fit", "sample", "diagnose"])
def test_end_to_end_metrics(workload):
    _assert_metrics(_run(workload, 0), SPEC["end_to_end"])


def test_per_layer_metrics():
    _assert_metrics(_run(SPEC["workloads"][0]["name"], 1), SPEC["per_layer"])

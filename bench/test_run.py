"""Smoke test of the benchmark: every metric BENCHMARK.json names is emitted.

    python3 -m pytest -q bench/test_run.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in expected:  # each also printed by name, with its unit, before the result
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines[:-1])
    assert lines[0].startswith("env ") and "numpy=" in lines[0] and "nproc=" in lines[0]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""

"""Smoke test of the benchmark: a tiny run of every workload, plain and
traced, checked against the metric names and units in BENCHMARK.json.

    python3 -m pytest perfbench/test_smoke.py

It takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
KTABLES_PATH = ("cli.main > ktheory.point_k > reps.restriction_multiplicities"
                " > kernel.unit_pair_rank")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(result) -> dict:
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    # failed_ratio = 1 - success_ratio is 0 at this commit
    assert result["metrics"]["success_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = _run(workload, 1)
    result = _result(proc)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    calls = result["metrics"]["reps.restriction_multiplicities.calls"]["value"]
    if workload == "ktables":
        assert calls > 0
        assert KTABLES_PATH in proc.stdout
    else:
        assert calls == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Smoke test of the benchmark at toy sizes; it checks output, not speed.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced and must print every metric that
BENCHMARK.json names, with its unit, correct outputs and equal digests.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    report0, result0 = parse(run_bench(workload, 0))
    report1, result1 = parse(run_bench(workload, 1))
    for result, group in ((result0, "end_to_end"), (result1, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
        for spec in SPEC[group]:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"])
    assert report0["failed_fraction"] == 0.0
    assert report0["machine"]["single_thread_blas"] is True
    # Tracing must not change any result.
    assert report1["digests"] == report0["digests"]
    assert set(report0["digests"]) == {"setup", "train", "tune", "eval"}


def test_layer_map_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    from tracing import LAYER_METRICS

    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    for spec in SPEC["per_layer"]:
        unit, better, _, _ = LAYER_METRICS[spec["name"]]
        assert (spec["unit"], spec["better"]) == (unit, better)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("train-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

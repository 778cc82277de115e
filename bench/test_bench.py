"""Smoke test of the benchmark: `python3 -m pytest bench` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import layertrace  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(48) == 75.0
    assert workloads.tail_percentile(40) == 75.0
    assert workloads.nearest_rank(list(range(1, 101)), 90.0) == 90


def test_self_time_subtracts_children():
    spans = [("f", [1, 0, "t", "child", 1.0, 3.0, None]),
             ("f", [0, None, "t", "harness.run_trial", 0.0, 10.0, {"hook": 0}])]
    stats = layertrace.TrialStats(spans)
    assert stats.trials == ["t"]
    assert stats.self_time["t"]["harness.run_trial"] == 8.0
    assert stats.time["t"]["child"] == 2.0


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric():
    result = result_line(bench("--workload", "desk_serial", "--seed", "3",
                               "--seconds", "0.1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_layers_and_passes_self_check():
    proc = bench("--workload", "desk_serial", "--seed", "3", "--seconds", "0.1",
                 "--trace", "1")
    result = result_line(proc)
    facts = json.loads(proc.stdout.strip().splitlines()[-2])["facts"]
    assert result["correct"] and facts["self_check"] == "pass"
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["estimator.detect_calls_per_trial"] == 8  # 4 BSs x 2 paths
    assert metrics["codebook.codewords"] == 1083
    assert metrics["codebook.steering_builds"] == 0  # built during set-up


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "desk_serial", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""End-to-end checks of perfbench/run.py against the benchmark's contract.

    python3 -m pytest -q perfbench/check_run.py

Each test starts the benchmark as a subprocess with a one-second budget,
so a run is a warm-up round plus one measured round.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("doubling-deep-1d", "cone-net-2d", "cli-mix")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload, seed=5, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result, json.loads(lines[-2])


def _git_status():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                          cwd=ROOT, capture_output=True, text=True, check=True).stdout


def test_benchmark_file_matches_the_runner():
    sys.path.insert(0, HERE)
    import run
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_end_to_end_metrics_and_leaves_git_status_unchanged(workload):
    before = _git_status()
    result, record = _result(_run(ROOT, workload))
    for metric in _bench()["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert len(result["metrics"]) == len(_bench()["end_to_end"])
    assert record["samples_beyond_tail"] <= record["latency_samples"]
    manifest = record["manifest"]
    for key in ("conelab_version", "git_commit", "python", "numpy", "nproc", "seed",
                "config_sha256", "depth_budgets"):
        assert key in manifest
    assert _git_status() == before


def test_tail_leaves_ten_values_beyond_it():
    sys.path.insert(0, HERE)
    import run
    assert run.tail([float(v) for v in range(1, 101)]) == (90, 90.1)
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0)  # too few values for any tail


def test_same_seed_same_inputs():
    _, first = _result(_run(ROOT, "doubling-deep-1d", seed=9))
    _, second = _result(_run(ROOT, "doubling-deep-1d", seed=9))
    _, other = _result(_run(ROOT, "doubling-deep-1d", seed=10))
    assert first["manifest"]["config_sha256"] == second["manifest"]["config_sha256"]
    assert first["manifest"]["config_sha256"] != other["manifest"]["config_sha256"]


def test_traced_run_reports_every_per_layer_metric():
    result, record = _result(_run(ROOT, "cli-mix", trace=1))
    assert {m["name"] for m in _bench()["per_layer"]} == set(result["metrics"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli._parallel.calls"] >= 1 and metrics["cli._parallel.busy_ratio"] > 0
    assert metrics["homogeneity.region_queries_per_call"] == 13  # l + 1 with l = 12
    assert metrics["density.region_queries_per_call"] == 241     # 1 + K_sub K_dir
    assert os.path.isfile(os.path.join(ROOT, record["spans_file"]))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("records", ".work", "__pycache__"))
    proc = _run(tmp_path, "doubling-deep-1d")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

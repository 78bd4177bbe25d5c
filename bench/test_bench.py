"""Smoke test of the benchmark harness: every workload at its smoke size.

Runs in a few seconds, so the harness cannot drift from the program or
from BENCHMARK.json unnoticed.  Run with `python -m pytest bench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_at_smoke_size(trace):
    proc = _run("--workload", "all", "--smoke", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for name in (w["name"] for w in SPEC["workloads"]):
        got = {k.split(".", 1)[1]: v for k, v in last["metrics"].items() if k.startswith(name + ".")}
        assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in got.items()}
    if not trace:
        assert "error_rate" in proc.stdout


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SIZES)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.LAYER_METRICS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_traced_self_times_fit_in_wall_time():
    proc = _run("--workload", "ingest_year", "--smoke", "--seconds", "0.2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert "self times within wall on every traced run: True" in proc.stdout
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["trace.self_sum_s"]["value"] <= metrics["trace.wall_s"]["value"]
    assert metrics["market_data.rows_in"]["value"] == (
        metrics["market_data.rows_out"]["value"] + metrics["market_data.rows_dropped"]["value"])


def test_self_times_split_concurrent_spans():
    # root 0..10; cli 1..9 with two pool-thread fits (parent = root) at 2..6 and 3..8
    spans = [(1, None, "bench", 0.0, 10.0), (2, 1, "cli.main", 1.0, 9.0),
             (3, 1, "classifiers.fit.knn", 2.0, 6.0), (4, 1, "classifiers.fit.kmeans", 3.0, 8.0),
             (5, 2, "labeling.split", 4.0, 5.0)]
    self_s = tracer.self_times(spans)
    # an instant with two self-active layers counts half to each; cli is not
    # self-active while its child split runs (4..5)
    assert self_s["bench.self_s"] == pytest.approx(2.0)
    assert self_s["cli.self_s"] == pytest.approx(1.0 + 0.5 * 3 + 0.5 * 2 + 1.0)
    assert self_s["classifiers.self_s"] == pytest.approx(0.5 * 4 + 0.5 * 2)
    assert self_s["labeling.self_s"] == pytest.approx(0.5)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "corr_mc", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

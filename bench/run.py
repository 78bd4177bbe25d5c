"""Benchmark for bnsjump: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload train_grid --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20      # every workload, one table

Workloads (see workloads.py): simulate_csv, corr_mc, ingest_year, train_grid.

A run makes the workload's inputs from --seed, starts a fresh worker
process that imports `bnsjump` from this checkout's `src/` and warms up,
and lets it run the workload repeatedly for --seconds.  Every run's
outputs are checked; a run that raises, exits nonzero, or fails its
check counts as failed.

--trace 0 prints the end-to-end metrics (median over runs); --trace 1
wraps the program's public functions (tracer.py) and prints per-layer
metrics plus the tracing overhead.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record,
with the run environment and every sample, goes to
.bench_work/results/ in the checkout.

Set-up (input generation and writing, worker start, import, warm-up) is
repeated SETUP_REPS times, half before and half after the measuring
window, and reported as the median `setup_s`.

A run is pinned to one CPU, and times in `wall_s` and `items_per_s` are
scaled to the speed of a fixed reference kernel timed on that CPU next to
each run (reference.py), because the speed of a shared host's CPUs
differs and drifts by up to 1.7x.  The unscaled median wall time is
printed too.  Each set-up is scaled in the same way, by the kernel timed
just before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = tuple(workloads.SIZES)
SETUP_REPS = 6
TIME_LIMIT_S = 170  # a run must end within 180 s; workers past this are hung
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed program run)."""


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _run_worker(job: dict, job_path: Path, timeout: float) -> tuple[dict, float]:
    """Start a worker on `job`; returns its result and its start time."""
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path = Path(job["result"])
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        raise HarnessError(f"worker exited with code {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8")), spawned


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool, run_dir: Path) -> dict:
    size = "smoke" if smoke else "full"
    inputs = run_dir / "inputs"
    reps = 1 if smoke else SETUP_REPS
    setups, scaled_setups = [], []
    give_up = time.monotonic() + TIME_LIMIT_S
    # Half the set-ups come before the measuring worker and half after it,
    # so their median spans the window rather than one moment of the host's
    # speed.
    measuring_rep = reps // 2
    for rep in range(reps):
        ref_s = reference.seconds()  # this CPU's speed, for scaling like wall_s
        t0 = time.monotonic()
        spec = workloads.prepare(name, seed, size, inputs)
        warmup = workloads.prepare(name, seed, "smoke", inputs)
        prepared = time.monotonic() - t0
        job = {"root": str(ROOT), "work_dir": str(run_dir), "spec": spec, "warmup": warmup,
               "seconds": seconds, "trace": trace, "setup_only": rep != measuring_rep,
               "seconds_metrics": [n for n, u in declared_metrics("per_layer").items() if u == "s"],
               "result": str(run_dir / "result.json")}
        outcome, spawned = _run_worker(job, run_dir / "job.json", give_up - time.monotonic())
        setups.append(prepared + outcome["ready_at"] - spawned)
        scaled_setups.append(setups[-1] * reference.NOMINAL_S / ref_s)
        if rep == measuring_rep:
            result = outcome
    result["setup_samples"] = setups
    result["scaled_setup_samples"] = scaled_setups
    result["spec"] = spec
    return result


def _expected_digests(name: str, size: str) -> dict | None:
    """The default seed's stored digests; expected.json is edited by hand,
    from the `digests {...}` line that every run prints."""
    path = BENCH_DIR / "expected.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get("digests", {}).get(f"{name}.{size}")


def judge(name: str, seed: int, smoke: bool, result: dict) -> list[list[str]]:
    """Per-run problems, adding digest mismatches.

    For the default seed the digests must match the stored ones; for any
    other seed every run must reproduce the digests that the first run
    with the same output names gave.  (A corr_mc run names one theta's
    ensemble.)
    """
    size = "smoke" if smoke else "full"
    expected = _expected_digests(name, size) if seed == workloads.DEFAULT_SEED else None
    if expected is None:
        expected = {}
        for digests in result["digests"]:
            expected = {**digests, **expected}
    problems = [list(p) for p in result["problems"]]
    for run_problems, digests in zip(problems, result["digests"]):
        if any(expected.get(k) != v for k, v in digests.items()):
            run_problems.append(f"output digests {digests} differ from {expected}")
    return problems


def end_to_end_metrics(result: dict, failed: int) -> dict:
    walls = result["scaled_walls"]
    rates = [items / wall for items, wall in zip(result["items"], walls) if wall > 0]
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["scaled_setup_samples"]),
        "success_rate": (result["attempted"] - failed) / result["attempted"],
    }


def run_one(args) -> int:
    # set-up, the worker and its threads all inherit this CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run_dir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems = judge(args.workload, args.seed, args.smoke, result)
    failed = sum(1 for p in problems if p)
    env = environment(args.seed)
    values = result["layers"] if args.trace else end_to_end_metrics(result, failed)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics("per_layer" if args.trace else "end_to_end").items()}

    print(f"workload {args.workload} ({workloads.UNIT_OF_WORK[args.workload]} as items), "
          f"seed {args.seed}, {'smoke' if args.smoke else 'full'} size, trace {args.trace}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"runs: {result['attempted']} attempted, {failed} failed, "
          f"error_rate {failed / result['attempted']:.4f}; "
          f"timed untraced runs {len(result['walls'])}; set-up samples {len(result['setup_samples'])}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  self times within wall on every traced run: {result['self_within_wall']}")
    else:
        print(f"  unscaled median wall {statistics.median(result['walls']):.6g} s "
              f"(wall times are scaled to the reference kernel's speed, see reference.py)")
    digests = {k: v for d in result["digests"] for k, v in d.items()}
    print(f"digests {json.dumps(digests, sort_keys=True)}")
    if result["detail"]:
        print(f"detail {json.dumps(result['detail'], sort_keys=True)}")
    for run_problems in problems:
        for problem in run_problems[:3]:
            print(f"problem: {problem.strip()}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "metrics": metrics, "samples": {"walls": result["walls"],
                                              "scaled_walls": result["scaled_walls"],
                                              "setup": result["setup_samples"],
                                              "scaled_setup": result["scaled_setup_samples"]},
              "digests": digests, "detail": result["detail"], "problems": problems,
              "spans": result.get("spans")}
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, one table; the last line sums them up."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise HarnessError(f"{name}: {proc.stderr.strip()[-2000:]}")
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':45s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in WORKLOADS))
    for metric in ["error_rate"] + names:
        if metric == "error_rate":
            cells, unit = [r["failed"] / r["attempted"] for r in rows.values()], "ratio"
        else:
            cells = [r["metrics"][metric]["value"] for r in rows.values()]
            unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        print(f"{metric:45s} {unit:6s} " + " ".join(f"{c:14.6g}" for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}.{m}": v for w, r in rows.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="workload seed (default: the seed with stored digests)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # a terminated benchmark still stops and waits for its worker (see _run_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "bnsjump" / "__init__.py").is_file():
        print(f"error: no bnsjump source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

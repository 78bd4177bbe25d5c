"""One fresh process that runs one workload: import, warm up, measure.

Usage (started by run.py): python3 worker.py JOB.json

The job file names the checkout root, the full-size and warm-up run
specs, the measuring window and where to write the result.  The worker
imports `bnsjump` from the checkout's `src/`, runs the warm-up spec once,
records the moment it is ready, and, unless the job is set-up only, runs
the full spec again and again until the window has passed.

With tracing on, the first full run is a memory probe (its timings are
dropped), then untraced and traced runs alternate, so the output gives
the tracing overhead as traced minus untraced median wall time.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference
import tracer as tracing
import workloads


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _one_run(spec: dict, out_dir: Path, tracer=None):
    """Run once; returns (wall seconds, Outcome, bytes the run wrote)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        tracer.install()
        tracer.begin()
    t0 = time.perf_counter()
    try:
        raw = workloads.execute(spec, out_dir)
        failure = None
    except SystemExit as exc:  # the CLI's argument parser exits on bad input
        failure = f"exited with code {exc.code}"
    except Exception:  # a failed run is counted, not fatal
        failure = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
    if failure is not None:
        return wall, workloads.Outcome(0, {}, [failure], {}), 0
    try:
        outcome = workloads.check(spec, out_dir, raw)
    except Exception:
        outcome = workloads.Outcome(0, {}, ["check raised: " + traceback.format_exc(limit=3)], {})
    written = _dir_bytes(out_dir) if out_dir.exists() else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall, outcome, written


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import bnsjump

    if not Path(bnsjump.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"bnsjump imported from {bnsjump.__file__}, not from {root / 'src'}")
    work = Path(job["work_dir"])
    _one_run(job["warmup"], work / "warmup_out")
    result = {"ready_at": time.monotonic()}
    if not job["setup_only"]:
        result.update(_measure(job, work / "out"))
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _measure(job: dict, out_dir: Path) -> dict:
    spec = job["spec"]
    tracer = tracing.Tracer() if job["trace"] else None
    seconds_metrics = set(job["seconds_metrics"])
    runs = []  # per timed run: wall, traced, layer metrics
    outcomes = []
    if tracer is not None:
        tracer.probe_memory = True
        _, probe, _ = _one_run(spec, out_dir, tracer)
        tracer.probe_memory = False
        outcomes.append(probe)
        rss_growth = dict(tracer.rss_growth)
    deadline = time.perf_counter() + job["seconds"]
    ref_before = reference.seconds()
    while time.perf_counter() < deadline or len(runs) < (2 if tracer else 1):
        traced = tracer is not None and len(runs) % 2 == 1
        # `run` is the run's index in the window; corr_mc takes its theta from it
        wall, outcome, written = _one_run(dict(spec, run=len(runs)), out_dir,
                                          tracer if traced else None)
        ref_after = reference.seconds()
        scaled = wall * reference.NOMINAL_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        layers = None
        if traced:
            # span seconds are scaled like the run's wall time, so they add up to it
            layers = {name: value * scaled / wall if name in seconds_metrics else value
                      for name, value in tracer.metrics().items()}
            layers["cli.bytes_written"] = float(written)
        runs.append({"wall": wall, "scaled": scaled, "traced": traced, "items": outcome.items,
                     "layers": layers})
        outcomes.append(outcome)

    untraced = [r for r in runs if not r["traced"]]
    result = {
        "walls": [r["wall"] for r in untraced],
        "scaled_walls": [r["scaled"] for r in untraced],
        "items": [r["items"] for r in untraced],
        "attempted": len(outcomes),
        "problems": [o.problems for o in outcomes],
        "digests": [o.digests for o in outcomes],
        "detail": outcomes[-1].detail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        traced_runs = [r for r in runs if r["traced"]]
        layers = {name: statistics.median(r["layers"][name] for r in traced_runs)
                  for name in traced_runs[0]["layers"]}
        layers.update(rss_growth)
        traced_wall = statistics.median(r["scaled"] for r in traced_runs)
        untraced_wall = statistics.median(result["scaled_walls"])
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        result["layers"] = layers
        result["traced_runs"] = len(traced_runs)
        result["spans"] = tracer.spans  # the last traced run's (id, parent, name, start, end)
        result["self_within_wall"] = all(
            r["layers"]["trace.self_sum_s"] <= r["scaled"] * (1 + 1e-9) for r in traced_runs)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

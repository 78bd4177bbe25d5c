"""Layer tracing for the benchmark, applied from outside the program.

`Tracer.install()` replaces the program's public functions with timing
wrappers: the attribute on the defining module, plus the names that
`bnsjump.cli` and `bnsjump.classifiers.benchmark` bind by direct import.
Nothing under `src/` is edited.  Spans live in memory and are reduced to
per-layer metrics when the traced iteration ends.

Each thread keeps its own parent stack, so spans opened by the
`classifiers.benchmark` thread pool nest correctly.  A span opened on a
thread whose stack is empty takes the iteration's root span as parent.

The worker scales every seconds-valued metric by the traced run's
reference-kernel factor (see reference.py), like the end-to-end wall_s.

Self time is wall-clock time: at every instant, the spans that have no
running child are "self-active", and the instant is split equally among
the distinct layers those spans belong to.  The per-layer self times
therefore sum to the part of the iteration's wall time that spans cover,
even when pool threads run spans at the same time.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

ALGORITHMS = ("logistic_regression", "svm_linear", "knn", "kmeans", "naive_bayes_gaussian",
              "gradient_boost", "decision_tree", "random_forest", "neural_net")
LAYERS = ("subordinators", "dynamics", "market_data", "labeling", "classifiers", "cli")
ROOT = "bench"  # the iteration's root span; its self time is harness code

_SPEED = "wall_s,items_per_s"
# Per-layer metric -> (end-to-end metrics it moves, workloads it moves them on).
# Each layer metric should stay flat on the workloads it does not name.
# Units are declared in BENCHMARK.json.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "subordinators.sample_path.s": (_SPEED, "corr_mc"),
    "subordinators.sample_path.calls": (_SPEED, "corr_mc"),
    "subordinators.events": (_SPEED, "corr_mc"),
    "dynamics.variance_path.s": (_SPEED, "corr_mc"),
    "dynamics.log_price.s": (_SPEED, "corr_mc"),
    "dynamics.noise.s": (_SPEED, "simulate_csv"),
    "dynamics.correlation.s": (_SPEED, "corr_mc"),
    "dynamics.grid_steps": (_SPEED, "corr_mc"),
    "dynamics.path_csv.s": (_SPEED, "simulate_csv"),
    "dynamics.path_csv.bytes": (_SPEED, "simulate_csv"),
    "cli.self_s": (_SPEED, "simulate_csv,ingest_year"),
    "cli.bytes_written": (_SPEED, "simulate_csv,ingest_year"),
    "market_data.load_bars.s": (_SPEED, "ingest_year"),
    "market_data.preprocess.s": (_SPEED, "ingest_year"),
    "market_data.resample.s": (_SPEED, "ingest_year"),
    "market_data.pct_change.s": (_SPEED, "ingest_year"),
    "market_data.descriptive_stats.s": (_SPEED, "ingest_year"),
    "market_data.realized_measures.s": (_SPEED, "ingest_year"),
    "market_data.writers.s": (_SPEED, "ingest_year"),
    "market_data.rows_in": (_SPEED, "ingest_year"),
    "market_data.rows_dropped": (_SPEED, "ingest_year"),
    "market_data.rows_out": (_SPEED, "ingest_year"),
    "market_data.preprocess.rss_growth_mb": ("peak_rss_mb", "ingest_year"),
    "labeling.index_series.s": (_SPEED, "ingest_year"),
    "labeling.mark_big_jumps.s": (_SPEED, "ingest_year"),
    "labeling.build_dataset.s": (_SPEED, "ingest_year"),
    "labeling.write_dataset_csv.s": (_SPEED, "ingest_year"),
    "labeling.split.s": (_SPEED, "ingest_year"),
    "labeling.marks": (_SPEED, "ingest_year"),
    "labeling.anchors": (_SPEED, "ingest_year"),
    "labeling.write_dataset_csv.bytes": (_SPEED, "ingest_year"),
    **{f"classifiers.fit.{a}.s": (_SPEED, "train_grid") for a in ALGORITHMS},
    **{f"classifiers.predict.{a}.s": (_SPEED, "train_grid") for a in ALGORITHMS},
    "classifiers.evaluate.s": (_SPEED, "train_grid"),
    "classifiers.predict.knn.rss_growth_mb": ("peak_rss_mb", "train_grid"),
    "classifiers.run_benchmark.s": (_SPEED, "train_grid"),
    "classifiers.cell_busy_s": (_SPEED, "train_grid"),
    "classifiers.overlap": (_SPEED, "train_grid"),
    "classifiers.cells": ("items_per_s", "train_grid"),
    "classifiers.degenerate": ("success_rate", "train_grid"),
    "subordinators.self_s": (_SPEED, "corr_mc"),
    "dynamics.self_s": (_SPEED, "simulate_csv,corr_mc"),
    "market_data.self_s": (_SPEED, "ingest_year"),
    "labeling.self_s": (_SPEED, "ingest_year"),
    "classifiers.self_s": (_SPEED, "train_grid"),
    "bench.self_s": ("wall_s", "corr_mc"),
    "trace.self_sum_s": ("wall_s", "all"),
    "trace.wall_s": ("wall_s", "all"),
    "trace.untraced_wall_s": ("wall_s", "all"),
    "trace.overhead_s": ("wall_s", "all"),
}
RSS_SPANS = {"market_data.preprocess": "market_data.preprocess.rss_growth_mb",
             "classifiers.predict.knn": "classifiers.predict.knn.rss_growth_mb"}


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class _RssProbe:
    """Samples this process's resident set every millisecond during one call."""

    def __init__(self):
        self.start = self.peak = _rss_mb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(0.001):
            self.peak = max(self.peak, _rss_mb())

    def finish(self) -> float:
        self._stop.set()
        self._thread.join()
        return max(self.peak, _rss_mb()) - self.start


class Tracer:
    """Collects spans and counts for one traced iteration at a time.

    With ``probe_memory`` set, calls named in RSS_SPANS also sample the
    resident set; that sampling thread slows the iteration, so the worker
    runs it as a separate probe iteration whose timings it discards.
    """

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._root: int | None = None
        self._root_start = 0.0
        self.probe_memory = False
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: list[tuple[str, float]] = []
        self.rss_growth: dict[str, float] = {}

    def _call(self, span: str, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, span, t0, t1))

    def _wrap(self, name, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            probe = _RssProbe() if tracer.probe_memory and span in RSS_SPANS else None
            pos = args[0].tell() if count is _count_dataset_bytes else 0
            try:
                result = tracer._call(span, fn, args, kwargs)
            finally:
                if probe is not None:
                    key = RSS_SPANS[span]
                    tracer.rss_growth[key] = max(tracer.rss_growth.get(key, 0.0), probe.finish())
            if count is not None:
                count(tracer.counts, args, result, pos)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module_name: str, attr: str, name, count=None):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, count))

    def install(self) -> None:
        """Wrap every traced public function; `uninstall` restores them."""
        if self._patches:
            return
        sub, dyn, md, lab = ("bnsjump.subordinators", "bnsjump.dynamics",
                             "bnsjump.market_data", "bnsjump.labeling")
        cli, api, bench = "bnsjump.cli", "bnsjump.classifiers.api", "bnsjump.classifiers.benchmark"

        for mod in (sub, cli):
            self._patch(mod, "sample_subordinator_path", "subordinators.sample_path", _count_events)
        self._patch(dyn, "simulate_variance_path", "dynamics.variance_path", _count_steps)
        self._patch(dyn, "simulate_log_price", "dynamics.log_price")
        self._patch(dyn, "apply_noise", "dynamics.noise")
        self._patch(dyn, "correlation_generalized", "dynamics.correlation")
        self._patch(dyn, "dumps_path_csv", "dynamics.path_csv", _count_csv_bytes)

        self._patch(md, "load_bars", "market_data.load_bars", _count_rows_in)
        self._patch(md, "preprocess", "market_data.preprocess", _count_rows_out)
        for fn in ("resample", "pct_change", "descriptive_stats", "realized_measures"):
            self._patch(md, fn, f"market_data.{fn}")
        for fn in ("write_stats_csv", "stats_to_json", "write_rv_csv", "rv_to_json"):
            self._patch(md, fn, "market_data.writers")

        for mod in (lab, cli):
            self._patch(mod, "index_series", "labeling.index_series")
            self._patch(mod, "mark_big_jumps", "labeling.mark_big_jumps", _count_marks)
            self._patch(mod, "build_dataset", "labeling.build_dataset", _count_anchors)
            self._patch(mod, "write_dataset_csv", "labeling.write_dataset_csv", _count_dataset_bytes)
        for mod in (lab, cli, bench):
            self._patch(mod, "split", "labeling.split")

        for mod, train_attr in ((api, "train"), (bench, "train"), (cli, "train_model")):
            self._patch(mod, train_attr, _fit_name, _count_fit)
            self._patch(mod, "predict", _predict_name)
        for mod in ("bnsjump.classifiers.metrics", bench, cli):
            self._patch(mod, "evaluate", "classifiers.evaluate")
        for mod in (bench, cli):
            self._patch(mod, "run_benchmark", "classifiers.run_benchmark")
        self._patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin(self) -> None:
        self.spans = []
        self.counts = []
        self.rss_growth = {}
        self._root = next(self._ids)
        self._root_start = time.perf_counter()

    def end(self) -> float:
        """Close the iteration's root span and return its wall seconds."""
        t1 = time.perf_counter()
        self.spans.append((self._root, None, ROOT, self._root_start, t1))
        self._root = None
        return t1 - self._root_start

    def metrics(self) -> dict[str, float]:
        """Layer metrics of the last iteration (all but the trace.* ones)."""
        out = {name: 0.0 for name in LAYER_METRICS if not name.startswith("trace.")}
        for _, _, span, t0, t1 in self.spans:
            if span not in (ROOT, "cli.main"):
                out[f"{span}.s"] = out.get(f"{span}.s", 0.0) + (t1 - t0)
        for key, value in self.counts:
            out[key] = out.get(key, 0.0) + value
        out.update(self.rss_growth)
        out["subordinators.sample_path.calls"] = float(
            sum(1 for s in self.spans if s[2] == "subordinators.sample_path"))
        out["market_data.rows_dropped"] = out["market_data.rows_in"] - out["market_data.rows_out"]
        out["classifiers.cell_busy_s"] = sum(
            t1 - t0 for _, _, span, t0, t1 in self.spans
            if span.startswith(("classifiers.fit.", "classifiers.predict.", "classifiers.evaluate")))
        run = out["classifiers.run_benchmark.s"]
        out["classifiers.overlap"] = out["classifiers.cell_busy_s"] / run if run > 0 else 0.0
        out.update(self_times(self.spans))
        out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        return {name: value for name, value in out.items() if name in LAYER_METRICS}


def self_times(spans) -> dict[str, float]:
    """Wall-clock self seconds per layer; see the module docstring."""
    layer_of = {sid: span.split(".", 1)[0] for sid, _, span, _, _ in spans}
    parent_of = {sid: parent for sid, parent, _, _, _ in spans}
    # at equal times: ends before starts, parents start first and end last
    events = sorted([(t0, 1, sid) for sid, _, _, t0, _ in spans]
                    + [(t1, 0, -sid) for sid, _, _, _, t1 in spans])
    live_children: dict[int, int] = defaultdict(int)
    live: set[int] = set()
    self_active: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    prev = events[0][0] if events else 0.0
    for t, starts, key in events:
        sid = abs(key)
        layers = [layer for layer, n in self_active.items() if n > 0]
        if layers:
            for layer in layers:
                totals[layer] += (t - prev) / len(layers)
        prev = t
        parent = parent_of[sid]
        step = 1 if starts else -1
        (live.add if starts else live.discard)(sid)
        self_active[layer_of[sid]] += step
        if parent in live:
            live_children[parent] += step
            if live_children[parent] == (1 if starts else 0):
                self_active[layer_of[parent]] -= step
    return {f"{layer}.self_s": totals.get(layer, 0.0) for layer in LAYERS + (ROOT,)}


# Counts taken from arguments and results at the call boundary.
def _count_events(counts, args, path, pos):
    counts.append(("subordinators.events", path.n_events))


def _count_steps(counts, args, var_path, pos):
    counts.append(("dynamics.grid_steps", var_path.grid.n_steps))


def _count_csv_bytes(counts, args, text, pos):
    counts.append(("dynamics.path_csv.bytes", len(text.encode("utf-8"))))


def _count_rows_in(counts, args, result, pos):
    bars, rejected = result
    counts.append(("market_data.rows_in", len(bars) + rejected))


def _count_rows_out(counts, args, result, pos):
    counts.append(("market_data.rows_out", len(result[0])))


def _count_marks(counts, args, marks, pos):
    counts.append(("labeling.marks", int(marks.sum())))


def _count_anchors(counts, args, dataset, pos):
    counts.append(("labeling.anchors", len(dataset)))


def _count_dataset_bytes(counts, args, result, pos):
    counts.append(("labeling.write_dataset_csv.bytes", args[0].tell() - pos))


def _count_fit(counts, args, model, pos):
    counts.append(("classifiers.cells", 1))
    counts.append(("classifiers.degenerate", int(model.degenerate)))


def _fit_name(args, kwargs) -> str:
    return f"classifiers.fit.{args[0] if args else kwargs['algorithm']}"


def _predict_name(args, kwargs) -> str:
    model = args[0] if args else kwargs["model"]
    return f"classifiers.predict.{model.algorithm}"

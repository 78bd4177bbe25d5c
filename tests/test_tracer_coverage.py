"""The benchmark's layer tracer sees every stage a traced run goes through.

``bench/tracer.py`` times a run by replacing functions on the modules that
define them (and on ``bnsjump.cli``).  A call that the program makes through
some other binding opens no span and adds to no count, and nothing else
would show it: the benchmark's own tests check only the metric names.  So
these runs check the counts against what the run itself reports, and that
every stage and every learner's fit and predict opened a span.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from bnsjump import cli
from bnsjump.market_data import write_bars_csv
from bnsjump.synthetic import synthetic_bars

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# every learner at a small fraction of its cost, as the benchmark's smoke runs
SMOKE_HP = ["logistic_regression.epochs=5", "svm_linear.epochs=5", "kmeans.restarts=1",
            "gradient_boost.rounds=3", "random_forest.trees=3", "neural_net.epochs=5"]
SPLITS = ["T1=0:286/287:430", "T2=0:430/431:574"]
# the spans one pipeline run opens once
ONCE = ("cli.main", "market_data.load_bars", "market_data.preprocess", "market_data.resample",
        "market_data.pct_change", "market_data.descriptive_stats",
        "market_data.realized_measures", "labeling.index_series", "labeling.mark_big_jumps",
        "labeling.build_dataset", "labeling.write_dataset_csv", "classifiers.run_benchmark")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(tracing, argv):
    """``cli.main(argv)`` under a fresh tracer: (exit code, metrics, span counts)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin()
        code = cli.main(argv)
        tracer.end()
    finally:
        tracer.uninstall()
    return code, tracer.metrics(), Counter(span for _, _, span, _, _ in tracer.spans)


@pytest.fixture(scope="module")
def bars_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bars.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_bars_csv(fh, synthetic_bars(days=3, seed=7))
    return path


def test_simulate_samples_two_subordinators_per_path(tracing, tmp_path):
    paths = 3
    code, metrics, spans = traced(tracing, ["simulate", "--out", str(tmp_path / "sim"),
                                            "--paths", str(paths), "--dt", "0.01",
                                            "--noise-std", "0.01", "--threads", "1"])
    assert code == cli.EXIT_OK
    assert metrics["subordinators.sample_path.calls"] == 2 * paths
    assert spans["subordinators.sample_path"] == 2 * paths
    for span in ("dynamics.variance_path", "dynamics.log_price", "dynamics.noise",
                 "dynamics.path_csv"):
        assert spans[span] == paths, span
    assert metrics["dynamics.path_csv.bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "sim" / "paths").iterdir())
    assert metrics["dynamics.grid_steps"] == 100 * paths


def test_pipeline_counts_equal_what_the_run_reports(tracing, tmp_path, bars_csv):
    out = tmp_path / "pipe"
    argv = ["pipeline", "--input", str(bars_csv), "--out", str(out), "--interval", "1",
            "--min-jumps", "1", "--seed", "7", "--threads", "2"]
    for hp in SMOKE_HP:
        argv += ["--hp", hp]
    for split in SPLITS:
        argv += ["--split", split]
    code, metrics, spans = traced(tracing, argv)
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))

    bars = len(bars_csv.read_text(encoding="utf-8").splitlines()) - 1
    assert metrics["market_data.rows_in"] == summary["rows_loaded"] == bars == 720
    assert metrics["market_data.rows_out"] == summary["rows_after_preprocess"]
    assert metrics["labeling.marks"] == summary["n_marks"]
    assert metrics["labeling.anchors"] == summary["n_anchors"]
    assert metrics["labeling.write_dataset_csv.bytes"] == (out / "labeled.csv").stat().st_size
    algorithms = len(tracing.ALGORITHMS)
    assert metrics["classifiers.cells"] == summary["n_report_cells"] == len(SPLITS) * algorithms

    for span in ONCE:
        assert spans[span] == 1, span
    assert spans["market_data.writers"] == 4  # stats CSV and JSON, rv CSV and JSON
    assert spans["labeling.split"] == len(SPLITS)
    for algorithm in tracing.ALGORITHMS:
        assert spans[f"classifiers.fit.{algorithm}"] == len(SPLITS), algorithm
        assert spans[f"classifiers.predict.{algorithm}"] >= len(SPLITS), algorithm
    assert spans["classifiers.evaluate"] == len(SPLITS) * algorithms
    for name, value in metrics.items():
        if name.endswith(".s") and name.startswith(("market_data.", "labeling.", "classifiers.")):
            assert value > 0, name


def test_train_splits_fits_and_scores_once(tracing, tmp_path, bars_csv):
    label = tmp_path / "lab"
    assert cli.main(["label", "--input", str(bars_csv), "--out", str(label), "--interval", "1",
                     "--min-jumps", "1"]) == cli.EXIT_OK
    code, metrics, spans = traced(tracing, ["train", "--dataset", str(label / "labeled.csv"),
                                            "--out", str(tmp_path / "tr"),
                                            "--algorithm", "decision_tree",
                                            "--train", "0:286", "--test", "287:430"])
    assert code == cli.EXIT_OK
    assert metrics["classifiers.cells"] == 1
    for span in ("labeling.split", "classifiers.fit.decision_tree", "classifiers.evaluate"):
        assert spans[span] == 1, span
    assert spans["classifiers.predict.decision_tree"] >= 1

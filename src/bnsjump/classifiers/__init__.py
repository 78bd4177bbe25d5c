"""From-scratch binary classifiers and the benchmark/evaluation harness."""

from .api import (
    ALGORITHM_IDS,
    DEFAULT_HYPERPARAMS,
    Model,
    predict,
    resolve_hyperparams,
    train,
)
from .benchmark import (
    REPORT_COLUMNS,
    BenchmarkCell,
    fit_and_score,
    format_benchmark_text,
    load_external_predictions,
    run_benchmark,
    write_benchmark_csv,
)
from .metrics import ClassMetrics, ClassReport, evaluate

__all__ = [
    "ALGORITHM_IDS",
    "DEFAULT_HYPERPARAMS",
    "Model",
    "predict",
    "resolve_hyperparams",
    "train",
    "BenchmarkCell",
    "REPORT_COLUMNS",
    "fit_and_score",
    "format_benchmark_text",
    "load_external_predictions",
    "run_benchmark",
    "write_benchmark_csv",
    "ClassMetrics",
    "ClassReport",
    "evaluate",
]

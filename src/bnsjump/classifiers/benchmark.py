"""Benchmark harness: train/evaluate a suite of algorithms over index splits.

Each (split, algorithm) cell is trained with a seed derived from
(master_seed, split position, algorithm position), so a cell's report
depends on nothing but its own inputs; the cells run one by one, in
order, on the calling thread.  Externally
produced prediction files (``index,predicted_theta`` CSV) are scored
through the same evaluator under the pseudo-algorithm ``external:<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tables
from ..errors import InvalidParameterError, ParseError
from ..labeling import LabeledDataset, SplitSpec, split
from .api import ALGORITHM_IDS, predict, resolve_hyperparams, train
from .metrics import ClassReport, evaluate

REPORT_COLUMNS = ["algorithm", "precision0", "recall0", "f1_0", "support0",
                  "precision1", "recall1", "f1_1", "support1"]


@dataclass(frozen=True)
class BenchmarkCell:
    split_name: str
    algorithm: str
    report: ClassReport | None
    hyperparams: dict
    degenerate: bool


def load_external_predictions(source) -> dict[int, int]:
    """Read an ``index,predicted_theta`` CSV, from a path or a text file, into
    an index -> label map; a malformed file or a repeated index raises
    ParseError naming its line."""
    out: dict[int, int] = {}
    with tables.csv_rows(source, ("index", "predicted_theta")) as (_, rows):
        for row in rows:
            try:
                index, theta = int(row[0]), int(row[1])
            except ValueError:
                raise ParseError(f"non-integer field in {','.join(row)!r}") from None
            if theta not in (0, 1):
                raise ParseError(f"predicted_theta must be 0 or 1, got {theta}")
            if index in out:
                raise ParseError(f"index {index} repeated")
            out[index] = theta
    return out


def _score_external(name: str, predictions: dict[int, int], test: LabeledDataset) -> ClassReport:
    missing = [int(i) for i in test.anchor_index if int(i) not in predictions]
    if missing:
        raise InvalidParameterError(
            f"external predictions {name!r} missing {len(missing)} test indices (first: {missing[:5]})")
    pred = np.array([predictions[int(i)] for i in test.anchor_index], dtype=int)
    return evaluate(pred, test.theta)


def fit_and_score(split_name: str, algorithm: str, train_set: LabeledDataset,
                  test_set: LabeledDataset, hyperparams: dict | None, seed) -> BenchmarkCell:
    """One cell: ``algorithm`` trained on ``train_set`` with ``seed`` and
    scored on ``test_set``; its report is None when there are no test rows."""
    model = train(algorithm, train_set, hyperparams, seed=seed)
    report = evaluate(predict(model, test_set.features), test_set.theta) if len(test_set) else None
    return BenchmarkCell(split_name=split_name, algorithm=algorithm, report=report,
                         hyperparams=model.metadata["hyperparams"], degenerate=model.degenerate)


def run_benchmark(
    dataset: LabeledDataset,
    splits: list[SplitSpec],
    algorithms: list[str] | None = None,
    hyperparams_bank: dict[str, dict] | None = None,
    seed: int = 0,
    external: dict[str, dict[int, int]] | None = None,
) -> list[BenchmarkCell]:
    """One ``fit_and_score`` cell per (split, algorithm), run in that order.

    Refuses two splits of one name and a split with no test range, and
    names the split in ``split``'s refusals.  Raises if the per-class
    supports differ across algorithms within one split; supports are a
    function of the test rows alone.
    """
    algorithms = list(algorithms) if algorithms is not None else list(ALGORITHM_IDS)
    hyperparams_bank = hyperparams_bank or {}
    external = external or {}
    if not algorithms and not external:
        raise InvalidParameterError("no algorithms and no external predictions to score")
    for alg in algorithms:
        resolve_hyperparams(alg, hyperparams_bank.get(alg))

    prepared = []
    for si, spec in enumerate(splits):
        name = spec.name or f"S{si + 1}"
        if any(name == seen for _, seen, _, _ in prepared):
            raise InvalidParameterError(f"split name {name} repeated")
        if spec.test is None:
            raise InvalidParameterError(f"split {name} has no test range")
        try:
            prepared.append((si, name, *split(dataset, spec)))
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"split {name}: {exc}") from None

    jobs = [(name, alg, train_set, test_set, hyperparams_bank.get(alg), (seed, si, ai))
            for si, name, train_set, test_set in prepared
            for ai, alg in enumerate(algorithms)]
    built_in = [fit_and_score(*job) for job in jobs]
    n = len(algorithms)
    cells = []  # each split's built-in cells, then its external rows
    for si, name, _, test_set in prepared:
        cells += built_in[si * n:(si + 1) * n]
        cells += [BenchmarkCell(split_name=name, algorithm=f"external:{ext_name}",
                                report=_score_external(ext_name, external[ext_name], test_set),
                                hyperparams={}, degenerate=False)
                  for ext_name in sorted(external)]

    by_split: dict[str, set[tuple[int, int]]] = {}
    for cell in cells:
        by_split.setdefault(cell.split_name, set()).add(cell.report.supports())
    for name, supports in by_split.items():
        if len(supports) != 1:
            raise AssertionError(f"supports differ across algorithms within split {name}: {supports}")
    return cells


def write_benchmark_csv(fileobj, cells: list[BenchmarkCell]) -> None:
    def metrics(m) -> list:
        return [tables.cell(m.precision), tables.cell(m.recall), tables.cell(m.f1), m.support]

    tables.write_rows(fileobj, ["split"] + REPORT_COLUMNS, (
        [cell.split_name, cell.algorithm, *metrics(cell.report.class0), *metrics(cell.report.class1)]
        for cell in cells))


def format_benchmark_text(cells: list[BenchmarkCell]) -> str:
    """Aligned per-split blocks with two-decimal metrics."""
    lines: list[str] = []
    split_order: list[str] = []
    for cell in cells:
        if cell.split_name not in split_order:
            split_order.append(cell.split_name)
    width = max([len(c.algorithm) for c in cells] + [len("algorithm")])
    header = (f"{'algorithm':<{width}}  "
              "precision0 recall0 f1_0 support0  precision1 recall1 f1_1 support1")
    for name in split_order:
        lines.append(f"== split {name} ==")
        lines.append(header)
        for cell in cells:
            if cell.split_name != name:
                continue
            r0, r1 = cell.report.class0, cell.report.class1
            lines.append(
                f"{cell.algorithm:<{width}}  "
                f"{r0.precision:>10.2f} {r0.recall:>7.2f} {r0.f1:>4.2f} {r0.support:>8d}  "
                f"{r1.precision:>10.2f} {r1.recall:>7.2f} {r1.f1:>4.2f} {r1.support:>8d}")
        lines.append("")
    return "\n".join(lines)

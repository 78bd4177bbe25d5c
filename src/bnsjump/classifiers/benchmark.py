"""Benchmark harness: train/evaluate a suite of algorithms over index splits.

Each (split, algorithm) cell is trained with a seed derived from
(master_seed, split position, algorithm position), so reports are
identical no matter how many workers execute the grid.  Externally
produced prediction files (``index,predicted_theta`` CSV) are scored
through the same evaluator under the pseudo-algorithm ``external:<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tables
from ..errors import InvalidParameterError, ParseError
from ..labeling import LabeledDataset, SplitSpec, split
from ..seeding import ordered_map
from .api import ALGORITHM_IDS, predict, resolve_hyperparams, train
from .metrics import ClassReport, evaluate

REPORT_COLUMNS = ["algorithm", "precision0", "recall0", "f1_0", "support0",
                  "precision1", "recall1", "f1_1", "support1"]


@dataclass(frozen=True)
class BenchmarkCell:
    split_name: str
    algorithm: str
    report: ClassReport
    hyperparams: dict


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


def run_benchmark(
    dataset: LabeledDataset,
    splits: list[SplitSpec],
    algorithms: list[str] | None = None,
    hyperparams_bank: dict[str, dict] | None = None,
    seed: int = 0,
    external: dict[str, dict[int, int]] | None = None,
    max_workers: int = 1,
) -> list[BenchmarkCell]:
    """One ClassReport per (split, algorithm), in deterministic order.

    Raises if the per-class supports differ across algorithms within one
    split; supports are a function of the test rows alone.
    """
    algorithms = list(algorithms) if algorithms is not None else list(ALGORITHM_IDS)
    hyperparams_bank = hyperparams_bank or {}
    external = external or {}
    for alg in algorithms:
        resolve_hyperparams(alg, hyperparams_bank.get(alg))

    prepared = []
    for si, spec in enumerate(splits):
        name = spec.name or f"S{si + 1}"
        train_set, test_set = split(dataset, spec)
        if len(train_set) == 0 or len(test_set) == 0:
            raise InvalidParameterError(f"split {name} produced an empty train or test set")
        prepared.append((si, name, train_set, test_set))

    def run_cell(args) -> BenchmarkCell:
        si, name, train_set, test_set, ai, alg = args
        hp = resolve_hyperparams(alg, hyperparams_bank.get(alg))
        model = train(alg, train_set, hyperparams_bank.get(alg), seed=(seed, si, ai))
        report = evaluate(predict(model, test_set.features), test_set.theta)
        return BenchmarkCell(split_name=name, algorithm=alg, report=report, hyperparams=hp)

    jobs = [(si, name, train_set, test_set, ai, alg)
            for si, name, train_set, test_set in prepared
            for ai, alg in enumerate(algorithms)]
    cells = list(ordered_map(run_cell, jobs, max_workers))

    for si, name, train_set, test_set in prepared:
        for ext_name in sorted(external):
            report = _score_external(ext_name, external[ext_name], test_set)
            cells.append(BenchmarkCell(split_name=name, algorithm=f"external:{ext_name}",
                                       report=report, hyperparams={}))
    # regroup so each split lists its built-ins then its external rows
    cells = [c for _, name, _, _ in prepared for c in cells if c.split_name == name]

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

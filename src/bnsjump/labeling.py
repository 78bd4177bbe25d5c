"""Windowed feature construction and threshold-based jump labeling.

From an indexed percent-change series, each anchor row collects the
``window_len`` consecutive returns ending at the anchor as features, and
the binary target is 1 when at least ``min_jumps`` threshold-crossing
moves occur in the strictly-future lookahead range (anchor, anchor +
lookahead].  Windows and lookaheads never span a session or day boundary;
anchors that would are dropped rather than padded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from . import tables
from .errors import InvalidParameterError, ParseError
from .market_data import ReturnSeries

log = logging.getLogger(__name__)

DIRECTIONS = ("down", "up", "both")
CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class LabelingConfig:
    """Knobs of the labeling protocol.

    threshold_pct is in the same percent units as the return series; a
    downward move of at least that magnitude is a big jump under the
    default direction.  The comparison is inclusive (>= threshold).
    """

    window_len: int = 10
    lookahead: int = 10
    threshold_pct: float = 0.1
    min_jumps: int = 2
    direction: str = "down"
    stride: int = 1

    def __post_init__(self):
        if self.window_len < 1 or self.lookahead < 1 or self.min_jumps < 1 or self.stride < 1:
            raise InvalidParameterError("window_len, lookahead, min_jumps and stride must be >= 1")
        if not 0 < self.threshold_pct < np.inf:
            raise InvalidParameterError(f"threshold_pct must be finite and > 0, got {self.threshold_pct}")
        if self.direction not in DIRECTIONS:
            raise InvalidParameterError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")


@dataclass(frozen=True)
class IndexedReturns:
    """Return rows in chronological order; a row's index is its position."""

    values: np.ndarray
    stamps: np.ndarray  # datetime64[us]
    session_key: np.ndarray  # constant within one (day, session) block

    def __len__(self) -> int:
        return len(self.values)


def index_series(returns: ReturnSeries) -> IndexedReturns:
    """The return rows with their (day, session) block keys attached."""
    return IndexedReturns(
        values=np.asarray(returns.values, dtype=float),
        stamps=returns.stamps,
        session_key=returns.session_keys(),
    )


def index_for_timestamp(indexed: IndexedReturns, ts: datetime) -> int:
    """Index of the row with exactly this timestamp (for date-based splits)."""
    if ts.tzinfo is not None:
        raise InvalidParameterError(f"no return row at {ts}: rows carry naive local time")
    point = np.datetime64(ts, "us")
    i = int(np.searchsorted(indexed.stamps, point))
    if i == len(indexed.stamps) or indexed.stamps[i] != point:
        raise InvalidParameterError(f"no return row at {ts}")
    return i


def mark_big_jumps(returns, cfg: LabelingConfig) -> np.ndarray:
    """Boolean mark per return row: does it meet the threshold move?

    down marks pct <= -threshold, up marks pct >= +threshold, both marks
    |pct| >= threshold.
    """
    v = np.asarray(returns.values, dtype=float)
    k = cfg.threshold_pct
    if cfg.direction == "down":
        return v <= -k
    if cfg.direction == "up":
        return v >= k
    return np.abs(v) >= k


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix of consecutive returns plus the binary jump target.

    source_length is the length of the indexed return series the anchors
    were drawn from; split ranges are validated against it (anchors near
    series edges do not exist, but index ranges may still cover them).
    """

    anchor_index: np.ndarray
    features: np.ndarray
    theta: np.ndarray
    source_length: int | None = None

    def __len__(self) -> int:
        return len(self.anchor_index)

    @property
    def window_len(self) -> int:
        return self.features.shape[1] if self.features.ndim == 2 else 0

    def class_counts(self) -> tuple[int, int]:
        ones = int(np.sum(self.theta == 1))
        return len(self) - ones, ones


def build_dataset(returns: IndexedReturns, marks: np.ndarray, cfg: LabelingConfig) -> LabeledDataset:
    """Assemble anchors, feature windows and targets.

    For anchor i the features are values[i-window_len+1 .. i] and theta is
    1 iff at least cfg.min_jumps marks fall in (i, i+lookahead].  An anchor
    is kept only when that whole span lies inside one (day, session) block.
    """
    n = len(returns)
    marks = np.asarray(marks, dtype=bool)
    if len(marks) != n:
        raise InvalidParameterError("marks must align with the return rows")
    if n < cfg.window_len + cfg.lookahead:
        log.warning("series of %d rows is shorter than window_len + lookahead = %d; empty dataset",
                    n, cfg.window_len + cfg.lookahead)
    prefix = np.concatenate([[0], np.cumsum(marks)])  # prefix[j] = marks in rows < j
    keys = returns.session_key
    anchors = np.arange(cfg.window_len - 1, n - cfg.lookahead, cfg.stride)
    anchors = anchors[keys[anchors - cfg.window_len + 1] == keys[anchors + cfg.lookahead]]
    counts = prefix[anchors + cfg.lookahead + 1] - prefix[anchors + 1]
    window = anchors[:, None] + np.arange(1 - cfg.window_len, 1)
    return LabeledDataset(anchor_index=anchors,
                          features=returns.values[window],
                          theta=(counts >= cfg.min_jumps).astype(int), source_length=n)


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive train/test anchor-index ranges; test may be absent."""

    train: tuple[int, int]
    test: tuple[int, int] | None = None
    name: str = ""


def split(dataset: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Partition rows by inclusive anchor-index ranges.

    Ranges live in the indexed return space: they may start before the
    first existing anchor (windowing removes early anchors) but must not
    extend past the data, and each given range must hold an anchor.
    """
    if len(dataset) == 0:
        raise InvalidParameterError("cannot split an empty dataset")
    lo_bound = 0
    if dataset.source_length is not None:
        hi_bound = dataset.source_length - 1
    else:
        hi_bound = int(dataset.anchor_index.max())

    def check(rng: tuple[int, int], label: str):
        a, b = rng
        if a > b:
            raise InvalidParameterError(f"{label} range {a}..{b} is empty or reversed")
        if a < lo_bound or b > hi_bound:
            raise InvalidParameterError(
                f"{label} range {a}..{b} outside index bounds {lo_bound}..{hi_bound}")

    check(spec.train, "train")
    if spec.test is not None:
        check(spec.test, "test")
        if spec.train[1] >= spec.test[0]:
            raise InvalidParameterError("train range must precede the test range without overlap")

    def take(rng: tuple[int, int] | None, label: str) -> LabeledDataset:
        if rng is None:
            return LabeledDataset(anchor_index=np.empty(0, dtype=int),
                                  features=np.empty((0, dataset.window_len)),
                                  theta=np.empty(0, dtype=int),
                                  source_length=dataset.source_length)
        mask = (dataset.anchor_index >= rng[0]) & (dataset.anchor_index <= rng[1])
        if not mask.any():
            raise InvalidParameterError(f"{label} range {rng[0]}..{rng[1]} selects no anchors")
        return LabeledDataset(anchor_index=dataset.anchor_index[mask],
                              features=dataset.features[mask], theta=dataset.theta[mask],
                              source_length=dataset.source_length)

    return take(spec.train, "train"), take(spec.test, "test")


def _dataset_header(window_len: int) -> list[str]:
    return ["index", *(f"f{j + 1}" for j in range(window_len)), "theta"]


def write_dataset_csv(fileobj, dataset: LabeledDataset) -> None:
    """Serialize as ``index,f1..fW,theta`` with round-trip float formatting.

    The windows of consecutive anchors overlap: a row whose first W-1
    features are, bit for bit, the previous row's last W-1 continues that
    row's run.  Each run's values are formatted once, by
    ``tables.float_lines``, into one comma-joined text, and a row is its
    index, a slice of that text and its theta; a row that continues nothing
    is a run of one.  Rows go ``CSV_CHUNK_ROWS`` at a time, and a chunk's
    first row starts a run.  No field ever needs CSV quoting.
    """
    width = dataset.window_len
    fileobj.write(",".join(_dataset_header(width)))
    fileobj.write("\n")
    for lo in range(0, len(dataset), CSV_CHUNK_ROWS):
        chunk = slice(lo, lo + CSV_CHUNK_ROWS)
        features = np.ascontiguousarray(dataset.features[chunk], dtype=float)
        bits = features.view(np.int64)
        new = np.ones((len(bits), 1), dtype=bool)
        new[1:, 0] = (bits[1:, :-1] != bits[:-1, 1:]).any(axis=1)
        adds = new | (np.arange(width) == width - 1)  # the values each row adds to its run
        text, at = tables.float_lines(features[adds])
        text = text.replace("\n", ",")
        last = np.cumsum(adds.sum(axis=1))  # one past each row's last value
        fileobj.write("".join([f"{i},{text[a:b]}{t}\n" for i, a, b, t in zip(
            dataset.anchor_index[chunk].tolist(), at[last - width].tolist(), at[last].tolist(),
            dataset.theta[chunk].tolist())]))


def _dataset_row(width: int) -> np.dtype:
    return np.dtype([("index", int), ("features", float, (width - 2,)), ("theta", int)])


def _dataset_in_bulk(table: np.ndarray) -> LabeledDataset:
    return LabeledDataset(anchor_index=table["index"].copy(), features=table["features"].copy(),
                          theta=table["theta"].copy())


def _dataset_by_row(header: list[str], rows) -> LabeledDataset:
    anchors: list[int] = []
    feats: list[list[float]] = []
    targets: list[int] = []
    for row in rows:
        try:
            anchors.append(int(row[0]))
            feats.append([float(x) for x in row[1:-1]])
            targets.append(int(row[-1]))
        except ValueError:
            raise ParseError(f"non-numeric field in {','.join(row)!r}") from None
    return LabeledDataset(anchor_index=np.array(anchors, dtype=int),
                          features=np.array(feats) if feats else np.empty((0, len(header) - 2)),
                          theta=np.array(targets, dtype=int))


def read_dataset_csv(source) -> LabeledDataset:
    """Parse what ``write_dataset_csv`` writes, from a path or a text file; a
    malformed file raises ParseError naming its line."""
    return tables.read_table(source, lambda n: _dataset_header(n - 2), _dataset_row,
                             _dataset_in_bulk, _dataset_by_row, "index,f1..fW,theta")

"""Minute-bar ingestion, preprocessing, resampling and realized-volatility measures.

The pipeline mirrors standard high-frequency practice for a two-session
equity market (default sessions 09:30-11:30 and 13:00-15:00): bars outside
the sessions are rejected at load, the first minutes after the daily open
are trimmed to absorb overnight information, zero/non-positive prices and
extreme outliers are dropped, and returns are computed strictly within
sessions so no percent change spans the lunch break or an overnight gap.

Realized measures per window:

    RV   = sum of squared returns
    BV   = (pi / 2) * sum of |r_i| * |r_{i-1}| over adjacent in-session pairs
    jump = max(RV - BV, 0)
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import warnings
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidParameterError, OrderingError, ParseError

log = logging.getLogger(__name__)

BV_SCALE = math.pi / 2.0  # 1 / mu_1^2 for the absolute first moment of a standard normal
_EPOCH = datetime(1970, 1, 1)  # zero of datetime64
_EPOCH_DAY = _EPOCH.toordinal()
_MICROSECOND = timedelta(microseconds=1)
_MINUTE = np.timedelta64(1, "m")


def _parse_session(text: str) -> tuple[time, time]:
    try:
        lo, hi = text.strip().split("-")
        return time.fromisoformat(lo.strip()), time.fromisoformat(hi.strip())
    except ValueError as exc:
        raise InvalidParameterError(f"bad session spec {text!r}: {exc}") from None


@dataclass(frozen=True)
class SessionCalendar:
    """Ordered, non-overlapping intraday trading sessions (open, close)."""

    sessions: tuple[tuple[time, time], ...] = (
        (time(9, 30), time(11, 30)),
        (time(13, 0), time(15, 0)),
    )

    def __post_init__(self):
        prev_close = None
        for open_t, close_t in self.sessions:
            if close_t <= open_t:
                raise InvalidParameterError(f"session close {close_t} not after open {open_t}")
            if prev_close is not None and open_t < prev_close:
                raise InvalidParameterError("sessions overlap or are out of order")
            prev_close = close_t

    @classmethod
    def from_spec(cls, spec: str) -> "SessionCalendar":
        """Parse a calendar from a spec like ``09:30-11:30,13:00-15:00``."""
        sessions = tuple(_parse_session(part) for part in spec.split(",") if part.strip())
        if not sessions:
            raise InvalidParameterError("calendar spec contains no sessions")
        return cls(sessions=sessions)

    def to_spec(self) -> str:
        return ",".join(f"{o.strftime('%H:%M')}-{c.strftime('%H:%M')}" for o, c in self.sessions)

    def bounds(self) -> np.ndarray:
        """(open, close) of every session as an offset from midnight, timedelta64[us]."""
        return np.array([[datetime.combine(date.min, t) - datetime.min for t in session]
                         for session in self.sessions], dtype="timedelta64[us]")

    def session_indices(self, stamps: np.ndarray) -> np.ndarray:
        """Index of the session containing each datetime64 stamp (inclusive ends), -1 outside
        all.  Sessions are ordered, so only the first one closing at or after it can hold it."""
        opens, closes = self.bounds().T
        time_of_day = stamps - stamps.astype("datetime64[D]")
        i = np.searchsorted(closes, time_of_day)
        candidate = np.minimum(i, len(closes) - 1)
        return np.where((i < len(closes)) & (opens[candidate] <= time_of_day), i, -1)


def _minute_of_day(stamps: np.ndarray) -> np.ndarray:
    return (stamps - stamps.astype("datetime64[D]")) // _MINUTE


def _to_stamps(datetimes: Iterable[datetime]) -> np.ndarray:
    """Naive datetimes as datetime64[us], exactly.  Aware ones are refused: numpy
    would shift them to UTC and so move bars between sessions."""
    try:
        micros = np.fromiter(((ts - _EPOCH) // _MICROSECOND for ts in datetimes), dtype=np.int64)
    except TypeError:
        raise InvalidParameterError("timestamps must be naive local datetimes") from None
    return micros.view("datetime64[us]")


def _block_starts(series) -> np.ndarray:
    """True at every row that opens a (day, session) block."""
    starts = np.ones(len(series), dtype=bool)
    starts[1:] = (series.day[1:] != series.day[:-1]) | (series.session[1:] != series.session[:-1])
    return starts


def _runs(key: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of every run of equal consecutive values in ``key``."""
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    return list(zip(cuts[:-1], cuts[1:])) if len(key) else []


def _groups(series, by: str) -> list[tuple[str, int, int]]:
    """(label, start, stop) per day, per month or ("overall") of the whole series."""
    if by == "overall":
        return [("overall", 0, len(series))] if len(series) else []
    period = series.stamps.astype("datetime64[D]" if by == "day" else "datetime64[M]")
    runs = _runs(period)
    labels = np.datetime_as_string(period[[lo for lo, _ in runs]]).tolist()
    return [(label, lo, hi) for label, (lo, hi) in zip(labels, runs)]


class _Stamped:
    """Views derived from a series' ``stamps``: naive local datetime64[us] per row."""

    def __len__(self) -> int:
        return len(self.stamps)

    @property
    def day(self) -> np.ndarray:
        """Proleptic day ordinal per row, as ``date.toordinal`` gives it."""
        return self.stamps.astype("datetime64[D]").astype(np.int64) + _EPOCH_DAY

    @property
    def timestamps(self) -> tuple[datetime, ...]:
        return tuple(self.stamps.tolist())


@dataclass(frozen=True)
class BarSeries(_Stamped):
    """Close prices with their stamps, tagged with session."""

    stamps: np.ndarray
    closes: np.ndarray
    session: np.ndarray  # session index per row
    calendar: SessionCalendar

    @classmethod
    def build(cls, timestamps: Iterable[datetime], closes: Iterable[float],
              calendar: SessionCalendar) -> "BarSeries":
        stamps = _to_stamps(timestamps)
        values = np.asarray(list(closes), dtype=float)
        if len(stamps) != len(values):
            raise InvalidParameterError("timestamps and closes differ in length")
        later = np.flatnonzero(stamps[1:] <= stamps[:-1])
        if len(later):
            raise OrderingError(f"timestamps not strictly increasing at {stamps[later[0] + 1].item()}")
        session = calendar.session_indices(stamps)
        outside = np.flatnonzero(session < 0)
        if len(outside):
            raise InvalidParameterError(f"bar at {stamps[outside[0]].item()} falls outside every session")
        return cls(stamps=stamps, closes=values, session=session, calendar=calendar)

    def select(self, mask: np.ndarray) -> "BarSeries":
        return BarSeries(stamps=self.stamps[mask], closes=self.closes[mask],
                         session=self.session[mask], calendar=self.calendar)


@dataclass(frozen=True)
class ReturnSeries(_Stamped):
    """Consecutive within-session percent changes, 100 * (P_k - P_{k-1}) / P_{k-1}."""

    stamps: np.ndarray
    values: np.ndarray
    session: np.ndarray

    def session_keys(self) -> np.ndarray:
        """Integer id per row, constant exactly within one (day, session) block."""
        return np.cumsum(_block_starts(self)) - 1


def _open_text(source) -> io.TextIOBase:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.BytesIO) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        return io.TextIOWrapper(source, encoding="utf-8")
    return source


def _parse_stamps(texts: list[str]) -> np.ndarray:
    """datetime64[us] of texts ``datetime.fromisoformat`` read as naive.  numpy parses the
    common ISO forms at once; it fails (or first warns of a timezone) on the rest."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.array(texts, dtype="datetime64[us]")
    except (ValueError, Warning):
        return _to_stamps(datetime.fromisoformat(text) for text in texts)


def load_bars(source, calendar: SessionCalendar | None = None) -> tuple[BarSeries, int]:
    """Parse a ``timestamp,close`` CSV of naive local timestamps into a BarSeries.

    Rows outside the calendar sessions are rejected (their count is
    returned); malformed or timezone-aware rows raise ParseError with the
    line number and non-monotone timestamps raise OrderingError.
    """
    calendar = calendar or SessionCalendar()
    fh = _open_text(source)
    close_after = isinstance(source, (str, Path))
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file, expected header 'timestamp,close'", 1) from None
        if [h.strip().lower() for h in header] != ["timestamp", "close"]:
            raise ParseError(f"expected header 'timestamp,close', got {','.join(header)!r}", 1)
        texts: list[str] = []
        closes: list[float] = []
        prev: datetime | None = None
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", line_no)
            text = row[0].strip()
            try:
                ts = datetime.fromisoformat(text)
            except ValueError:
                raise ParseError(f"bad timestamp {row[0]!r}", line_no) from None
            if ts.tzinfo is not None:
                raise ParseError(f"timezone-aware timestamp {row[0]!r}", line_no)
            try:
                close = float(row[1])
            except ValueError:
                raise ParseError(f"bad close {row[1]!r}", line_no) from None
            if not math.isfinite(close):
                raise ParseError(f"non-finite close {row[1]!r}", line_no)
            if prev is not None and ts <= prev:
                raise OrderingError(f"line {line_no}: timestamp {ts} not after {prev}")
            prev = ts
            texts.append(text)
            closes.append(close)
    finally:
        if close_after:
            fh.close()
    stamps = _parse_stamps(texts)
    session = calendar.session_indices(stamps)
    kept = session >= 0
    series = BarSeries(stamps=stamps[kept], closes=np.array(closes, dtype=float)[kept],
                       session=session[kept], calendar=calendar)
    return series, len(stamps) - len(series)


OutlierPolicy = Callable[[BarSeries], np.ndarray]


def _changes(series: BarSeries) -> tuple[np.ndarray, np.ndarray]:
    """Rows that follow a bar of their own (day, session) block whose close
    is not <= 0, and their percent changes from that bar."""
    c = series.closes
    rows = np.flatnonzero(~_block_starts(series)[1:] & ~(c[:-1] <= 0)) + 1
    return rows, 100.0 * (c[rows] - c[rows - 1]) / c[rows - 1]


def sigma_outlier_policy(threshold: float = 10.0) -> OutlierPolicy:
    """Flag bars whose within-session 1-bar percent change exceeds
    ``threshold`` standard deviations of that day's changes."""
    def policy(series: BarSeries) -> np.ndarray:
        mask = np.zeros(len(series), dtype=bool)
        changes = np.full(len(series), np.nan)
        rows, values = _changes(series)
        changes[rows] = values
        for lo, hi in _runs(series.day):
            day_changes = changes[lo:hi]
            finite = np.isfinite(day_changes)
            if finite.sum() < 2:
                continue
            sd = float(np.std(day_changes[finite]))
            if sd == 0.0:
                continue
            mask[lo:hi] = finite & (np.abs(day_changes) > threshold * sd)
        return mask

    policy.description = f"drop bars with |1-bar pct change| > {threshold} x same-day std"
    return policy


def preprocess(series: BarSeries, trim_minutes: int = 10,
               outlier_policy: OutlierPolicy | None = sigma_outlier_policy(),
               trim_reopen: bool = False) -> tuple[BarSeries, float]:
    """Apply opening-window trimming and bad-data removal.

    Per trading day, bars within ``trim_minutes`` of the daily open are
    dropped (the afternoon reopen is only trimmed with ``trim_reopen``);
    zero/non-positive closes are dropped; bars flagged by the outlier
    policy are dropped.  Returns the cleaned series and the fraction of
    rows removed.
    """
    if trim_minutes < 0:
        raise InvalidParameterError(f"trim_minutes must be >= 0, got {trim_minutes}")
    n = len(series)
    if n == 0:
        return series, 0.0
    open_minute = series.calendar.bounds()[:, 0] // _MINUTE
    drop = ((_minute_of_day(series.stamps) - open_minute[series.session] <= trim_minutes)
            & ((series.session == 0) | trim_reopen))
    drop |= series.closes <= 0.0
    if outlier_policy is not None:
        flagged = outlier_policy(series) & ~drop
        if flagged.any():
            log.info("outlier policy (%s) removed %d bars",
                     getattr(outlier_policy, "description", "custom"), int(flagged.sum()))
        drop |= flagged
    cleaned = series.select(~drop)
    return cleaned, float(drop.sum()) / n


def resample(series: BarSeries, interval_minutes: int) -> BarSeries:
    """Last close per ``interval_minutes`` bucket of cumulative trading minutes.

    A position counts minutes since the session's open plus every earlier
    session's full length, so buckets align with sessions whenever the
    interval divides the session length; a full-day interval yields the
    daily close.
    """
    if interval_minutes <= 0:
        raise InvalidParameterError(f"interval must be positive, got {interval_minutes}")
    if interval_minutes == 1 or len(series) == 0:
        return series
    open_minute, close_minute = (series.calendar.bounds() // _MINUTE).T
    length = close_minute - open_minute
    offset = np.cumsum(length) - length - open_minute  # position = minute of day + offset
    position = _minute_of_day(series.stamps) + offset[series.session]
    bucket = -(-position // interval_minutes)  # ceil division
    last = np.ones(len(series), dtype=bool)
    last[:-1] = (series.day[1:] != series.day[:-1]) | (bucket[1:] != bucket[:-1])
    return series.select(last)


def pct_change(series: BarSeries) -> ReturnSeries:
    """Consecutive percent changes within each (day, session) block.

    The first bar of every session emits no return, so no change spans the
    lunch break or an overnight gap.
    """
    rows, values = _changes(series)
    return ReturnSeries(stamps=series.stamps[rows], values=values, session=series.session[rows])


@dataclass(frozen=True)
class StatsReport:
    """Descriptive statistics of one group of closes.

    Skewness is the adjusted Fisher-Pearson estimator and kurtosis is
    excess (normal = 0); on a constant group skewness is reported as 0 and
    kurtosis as NaN.
    """

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    skewness: float
    excess_kurtosis: float


def _skew_kurt(x: np.ndarray) -> tuple[float, float]:
    n = len(x)
    m = x.mean()
    m2 = float(np.mean((x - m) ** 2))
    if m2 == 0.0:
        return 0.0, float("nan")
    g1 = float(np.mean((x - m) ** 3)) / m2**1.5
    g2 = float(np.mean((x - m) ** 4)) / m2**2 - 3.0
    skew = g1 * math.sqrt(n * (n - 1)) / (n - 2) if n > 2 else float("nan")
    kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3)) if n > 3 else float("nan")
    return skew, kurt


def descriptive_stats(series: BarSeries, group_by: str = "overall") -> dict[str, StatsReport]:
    """Count/mean/median/min/max/skewness/excess-kurtosis of the closes,
    either for the whole series or per calendar month."""
    if group_by not in ("overall", "month"):
        raise InvalidParameterError(f"group_by must be 'overall' or 'month', got {group_by!r}")
    reports: dict[str, StatsReport] = {}
    for key, lo, hi in _groups(series, group_by):
        x = series.closes[lo:hi]
        skew, kurt = _skew_kurt(x)
        reports[key] = StatsReport(
            count=len(x), mean=float(x.mean()), median=float(np.median(x)),
            minimum=float(x.min()), maximum=float(x.max()),
            skewness=skew, excess_kurtosis=kurt,
        )
    return reports


@dataclass(frozen=True)
class RVSeries:
    """Per-window realized volatility decomposition.

    bipower and jump are NaN when a window has no adjacent in-session
    return pair to estimate from.
    """

    labels: tuple[str, ...]
    window_end: tuple[datetime, ...]
    realized_volatility: np.ndarray
    bipower_variation: np.ndarray
    jump_component: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def realized_measures(returns: ReturnSeries, window: str = "day") -> RVSeries:
    """RV, bipower variation and the jump component per day or month.

    Adjacent |r_i| * |r_{i-1}| products only pair returns from the same
    session, so the estimator never multiplies across the lunch break.
    """
    if window not in ("day", "month"):
        raise InvalidParameterError(f"window must be 'day' or 'month', got {window!r}")
    groups = _groups(returns, window)
    v = returns.values
    pairs = np.abs(v[:-1]) * np.abs(v[1:])  # |r_{i-1}| * |r_i| for every adjacent row pair
    paired = ~_block_starts(returns)[1:]
    rv = np.array([np.sum(v[lo:hi] ** 2) for _, lo, hi in groups], dtype=float)
    bv = np.full(len(groups), np.nan)
    for g, (_, lo, hi) in enumerate(groups):
        pair_terms = pairs[lo:hi - 1][paired[lo:hi - 1]]
        if len(pair_terms):
            bv[g] = BV_SCALE * float(np.sum(pair_terms))
    return RVSeries(labels=tuple(key for key, _, _ in groups),
                    window_end=tuple(returns.stamps[[hi - 1 for _, _, hi in groups]].tolist()),
                    realized_volatility=rv, bipower_variation=bv,
                    jump_component=np.maximum(rv - bv, 0.0))  # NaN where bv is NaN


STATS_CSV_HEADER = ["group", "count", "mean", "median", "minimum", "maximum",
                    "skewness", "excess_kurtosis"]
RV_CSV_HEADER = ["window", "window_end", "realized_volatility", "bipower_variation",
                 "jump_component"]


def _fmt(x: float) -> str:
    return "" if isinstance(x, float) and math.isnan(x) else repr(float(x))


def write_stats_csv(fileobj, reports: dict[str, StatsReport]) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(STATS_CSV_HEADER)
    for key in sorted(reports):
        r = reports[key]
        writer.writerow([key, r.count, _fmt(r.mean), _fmt(r.median), _fmt(r.minimum),
                         _fmt(r.maximum), _fmt(r.skewness), _fmt(r.excess_kurtosis)])


def stats_to_json(reports: dict[str, StatsReport]) -> str:
    payload = {
        key: {
            "count": r.count, "mean": r.mean, "median": r.median,
            "minimum": r.minimum, "maximum": r.maximum,
            "skewness": r.skewness,
            "excess_kurtosis": None if math.isnan(r.excess_kurtosis) else r.excess_kurtosis,
        }
        for key, r in reports.items()
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_rv_csv(fileobj, rv: RVSeries) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(RV_CSV_HEADER)
    for i in range(len(rv)):
        writer.writerow([
            rv.labels[i], rv.window_end[i].isoformat(sep=" "),
            _fmt(rv.realized_volatility[i]), _fmt(rv.bipower_variation[i]),
            _fmt(rv.jump_component[i]),
        ])


def rv_to_json(rv: RVSeries) -> str:
    def opt(x: float):
        return None if math.isnan(x) else float(x)

    payload = {
        rv.labels[i]: {
            "window_end": rv.window_end[i].isoformat(sep=" "),
            "realized_volatility": float(rv.realized_volatility[i]),
            "bipower_variation": opt(rv.bipower_variation[i]),
            "jump_component": opt(rv.jump_component[i]),
        }
        for i in range(len(rv))
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_bars_csv(fileobj, series: BarSeries) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["timestamp", "close"])
    for ts, close in zip(series.timestamps, series.closes):
        writer.writerow([ts.isoformat(sep=" "), repr(float(close))])

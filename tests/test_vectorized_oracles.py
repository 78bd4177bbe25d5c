"""Randomized exact-equality checks of the columnar data and labeling
stages against the row-by-row loops in brute_force.py."""

import io
import sys
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from bnsjump import labeling
from bnsjump.labeling import (
    LabeledDataset,
    LabelingConfig,
    build_dataset,
    index_series,
    mark_big_jumps,
    write_dataset_csv,
)
from bnsjump.market_data import (
    BarSeries,
    SessionCalendar,
    descriptive_stats,
    load_bars,
    pct_change,
    preprocess,
    realized_measures,
    resample,
    sigma_outlier_policy,
)
from bnsjump.synthetic import session_minutes, synthetic_bars

from brute_force import (
    brute_force_build_dataset,
    brute_force_descriptive_stats,
    brute_force_drop_mask,
    brute_force_outlier_mask,
    brute_force_pct_change,
    brute_force_realized_measures,
    brute_force_resample,
    brute_force_session_index,
    brute_force_session_keys,
    brute_force_write_dataset_csv,
)

CALENDARS = (SessionCalendar(), SessionCalendar.from_spec("09:30-11:30,13:00-14:00,14:00-15:00"))


def same(got, want) -> bool:
    """Equal dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def random_bars(rng, calendar) -> BarSeries:
    """0-6 days spread over three months.  Days are dense, sparse (single-bar
    sessions, fewer than two changes) or constant (zero std of changes);
    closes include zeros, negatives and spikes."""
    stamps, closes = [], []
    price = 100.0
    for d in range(int(rng.integers(0, 7))):
        minutes = session_minutes(calendar, date(2021, 1, 20) + timedelta(days=11 * d))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            rows = np.sort(rng.choice(len(minutes), size=int(rng.integers(1, 4)), replace=False))
        else:
            rows = np.flatnonzero(rng.uniform(size=len(minutes)) < rng.uniform(0.05, 1.0))
        for j in rows:
            close = price
            if kind != 1:  # kind 1 is a constant day
                price *= 1.0 + rng.normal(0.0, 0.002)
                u = rng.uniform()
                close = 0.0 if u < 0.03 else -price if u < 0.05 else 1.5 * price if u < 0.07 else price
            stamps.append(minutes[j])
            closes.append(close)
    return BarSeries.build(stamps, closes, calendar)


def random_series(seed, count):
    rng = np.random.default_rng(seed)
    for k in range(count):
        yield rng, random_bars(rng, CALENDARS[k % 2])
    yield rng, synthetic_bars(days=3, seed=seed)


@pytest.mark.parametrize("calendar", CALENDARS)
def test_session_lookup_and_load_bars(calendar):
    rng = np.random.default_rng(1)
    stamps = {datetime(2021, 1, 4, h, m, s) for h, m, s in
              [(9, 30, 0), (11, 30, 0), (11, 30, 1), (13, 0, 0), (14, 0, 0), (15, 0, 0), (15, 0, 1)]}
    for _ in range(400):
        stamps.add(datetime(2021, 1, 4, int(rng.integers(8, 16)), int(rng.integers(0, 60)),
                            int(rng.choice([0, 0, 0, 59])), int(rng.choice([0, 0, 1]))))
    stamps = sorted(stamps)
    want = [brute_force_session_index(calendar, ts) for ts in stamps]
    got = calendar.session_indices(np.array(stamps, dtype="datetime64[us]"))
    assert got.tolist() == [-1 if i is None else i for i in want]
    assert len(calendar.session_indices(np.array([], dtype="datetime64[us]"))) == 0

    # 'T' and space separators, minutes only, seconds, 3- and 6-digit fractions
    texts = [render(ts, int(rng.integers(0, 5))) for ts in stamps]
    routes = [texts]
    if sys.version_info >= (3, 11):  # a compact time makes numpy fail: the whole file goes row by row
        routes.append(texts[:-1] + [stamps[-1].strftime("%Y-%m-%dT%H%M%S.%f")])
    for rows in routes:
        text = "timestamp,close\n" + "".join(f"{t},{k + 1}.5\n" for k, t in enumerate(rows))
        series, rejected = load_bars(io.StringIO(text), calendar)
        kept = [k for k, i in enumerate(want) if i is not None]
        assert rejected == len(stamps) - len(kept)
        assert series.stamps.dtype == np.dtype("datetime64[us]")
        assert series.timestamps == tuple(datetime.fromisoformat(rows[k]) for k in kept)
        assert series.timestamps == tuple(stamps[k] for k in kept)
        assert same(series.closes, np.array([k + 1.5 for k in kept]))
        assert same(series.session, np.array([want[k] for k in kept], dtype=int))
        assert same(series.day, np.array([ts.toordinal() for ts in series.timestamps], dtype=np.int64))


def render(ts: datetime, form: int) -> str:
    """``ts`` as one of several ISO-8601 texts of the same instant."""
    if form == 1 and ts.microsecond == 0:
        return ts.isoformat(sep="T", timespec="seconds" if ts.second else "minutes")
    if form == 2 and ts.microsecond % 1000 == 0:
        return ts.isoformat(sep=" ", timespec="milliseconds")
    if form == 3:
        return ts.isoformat(sep="T", timespec="microseconds")
    return ts.isoformat(sep=" ")


def test_outlier_policy_and_preprocess():
    for rng, series in random_series(2, 60):
        for threshold in (1.0, 3.0, 10.0):
            assert same(sigma_outlier_policy(threshold)(series),
                        brute_force_outlier_mask(series, threshold))
        trim = int(rng.choice([0, 1, 10, 30]))
        threshold = [None, 2.0, 10.0][int(rng.integers(0, 3))]
        policy = None if threshold is None else sigma_outlier_policy(threshold)
        for trim_reopen in (False, True):
            cleaned, rate = preprocess(series, trim, policy, trim_reopen)
            keep = ~brute_force_drop_mask(series, trim, threshold, trim_reopen)
            assert cleaned.timestamps == tuple(ts for ts, k in zip(series.timestamps, keep) if k)
            assert same(cleaned.closes, series.closes[keep])
            assert same(cleaned.session, series.session[keep])
            assert same(cleaned.stamps, series.stamps[keep])
            assert same(cleaned.day, series.day[keep])
            assert rate == (float((~keep).sum()) / len(series) if len(series) else 0.0)


@pytest.mark.parametrize("interval", [5, 7, 30, 50, 240, 1000])
def test_resample(interval):
    """Intervals that divide the sessions, that do not (7, 50), a full
    two-session day (240) and more than a day; series include empty ones."""
    for _, series in random_series(6, 30):
        sampled = resample(series, interval)
        rows = brute_force_resample(series, interval)
        assert sampled.timestamps == tuple(series.timestamps[i] for i in rows)
        assert same(sampled.closes, series.closes[rows])
        assert same(sampled.session, series.session[rows])
        assert same(sampled.day, series.day[rows])
    empty = BarSeries.build([], [], SessionCalendar())
    assert len(resample(empty, interval)) == 0


def test_pct_change_and_session_keys():
    for _, series in random_series(3, 60):
        returns = pct_change(series)
        stamps, values, sessions = brute_force_pct_change(series)
        assert returns.timestamps == stamps
        assert same(returns.values, values)
        assert same(returns.session, sessions)
        assert same(returns.day, np.array([ts.toordinal() for ts in stamps], dtype=np.int64))
        assert same(returns.session_keys(), brute_force_session_keys(stamps, sessions))
        assert same(index_series(returns).session_key, brute_force_session_keys(stamps, sessions))


@pytest.mark.parametrize("window", ["day", "month"])
def test_realized_measures(window):
    for _, series in random_series(4, 60):
        returns = pct_change(preprocess(series, trim_minutes=0, outlier_policy=None)[0])
        got = realized_measures(returns, window)
        labels, ends, rv, bv, jump = brute_force_realized_measures(returns, window)
        assert got.labels == labels
        assert got.window_end == ends
        assert same(got.realized_volatility, rv)
        assert same(got.bipower_variation, bv)
        assert same(got.jump_component, jump)


@pytest.mark.parametrize("group_by", ["overall", "month"])
def test_descriptive_stats(group_by):
    for _, series in random_series(5, 60):
        got = descriptive_stats(series, group_by)
        want = brute_force_descriptive_stats(series, group_by)
        assert list(got) == list(want)
        assert repr(got) == repr(want)


def test_build_dataset_and_csv(monkeypatch):
    monkeypatch.setattr(labeling, "CSV_CHUNK_ROWS", 7)  # many chunk boundaries
    for rng, series in random_series(6, 60):
        indexed = index_series(pct_change(series))
        cfg = LabelingConfig(window_len=int(rng.integers(1, 12)), lookahead=int(rng.integers(1, 12)),
                             threshold_pct=0.1, min_jumps=int(rng.integers(1, 3)),
                             direction=str(rng.choice(["down", "up", "both"])),
                             stride=int(rng.choice([1, 1, 2, 5])))
        marks = mark_big_jumps(indexed, cfg)
        dataset = build_dataset(indexed, marks, cfg)
        anchors, features, theta = brute_force_build_dataset(indexed, marks, cfg)
        assert same(dataset.anchor_index, anchors)
        assert same(dataset.features, features)
        assert same(dataset.theta, theta)
        assert dataset.source_length == len(indexed)
        got, want = io.StringIO(), io.StringIO()
        write_dataset_csv(got, dataset)
        brute_force_write_dataset_csv(want, dataset)
        assert got.getvalue() == want.getvalue()


def test_empty_and_too_short_series():
    calendar = SessionCalendar()
    empty = BarSeries.build([], [], calendar)
    one = BarSeries.build([datetime(2021, 1, 4, 9, 45)], [5000.0], calendar)
    for series in (empty, one):
        assert same(sigma_outlier_policy()(series), brute_force_outlier_mask(series, 10.0))
        returns = pct_change(series)
        assert len(returns) == 0
        assert same(returns.values, brute_force_pct_change(series)[1])
        assert same(returns.session_keys(), np.zeros(0, dtype=int))
        assert len(realized_measures(returns)) == 0
        assert len(realized_measures(returns, "month")) == 0
        assert repr(descriptive_stats(series, "month")) == repr(
            brute_force_descriptive_stats(series, "month"))
        dataset = build_dataset(index_series(returns), np.zeros(0, dtype=bool), LabelingConfig())
        assert same(dataset.features, np.empty((0, 10)))
        assert same(dataset.anchor_index, np.empty(0, dtype=int))
    assert repr(descriptive_stats(one)) == repr(brute_force_descriptive_stats(one, "overall"))
    short = index_series(pct_change(synthetic_bars(days=1, seed=1)))
    cfg = LabelingConfig(window_len=100, lookahead=100)
    dataset = build_dataset(short, mark_big_jumps(short, cfg), cfg)
    assert same(dataset.features, np.empty((0, 100)))
    for ds in (dataset, LabeledDataset(anchor_index=np.empty(0, dtype=int),
                                       features=np.empty((0, 3)), theta=np.empty(0, dtype=int))):
        got, want = io.StringIO(), io.StringIO()
        write_dataset_csv(got, ds)
        brute_force_write_dataset_csv(want, ds)
        assert got.getvalue() == want.getvalue()


def test_dataset_csv_special_values(monkeypatch):
    monkeypatch.setattr(labeling, "CSV_CHUNK_ROWS", 2)
    values = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 1e-300],
                       [0.1, 0.1, -0.0], [5e-324, 1e16, 2.5]])
    for features in (values, values[:, ::2], np.arange(12).reshape(4, 3)):
        dataset = LabeledDataset(anchor_index=np.arange(4) + 3, features=features,
                                 theta=np.array([0, 1, 1, 0]))
        got, want = io.StringIO(), io.StringIO()
        write_dataset_csv(got, dataset)
        brute_force_write_dataset_csv(want, dataset)
        assert got.getvalue() == want.getvalue()

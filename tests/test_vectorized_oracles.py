"""Randomized exact-equality checks of the columnar data and labeling
stages, the path CSV writer, the variance recursions and the path kernels
against the row-by-row loops and older forms in brute_force.py."""

import io
import json
import sys
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from bnsjump import dynamics, labeling, tables
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
    ReturnSeries,
    SessionCalendar,
    descriptive_stats,
    load_bars,
    outlier_mask,
    pct_change,
    preprocess,
    realized_measures,
    resample,
    rv_to_json,
    write_bars_csv,
    write_rv_csv,
)
from bnsjump.subordinators import (
    JumpPath,
    SubordinatorSpec,
    TimeGrid,
    combine_paths,
    realized_jump_energy,
    sample_subordinator_path,
)
from bnsjump.synthetic import session_minutes, synthetic_bars

from brute_force import (
    assert_same_text,
    brute_force_build_dataset,
    brute_force_combine_paths,
    brute_force_correlation_generalized,
    brute_force_cumulative_on_grid,
    brute_force_descriptive_stats,
    brute_force_drop_mask,
    brute_force_euler_log_price,
    brute_force_euler_variance,
    brute_force_grid_times,
    brute_force_integrate_variance,
    brute_force_jump_energy,
    brute_force_ou_accumulate,
    brute_force_outlier_mask,
    brute_force_pct_change,
    brute_force_realized_measures,
    brute_force_resample,
    brute_force_session_index,
    brute_force_session_keys,
    brute_force_session_minutes,
    brute_force_synthetic_closes,
    brute_force_write_bars_csv,
    brute_force_write_dataset_csv,
    brute_force_write_path_csv,
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
        minutes = brute_force_session_minutes(calendar, date(2021, 1, 20) + timedelta(days=11 * d))
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
    return BarSeries.build(np.array(stamps, "datetime64[us]"), closes, calendar)


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
        assert series.stamps.tolist() == [datetime.fromisoformat(rows[k]) for k in kept]
        assert series.stamps.tolist() == [stamps[k] for k in kept]
        assert same(series.closes, np.array([k + 1.5 for k in kept]))
        assert same(series.session, np.array([want[k] for k in kept], dtype=int))
        assert same(series.day, np.array([ts.toordinal() for ts in series.stamps.tolist()], dtype=np.int64))


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
            assert same(outlier_mask(series, threshold), brute_force_outlier_mask(series, threshold))
        trim = int(rng.choice([0, 1, 10, 30]))
        threshold = [None, 2.0, 10.0][int(rng.integers(0, 3))]
        for trim_reopen in (False, True):
            cleaned, rate = preprocess(series, trim, threshold, trim_reopen)
            keep = ~brute_force_drop_mask(series, trim, threshold, trim_reopen)
            assert cleaned.stamps.tolist() == [ts for ts, k in zip(series.stamps.tolist(), keep) if k]
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
        assert sampled.stamps.tolist() == [series.stamps[i].item() for i in rows]
        assert same(sampled.closes, series.closes[rows])
        assert same(sampled.session, series.session[rows])
        assert same(sampled.day, series.day[rows])
    empty = BarSeries.build(np.array([], "datetime64[us]"), [], SessionCalendar())
    assert len(resample(empty, interval)) == 0


def test_pct_change_and_session_keys():
    for _, series in random_series(3, 60):
        returns = pct_change(series)
        stamps, values, sessions = brute_force_pct_change(series)
        assert returns.stamps.tolist() == list(stamps)
        assert same(returns.values, values)
        assert same(returns.session, sessions)
        assert same(returns.day, np.array([ts.toordinal() for ts in stamps], dtype=np.int64))
        assert same(returns.session_keys(), brute_force_session_keys(stamps, sessions))
        assert same(index_series(returns).session_key, brute_force_session_keys(stamps, sessions))


@pytest.mark.parametrize("window", ["day", "month"])
def test_realized_measures(window):
    for _, series in random_series(4, 60):
        returns = pct_change(preprocess(series, trim_minutes=0, outlier_sigma=None)[0])
        got = realized_measures(returns, window)
        labels, ends, rv, bv, jump = brute_force_realized_measures(returns, window)
        assert got.labels == labels
        assert got.window_end.dtype == np.dtype("datetime64[us]")
        assert tuple(got.window_end.tolist()) == ends
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


def assert_same_dataset_csv(dataset):
    got, want = io.StringIO(), io.StringIO()
    write_dataset_csv(got, dataset)
    brute_force_write_dataset_csv(want, dataset)
    assert_same_text(got.getvalue(), want.getvalue())


def shuffled(dataset, rng):
    """The rows in a random order, so that (but for repeated windows) no row
    continues the window of the row before it."""
    order = rng.permutation(len(dataset))
    return LabeledDataset(anchor_index=dataset.anchor_index[order], features=dataset.features[order],
                          theta=dataset.theta[order])


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
        assert_same_dataset_csv(dataset)
        assert_same_dataset_csv(shuffled(dataset, rng))


def test_empty_and_too_short_series():
    calendar = SessionCalendar()
    empty = BarSeries.build(np.array([], "datetime64[us]"), [], calendar)
    one = BarSeries.build(np.array(["2021-01-04T09:45"], "datetime64[us]"), [5000.0], calendar)
    for series in (empty, one):
        assert same(outlier_mask(series, 10.0), brute_force_outlier_mask(series, 10.0))
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


def windows(values, keys, window_len) -> LabeledDataset:
    """The dataset of ``values`` in the session blocks ``keys``, lookahead 1."""
    n = len(values)
    indexed = labeling.IndexedReturns(
        values=np.asarray(values, dtype=float),
        stamps=np.datetime64("2021-01-04T09:31") + np.arange(n) * np.timedelta64(1, "m"),
        session_key=np.asarray(keys))
    cfg = LabelingConfig(window_len=window_len, lookahead=1, threshold_pct=0.5, min_jumps=1,
                         direction="both")
    return build_dataset(indexed, mark_big_jumps(indexed, cfg), cfg)


def test_dataset_csv_special_values(monkeypatch):
    """Special floats as cells and as runs of windows; several session
    blocks, one of whose first window continues the block before's last;
    rows shuffled; window_len 1, 3 and 10; row counts around a chunk, at
    the package's chunk size and at 2 rows."""
    values = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 1e-300],
                       [0.1, 0.1, -0.0], [5e-324, 1e16, 2.5]])
    # row 1 continues row 0 as floats but not bit for bit; row 3 continues row 2 bit for bit only
    signed = np.array([[1.0, 0.0, -0.0], [-0.0, 0.0, 2.0], [0.0, 2.0, np.nan], [2.0, np.nan, 3.0]])
    cases = [LabeledDataset(anchor_index=np.arange(4) + 3, features=features, theta=np.array([0, 1, 1, 0]))
             for features in (values, values[:, ::2], np.arange(12).reshape(4, 3), signed)]
    cases.append(LabeledDataset(anchor_index=np.empty(0, dtype=int), features=np.empty((0, 1)),
                                theta=np.empty(0, dtype=int)))
    rng = np.random.default_rng(5)
    special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, 2.0**60, 1e-05, 1e16, 0.1,
                        9.999999999999999e-06, -2.2250738585072014e-308, 1e-300, -123.456])
    first = rng.normal(size=6)
    continued = (np.concatenate([first, first[3:5], rng.normal(size=5)]), np.repeat([0, 1], [6, 7]))
    dataset = windows(*continued, 3)
    row = int(np.flatnonzero(dataset.anchor_index == 8)[0])  # the second block's first row
    assert dataset.anchor_index[row - 1] == 4
    assert dataset.features[row, :-1].tobytes() == dataset.features[row - 1, 1:].tobytes()
    for values, keys in [(special, np.zeros(len(special))), (rng.normal(size=60), np.repeat(np.arange(4), 15)),
                         continued]:
        for window_len in (1, 3, 10):
            dataset = windows(values, keys, window_len)
            cases += [dataset, shuffled(dataset, rng)]
    for chunk_rows in (labeling.CSV_CHUNK_ROWS, 2):
        sizes = [chunk_rows - 1, chunk_rows, chunk_rows + 1, 2 * chunk_rows + 1]
        straddling = [windows(rng.normal(size=n + 10), np.zeros(n + 10), 10) for n in sizes]
        assert [len(dataset) for dataset in straddling] == sizes
        with monkeypatch.context() as patch:
            patch.setattr(labeling, "CSV_CHUNK_ROWS", chunk_rows)
            for dataset in cases + straddling:
                assert_same_dataset_csv(dataset)


def test_bars_csv(monkeypatch):
    """Whole-second and fractional stamps, repeated ticks, special closes,
    and bar counts around a block of ``tables.float_lines``, at the
    package's block size and at 3 values."""
    calendar = SessionCalendar()
    odd = BarSeries.build(np.array(
        [datetime(2021, 1, 4, 9, 45, 0, 5), datetime(2021, 1, 4, 9, 45, 1),
         datetime(2021, 1, 4, 9, 46, 0, 999999), datetime(2021, 1, 4, 10, 0, 0, 500000),
         datetime(2021, 1, 4, 13, 1), datetime(2021, 1, 4, 13, 2), datetime(2021, 1, 4, 14, 0),
         datetime(2021, 1, 4, 14, 1), datetime(2021, 1, 4, 14, 2), datetime(2021, 1, 4, 14, 3)],
        "datetime64[us]"), [0.0, -0.0, np.nan, np.inf, 5e-324, 1e16, 0.1, -np.inf, 2.0**60, 1e-05], calendar)
    empty = BarSeries.build(np.array([], "datetime64[us]"), [], calendar)
    cases = [series for _, series in random_series(8, 20)] + [odd, empty]
    for block in (tables.REPR_BLOCK, 3):
        sizes = [block - 1, block, block + 1, 2 * block + 1]
        bars = synthetic_bars(days=sizes[-1] // 240 + 1, seed=8)  # 240 bars a day
        straddling = [bars.select(np.arange(len(bars)) < n) for n in sizes]
        assert [len(series) for series in straddling] == sizes
        with monkeypatch.context() as patch:
            patch.setattr(tables, "REPR_BLOCK", block)
            for series in cases + straddling:
                got, want = io.StringIO(), io.StringIO()
                write_bars_csv(got, series)
                brute_force_write_bars_csv(want, series)
                assert_same_text(got.getvalue(), want.getvalue())


@pytest.mark.parametrize("calendar", [*CALENDARS, SessionCalendar.from_spec("09:30-11:30,22:00-23:59")],
                         ids=["default", "three-sessions", "to-23:59"])
def test_session_minutes(calendar):
    """One day's stamps and whole fixtures' stamps against the minute-by-minute
    walk, on days across month, year and leap-day ends, with 0, 1 and 250 days."""
    for day in (date(2021, 1, 4), date(2020, 12, 31), date(2021, 1, 31), date(2024, 2, 29),
                date(1969, 12, 31)):
        minutes = session_minutes(calendar, day)
        assert minutes.dtype == np.dtype("datetime64[us]")
        assert minutes.tolist() == brute_force_session_minutes(calendar, day)
    for days, start in ((0, date(2021, 1, 4)), (1, date(2020, 12, 31)), (250, date(2020, 11, 20))):
        bars = synthetic_bars(days=days, seed=5, start=start, calendar=calendar)
        want = [ts for d in range(days)
                for ts in brute_force_session_minutes(calendar, start + timedelta(days=d))]
        assert bars.stamps.dtype == np.dtype("datetime64[us]")
        assert bars.stamps.tolist() == want
        assert len(bars.closes) == len(want)
        assert bars.session.tolist() == [brute_force_session_index(calendar, ts) for ts in want]


@pytest.mark.parametrize("seed", [0, 7, 11, 2**32 - 1])
@pytest.mark.parametrize("days", [1, 2, 37, 250])
def test_synthetic_bars(days, seed):
    """Every close bit for bit and every stamp against the loop that draws
    through numpy's broadcasting ``normal`` and ``uniform``."""
    bars = synthetic_bars(days=days, seed=seed)
    want = brute_force_synthetic_closes(days, seed, date(2021, 1, 4), SessionCalendar())
    assert bars.closes.dtype == np.float64
    assert np.array_equal(bars.closes.view(np.int64), want.view(np.int64))
    assert bars.stamps.tolist() == [ts for d in range(days) for ts in
                                    brute_force_session_minutes(SessionCalendar(),
                                                                date(2021, 1, 4) + timedelta(days=d))]


@pytest.mark.parametrize("start,calendar", [
    (date(2021, 1, 30), SessionCalendar()),
    (date(2021, 1, 4), SessionCalendar.from_spec("09:30-15:00")),
], ids=["weekend-start", "one-session"])
def test_synthetic_bars_on_other_days_and_calendars(start, calendar):
    for days, seed in ((4, 7), (37, 11)):
        bars = synthetic_bars(days=days, seed=seed, start=start, calendar=calendar)
        want = brute_force_synthetic_closes(days, seed, start, calendar)
        assert np.array_equal(bars.closes.view(np.int64), want.view(np.int64))
        assert bars.stamps.tolist() == [ts for d in range(days) for ts in
                                        brute_force_session_minutes(calendar, start + timedelta(days=d))]


def test_stamp_texts():
    """The bar writer and both RV writers write each stamp as ``isoformat(sep=" ")``
    does: with and without fractions, at midnight, before 1970 and at year ends."""
    stamps = [datetime(1, 1, 1, 0, 0, 0, 1), datetime(1900, 2, 28, 12, 0, 30),
              datetime(1969, 12, 31, 23, 59, 59, 999999), datetime(1970, 1, 1),
              datetime(1999, 12, 31, 23, 59, 59), datetime(2000, 1, 1, 0, 0, 0, 500000),
              datetime(2020, 12, 31, 23, 59), datetime(2021, 1, 4, 9, 31, 0, 5),
              datetime(2021, 1, 5), datetime(9999, 12, 31, 23, 59, 59, 999999)]
    texts = [ts.isoformat(sep=" ") for ts in stamps]
    column = np.array(stamps, dtype="datetime64[us]")
    bars = BarSeries(stamps=column, closes=np.arange(1.0, len(stamps) + 1),
                     session=np.zeros(len(stamps), dtype=int), calendar=SessionCalendar())
    got, want = io.StringIO(), io.StringIO()
    write_bars_csv(got, bars)
    brute_force_write_bars_csv(want, bars)
    assert_same_text(got.getvalue(), want.getvalue())
    assert [line.split(",")[0] for line in got.getvalue().splitlines()[1:]] == texts

    rv = realized_measures(ReturnSeries(stamps=column, values=bars.closes, session=bars.session))
    assert rv.window_end.dtype == np.dtype("datetime64[us]")
    assert rv.window_end.tolist() == stamps
    csv_text = io.StringIO()
    write_rv_csv(csv_text, rv)
    assert [line.split(",")[1] for line in csv_text.getvalue().splitlines()[1:]] == texts
    payload = json.loads(rv_to_json(rv))
    assert [payload[label]["window_end"] for label in rv.labels] == texts


def random_grid(rng) -> TimeGrid:
    return TimeGrid(t0=float(rng.choice([0.0, rng.uniform(-5.0, 5.0)])),
                    dt=float(rng.choice([0.01, 0.003, 0.0002, rng.uniform(1e-4, 0.5)])),
                    n_steps=int(rng.integers(1, 400)))


def path_pair(grid, values, x_true, x_observed=None, noise=None):
    driving = JumpPath(grid=grid, event_times=np.empty(0), event_sizes=np.empty(0))
    return (dynamics.VariancePath(grid=grid, values=values, driving=driving),
            dynamics.LogPricePath(grid=grid, x_true=x_true, x_observed=x_observed, noise=noise))


@pytest.mark.parametrize("chunk_rows", [dynamics.PATH_CSV_CHUNK_ROWS, 7])
def test_path_csv(monkeypatch, chunk_rows):
    """Random paths with and without noise, simulated paths and special floats."""
    monkeypatch.setattr(dynamics, "PATH_CSV_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(30):
        grid = random_grid(rng)
        n = grid.n_steps + 1
        cols = [rng.lognormal(0.0, 3.0, n), np.cumsum(rng.normal(0.0, 0.1, n))]
        if rng.uniform() < 0.5:
            eps = rng.normal(0.0, 0.01, n)
            cols += [cols[1] + eps, eps]
        cases.append(path_pair(grid, *cols))
    special = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1e-05,
                        9.999999999999999e-06, 0.0001, 9.9999e-05, 1e16, 9999999999999998.0,
                        -1e16, 1.0000000000000002e16, np.inf, -np.inf, np.nan, 0.1, -123.456])
    grid = TimeGrid(t0=-1e-05, dt=1e-05, n_steps=len(special) - 1)
    cases.append(path_pair(grid, special, special[::-1], special, -special))
    cases.append(path_pair(grid, special, special[::-1]))
    cases.append(path_pair(grid, special, special[::-1], None, special))
    params = dynamics.ModelParams(rho=-0.3, sigma0_sq=0.5, theta=0.4)
    grid = TimeGrid(0.0, 0.003, 700)
    z = sample_subordinator_path(SubordinatorSpec(1.0, 1.0), params.lam, grid, seed=(3, 0))
    zb = sample_subordinator_path(SubordinatorSpec(2.0, 1.0), params.lam, grid, seed=(3, 1))
    vp = dynamics.simulate_variance_path(params, z, zb)
    lp = dynamics.simulate_log_price(params, vp, z, zb, seed=3)
    cases += [(vp, lp), (vp, dynamics.apply_noise(lp, dynamics.NoiseSpec(std=0.01), seed=3))]
    for var_path, price_path in cases:
        want = io.StringIO()
        brute_force_write_path_csv(want, var_path, price_path)
        assert_same_text(dynamics.dumps_path_csv(var_path, price_path), want.getvalue())


def ou_cases(rng):
    """(grid, sigma0_sq, lam, times, sizes) with events off and on the grid."""
    for k in range(200):
        grid = random_grid(rng)
        grid_times = grid.times()
        lam = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        if k % 10 == 0:
            lam = 2000.0 / grid.horizon  # lam * horizon far past exp underflow
        m = int(rng.choice([0, 1, 3, rng.integers(1, 600)]))
        times = rng.uniform(grid.t0, grid.t_end, m)
        pick = rng.uniform(size=m)
        on_grid = rng.integers(0, grid.n_steps + 1, m)
        times = np.where(pick < 0.3, grid_times[on_grid], times)
        times = np.where(pick > 0.9, grid.t0, times)
        times = np.where(pick > 0.95, grid.t_end, times)
        sizes = rng.exponential(float(rng.uniform(0.1, 5.0)), m)
        yield grid, float(rng.uniform(1e-3, 4.0)), lam, np.sort(times), sizes


def test_ou_accumulate():
    """Bit patterns of the bincount/Python-float recursion against the
    ``np.add.at``/numpy-scalar loop."""
    for grid, sigma0_sq, lam, times, sizes in ou_cases(np.random.default_rng(12)):
        got = dynamics._ou_accumulate(grid, sigma0_sq, lam, times, sizes)
        assert same(got, brute_force_ou_accumulate(grid, sigma0_sq, lam, times, sizes))
    empty = np.empty(0)
    for grid in (TimeGrid(0.0, 0.01, 1), TimeGrid(2.5, 0.01, 100)):
        got = dynamics._ou_accumulate(grid, 1, 3.0, empty, empty)
        assert same(got, brute_force_ou_accumulate(grid, 1, 3.0, empty, empty))


@pytest.mark.parametrize("n_steps", [100, 5000])
def test_ou_accumulate_on_both_sides_of_the_sparse_rule(n_steps, monkeypatch):
    """Both the running products over the stretches between deposits and the
    Python loop that dense grids keep give the loop oracle's bits, also where
    events deposit nothing."""
    grid = TimeGrid(0.0, 1.0 / n_steps, n_steps)
    starts, dt = grid.times(), grid.dt
    most = n_steps // dynamics._OU_SPARSE_STEPS  # events still run as running products
    rng = np.random.default_rng(n_steps)
    steps = rng.choice(np.arange(1, n_steps - 1), most + 1, replace=False)
    cases = {  # name -> (event times, whether the grid is dense)
        "none": (np.empty(0), False),
        "first step": (np.array([starts[0], starts[0] + 0.4 * dt]), False),
        "last step": (np.array([starts[-2] + 0.9 * dt, starts[-1]]), False),
        "two in one step": (starts[[7, 7]] + np.array([0.2, 0.7]) * dt, False),
        "at the rule": (np.sort(starts[np.r_[0, steps[:most - 2], n_steps - 1]] + 0.5 * dt), False),
        "past the rule": (np.sort(starts[np.r_[0, steps[:most - 1], n_steps - 1]] + 0.5 * dt), True),
    }
    loops = []
    recur = dynamics._recur
    monkeypatch.setattr(dynamics, "_recur", lambda *args: loops.append(1) or recur(*args))
    for name, (times, dense) in cases.items():
        for sizes in (rng.exponential(1.0, len(times)), np.zeros(len(times))):
            del loops[:]
            got = dynamics._ou_accumulate(grid, 0.7, 1.3, times, sizes)
            assert same(got, brute_force_ou_accumulate(grid, 0.7, 1.3, times, sizes)), name
            assert bool(loops) == dense, name


def test_euler_variance_path():
    """Same bits as the numpy-scalar Euler loop, including shrink factors <= 0."""
    rng = np.random.default_rng(13)
    for k in range(60):
        grid = random_grid(rng)
        lam = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0 / grid.dt))))
        params = dynamics.ModelParams(lam=lam, theta=float(rng.uniform()),
                                      sigma0_sq=float(rng.uniform(1e-3, 4.0)))
        z = sample_subordinator_path(params.spec_base, lam, grid, seed=(13, k, 0))
        zb = sample_subordinator_path(params.spec_strong, lam, grid, seed=(13, k, 1))
        got = dynamics.euler_variance_path(params, z, zb)
        with np.errstate(over="ignore", invalid="ignore"):
            want = brute_force_euler_variance(params.sigma0_sq, 1.0 - lam * grid.dt,
                                              got.driving.increments())
        assert same(got.values, want)


def test_grid_times_are_cached_and_read_only():
    grid = TimeGrid(0.5, 0.003, 700)
    times = grid.times()
    assert grid.times() is times
    assert same(times, brute_force_grid_times(grid))
    with pytest.raises(ValueError):
        times[0] = 1.0
    assert grid == TimeGrid(0.5, 0.003, 700) and hash(grid) == hash(TimeGrid(0.5, 0.003, 700))


def check_path_kernels(path, rng, sampled=True):
    """Cumulative, increments and jump energy of one path, bit for bit.  A
    combined path's cumulative is the weighted sum of its parts', not the
    running sum of its events, so only a sampled one is checked for that."""
    grid, times, sizes = path.grid, path.event_times, path.event_sizes
    if sampled:
        assert same(path.cumulative, brute_force_cumulative_on_grid(grid, times, sizes))
    assert same(path.increments(), np.diff(path.cumulative))
    uptos = [grid.t0 - 1.0, grid.t0, grid.t_end, grid.t_end + 1.0,
             *rng.uniform(grid.t0, grid.t_end, 3)]
    if len(times):  # on an event, just before the first and just after the last
        uptos += [times[0], times[-1], times[len(times) // 2],
                  np.nextafter(times[0], -np.inf), np.nextafter(times[-1], np.inf)]
    for upto in uptos:
        assert same(realized_jump_energy(path, upto), brute_force_jump_energy(times, sizes, upto))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_path_kernels(theta):
    """Sampled paths, with no events on one grid in five, and the Euler log
    price driven by them, against the concatenate/diff/mask forms."""
    rng = np.random.default_rng(14)
    for k in range(40):
        grid = random_grid(rng)
        intensity = 0.0 if k % 5 == 0 else float(rng.uniform(0.5, 30.0))
        params = dynamics.ModelParams(
            mu=float(rng.normal()), beta=float(rng.normal()), rho=-float(rng.uniform(0.0, 1.0)),
            lam=float(rng.uniform(0.1, 5.0)), theta=theta, sigma0_sq=float(rng.uniform(1e-3, 4.0)),
            spec_base=SubordinatorSpec(intensity, float(rng.uniform(0.5, 8.0))),
            spec_strong=SubordinatorSpec(intensity * 2.0, float(rng.uniform(0.5, 8.0))))
        z = sample_subordinator_path(params.spec_base, params.lam, grid, seed=(14, k, 0))
        zb = sample_subordinator_path(params.spec_strong, params.lam, grid, seed=(14, k, 1))
        if intensity == 0.0:
            assert z.n_events == zb.n_events == 0
        vp = dynamics.simulate_variance_path(params, z, zb)
        check_path_kernels(z, rng)
        check_path_kernels(zb, rng)
        check_path_kernels(vp.driving, rng, sampled=False)
        dm = ((1.0 - theta) * np.diff(brute_force_cumulative_on_grid(grid, z.event_times, z.event_sizes))
              + theta * np.diff(brute_force_cumulative_on_grid(grid, zb.event_times, zb.event_sizes)))
        for diffusion in (True, False):
            got = dynamics.simulate_log_price(params, vp, z, zb, seed=(14, k, 2), diffusion=diffusion)
            want = brute_force_euler_log_price(grid, params, vp.values, dm, (14, k, 2), diffusion)
            assert same(got.x_true, want)


def test_euler_log_price_signed_zeros():
    """Zero increments keep the oracle's signs of zero: -0.0 drift and jump
    terms, with the Brownian term off (where the sum still adds 0.0) and on."""
    grid = TimeGrid(0.0, 0.1, 6)
    for rho in (-0.0, -0.3):
        params = dynamics.ModelParams(mu=-0.0, beta=-0.0, rho=rho)
        for jumps in (np.zeros(6), np.full(6, -0.0), np.array([0.0, -0.0, 1.0, 0.0, -0.0, 0.0])):
            for diffusion in (False, True):
                got = dynamics._euler_log_price(grid, params, np.ones(7), jumps, (19, 0, 2), diffusion)
                want = brute_force_euler_log_price(grid, params, np.ones(7), jumps, (19, 0, 2), diffusion)
                assert same(got, want), (rho, jumps, diffusion)


def test_path_kernels_tied_events():
    """Events sharing a time, one of them on a grid point, and an empty path."""
    grid = TimeGrid(0.0, 0.1, 10)
    rng = np.random.default_rng(15)
    check_path_kernels(JumpPath(grid=grid, event_times=np.array([0.2, 0.5, 0.5, 0.55, 0.9]),
                                event_sizes=np.array([1.0, 2.0, 3.0, 0.5, 4.0])), rng)
    check_path_kernels(JumpPath(grid=grid, event_times=np.empty(0), event_sizes=np.empty(0)), rng)


# The model's thetas, plus one whose weights are not powers of two, so that
# a regrouped product of weights changes bits
WEIGHT_THETAS = [0.0, 0.3, 0.5, 1.0]


def sampled_pairs(theta):
    """(params, z, zb) on random grids, with no events on one grid in five,
    then hand-made pairs: events tied within and across the two paths (some
    on grid points) and pairs where one or both paths have no events."""
    rng = np.random.default_rng(16)
    for k in range(30):
        grid = random_grid(rng)
        intensity = 0.0 if k % 5 == 0 else float(rng.uniform(0.5, 30.0))
        params = dynamics.ModelParams(
            rho=-float(rng.uniform(0.0, 1.0)), lam=float(rng.uniform(0.1, 5.0)), theta=theta,
            sigma0_sq=float(rng.uniform(1e-3, 4.0)),
            spec_base=SubordinatorSpec(intensity, float(rng.uniform(0.5, 8.0))),
            spec_strong=SubordinatorSpec(intensity * 2.0, float(rng.uniform(0.5, 8.0))))
        yield (params, sample_subordinator_path(params.spec_base, params.lam, grid, seed=(16, k, 0)),
               sample_subordinator_path(params.spec_strong, params.lam, grid, seed=(16, k, 1)))
    grid = TimeGrid(0.0, 0.1, 10)
    params = dynamics.ModelParams(rho=-0.4, lam=1.3, theta=theta)

    def path(times, sizes):
        return JumpPath(grid=grid, event_times=np.array(times, dtype=float),
                        event_sizes=np.array(sizes, dtype=float))

    tied = path([0.2, 0.5, 0.5, 0.9], [1.0, 2.0, 3.0, 4.0])
    tied_b = path([0.1, 0.5, 0.5, 0.9, 1.0], [5.0, 6.0, 7.0, 8.0, 9.0])
    empty = path([], [])
    for z, zb in ((tied, tied_b), (tied_b, tied), (tied, empty), (empty, tied_b), (empty, empty)):
        yield params, z, zb


@pytest.mark.parametrize("theta", WEIGHT_THETAS)
def test_combine_paths(theta):
    """Merged events, sizes and cumulative bit for bit against the
    concatenate/argsort form, at the model's weights and with either or
    both weights zero."""
    for params, z, zb in sampled_pairs(theta):
        for w1, w2 in ((1.0 - theta, theta), (0.0, 0.0), (0.3, 0.0), (0.0, 0.7)):
            got = combine_paths(z, zb, w1, w2)
            times, sizes, cumulative = brute_force_combine_paths(z, zb, w1, w2)
            assert same(got.event_times, times) and same(got.event_sizes, sizes)
            assert same(got.cumulative, cumulative)


def integration_bounds(grid, rng):
    """Bounds at 0, on grid points, between them, at the horizon and just
    inside its tolerance, and at random."""
    n, dt = grid.n_steps, grid.dt
    on_grid = [k * dt for k in (1, n // 2, n - 1, int(rng.integers(0, n + 1)))]
    between = [(k + f) * dt for k, f in ((0, 0.5), (n // 3, 0.37), (n - 1, 0.999))]
    return [0.0, *on_grid, *between, grid.horizon, grid.horizon + 5e-13,
            *rng.uniform(0.0, grid.horizon, 3)]


@pytest.mark.parametrize("theta", WEIGHT_THETAS)
def test_integrate_variance(theta):
    """`integrate_variance` on simulated variance paths, as float.hex,
    against the numpy-scalar form."""
    rng = np.random.default_rng(17)
    for params, z, zb in sampled_pairs(theta):
        vp = dynamics.simulate_variance_path(params, z, zb)
        for upto in integration_bounds(vp.grid, rng):
            got = dynamics.integrate_variance(vp, upto)
            want = brute_force_integrate_variance(vp.grid, vp.values, upto)
            assert type(got) is float and got.hex() == want.hex(), upto


@pytest.mark.parametrize("theta", WEIGHT_THETAS)
def test_correlation_generalized(theta):
    """The functional as float.hex against a copy that recomputes its
    constants per call, with s and t on grid points, between them and t at
    the horizon; the same parameters serve several calls, so constants kept
    from the first call are checked on the later ones.  At theta 0 the
    classical functional gives the same bits."""
    rng = np.random.default_rng(18)
    for params, z, zb in sampled_pairs(theta):
        vp = dynamics.simulate_variance_path(params, z, zb)
        bounds = sorted({b for b in integration_bounds(vp.grid, rng) if 0.0 < b <= vp.grid.horizon})
        pairs = [(t, s) for t in (bounds[-1], bounds[len(bounds) // 2]) for s in bounds if s < t]
        for t, s in pairs:
            got = dynamics.correlation_generalized(vp, z, zb, params, t, s)
            want = brute_force_correlation_generalized(vp, z, zb, params, t, s)
            assert type(got) is float and got.hex() == want.hex(), (t, s)
            if theta == 0.0:
                assert dynamics.correlation_classical(vp, z, params, t, s).hex() == want.hex()

"""Randomized exact-equality checks of the columnar data and labeling
stages, the path CSV writer, the variance recursions and the path kernels
against the row-by-row loops and older forms in brute_force.py."""

import io
import sys
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from bnsjump import dynamics, labeling
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
    write_bars_csv,
)
from bnsjump.subordinators import (
    JumpPath,
    SubordinatorSpec,
    TimeGrid,
    realized_jump_energy,
    sample_subordinator_path,
)
from bnsjump.synthetic import session_minutes, synthetic_bars

from brute_force import (
    brute_force_build_dataset,
    brute_force_cumulative_on_grid,
    brute_force_descriptive_stats,
    brute_force_drop_mask,
    brute_force_euler_log_price,
    brute_force_euler_variance,
    brute_force_grid_times,
    brute_force_jump_energy,
    brute_force_ou_accumulate,
    brute_force_outlier_mask,
    brute_force_pct_change,
    brute_force_realized_measures,
    brute_force_resample,
    brute_force_session_index,
    brute_force_session_keys,
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
            assert same(sigma_outlier_policy(threshold)(series),
                        brute_force_outlier_mask(series, threshold))
        trim = int(rng.choice([0, 1, 10, 30]))
        threshold = [None, 2.0, 10.0][int(rng.integers(0, 3))]
        policy = None if threshold is None else sigma_outlier_policy(threshold)
        for trim_reopen in (False, True):
            cleaned, rate = preprocess(series, trim, policy, trim_reopen)
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
    empty = BarSeries.build([], [], SessionCalendar())
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


def test_bars_csv():
    """Whole-second and fractional stamps, repeated ticks and special closes."""
    calendar = SessionCalendar()
    odd = BarSeries.build(
        [datetime(2021, 1, 4, 9, 45, 0, 5), datetime(2021, 1, 4, 9, 45, 1),
         datetime(2021, 1, 4, 9, 46, 0, 999999), datetime(2021, 1, 4, 10, 0, 0, 500000),
         datetime(2021, 1, 4, 13, 1), datetime(2021, 1, 4, 13, 2), datetime(2021, 1, 4, 14, 0)],
        [0.0, -0.0, np.nan, np.inf, 5e-324, 1e16, 0.1], calendar)
    cases = [series for _, series in random_series(8, 20)]
    for series in [*cases, odd, BarSeries.build([], [], calendar)]:
        got, want = io.StringIO(), io.StringIO()
        write_bars_csv(got, series)
        brute_force_write_bars_csv(want, series)
        assert got.getvalue() == want.getvalue()


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
        got, want = io.StringIO(), io.StringIO()
        dynamics.write_path_csv(got, var_path, price_path)
        brute_force_write_path_csv(want, var_path, price_path)
        assert got.getvalue() == want.getvalue()
        assert dynamics.dumps_path_csv(var_path, price_path) == want.getvalue()


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


def test_path_kernels_tied_events():
    """Events sharing a time, one of them on a grid point, and an empty path."""
    grid = TimeGrid(0.0, 0.1, 10)
    rng = np.random.default_rng(15)
    check_path_kernels(JumpPath(grid=grid, event_times=np.array([0.2, 0.5, 0.5, 0.55, 0.9]),
                                event_sizes=np.array([1.0, 2.0, 3.0, 0.5, 4.0])), rng)
    check_path_kernels(JumpPath(grid=grid, event_times=np.empty(0), event_sizes=np.empty(0)), rng)

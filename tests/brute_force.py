"""Independent brute-force re-derivations of the data and labeling stages,
of the CSV writers, of the variance recursions, of the path kernels and of
the learners.

Deliberately literal: explicit loops over rows, explicit day and session
equality checks and explicit mark counting over the lookahead rows; the
trees re-sort every feature at every node and scan features one at a time;
k-means and the SVM recompute every per-fit term inside their loops; the
split pick indexes numpy scalars row by row; the neural net allocates
every activation, gradient and Adam moment afresh per layer and epoch; the
path kernels keep the concatenate, ``np.diff`` and boolean-mask forms and
recompute the grid times on every call; the path combination, the
variance integral and the correlation functional keep fresh arrays, numpy
scalars and constants recomputed per call; the synthetic fixture draws
through numpy's broadcasting ``normal`` and ``uniform`` calls.
The row-level logic shares no code with the package implementation so the
two can check each other; only the per-group formulas the vectorized code
leaves untouched (skewness/kurtosis, the BV scale), the seeded streams, the
result containers and the CSV dialect's row reader are imported.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime, timedelta

import numpy as np

from bnsjump import tables
from bnsjump.errors import ParseError
from bnsjump.market_data import BV_SCALE, StatsReport, _skew_kurt
from bnsjump.seeding import BROWNIAN_STREAM, substream
from bnsjump.synthetic import BASE_PRICE, BURST_PROB, NOISE_PCT


def brute_force_dataset(values, session_keys, marks, window_len, lookahead,
                        min_jumps, stride=1):
    """Return (anchors, feature_rows, thetas) by literal scanning."""
    n = len(values)
    anchors = []
    feature_rows = []
    thetas = []
    i = window_len - 1
    while i <= n - 1 - lookahead:
        lo = i - window_len + 1
        hi = i + lookahead
        same_block = True
        for j in range(lo, hi + 1):
            if session_keys[j] != session_keys[lo]:
                same_block = False
                break
        if same_block:
            count = 0
            for j in range(i + 1, i + lookahead + 1):
                if marks[j]:
                    count += 1
            anchors.append(i)
            feature_rows.append([values[j] for j in range(lo, i + 1)])
            thetas.append(1 if count >= min_jumps else 0)
        i += stride
    return anchors, feature_rows, thetas


def brute_force_marks(values, threshold, direction):
    """Literal threshold comparison per row (inclusive)."""
    out = []
    for v in values:
        if direction == "down":
            out.append(v <= -threshold)
        elif direction == "up":
            out.append(v >= threshold)
        else:
            out.append(abs(v) >= threshold)
    return out


def brute_force_session_index(calendar, ts):
    """Index of the first session containing ``ts`` (inclusive ends), else None."""
    t = ts.time()
    for i, (open_t, close_t) in enumerate(calendar.sessions):
        if open_t <= t <= close_t:
            return i
    return None


def brute_force_session_minutes(calendar, day):
    """Bar datetimes of one trading day by a minute-by-minute walk: every
    minute after each session open through the session close."""
    stamps = []
    for open_t, close_t in calendar.sessions:
        t = datetime.combine(day, open_t) + timedelta(minutes=1)
        end = datetime.combine(day, close_t)
        while t <= end:
            stamps.append(t)
            t += timedelta(minutes=1)
    return stamps


def brute_force_synthetic_closes(days, seed, start, calendar):
    """Closes of ``synthetic_bars(days, seed, start, calendar)``, float64: one
    walk over every bar of every day, drawing through ``rng.normal`` and
    ``rng.uniform``."""
    n_bars = sum(len(brute_force_session_minutes(calendar, start + timedelta(days=d)))
                 for d in range(days))
    rng = substream(seed)
    closes = []
    price = BASE_PRICE
    burst_left = 0
    for _ in range(n_bars):
        if burst_left > 0:
            change = -float(rng.uniform(0.1, 0.3))
            burst_left -= 1
        else:
            change = float(rng.normal(0.0, NOISE_PCT))
            if rng.uniform() < BURST_PROB:
                burst_left = int(rng.integers(2, 5))
        price *= 1.0 + change / 100.0
        closes.append(price)
    return np.array(closes, dtype=np.float64)


def brute_force_resample(series, interval_minutes):
    """Rows kept by resampling: the last bar of each run of equal (date,
    ceil(trading-minute position / interval)) keys."""
    sessions = series.calendar.sessions
    keep = []
    last_key = None
    for i, ts in enumerate(series.stamps.tolist()):
        s = int(series.session[i])
        offset = 0
        for open_t, close_t in sessions[:s]:
            offset += (close_t.hour - open_t.hour) * 60 + (close_t.minute - open_t.minute)
        open_t = sessions[s][0]
        position = offset + (ts.hour - open_t.hour) * 60 + (ts.minute - open_t.minute)
        key = (ts.date(), -(-position // interval_minutes))
        if key == last_key:
            keep[-1] = i
        else:
            keep.append(i)
            last_key = key
    return keep


def brute_force_changes(series):
    """Percent change per bar from the previous bar of its (day, session)
    block with a positive close; NaN where there is none."""
    days = [ts.date() for ts in series.stamps.tolist()]
    changes = np.full(len(series), np.nan)
    for i in range(1, len(series)):
        same_block = (days[i] == days[i - 1] and series.session[i] == series.session[i - 1])
        if same_block and series.closes[i - 1] > 0:
            changes[i] = 100.0 * (series.closes[i] - series.closes[i - 1]) / series.closes[i - 1]
    return changes


def brute_force_outlier_mask(series, threshold):
    """Bars whose change exceeds ``threshold`` x that day's std of changes."""
    mask = np.zeros(len(series), dtype=bool)
    changes = brute_force_changes(series)
    days = [ts.date() for ts in series.stamps.tolist()]
    for day in sorted(set(days)):
        rows = np.array([d == day for d in days])
        day_changes = changes[rows]
        finite = day_changes[np.isfinite(day_changes)]
        if len(finite) < 2:
            continue
        sd = float(np.std(finite))
        if sd == 0.0:
            continue
        mask |= rows & np.isfinite(changes) & (np.abs(changes) > threshold * sd)
    return mask


def brute_force_drop_mask(series, trim_minutes, threshold, trim_reopen):
    """Rows preprocess drops: opening window, non-positive close, outlier."""
    open_minutes = [s[0].hour * 60 + s[0].minute for s in series.calendar.sessions]
    drop = np.zeros(len(series), dtype=bool)
    for i, ts in enumerate(series.stamps.tolist()):
        sess = int(series.session[i])
        minute = ts.hour * 60 + ts.minute
        if sess == 0 and minute - open_minutes[0] <= trim_minutes:
            drop[i] = True
        elif trim_reopen and sess > 0 and minute - open_minutes[sess] <= trim_minutes:
            drop[i] = True
        if series.closes[i] <= 0.0:
            drop[i] = True
    if threshold is not None:
        drop |= brute_force_outlier_mask(series, threshold)
    return drop


def brute_force_pct_change(series):
    """(timestamps, values, sessions) of the within-block percent changes."""
    stamps, values, sessions = [], [], []
    days = [ts.date() for ts in series.stamps.tolist()]
    for i in range(1, len(series)):
        if days[i] != days[i - 1] or series.session[i] != series.session[i - 1]:
            continue
        prev_close = series.closes[i - 1]
        if prev_close <= 0:
            continue
        stamps.append(series.stamps[i].item())
        values.append(100.0 * (series.closes[i] - prev_close) / prev_close)
        sessions.append(int(series.session[i]))
    return tuple(stamps), np.array(values, dtype=float), np.array(sessions, dtype=int)


def brute_force_session_keys(timestamps, session):
    """Block id per row, advancing whenever the date or the session changes."""
    keys = np.zeros(len(timestamps), dtype=int)
    current = 0
    for i in range(1, len(timestamps)):
        if timestamps[i].date() != timestamps[i - 1].date() or session[i] != session[i - 1]:
            current += 1
        keys[i] = current
    return keys


def brute_force_descriptive_stats(series, group_by):
    """StatsReport per sorted group key ("overall" or YYYY-MM)."""
    groups = {}
    for ts, close in zip(series.stamps.tolist(), series.closes):
        key = "overall" if group_by == "overall" else f"{ts.year:04d}-{ts.month:02d}"
        groups.setdefault(key, []).append(float(close))
    reports = {}
    for key in sorted(groups):
        x = np.array(groups[key])
        skew, kurt = _skew_kurt(x)
        reports[key] = StatsReport(
            count=len(x), mean=float(x.mean()), median=float(np.median(x)),
            minimum=float(x.min()), maximum=float(x.max()),
            skewness=skew, excess_kurtosis=kurt,
        )
    return reports


def brute_force_realized_measures(returns, window):
    """(labels, window ends, RV, BV, jump) per day or month, in first-seen order."""
    order, rows = [], {}
    for i, ts in enumerate(returns.stamps.tolist()):
        key = ts.date().isoformat() if window == "day" else f"{ts.year:04d}-{ts.month:02d}"
        if key not in rows:
            rows[key] = []
            order.append(key)
        rows[key].append(i)
    keys = brute_force_session_keys(returns.stamps.tolist(), returns.session)
    labels, ends, rv_out, bv_out, jump_out = [], [], [], [], []
    for key in order:
        idx = rows[key]
        r = returns.values[idx]
        rv = float(np.sum(r**2))
        pair_terms = []
        for a, b in zip(idx, idx[1:]):
            if b == a + 1 and keys[a] == keys[b]:
                pair_terms.append(abs(returns.values[a]) * abs(returns.values[b]))
        if len(r) < 2 or not pair_terms:
            bv = jump = float("nan")
        else:
            bv = BV_SCALE * float(np.sum(pair_terms))
            jump = max(rv - bv, 0.0)
        labels.append(key)
        ends.append(returns.stamps[idx[-1]].item())
        rv_out.append(rv)
        bv_out.append(bv)
        jump_out.append(jump)
    return tuple(labels), tuple(ends), np.array(rv_out), np.array(bv_out), np.array(jump_out)


def brute_force_build_dataset(returns, marks, cfg):
    """(anchor_index, features, theta) by one prefix-sum scan over anchors."""
    n = len(returns)
    w = cfg.window_len
    prefix = np.concatenate([[0], np.cumsum(marks)])
    anchors, rows, targets = [], [], []
    for i in range(w - 1, n - cfg.lookahead, cfg.stride):
        lo, hi = i - w + 1, i + cfg.lookahead
        if returns.session_key[lo] != returns.session_key[hi]:
            continue
        anchors.append(i)
        rows.append(returns.values[lo:i + 1])
        targets.append(1 if int(prefix[hi + 1] - prefix[i + 1]) >= cfg.min_jumps else 0)
    if not anchors:
        return np.empty(0, dtype=int), np.empty((0, w)), np.empty(0, dtype=int)
    return np.array(anchors, dtype=int), np.vstack(rows), np.array(targets, dtype=int)


def brute_force_write_dataset_csv(fileobj, dataset):
    """``index,f1..fW,theta`` through csv.writer, one row at a time."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["index"] + [f"f{j + 1}" for j in range(dataset.window_len)] + ["theta"])
    for i in range(len(dataset)):
        row = [int(dataset.anchor_index[i])]
        row += [repr(float(x)) for x in dataset.features[i]]
        row.append(int(dataset.theta[i]))
        writer.writerow(row)


def brute_force_write_bars_csv(fileobj, series):
    """``timestamp,close`` through csv.writer, one ``datetime`` and one repr per row."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["timestamp", "close"])
    for ts, close in zip(series.stamps.tolist(), series.closes):
        writer.writerow([ts.isoformat(sep=" "), repr(float(close))])


def brute_force_write_path_csv(fileobj, var_path, price_path):
    """``t,sigma_sq,x_true,x_observed,noise`` through csv.writer, one repr per cell."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["t", "sigma_sq", "x_true", "x_observed", "noise"])
    times = var_path.grid.times()
    obs = price_path.x_observed
    eps = price_path.noise
    for k in range(len(times)):
        writer.writerow([
            repr(float(times[k])),
            repr(float(var_path.values[k])),
            repr(float(price_path.x_true[k])),
            "" if obs is None else repr(float(obs[k])),
            "" if eps is None else repr(float(eps[k])),
        ])


def read_path_csv(source) -> dict:
    """A path CSV (a path or a text file) read back through the CSV dialect
    (``tables.csv_rows``), as the package writes path CSVs but reads none:
    name -> float array, with ``x_observed`` and ``noise`` None when empty in
    every row.  A non-numeric field raises ParseError naming its line."""
    names = ["t", "sigma_sq", "x_true", "x_observed", "noise"]
    optional = ("x_observed", "noise")
    cells = []
    with tables.csv_rows(source, names) as (_, rows):
        for row in rows:
            try:
                cells.append([None if name in optional and not f else float(f)
                              for name, f in zip(names, row)])
            except ValueError:
                raise ParseError(f"non-numeric field in {','.join(row)!r}") from None
    columns = list(zip(*cells)) or [()] * len(names)
    return {name: None if name in optional and all(c is None for c in col) else np.array(col, dtype=float)
            for name, col in zip(names, columns)}


def assert_same_text(got: str, want: str) -> None:
    """Fail naming the first line that differs, where pytest's own diff of
    two path CSVs would run for minutes."""
    if got != want:
        pairs = enumerate(zip(got.split("\n"), want.split("\n")), 1)
        raise AssertionError(f"first difference (line, got, want): "
                             f"{next((p for p in pairs if p[1][0] != p[1][1]), 'one text ends early')}")


def brute_force_ou_accumulate(grid, sigma0_sq, lam, times, sizes):
    """Exact OU values at grid points: ``np.add.at`` deposits, then a numpy-scalar loop."""
    n = grid.n_steps
    decay = math.exp(-lam * grid.dt)
    grid_times = grid.times()
    deposit = np.zeros(n)
    if len(times):
        step = np.searchsorted(grid_times, times, side="left") - 1
        step = np.clip(step, 0, n - 1)
        contrib = sizes * np.exp(-lam * (grid_times[step + 1] - times))
        np.add.at(deposit, step, contrib)
    values = np.empty(n + 1)
    values[0] = sigma0_sq
    v = sigma0_sq
    for k in range(n):
        v = decay * v + deposit[k]
        values[k + 1] = v
    return values


def brute_force_euler_variance(sigma0_sq, shrink, increments):
    """Euler variance values ``v_{k+1} = shrink * v_k + dm_k`` on numpy scalars."""
    values = np.empty(len(increments) + 1)
    values[0] = sigma0_sq
    v = sigma0_sq
    for k in range(len(increments)):
        v = shrink * v + increments[k]
        values[k + 1] = v
    return values


def brute_force_grid_times(grid):
    return grid.t0 + grid.dt * np.arange(grid.n_steps + 1)


def brute_force_cumulative_on_grid(grid, times, sizes):
    """Running event sum at each grid time: a zero concatenated before ``np.cumsum``."""
    running = np.concatenate([[0.0], np.cumsum(sizes)])
    return running[np.searchsorted(times, brute_force_grid_times(grid), side="right")]


def brute_force_jump_energy(times, sizes, upto):
    """Sum of squared sizes of the events at or before ``upto``, by a boolean mask."""
    return float(np.sum(sizes[times <= upto] ** 2))


def brute_force_euler_log_price(grid, params, sigma_sq, jump_increments, seed, diffusion):
    """Euler log price with the running sum concatenated after a zero."""
    dt = grid.dt
    drift = (params.mu + params.beta * sigma_sq[:-1]) * dt
    brownian = 0.0
    if diffusion:
        dw = math.sqrt(dt) * substream(seed, BROWNIAN_STREAM).standard_normal(grid.n_steps)
        brownian = np.sqrt(sigma_sq[:-1]) * dw
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([[0.0], np.cumsum(drift + brownian + params.rho * jump_increments)])


def brute_force_combine_paths(p1, p2, w1, w2):
    """(times, sizes, cumulative) of the weighted superposition: the weighted
    event lists concatenated and stably argsorted, whichever weights are
    zero, and the cumulative as ``w1 * c1 + w2 * c2`` in fresh arrays."""
    times = []
    sizes = []
    if w1 > 0 and len(p1.event_times):
        times.append(p1.event_times)
        sizes.append(w1 * p1.event_sizes)
    if w2 > 0 and len(p2.event_times):
        times.append(p2.event_times)
        sizes.append(w2 * p2.event_sizes)
    if times:
        times = np.concatenate(times)
        sizes = np.concatenate(sizes)
        order = times.argsort(kind="stable")
        times = times[order]
        sizes = sizes[order]
    else:
        times = np.empty(0)
        sizes = np.empty(0)
    return times, sizes, w1 * p1.cumulative + w2 * p2.cumulative


def brute_force_integrate_variance(grid, values, upto):
    """Trapezoidal integral of the values up to ``upto`` on numpy scalars,
    the partial last cell interpolated linearly."""
    dt = grid.dt
    k = min(int(math.floor(upto / dt + 1e-9)), grid.n_steps)
    full = dt * (values[: k + 1].sum() - 0.5 * (values[0] + values[k])) if k >= 1 else 0.0
    frac = upto - k * dt
    if frac > 1e-12 and k < grid.n_steps:
        v0 = float(values[k])
        v_up = v0 + (float(values[k + 1]) - v0) * frac / dt
        full += 0.5 * (v0 + v_up) * frac
    return float(full)


def brute_force_correlation_generalized(var_path, z, zb, params, t, s):
    """The generalized correlation functional with every constant recomputed
    from the parameters on each call and the jump energies taken by mask."""
    var_z = 2.0 * params.spec_base.intensity / params.spec_base.jump_rate**2
    var_zb = 2.0 * params.spec_strong.intensity / params.spec_strong.jump_rate**2
    rho2 = params.rho**2
    w_base = (1.0 - params.theta) ** 2
    w_strong = params.theta**2
    var_eff = w_base * var_z + w_strong * var_zb
    grid = var_path.grid
    int_s = brute_force_integrate_variance(grid, var_path.values, s)
    int_t = brute_force_integrate_variance(grid, var_path.values, t)
    upto = grid.t0 + s
    num = int_s + rho2 * w_base * brute_force_jump_energy(z.event_times, z.event_sizes, upto) \
        + rho2 * w_strong * brute_force_jump_energy(zb.event_times, zb.event_sizes, upto)
    den = math.sqrt((int_t + t * rho2 * params.lam * var_eff)
                    * (int_s + s * rho2 * params.lam * var_eff))
    return num / den


def brute_force_gini_split(X, y, idx, features, min_leaf):
    """Best (impurity, feature, threshold): each feature sorted and scanned alone."""
    n = idx.size
    best = None
    for f in features:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        if xs[0] == xs[-1]:
            continue
        ys = y[idx][order]
        left_ones = np.cumsum(ys)[:-1].astype(float)
        k = np.arange(1, n, dtype=float)
        right_ones = float(ys.sum()) - left_ones
        rk = n - k
        valid = (xs[1:] != xs[:-1]) & (k >= min_leaf) & (rk >= min_leaf)
        if not valid.any():
            continue
        gini_l = 1.0 - (left_ones / k) ** 2 - ((k - left_ones) / k) ** 2
        gini_r = 1.0 - (right_ones / rk) ** 2 - ((rk - right_ones) / rk) ** 2
        weighted = (k * gini_l + rk * gini_r) / n
        weighted = np.where(valid, weighted, np.inf)
        p = int(np.argmin(weighted))
        if best is None or weighted[p] < best[0] - 1e-12:
            best = (float(weighted[p]), int(f), float(xs[p]))
    return best


def brute_force_mse_split(X, g, idx, min_leaf):
    """Best (gain, feature, threshold) of L^2/k + R^2/(n-k), one feature at a time."""
    n = idx.size
    best = None
    total = float(g[idx].sum())
    for f in range(X.shape[1]):
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        if xs[0] == xs[-1]:
            continue
        gs = g[idx][order]
        left = np.cumsum(gs)[:-1]
        k = np.arange(1, n, dtype=float)
        rk = n - k
        valid = (xs[1:] != xs[:-1]) & (k >= min_leaf) & (rk >= min_leaf)
        if not valid.any():
            continue
        gain = left**2 / k + (total - left) ** 2 / rk
        gain = np.where(valid, gain, -np.inf)
        p = int(np.argmax(gain))
        if best is None or gain[p] > best[0] + 1e-12:
            best = (float(gain[p]), int(f), float(xs[p]))
    return best


def brute_force_gini_tree(X, y, max_depth, min_leaf, max_features=None, rng=None):
    """CART node dicts grown by re-sorting at every node; candidate features
    per split drawn from ``rng`` when ``max_features`` < d."""
    d = X.shape[1]

    def candidates():
        if max_features is None or max_features >= d:
            return np.arange(d)
        return np.sort(rng.choice(d, max_features, replace=False))

    def grow(idx, depth):
        ones = int(y[idx].sum())
        n = idx.size
        node = {"feature": -1, "threshold": 0.0, "value": 1 if 2 * ones > n else 0,
                "left": None, "right": None}
        if depth >= max_depth or n < 2 * min_leaf or ones == 0 or ones == n:
            return node
        best = brute_force_gini_split(X, y, idx, candidates(), min_leaf)
        if best is None:
            return node
        _, node["feature"], node["threshold"] = best
        mask = X[idx, node["feature"]] <= node["threshold"]
        node["left"] = grow(idx[mask], depth + 1)
        node["right"] = grow(idx[~mask], depth + 1)
        return node

    return grow(np.arange(len(y)), 0)


def brute_force_regression_tree(X, g, h, max_depth, min_leaf):
    """Squared-error node dicts with Newton leaf values, re-sorting at every node."""
    def grow(idx, depth):
        node = {"feature": -1, "threshold": 0.0,
                "value": float(g[idx].sum() / (h[idx].sum() + 1e-12)),
                "left": None, "right": None}
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return node
        best = brute_force_mse_split(X, g, idx, min_leaf)
        if best is None:
            return node
        _, node["feature"], node["threshold"] = best
        mask = X[idx, node["feature"]] <= node["threshold"]
        node["left"] = grow(idx[mask], depth + 1)
        node["right"] = grow(idx[~mask], depth + 1)
        return node

    return grow(np.arange(len(g)), 0)


def brute_force_route(node, x):
    """Leaf dict reached by one row under ``x[feature] <= threshold``."""
    while node["left"] is not None:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node


def brute_force_knn_scores(X_train, y_train, X, k):
    """Class-1 share among the k nearest rows, from one n_test x n_train matrix."""
    d2 = (X**2).sum(axis=1)[:, None] + (X_train**2).sum(axis=1)[None, :] - 2.0 * X @ X_train.T
    d2 = np.maximum(d2, 0.0)
    k = min(k, len(y_train))
    nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
    return y_train[nearest].mean(axis=1)


def brute_force_sq_distances(A, B):
    d2 = (A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :] - 2.0 * A @ B.T
    return np.maximum(d2, 0.0)


def brute_force_kmeans(X, y, k, iterations, restarts, seed):
    """(centroids, cluster labels) of seeded Lloyd restarts, every distance
    matrix computed from scratch."""
    n = len(X)
    k = min(k, n)
    best_inertia = np.inf
    best_centroids = None
    for r in range(restarts):
        rng = substream(seed, r)
        centroids = X[rng.choice(n, k, replace=False)].copy()
        assign = None
        for _ in range(iterations):
            new_assign = np.argmin(brute_force_sq_distances(X, centroids), axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for c in range(k):
                members = X[assign == c]
                if len(members):
                    centroids[c] = members.mean(axis=0)
        inertia = float(brute_force_sq_distances(X, centroids).min(axis=1).sum())
        if inertia < best_inertia - 1e-12:
            best_inertia = inertia
            best_centroids = centroids.copy()
    assign = np.argmin(brute_force_sq_distances(X, best_centroids), axis=1)
    overall = 1 if 2 * int(y.sum()) > n else 0
    labels = np.empty(k, dtype=int)
    for c in range(k):
        members = y[assign == c]
        if len(members) == 0:
            labels[c] = overall
        else:
            labels[c] = 1 if 2 * int(members.sum()) > len(members) else 0
    return best_centroids, labels


def brute_force_linear_svm(X, y, c, epochs):
    """(weights, bias) of full-batch hinge subgradient descent, each epoch
    forming the label-signed active rows afresh."""
    y_pm = 2.0 * np.asarray(y, dtype=float) - 1.0
    n, d = X.shape
    lam = 1.0 / (c * n)
    radius = 1.0 / math.sqrt(lam)
    w = np.zeros(d)
    b = 0.0
    for t in range(1, epochs + 1):
        eta = 1.0 / (lam * t)
        active = y_pm * (X @ w + b) < 1.0
        if active.any():
            push_w = (y_pm[active, None] * X[active]).sum(axis=0) / n
            push_b = float(y_pm[active].sum()) / n
        else:
            push_w = 0.0
            push_b = 0.0
        w = (1.0 - eta * lam) * w + eta * push_w
        b = b + eta * push_b
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w *= radius / norm
    return w, b


def brute_force_first_best(scores, valid, xs, features):
    """(score, feature, threshold) of the lowest valid score, one feature at a
    time: a later feature must beat the incumbent by more than 1e-12."""
    if scores.shape[1] == 0:
        return None
    pick = np.argmin(scores, axis=1)
    best = None
    for r in np.flatnonzero(valid.any(axis=1)):
        p = pick[r]
        score = float(scores[r, p])
        if best is None or score < best[0] - 1e-12:
            best = (score, int(features[r]), float(xs[r, p]))
    return best


def brute_force_neural_net_fit(X, y, hidden_width, epochs, learning_rate, seed):
    """Parameters ``[w1, c1, w2, c2, w3, c3]`` of the full-batch Adam epochs,
    every activation, gradient and moment a fresh array per layer."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, d = X.shape
    h = hidden_width
    rng = substream(seed)
    params = [
        rng.normal(0.0, np.sqrt(2.0 / d), (d, h)), np.zeros(h),
        rng.normal(0.0, np.sqrt(2.0 / h), (h, h)), np.zeros(h),
        rng.normal(0.0, np.sqrt(2.0 / h), (h, 2)), np.zeros(2),
    ]
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), y] = 1.0
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, epochs + 1):
        w1, c1, w2, c2, w3, c3 = params
        a1 = np.maximum(X @ w1 + c1, 0.0)
        a2 = np.maximum(a1 @ w2 + c2, 0.0)
        z = a2 @ w3 + c3
        e = np.exp(z - z.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        dz3 = (probs - onehot) / n
        g5, g6 = a2.T @ dz3, dz3.sum(axis=0)
        dz2 = (dz3 @ w3.T) * (a2 > 0)
        g3, g4 = a1.T @ dz2, dz2.sum(axis=0)
        dz1 = (dz2 @ w2.T) * (a1 > 0)
        g1, g2 = X.T @ dz1, dz1.sum(axis=0)
        grads = [g1, g2, g3, g4, g5, g6]
        for j, g in enumerate(grads):
            m[j] = b1 * m[j] + (1 - b1) * g
            v[j] = b2 * v[j] + (1 - b2) * g**2
            m_hat = m[j] / (1 - b1**t)
            v_hat = v[j] / (1 - b2**t)
            params[j] = params[j] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return params


def brute_force_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def brute_force_neural_net_score(params, X):
    """Class-1 softmax probability of each row, every activation a fresh array."""
    w1, c1, w2, c2, w3, c3 = params
    a1 = np.maximum(np.asarray(X, dtype=float) @ w1 + c1, 0.0)
    a2 = np.maximum(a1 @ w2 + c2, 0.0)
    return brute_force_softmax(a2 @ w3 + c3)[:, 1]

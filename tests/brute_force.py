"""Independent brute-force re-derivations of the data and labeling stages.

Deliberately literal: explicit loops over rows, explicit day and session
equality checks and explicit mark counting over the lookahead rows.  The
row-level logic shares no code with the package implementation so the two
can check each other; only the per-group formulas the vectorized code
leaves untouched (skewness/kurtosis, the BV scale) and the result
containers are imported.
"""

from __future__ import annotations

import csv

import numpy as np

from bnsjump.market_data import BV_SCALE, StatsReport, _skew_kurt


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


def brute_force_changes(series):
    """Percent change per bar from the previous bar of its (day, session)
    block with a positive close; NaN where there is none."""
    days = [ts.date() for ts in series.timestamps]
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
    days = [ts.date() for ts in series.timestamps]
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
    for i, ts in enumerate(series.timestamps):
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
    days = [ts.date() for ts in series.timestamps]
    for i in range(1, len(series)):
        if days[i] != days[i - 1] or series.session[i] != series.session[i - 1]:
            continue
        prev_close = series.closes[i - 1]
        if prev_close <= 0:
            continue
        stamps.append(series.timestamps[i])
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
    for ts, close in zip(series.timestamps, series.closes):
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
    for i, ts in enumerate(returns.timestamps):
        key = ts.date().isoformat() if window == "day" else f"{ts.year:04d}-{ts.month:02d}"
        if key not in rows:
            rows[key] = []
            order.append(key)
        rows[key].append(i)
    keys = brute_force_session_keys(returns.timestamps, returns.session)
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
        ends.append(returns.timestamps[idx[-1]])
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
        anchors.append(int(returns.index[i]))
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

"""Acceptance suite: one test per release criterion, each printing a
PASS line on success (run with ``pytest -s tests/test_acceptance.py`` to
see them).  Tolerances are fixed here, not calibrated elsewhere."""

import json
import math
import time
from datetime import datetime, timedelta

import numpy as np
import pytest
from scipy.stats import spearmanr

from bnsjump.classifiers import evaluate, predict, run_benchmark, train
from bnsjump.cli import main as cli_main
from bnsjump.dynamics import (
    ModelParams,
    correlation_classical,
    correlation_generalized,
    euler_variance_path,
    regrid_path,
    simulate_log_price,
    simulate_log_price_classical,
    simulate_variance_path,
    simulate_variance_path_classical,
)
from bnsjump.labeling import (
    IndexedReturns,
    LabelingConfig,
    SplitSpec,
    build_dataset,
    index_series,
    mark_big_jumps,
)
from bnsjump.market_data import (
    BarSeries,
    ReturnSeries,
    SessionCalendar,
    pct_change,
    preprocess,
    realized_measures,
    resample,
    write_bars_csv,
)
from bnsjump.subordinators import (
    SubordinatorSpec,
    TimeGrid,
    sample_subordinator_path,
    subordinator_moments,
    terminal_samples,
)
from bnsjump.synthetic import synthetic_bars

from brute_force import brute_force_dataset
from conftest import as_dataset, make_returns, separable_blobs, single_day_bars


def _report(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS" + (f" ({detail})" if detail else ""))


def cp_moment_tolerances(nu, a, n):
    """3-SE bounds from the closed-form compound-Poisson cumulants."""
    k2 = 2.0 * nu / a**2
    k4 = 24.0 * nu / a**4
    return 3.0 * math.sqrt(k2 / n), 3.0 * math.sqrt((k4 + 2.0 * k2**2) / n)


def test_c01_subordinator_moments():
    start = time.perf_counter()
    n = 100_000
    for nu, a in [(1.0, 1.0), (2.0, 2.0), (0.5, 2.0)]:
        spec = SubordinatorSpec(nu, a)
        mean, var = subordinator_moments(spec)
        tol_mean, tol_var = cp_moment_tolerances(nu, a, n)
        z = terminal_samples(spec, 1.0, 1.0, n, seed=2024)
        assert abs(z.mean() - mean) <= tol_mean, (nu, a)
        assert abs(z.var(ddof=1) - var) <= tol_var, (nu, a)
    # the event-list sampler obeys the same law; full-size check on (1, 1)
    spec = SubordinatorSpec(1.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 1)
    totals = np.fromiter(
        (sample_subordinator_path(spec, 1.0, grid, seed=(2025, i)).total() for i in range(n)),
        dtype=float, count=n)
    tol_mean, tol_var = cp_moment_tolerances(1.0, 1.0, n)
    assert abs(totals.mean() - 1.0) <= tol_mean
    assert abs(totals.var(ddof=1) - 2.0) <= tol_var
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("C1 subordinator moments", f"3 parameter sets, 1e5 paths, {elapsed:.1f}s")


def test_c02_variance_positivity_floor():
    rng = np.random.default_rng(99)
    worst = np.inf
    for i in range(1000):
        lam = float(rng.uniform(0.1, 3.0))
        sigma0 = float(rng.uniform(0.1, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        a = float(rng.uniform(0.5, 5.0))
        nu = float(rng.uniform(0.0, 3.0))
        params = ModelParams(lam=lam, theta=theta, sigma0_sq=sigma0,
                             spec_base=SubordinatorSpec(nu, a),
                             spec_strong=SubordinatorSpec(nu + float(rng.uniform(0.0, 2.0)), a))
        grid = TimeGrid(0.0, 2.0 / 128, 128)
        z = sample_subordinator_path(params.spec_base, lam, grid, seed=(42, i, 0))
        zb = sample_subordinator_path(params.spec_strong, lam, grid, seed=(42, i, 1))
        vp = simulate_variance_path(params, z, zb)
        floor = np.exp(-lam * grid.times()) * sigma0
        worst = min(worst, float(np.min(vp.values - floor)))
    assert worst >= -1e-12
    _report("C2 variance positivity floor", f"min slack {worst:.2e} over 1000 paths")


def test_c03_euler_convergence():
    params = ModelParams(lam=1.2, theta=0.4, sigma0_sq=1.0,
                         spec_base=SubordinatorSpec(2.0, 1.5),
                         spec_strong=SubordinatorSpec(3.0, 1.5))
    coarse = TimeGrid(0.0, 1.0 / 64, 64)
    fine = TimeGrid(0.0, 1.0 / 128, 128)
    devs = {64: [], 128: []}
    for i in range(100):
        z = sample_subordinator_path(params.spec_base, params.lam, coarse, seed=(7, i, 0))
        zb = sample_subordinator_path(params.spec_strong, params.lam, coarse, seed=(7, i, 1))
        for grid, key in ((coarse, 64), (fine, 128)):
            zg, zbg = regrid_path(z, grid), regrid_path(zb, grid)
            exact = simulate_variance_path(params, zg, zbg)
            euler = euler_variance_path(params, zg, zbg)
            devs[key].append(np.max(np.abs(euler.values - exact.values)))
    ratio = float(np.mean(devs[128]) / np.mean(devs[64]))
    assert 0.4 <= ratio <= 0.6
    _report("C3 Euler convergence", f"halving ratio {ratio:.3f}")


def test_c04_reduction_identity():
    params = ModelParams(mu=0.02, beta=0.05, rho=-0.4, lam=1.5, theta=0.0, sigma0_sq=0.9,
                         spec_base=SubordinatorSpec(2.0, 1.0),
                         spec_strong=SubordinatorSpec(5.0, 1.0))
    grid = TimeGrid(0.0, 0.005, 200)
    worst = 0.0
    for i in range(20):
        z = sample_subordinator_path(params.spec_base, params.lam, grid, seed=(3, i, 0))
        zb = sample_subordinator_path(params.spec_strong, params.lam, grid, seed=(3, i, 1))
        vp_g = simulate_variance_path(params, z, zb)
        vp_c = simulate_variance_path_classical(params, z)
        lp_g = simulate_log_price(params, vp_g, z, zb, seed=(3, i, 2))
        lp_c = simulate_log_price_classical(params, vp_c, z, seed=(3, i, 2))
        worst = max(worst, float(np.max(np.abs(vp_g.values - vp_c.values))),
                    float(np.max(np.abs(lp_g.x_true - lp_c.x_true))))
    assert worst < 1e-12
    _report("C4 reduction identity", f"max |generalized - classical| = {worst:.2e}")


def _correlation_ensemble(theta: float, n_pairs: int, seed: int):
    spec1 = SubordinatorSpec(4.0, 8.0)
    spec2 = SubordinatorSpec(8.0, 8.0)
    params = ModelParams(mu=0.0, beta=0.0, rho=-0.3, lam=1.0, theta=theta,
                         sigma0_sq=1.0, spec_base=spec1, spec_strong=spec2)
    grid = TimeGrid(0.0, 0.02, 100)  # horizon 2, s at index 50
    x_s = np.empty(n_pairs)
    x_t = np.empty(n_pairs)
    formula = np.empty(n_pairs)
    for i in range(n_pairs):
        z = sample_subordinator_path(spec1, params.lam, grid, seed=(seed, i, 0))
        zb = sample_subordinator_path(spec2, params.lam, grid, seed=(seed, i, 1))
        vp = simulate_variance_path(params, z, zb)
        lp = simulate_log_price(params, vp, z, zb, seed=(seed, i, 2))
        x_s[i] = lp.x_true[50]
        x_t[i] = lp.x_true[-1]
        formula[i] = correlation_generalized(vp, z, zb, params, t=2.0, s=1.0)
    emp = float(np.corrcoef(x_t, x_s)[0, 1])
    se_emp = (1.0 - emp**2) / math.sqrt(n_pairs - 3)
    se_formula = float(formula.std(ddof=1)) / math.sqrt(n_pairs)
    tol = 3.0 * math.sqrt(se_emp**2 + se_formula**2)
    return emp, float(formula.mean()), tol


def test_c05_correlation_functionals():
    start = time.perf_counter()
    params = ModelParams(rho=-0.6, lam=1.3, theta=0.0, sigma0_sq=1.0,
                         spec_base=SubordinatorSpec(2.0, 2.0),
                         spec_strong=SubordinatorSpec(3.0, 2.0))
    grid = TimeGrid(0.0, 0.01, 100)
    for i in range(10):
        z = sample_subordinator_path(params.spec_base, params.lam, grid, seed=(11, i, 0))
        zb = sample_subordinator_path(params.spec_strong, params.lam, grid, seed=(11, i, 1))
        vp = simulate_variance_path(params, z, zb)
        for (t, s) in ((0.9, 0.3), (1.0, 0.5), (0.6, 0.2)):
            a = correlation_generalized(vp, z, zb, params, t, s)
            b = correlation_classical(vp, z, params, t, s)
            assert abs(a - b) < 1e-12
    for theta in (0.0, 0.5, 1.0):
        emp, formula_mean, tol = _correlation_ensemble(theta, 10_000, seed=777)
        assert abs(emp - formula_mean) <= tol, (theta, emp, formula_mean, tol)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("C5 correlation functionals", f"3 theta values, 1e4 pairs each, {elapsed:.1f}s")


def test_c06_preprocessing_fixture():
    day = single_day_bars()
    assert len(day) == 240
    cleaned, rate = preprocess(day)
    assert len(cleaned) == 230
    assert rate == pytest.approx(10.0 / 240.0, abs=0.0)
    again, rate2 = preprocess(cleaned)
    assert len(again) == 230
    assert rate2 == 0.0
    assert np.array_equal(again.closes, cleaned.closes)
    _report("C6 preprocessing", "240-bar day -> 230 retained, idempotent")


def test_c07_realized_measures():
    rv = realized_measures(make_returns([1.0, -1.0, 1.0]))
    assert rv.realized_volatility[0] == pytest.approx(3.0, abs=0.0)
    assert rv.bipower_variation[0] == pytest.approx(math.pi, rel=1e-15)
    assert rv.jump_component[0] == 0.0
    rv = realized_measures(make_returns([0.0, 0.0, 10.0, 0.0]))
    assert rv.realized_volatility[0] == pytest.approx(100.0, abs=0.0)
    assert rv.bipower_variation[0] == 0.0
    assert rv.jump_component[0] == pytest.approx(100.0, abs=0.0)

    # jump component tracks injected jump energy across 100 single-day windows
    rng = np.random.default_rng(606)
    stamps = []
    values = []
    energies = []
    day0 = datetime(2021, 1, 4, 9, 32)
    for d in range(100):
        base = day0 + timedelta(days=d)
        n = 100
        r = rng.normal(0.0, 0.02, n)
        k = int(rng.integers(0, 4))
        spots = rng.choice(np.arange(5, n - 5), size=k, replace=False)
        sizes = rng.uniform(0.2, 0.8, k)
        r[spots] += sizes * rng.choice([-1.0, 1.0], k)
        energies.append(float(np.sum(sizes**2)))
        stamps.extend(base + timedelta(minutes=j) for j in range(n))
        values.extend(r)
    returns = ReturnSeries(stamps=np.array(stamps, dtype="datetime64[us]"), values=np.array(values),
                           session=np.zeros(len(values), dtype=int))
    rv = realized_measures(returns, window="day")
    rho, _ = spearmanr(rv.jump_component, energies)
    assert rho > 0.0
    _report("C7 realized measures", f"hand examples exact; rank corr {rho:.2f} over 100 windows")


def test_c08_labeling_oracle():
    rng = np.random.default_rng(4096)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(5, 201))
        values = rng.normal(0.0, 0.12, n).round(4)
        keys = np.cumsum(rng.uniform(size=n) < 0.03).astype(int)
        stamps = np.full(n, np.datetime64("2021-01-04", "us"))
        indexed = IndexedReturns(values=values, stamps=stamps, session_key=keys)
        cfg = LabelingConfig(window_len=int(rng.integers(2, 12)),
                             lookahead=int(rng.integers(1, 12)),
                             threshold_pct=float(rng.uniform(0.05, 0.2)),
                             min_jumps=int(rng.integers(1, 4)))
        marks = mark_big_jumps(indexed, cfg)
        ds = build_dataset(indexed, marks, cfg)
        anchors, _, thetas = brute_force_dataset(values, keys, list(marks),
                                                 cfg.window_len, cfg.lookahead, cfg.min_jumps)
        if list(ds.anchor_index) != anchors or list(ds.theta) != thetas:
            mismatches += 1

        # K-monotonicity: higher threshold never adds marks or positives
        hi_cfg = LabelingConfig(window_len=cfg.window_len, lookahead=cfg.lookahead,
                                threshold_pct=cfg.threshold_pct * 2.0, min_jumps=cfg.min_jumps)
        hi_marks = mark_big_jumps(indexed, hi_cfg)
        assert not (hi_marks & ~marks).any()
        assert build_dataset(indexed, hi_marks, hi_cfg).theta.sum() <= ds.theta.sum()
        # min_jumps monotonicity
        mj_cfg = LabelingConfig(window_len=cfg.window_len, lookahead=cfg.lookahead,
                                threshold_pct=cfg.threshold_pct, min_jumps=cfg.min_jumps + 1)
        assert build_dataset(indexed, marks, mj_cfg).theta.sum() <= ds.theta.sum()
    assert mismatches == 0
    _report("C8 labeling oracle", "1000 series, zero mismatches, monotonicity holds")


def test_c09_classifier_report_correctness():
    report = evaluate([0, 1, 0, 1, 0], [0, 0, 0, 1, 1])
    assert report.class0.precision == pytest.approx(2.0 / 3.0)
    assert report.class0.recall == pytest.approx(2.0 / 3.0)
    assert report.class1.precision == pytest.approx(0.5)
    assert report.class1.recall == pytest.approx(0.5)

    truth = np.concatenate([np.zeros(37, dtype=int), np.ones(293, dtype=int)])
    rep = evaluate(np.ones(330, dtype=int), truth)
    assert abs(rep.class1.precision - 0.888) <= 1e-3
    assert rep.class1.recall == 1.0
    assert rep.supports() == (37, 293)
    _report("C9 classifier report", f"all-1 precision {rep.class1.precision:.4f}, recall 1.00")


def _market_dataset():
    bars = synthetic_bars(days=25, seed=21)
    clean, _ = preprocess(bars)
    returns = pct_change(resample(clean, 1))
    indexed = index_series(returns)
    cfg = LabelingConfig(window_len=10, lookahead=10, threshold_pct=0.1, min_jumps=1)
    return build_dataset(indexed, mark_big_jumps(indexed, cfg), cfg)


def test_c10_support_determinism():
    dataset = _market_dataset()
    n = dataset.source_length
    width = n // 5
    splits = [
        SplitSpec(train=(0, width * 2), test=(width * 2 + 1, width * 3), name="T1"),
        SplitSpec(train=(0, width * 3), test=(width * 3 + 1, width * 4), name="T2"),
        SplitSpec(train=(width, width * 3), test=(width * 3 + 1, n - 1), name="T3"),
        SplitSpec(train=(0, width * 4), test=(width * 4 + 1, n - 1), name="T4"),
    ]
    cells = run_benchmark(dataset, splits, seed=5)  # all nine algorithms
    assert len(cells) == 36
    for name in ("T1", "T2", "T3", "T4"):
        supports = {c.report.supports() for c in cells if c.split_name == name}
        assert len(supports) == 1
        s0, s1 = supports.pop()
        assert s0 > 0 and s1 > 0
    _report("C10 support determinism", "4 splits x 9 algorithms, supports constant")


def test_c11_separable_floor():
    start = time.perf_counter()
    X, y = separable_blobs(n_per_class=100, seed=31)
    train_ds = as_dataset(X[:140], y[:140])
    test_X, test_y = X[140:], y[140:]
    floors = {alg: 0.95 for alg in
              ("logistic_regression", "svm_linear", "knn", "naive_bayes_gaussian",
               "gradient_boost", "decision_tree", "random_forest", "neural_net")}
    floors["kmeans"] = 0.90
    scores = {}
    for alg, floor in floors.items():
        model = train(alg, train_ds, seed=8)
        rep = evaluate(predict(model, test_X), test_y)
        scores[alg] = rep.class1.f1
        assert rep.class1.f1 >= floor, (alg, rep.class1.f1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    worst = min(scores, key=scores.get)
    _report("C11 separable floor", f"worst F1 {scores[worst]:.3f} ({worst}), {elapsed:.1f}s")


def test_c12_pipeline_reproducibility(tmp_path):
    bars = synthetic_bars(days=6, seed=7)
    csv_path = tmp_path / "bars.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_bars_csv(fh, bars)
    flags = ["--interval", "1", "--window", "8", "--lookahead", "8", "--min-jumps", "1",
             "--algorithms", "knn,naive_bayes_gaussian,decision_tree,random_forest",
             "--split", "T1=0:700/701:900", "--split", "T2=0:900/901:1100", "--seed", "3"]

    def run(name, threads):
        out = tmp_path / name
        code = cli_main(["pipeline", "--input", str(csv_path), "--out", str(out),
                         "--threads", threads] + flags)
        assert code == 0
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    first = run("run1", "1")
    second = run("run2", "1")
    threaded = run("run3", "2")
    assert first == second
    assert first == threaded
    _report("C12 reproducibility", f"{len(first)} files byte-identical across runs and threads")

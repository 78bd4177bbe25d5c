import io
import math

import numpy as np
import pytest

from bnsjump.dynamics import (
    LogPricePath,
    ModelParams,
    NoiseSpec,
    VariancePath,
    apply_noise,
    correlation_classical,
    correlation_generalized,
    dumps_path_csv,
    euler_variance_path,
    instantaneous_variance_rate,
    price_series,
    read_path_csv,
    regrid_path,
    simulate_log_price,
    simulate_log_price_classical,
    simulate_variance_path,
    simulate_variance_path_classical,
)
from bnsjump.errors import GridMismatchError, InvalidParameterError, NumericOverflowError
from bnsjump.subordinators import JumpPath, SubordinatorSpec, TimeGrid, sample_subordinator_path

GRID = TimeGrid(0.0, 0.01, 100)


def empty_path(grid=GRID):
    return JumpPath(grid=grid, event_times=np.empty(0), event_sizes=np.empty(0))


def single_event_path(tau, size, grid=GRID):
    return JumpPath(grid=grid, event_times=np.array([tau]), event_sizes=np.array([size]))


class TestVariancePath:
    def test_jump_free_decay(self):
        params = ModelParams(lam=1.0, theta=0.0, sigma0_sq=1.0)
        vp = simulate_variance_path(params, empty_path(), empty_path())
        np.testing.assert_allclose(vp.values, np.exp(-GRID.times()), rtol=0, atol=1e-12)

    def test_single_event_closed_form(self):
        params = ModelParams(lam=1.0, theta=0.0, sigma0_sq=1.0)
        vp = simulate_variance_path(params, single_event_path(0.5, 2.0), empty_path())
        expected = math.exp(-1.0) + 2.0 * math.exp(-0.5)
        assert vp.values[-1] == pytest.approx(expected, abs=1e-12)

    def test_theta_one_ignores_base(self):
        params = ModelParams(lam=2.0, theta=1.0, sigma0_sq=0.5)
        zb = single_event_path(0.3, 1.5)
        a = simulate_variance_path(params, single_event_path(0.6, 9.0), zb)
        b = simulate_variance_path(params, empty_path(), zb)
        assert np.array_equal(a.values, b.values)

    def test_positivity_floor_random_params(self):
        rng = np.random.default_rng(42)
        for i in range(200):
            lam = float(rng.uniform(0.1, 3.0))
            sigma0 = float(rng.uniform(0.1, 2.0))
            theta = float(rng.uniform(0.0, 1.0))
            nu = float(rng.uniform(0.0, 3.0))
            spec = SubordinatorSpec(nu, float(rng.uniform(0.5, 5.0)))
            spec_b = SubordinatorSpec(nu + float(rng.uniform(0.0, 2.0)), spec.jump_rate)
            params = ModelParams(lam=lam, theta=theta, sigma0_sq=sigma0,
                                 spec_base=spec, spec_strong=spec_b)
            grid = TimeGrid(0.0, 2.0 / 128, 128)
            z = sample_subordinator_path(spec, lam, grid, seed=(900, i, 0))
            zb = sample_subordinator_path(spec_b, lam, grid, seed=(900, i, 1))
            vp = simulate_variance_path(params, z, zb)
            floor = np.exp(-lam * grid.times()) * sigma0
            assert np.min(vp.values - floor) >= -1e-12

    def test_grid_mismatch(self):
        params = ModelParams()
        with pytest.raises(GridMismatchError):
            simulate_variance_path(params, empty_path(), empty_path(TimeGrid(0.0, 0.02, 50)))

    def test_euler_converges_first_order(self):
        params = ModelParams(lam=1.2, theta=0.4, sigma0_sq=1.0,
                             spec_base=SubordinatorSpec(2.0, 1.5),
                             spec_strong=SubordinatorSpec(3.0, 1.5))
        coarse = TimeGrid(0.0, 1.0 / 64, 64)
        fine = TimeGrid(0.0, 1.0 / 128, 128)
        devs_coarse = []
        devs_fine = []
        for i in range(30):
            z = sample_subordinator_path(params.spec_base, params.lam, coarse, seed=(77, i, 0))
            zb = sample_subordinator_path(params.spec_strong, params.lam, coarse, seed=(77, i, 1))
            for grid, out in ((coarse, devs_coarse), (fine, devs_fine)):
                zg, zbg = regrid_path(z, grid), regrid_path(zb, grid)
                exact = simulate_variance_path(params, zg, zbg)
                euler = euler_variance_path(params, zg, zbg)
                out.append(np.max(np.abs(euler.values - exact.values)))
        ratio = np.mean(devs_fine) / np.mean(devs_coarse)
        assert 0.4 <= ratio <= 0.6


class TestReduction:
    def test_theta_zero_variance_identical(self):
        params = ModelParams(lam=1.5, theta=0.0, sigma0_sq=0.8,
                             spec_base=SubordinatorSpec(2.0, 1.0),
                             spec_strong=SubordinatorSpec(4.0, 1.0))
        z = sample_subordinator_path(params.spec_base, params.lam, GRID, seed=(5, 0))
        zb = sample_subordinator_path(params.spec_strong, params.lam, GRID, seed=(5, 1))
        generalized = simulate_variance_path(params, z, zb)
        classical = simulate_variance_path_classical(params, z)
        assert np.max(np.abs(generalized.values - classical.values)) < 1e-12

    def test_theta_zero_log_price_identical(self):
        params = ModelParams(mu=0.05, beta=0.1, rho=-0.5, lam=1.5, theta=0.0, sigma0_sq=0.8,
                             spec_base=SubordinatorSpec(2.0, 1.0),
                             spec_strong=SubordinatorSpec(4.0, 1.0))
        z = sample_subordinator_path(params.spec_base, params.lam, GRID, seed=(6, 0))
        zb = sample_subordinator_path(params.spec_strong, params.lam, GRID, seed=(6, 1))
        vp = simulate_variance_path(params, z, zb)
        a = simulate_log_price(params, vp, z, zb, seed=123)
        b = simulate_log_price_classical(params, vp, z, seed=123)
        assert np.max(np.abs(a.x_true - b.x_true)) < 1e-12


class TestLogPrice:
    def test_all_drivers_off(self):
        params = ModelParams(mu=0.0, beta=0.0, rho=0.0, lam=1.0, theta=0.0, sigma0_sq=1e-12)
        vp = simulate_variance_path(params, empty_path(), empty_path())
        lp = simulate_log_price(params, vp, empty_path(), empty_path(), seed=3)
        assert np.max(np.abs(lp.x_true)) < 1e-4

    def test_pure_drift(self):
        params = ModelParams(mu=1.0, beta=0.0, rho=0.0, sigma0_sq=1.0)
        vp = simulate_variance_path(params, empty_path(), empty_path())
        lp = simulate_log_price(params, vp, empty_path(), empty_path(), seed=3, diffusion=False)
        assert lp.x_true[-1] == pytest.approx(GRID.horizon, abs=1e-12)
        assert lp.x_true[0] == 0.0

    def test_jump_discontinuity(self):
        params = ModelParams(mu=0.0, beta=0.0, rho=-1.0, theta=1.0, sigma0_sq=1.0,
                             spec_base=SubordinatorSpec(1.0, 1.0),
                             spec_strong=SubordinatorSpec(2.0, 1.0))
        size = 0.7
        zb = single_event_path(0.5, size)
        vp = simulate_variance_path(params, empty_path(), zb)
        lp = simulate_log_price(params, vp, empty_path(), zb, seed=3, diffusion=False)
        steps = np.diff(lp.x_true)
        k = int(np.argmin(steps))
        assert steps[k] == pytest.approx(-size, abs=1e-15)
        assert GRID.times()[k] < 0.5 <= GRID.times()[k + 1]
        assert lp.x_true[-1] == pytest.approx(-size, abs=1e-15)

    def test_overflow_raises(self):
        grid = TimeGrid(0.0, 1.0, 10)
        params = ModelParams(mu=1e308, beta=0.0, rho=0.0, sigma0_sq=1.0)
        z = empty_path(grid)
        vp = simulate_variance_path(params, z, z)
        with pytest.raises(NumericOverflowError):
            simulate_log_price(params, vp, z, z, seed=3, diffusion=False)


class TestNoise:
    def _price_path(self, seed=5):
        params = ModelParams(mu=0.0, beta=0.0, rho=0.0, sigma0_sq=0.04)
        grid = TimeGrid(0.0, 1e-3, 2000)
        z = empty_path(grid)
        vp = simulate_variance_path(params, z, z)
        return simulate_log_price(params, vp, z, z, seed=seed)

    def test_zero_std_identity(self):
        lp = apply_noise(self._price_path(), NoiseSpec(std=0.0), seed=1)
        assert np.array_equal(lp.x_observed, lp.x_true)
        assert np.all(lp.noise == 0.0)

    def test_determinism(self):
        a = apply_noise(self._price_path(), NoiseSpec(std=0.01), seed=9)
        b = apply_noise(self._price_path(), NoiseSpec(std=0.01), seed=9)
        assert np.array_equal(a.noise, b.noise)

    def test_clt_mean_bound(self):
        n = 100000
        grid = TimeGrid(0.0, 1e-5, n - 1)
        lp = LogPricePath(grid=grid, x_true=np.zeros(n))
        noisy = apply_noise(lp, NoiseSpec(std=0.01), seed=12)
        assert abs(noisy.noise.mean()) <= 3.0 * 0.01 / math.sqrt(n)

    def test_noise_independent_of_increments(self):
        params = ModelParams(mu=0.0, beta=0.0, rho=0.0, sigma0_sq=0.04)
        n = 100000
        grid = TimeGrid(0.0, 1e-5, n)
        z = empty_path(grid)
        vp = simulate_variance_path(params, z, z)
        lp = apply_noise(simulate_log_price(params, vp, z, z, seed=21), NoiseSpec(std=0.01), seed=21)
        dx = np.diff(lp.x_true)
        corr = np.corrcoef(lp.noise[1:], dx)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n)

    def test_negative_std_rejected(self):
        with pytest.raises(InvalidParameterError):
            NoiseSpec(std=-0.1)


class TestPriceSeries:
    def test_constant_price(self):
        lp = LogPricePath(grid=GRID, x_true=np.zeros(GRID.n_steps + 1), s0=100.0)
        assert np.all(price_series(lp) == 100.0)

    def test_exponential_identity(self):
        x = np.full(GRID.n_steps + 1, math.log(2.0))
        lp = LogPricePath(grid=GRID, x_true=x, s0=100.0)
        np.testing.assert_allclose(price_series(lp), 200.0, rtol=1e-15)


class TestInstantaneousVariance:
    def test_rho_zero_identity(self):
        params = ModelParams(rho=0.0)
        assert instantaneous_variance_rate(params, 0.3) == 0.3

    def test_theta_zero_substitution(self):
        params = ModelParams(rho=-1.0, lam=2.0, theta=0.0,
                             spec_base=SubordinatorSpec(1.0, 1.0),
                             spec_strong=SubordinatorSpec(2.0, 1.0))
        # Var[Z_1] = 2 -> sigma^2 + 1 * 1 * 2 * 2
        assert instantaneous_variance_rate(params, 0.5) == pytest.approx(0.5 + 4.0)

    def test_theta_one_substitution(self):
        params = ModelParams(rho=-1.0, lam=1.0, theta=1.0,
                             spec_base=SubordinatorSpec(1.0, 1.0),
                             spec_strong=SubordinatorSpec(2.0, 2.0))
        # Var[Zb_1] = 1 -> sigma^2 + 1
        assert instantaneous_variance_rate(params, 0.5) == pytest.approx(1.5)


class TestCorrelations:
    def test_rho_zero_reduces_to_integral_ratio(self):
        params = ModelParams(rho=0.0, lam=1.0, sigma0_sq=1.0)
        z = single_event_path(0.25, 1.0)
        vp = simulate_variance_path_classical(params, z)
        got = correlation_classical(vp, z, params, t=0.9, s=0.4)
        from bnsjump.dynamics import integrate_variance
        num = integrate_variance(vp, 0.4)
        den = math.sqrt(integrate_variance(vp, 0.9) * integrate_variance(vp, 0.4))
        assert got == pytest.approx(num / den, rel=1e-14)

    def test_constant_variance_sqrt_ratio(self):
        c = 0.7
        vp = VariancePath(grid=GRID, values=np.full(GRID.n_steps + 1, c), driving=empty_path())
        params = ModelParams(rho=0.0, lam=1.0)
        got = correlation_classical(vp, empty_path(), params, t=1.0, s=0.25)
        assert got == pytest.approx(math.sqrt(0.25 / 1.0), rel=1e-12)

    def test_strictly_decreasing_in_t(self):
        params = ModelParams(rho=-0.4, lam=1.0, sigma0_sq=1.0,
                             spec_base=SubordinatorSpec(2.0, 2.0))
        z = sample_subordinator_path(params.spec_base, params.lam, GRID, seed=33)
        vp = simulate_variance_path_classical(params, z)
        s = 0.2
        values = [correlation_classical(vp, z, params, t, s) for t in np.linspace(0.3, 1.0, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_generalized_theta_zero_equals_classical(self):
        params = ModelParams(rho=-0.6, lam=1.3, theta=0.0, sigma0_sq=1.0,
                             spec_base=SubordinatorSpec(2.0, 2.0),
                             spec_strong=SubordinatorSpec(3.0, 2.0))
        z = sample_subordinator_path(params.spec_base, params.lam, GRID, seed=(44, 0))
        zb = sample_subordinator_path(params.spec_strong, params.lam, GRID, seed=(44, 1))
        vp = simulate_variance_path(params, z, zb)
        a = correlation_generalized(vp, z, zb, params, t=0.8, s=0.3)
        b = correlation_classical(vp, z, params, t=0.8, s=0.3)
        assert abs(a - b) < 1e-12

    def test_theta_one_uses_strong_jumps_only(self):
        params = ModelParams(rho=-0.6, lam=1.0, theta=1.0, sigma0_sq=1.0,
                             spec_base=SubordinatorSpec(2.0, 2.0),
                             spec_strong=SubordinatorSpec(3.0, 2.0))
        zb = single_event_path(0.2, 1.1)
        vp = simulate_variance_path(params, empty_path(), zb)
        with_base_jumps = correlation_generalized(vp, single_event_path(0.1, 5.0), zb, params, 0.9, 0.5)
        without = correlation_generalized(vp, empty_path(), zb, params, 0.9, 0.5)
        assert with_base_jumps == without
        from bnsjump.dynamics import integrate_variance
        num = integrate_variance(vp, 0.5) + params.rho**2 * 1.1**2
        _, var_zb = (0.0, 2.0 * 3.0 / 4.0)
        alpha_t = integrate_variance(vp, 0.9) + 0.9 * params.rho**2 * params.lam * var_zb
        alpha_s = integrate_variance(vp, 0.5) + 0.5 * params.rho**2 * params.lam * var_zb
        assert without == pytest.approx(num / math.sqrt(alpha_t * alpha_s), rel=1e-12)

    def test_domain_error(self):
        vp = VariancePath(grid=GRID, values=np.ones(GRID.n_steps + 1), driving=empty_path())
        params = ModelParams()
        with pytest.raises(InvalidParameterError):
            correlation_classical(vp, empty_path(), params, t=0.3, s=0.5)


class TestPathCsv:
    def test_roundtrip(self):
        params = ModelParams(mu=0.1, rho=-0.2, sigma0_sq=0.5,
                             spec_base=SubordinatorSpec(2.0, 2.0),
                             spec_strong=SubordinatorSpec(2.0, 2.0))
        z = sample_subordinator_path(params.spec_base, params.lam, GRID, seed=(7, 0))
        zb = sample_subordinator_path(params.spec_strong, params.lam, GRID, seed=(7, 1))
        vp = simulate_variance_path(params, z, zb)
        lp = apply_noise(simulate_log_price(params, vp, z, zb, seed=7), NoiseSpec(std=0.01), seed=7)
        text = dumps_path_csv(vp, lp)
        back = read_path_csv(io.StringIO(text))
        assert np.array_equal(back["t"], GRID.times())
        assert np.array_equal(back["sigma_sq"], vp.values)
        assert np.array_equal(back["x_true"], lp.x_true)
        assert np.array_equal(back["x_observed"], lp.x_observed)
        assert np.array_equal(back["noise"], lp.noise)

    def test_missing_noise_columns_empty(self):
        params = ModelParams(sigma0_sq=1.0)
        z = empty_path()
        vp = simulate_variance_path(params, z, z)
        lp = simulate_log_price(params, vp, z, z, seed=1)
        back = read_path_csv(io.StringIO(dumps_path_csv(vp, lp)))
        assert back["x_observed"] is None
        assert back["noise"] is None

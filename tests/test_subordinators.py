import math
import re

import numpy as np
import pytest

from bnsjump import subordinators
from bnsjump.errors import GridMismatchError, InvalidParameterError
from bnsjump.subordinators import (
    POISSON_MEAN_MAX,
    JumpPath,
    SubordinatorSpec,
    TimeGrid,
    combine_paths,
    realized_jump_energy,
    sample_ensemble,
    sample_subordinator_path,
    subordinator_moments,
    terminal_samples,
)

UNIT_GRID = TimeGrid(0.0, 0.1, 10)


def cp_cumulants(nu, a):
    """Cumulants of the unit-time compound-Poisson value: k_m = nu * m! / a^m."""
    return {m: nu * math.factorial(m) / a**m for m in (1, 2, 3, 4)}


def mc_tolerances(nu, a, n):
    """3-standard-error bounds for the sample mean and sample variance."""
    k = cp_cumulants(nu, a)
    se_mean = math.sqrt(k[2] / n)
    se_var = math.sqrt((k[4] + 2.0 * k[2] ** 2) / n)
    return 3.0 * se_mean, 3.0 * se_var


class TestSampling:
    def test_degenerate_zero_intensity(self):
        grid = TimeGrid(0.0, 1.0, 10)
        path = sample_subordinator_path(SubordinatorSpec(0.0, 1.0), 1.0, grid, seed=5)
        assert path.n_events == 0
        assert np.all(path.cumulative == 0.0)

    def test_cumulative_nondecreasing_from_zero(self):
        spec = SubordinatorSpec(3.0, 0.7)
        for seed in range(25):
            path = sample_subordinator_path(spec, 2.0, UNIT_GRID, seed=seed)
            assert path.cumulative[0] == 0.0
            assert np.all(np.diff(path.cumulative) >= 0.0)
            assert np.all(path.event_sizes > 0.0)

    def test_event_times_inside_horizon(self):
        grid = TimeGrid(5.0, 0.5, 8)
        path = sample_subordinator_path(SubordinatorSpec(4.0, 1.0), 1.0, grid, seed=11)
        if path.n_events:
            assert path.event_times.min() >= grid.t0
            assert path.event_times.max() <= grid.t_end

    def test_deterministic_for_fixed_seed(self):
        spec = SubordinatorSpec(2.0, 1.5)
        a = sample_subordinator_path(spec, 1.0, UNIT_GRID, seed=99)
        b = sample_subordinator_path(spec, 1.0, UNIT_GRID, seed=99)
        assert np.array_equal(a.event_times, b.event_times)
        assert np.array_equal(a.event_sizes, b.event_sizes)
        assert np.array_equal(a.cumulative, b.cumulative)

    def test_invalid_rate_scale(self):
        with pytest.raises(InvalidParameterError):
            sample_subordinator_path(SubordinatorSpec(1.0, 1.0), 0.0, UNIT_GRID, seed=0)

    @pytest.mark.parametrize("rate_scale,horizon,n_samples", [
        (math.inf, 1.0, 10), (1.0, math.inf, 10), (1.0, 1.0, -1),
        (math.nan, 1.0, 10), (1.0, 0.0, 10),
    ], ids=["infinite-rate", "infinite-horizon", "negative-count", "nan-rate", "zero-horizon"])
    def test_terminal_samples_rejects_bad_arguments(self, rate_scale, horizon, n_samples):
        """Refused as `sample_subordinator_path` refuses a bad rate, before
        numpy's "lam value too large" or "negative dimensions" errors."""
        with pytest.raises(InvalidParameterError):
            terminal_samples(SubordinatorSpec(1.0, 1.0), rate_scale, horizon, n_samples, seed=0)

    def test_terminal_samples_of_no_draws(self):
        assert terminal_samples(SubordinatorSpec(1.0, 1.0), 1.0, 1.0, 0, seed=0).shape == (0,)

    def test_invalid_grid(self):
        with pytest.raises(InvalidParameterError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(InvalidParameterError):
            TimeGrid(0.0, 0.1, 0)

    def test_invalid_spec(self):
        with pytest.raises(InvalidParameterError):
            SubordinatorSpec(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            SubordinatorSpec(1.0, 0.0)


class TestPoissonLimit:
    """An expected event count above numpy's Poisson limit is refused with the
    count named; one at the limit reaches ``rng.poisson`` as the same float."""

    ABOVE = float(np.nextafter(POISSON_MEAN_MAX, math.inf))

    @staticmethod
    def refused(count: float):
        return pytest.raises(InvalidParameterError, match=re.escape(f"expected event count {count!r} "))

    def test_terminal_samples(self):
        draws = terminal_samples(SubordinatorSpec(POISSON_MEAN_MAX), 1.0, 1.0, 3, seed=0)
        assert draws.shape == (3,) and np.isfinite(draws).all()
        with self.refused(self.ABOVE):
            terminal_samples(SubordinatorSpec(self.ABOVE), 1.0, 1.0, 3, seed=0)
        with self.refused(1e20):
            terminal_samples(SubordinatorSpec(1e10), 1e10, 1.0, 0, seed=0)

    def test_path_sampler(self, monkeypatch):
        means = []

        class PoissonSpy:
            """A stream that records every Poisson mean and draws no events."""

            def poisson(self, lam):
                means.append(lam)
                return 0

            def uniform(self, low, high, size):
                return np.empty(size)

            def exponential(self, scale, size):
                return np.empty(size)

        monkeypatch.setattr(subordinators, "substream", lambda *key: PoissonSpy())
        grid = TimeGrid(0.0, 0.5, 2)
        sample_subordinator_path(SubordinatorSpec(POISSON_MEAN_MAX), 1.0, grid, seed=0)
        sample_subordinator_path(SubordinatorSpec(3.1), 0.7, UNIT_GRID, seed=0)
        assert means == [POISSON_MEAN_MAX, 0.7 * 3.1 * UNIT_GRID.horizon]
        with self.refused(self.ABOVE):
            sample_subordinator_path(SubordinatorSpec(self.ABOVE), 1.0, grid, seed=0)
        assert len(means) == 2


class TestMoments:
    def test_closed_form_values(self):
        assert subordinator_moments(SubordinatorSpec(0.0, 3.0)) == (0.0, 0.0)
        assert subordinator_moments(SubordinatorSpec(1.0, 1.0)) == (1.0, 2.0)
        assert subordinator_moments(SubordinatorSpec(2.0, 2.0)) == (1.0, 1.0)

    @pytest.mark.parametrize("nu,a", [(1.0, 1.0), (2.0, 2.0)])
    def test_event_sampler_matches_moments(self, nu, a):
        n = 20000
        spec = SubordinatorSpec(nu, a)
        grid = TimeGrid(0.0, 1.0, 1)
        totals = np.array([
            sample_subordinator_path(spec, 1.0, grid, seed=(606, i)).total()
            for i in range(n)
        ])
        mean, var = subordinator_moments(spec)
        tol_mean, tol_var = mc_tolerances(nu, a, n)
        assert abs(totals.mean() - mean) <= tol_mean
        assert abs(totals.var(ddof=1) - var) <= tol_var

    @pytest.mark.parametrize("nu,a", [(1.0, 1.0), (2.0, 2.0), (0.5, 2.0)])
    def test_terminal_sampler_matches_moments(self, nu, a):
        n = 100000
        spec = SubordinatorSpec(nu, a)
        z = terminal_samples(spec, 1.0, 1.0, n, seed=17)
        mean, var = subordinator_moments(spec)
        tol_mean, tol_var = mc_tolerances(nu, a, n)
        assert abs(z.mean() - mean) <= tol_mean
        assert abs(z.var(ddof=1) - var) <= tol_var


class TestEnsemble:
    def test_partition_independence(self):
        """Path i of an ensemble is the path drawn alone from the stream (master_seed, i)."""
        spec = SubordinatorSpec(1.5, 1.0)
        ensemble = sample_ensemble(spec, 1.0, UNIT_GRID, 40, master_seed=31)
        assert len(ensemble) == 40
        for i, path in enumerate(ensemble):
            alone = sample_subordinator_path(spec, 1.0, UNIT_GRID, seed=(31, i))
            assert path.event_times.tobytes() == alone.event_times.tobytes()
            assert path.event_sizes.tobytes() == alone.event_sizes.tobytes()

    def test_paths_differ_across_indices(self):
        paths = sample_ensemble(SubordinatorSpec(5.0, 1.0), 1.0, UNIT_GRID, 10, master_seed=1)
        totals = {round(p.total(), 12) for p in paths}
        assert len(totals) > 1


class TestCombine:
    def test_weight_identity(self):
        p1 = sample_subordinator_path(SubordinatorSpec(3.0, 1.0), 1.0, UNIT_GRID, seed=1)
        p2 = sample_subordinator_path(SubordinatorSpec(3.0, 1.0), 1.0, UNIT_GRID, seed=2)
        out = combine_paths(p1, p2, 1.0, 0.0)
        assert np.array_equal(out.event_times, p1.event_times)
        assert np.array_equal(out.event_sizes, p1.event_sizes)
        assert np.array_equal(out.cumulative, p1.cumulative)

    def test_hand_example(self):
        p1 = JumpPath(grid=UNIT_GRID, event_times=np.array([0.3]), event_sizes=np.array([2.0]))
        p2 = JumpPath(grid=UNIT_GRID, event_times=np.array([0.7]), event_sizes=np.array([4.0]))
        out = combine_paths(p1, p2, 0.5, 0.5)
        assert out.event_times.tolist() == [0.3, 0.7]
        assert out.event_sizes.tolist() == [1.0, 2.0]
        assert out.total() == pytest.approx(3.0, abs=0.0)

    def test_linearity(self):
        p = sample_subordinator_path(SubordinatorSpec(4.0, 2.0), 1.0, UNIT_GRID, seed=8)
        out = combine_paths(p, p, 0.3, 0.45)
        np.testing.assert_allclose(out.cumulative, 0.75 * p.cumulative, rtol=1e-12)

    def test_grid_mismatch(self):
        p1 = sample_subordinator_path(SubordinatorSpec(1.0, 1.0), 1.0, UNIT_GRID, seed=1)
        p2 = sample_subordinator_path(SubordinatorSpec(1.0, 1.0), 1.0, TimeGrid(0.0, 0.2, 5), seed=1)
        with pytest.raises(GridMismatchError):
            combine_paths(p1, p2, 0.5, 0.5)

    def test_negative_weight_rejected(self):
        p = sample_subordinator_path(SubordinatorSpec(1.0, 1.0), 1.0, UNIT_GRID, seed=1)
        with pytest.raises(InvalidParameterError):
            combine_paths(p, p, -0.1, 0.5)

    def test_combined_variance_rate(self):
        # weights from the correlation decomposition: 0.6^2 + 0.8^2 = 1
        n = 40000
        s1 = SubordinatorSpec(1.0, 1.0)
        s2 = SubordinatorSpec(2.0, 2.0)
        z1 = terminal_samples(s1, 1.0, 1.0, n, seed=100)
        z2 = terminal_samples(s2, 1.0, 1.0, n, seed=200)
        combined = 0.6 * z1 + 0.8 * z2
        _, v1 = subordinator_moments(s1)
        _, v2 = subordinator_moments(s2)
        expected = 0.36 * v1 + 0.64 * v2
        k1 = cp_cumulants(1.0, 1.0)
        k2 = cp_cumulants(2.0, 2.0)
        kappa2 = 0.6**2 * k1[2] + 0.8**2 * k2[2]
        kappa4 = 0.6**4 * k1[4] + 0.8**4 * k2[4]
        tol = 3.0 * math.sqrt((kappa4 + 2.0 * kappa2**2) / n)
        assert abs(combined.var(ddof=1) - expected) <= tol


class TestJumpEnergy:
    def test_energy_prefix(self):
        path = JumpPath(grid=UNIT_GRID, event_times=np.array([0.2, 0.5, 0.9]),
                        event_sizes=np.array([1.0, 2.0, 3.0]))
        assert realized_jump_energy(path, 0.1) == 0.0
        assert realized_jump_energy(path, 0.5) == pytest.approx(5.0)
        assert realized_jump_energy(path, 1.0) == pytest.approx(14.0)

"""Compound-Poisson Levy subordinators on uniform time grids.

A subordinator here is a nondecreasing pure-jump process: events arrive at
rate ``intensity`` per unit time and carry i.i.d. Exponential(jump_rate)
sizes (mean size ``1/jump_rate``).  Closed-form moments per unit time:

    E[Z_1]   = intensity / jump_rate
    Var[Z_1] = 2 * intensity / jump_rate**2

Sampling is exact (Poisson event count, then uniform order statistics for
event times), so the law does not depend on the grid resolution.  Every
sampler is a pure function of (spec, seed); ensembles derive one stream per
path from (master_seed, path_index), so any path can be drawn on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidParameterError
from .seeding import JUMP_STREAM, substream

# numpy's POISSON_LAM_MAX: Generator.poisson refuses a larger mean
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0, t0 + dt, ..., t0 + n_steps * dt."""

    t0: float = 0.0
    dt: float = 0.01
    n_steps: int = 100

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise InvalidParameterError("grid origin must be finite")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise InvalidParameterError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def t_end(self) -> float:
        return self.t0 + self.n_steps * self.dt

    def times(self) -> np.ndarray:
        """The n_steps + 1 grid times.  Computed on the first call and
        returned as the same read-only array on every later one."""
        times = self.__dict__.get("_times")
        if times is None:
            times = self.t0 + self.dt * np.arange(self.n_steps + 1)
            times.flags.writeable = False
            object.__setattr__(self, "_times", times)
        return times


@dataclass(frozen=True)
class SubordinatorSpec:
    """Parameters of one compound-Poisson subordinator.

    intensity: event arrival rate per unit time (0 means the degenerate
        subordinator that is identically zero).
    jump_rate: exponential size parameter; mean jump size is 1/jump_rate.
    """

    intensity: float
    jump_rate: float = 1.0

    def __post_init__(self):
        if not (self.intensity >= 0 and np.isfinite(self.intensity)):
            raise InvalidParameterError(f"intensity must be >= 0, got {self.intensity}")
        if not (self.jump_rate > 0 and np.isfinite(self.jump_rate)):
            raise InvalidParameterError(f"jump_rate must be > 0, got {self.jump_rate}")


@dataclass(frozen=True)
class JumpPath:
    """A sampled subordinator path: events plus the running sum on a grid.

    ``event_times`` are ascending (the samplers and `combine_paths` sort
    them), and ``cumulative[k]`` is the sum of sizes of all events with
    time <= t_k, so it is a nondecreasing step function starting at 0.
    """

    grid: TimeGrid
    event_times: np.ndarray
    event_sizes: np.ndarray
    cumulative: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.cumulative is None:
            object.__setattr__(self, "cumulative", _cumulative_on_grid(self.grid, self.event_times, self.event_sizes))

    @property
    def n_events(self) -> int:
        return len(self.event_times)

    def increments(self) -> np.ndarray:
        """Per-step increments of the cumulative sum (length n_steps)."""
        c = self.cumulative
        return c[1:] - c[:-1]

    def total(self) -> float:
        """Value at the end of the horizon."""
        return float(self.cumulative[-1])


def _cumulative_on_grid(grid: TimeGrid, times: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    running = np.zeros(len(sizes) + 1)
    sizes.cumsum(out=running[1:])
    return running.take(times.searchsorted(grid.times(), "right"))


def _event_mean(rate_scale: float, intensity: float, horizon: float) -> float:
    mean = rate_scale * intensity * horizon  # refused above numpy's limit, not passed to it
    if mean > POISSON_MEAN_MAX:
        raise InvalidParameterError(f"expected event count {mean} (rate_scale * intensity * horizon) "
                                    f"is above the Poisson sampler's limit {POISSON_MEAN_MAX}")
    return mean


def sample_subordinator_path(spec: SubordinatorSpec, rate_scale: float, grid: TimeGrid, seed) -> JumpPath:
    """Sample one path with events at rate ``rate_scale * spec.intensity``.

    Event count over the horizon is Poisson(rate_scale * intensity * T);
    event times are uniform order statistics on the horizon and sizes are
    i.i.d. Exponential(jump_rate).  Deterministic for a fixed seed.
    """
    if not (rate_scale > 0 and math.isfinite(rate_scale)):
        raise InvalidParameterError(f"rate_scale must be > 0, got {rate_scale}")
    mean = _event_mean(rate_scale, spec.intensity, grid.horizon)
    rng = substream(seed, JUMP_STREAM)
    n = int(rng.poisson(mean))
    times = rng.uniform(grid.t0, grid.t_end, n)
    times.sort()
    sizes = rng.exponential(1.0 / spec.jump_rate, n)
    return JumpPath(grid=grid, event_times=times, event_sizes=sizes)


def sample_ensemble(
    spec: SubordinatorSpec,
    rate_scale: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
) -> list[JumpPath]:
    """Sample ``n_paths`` independent paths; path ``i`` uses the stream (master_seed, i)."""
    return [sample_subordinator_path(spec, rate_scale, grid, seed=(master_seed, i))
            for i in range(n_paths)]


def terminal_samples(spec: SubordinatorSpec, rate_scale: float, horizon: float, n_samples: int, seed) -> np.ndarray:
    """Vectorized draws of the path value at the end of the horizon.

    Uses the exact law: conditional on a Poisson(rate * T) event count k,
    the sum of k Exponential(a) sizes is Gamma(k, 1/a).  Same distribution
    as summing a sampled event list, at a fraction of the cost; intended
    for large Monte Carlo moment checks.
    """
    if not (rate_scale > 0 and math.isfinite(rate_scale) and horizon > 0 and math.isfinite(horizon)):
        raise InvalidParameterError(f"rate_scale and horizon must be positive and finite, "
                                    f"got {rate_scale} and {horizon}")
    if n_samples < 0:
        raise InvalidParameterError(f"n_samples must be >= 0, got {n_samples}")
    mean = _event_mean(rate_scale, spec.intensity, horizon)
    rng = substream(seed, JUMP_STREAM)
    counts = rng.poisson(mean, n_samples)
    return rng.standard_gamma(counts.astype(float)) / spec.jump_rate


def subordinator_moments(spec: SubordinatorSpec) -> tuple[float, float]:
    """Closed-form (mean, variance) of the unit-time value Z_1.

    E[Z_1] = nu * E[Y] and Var[Z_1] = nu * E[Y^2] for Exponential(a) sizes,
    giving (nu/a, 2*nu/a**2).
    """
    nu, a = spec.intensity, spec.jump_rate
    return nu / a, 2.0 * nu / a**2


def require_same_grid(*objs) -> TimeGrid:
    grid = objs[0].grid
    for o in objs[1:]:
        if o.grid is not grid and o.grid != grid:
            raise GridMismatchError("inputs must share the same time grid")
    return grid


def combine_paths(p1: JumpPath, p2: JumpPath, w1: float, w2: float) -> JumpPath:
    """Weighted superposition of two paths sharing a grid.

    The merged event list carries sizes scaled by the respective weight
    (zero-weight events are dropped) and the grid cumulative is the
    pointwise weighted sum w1 * p1.cumulative + w2 * p2.cumulative.  When
    only one path contributes events, its ascending times are the merged
    times as they are.
    """
    require_same_grid(p1, p2)
    if w1 < 0 or w2 < 0:
        raise InvalidParameterError("weights must be nonnegative")
    use1 = w1 > 0 and len(p1.event_times) > 0
    use2 = w2 > 0 and len(p2.event_times) > 0
    if use1 and use2:
        times = np.concatenate((p1.event_times, p2.event_times))
        order = times.argsort(kind="stable")
        times = times.take(order)
        sizes = np.concatenate((p1.event_sizes * w1, p2.event_sizes * w2)).take(order)
    elif use1:
        times, sizes = p1.event_times, p1.event_sizes * w1
    elif use2:
        times, sizes = p2.event_times, p2.event_sizes * w2
    else:
        times = np.empty(0)
        sizes = np.empty(0)
    cumulative = p1.cumulative * w1
    cumulative += p2.cumulative * w2
    return JumpPath(grid=p1.grid, event_times=times, event_sizes=sizes, cumulative=cumulative)


def realized_jump_energy(path: JumpPath, upto: float) -> float:
    """Sum of squared event sizes with event time <= ``upto`` (absolute time).

    This realized quadratic variation of the jump part is the path-level
    quantity whose expectation over a unit of scaled time is Var[Z_1]; the
    correlation functionals consume it.
    """
    # event times ascend, so the events up to ``upto`` are a prefix
    sizes = path.event_sizes[:path.event_times.searchsorted(upto, "right")]
    return float((sizes * sizes).sum())

"""Price and variance dynamics of the generalized BN-S stochastic volatility model.

Model
-----
The variance follows an Ornstein-Uhlenbeck process driven by a convex
combination of two independent compound-Poisson subordinators Z (base) and
Zb (greater intensity), mixed by a deterministic weight theta in [0, 1]:

    d sigma_t^2 = -lam * sigma_t^2 dt + (1-theta) dZ_{lam t} + theta dZb_{lam t}

with the exact solution

    sigma_t^2 = exp(-lam t) sigma_0^2
              + sum over events tau_i <= t of exp(-lam (t - tau_i)) * w_i * y_i

which is bounded below by exp(-lam t) * sigma_0^2, so it stays strictly
positive.  The log price moves as

    dX_t = (mu + beta sigma_t^2) dt + sigma_t dW_t
         + rho ((1-theta) dZ_{lam t} + theta dZb_{lam t}),   rho <= 0,

and the observed log price adds i.i.d. microstructure noise:
X_obs = X + eps.

The variance path is evaluated from the exact solution at grid points (the
only discretization error in the toolkit is the Euler step of the log
price).  `euler_variance_path` provides the first-order scheme used by the
convergence checks, and the `*_classical` entry points implement the
single-subordinator model that the theta=0 case must reproduce exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatchError, InvalidParameterError, NumericOverflowError
from .seeding import BROWNIAN_STREAM, NOISE_STREAM, substream
from .subordinators import (
    JumpPath,
    SubordinatorSpec,
    TimeGrid,
    _built,
    combine_paths,
    realized_jump_energy,
    require_same_grid,
    subordinator_moments,
)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the generalized model.

    theta weighs the strong subordinator into both the variance and the
    price jumps (theta = 0 recovers the classical single-subordinator
    model).  rho <= 0 is the jump leverage, lam the mean-reversion and
    time-change rate.
    """

    mu: float = 0.0
    beta: float = 0.0
    rho: float = 0.0
    lam: float = 1.0
    theta: float = 0.0
    sigma0_sq: float = 1.0
    spec_base: SubordinatorSpec = SubordinatorSpec(1.0, 1.0)
    spec_strong: SubordinatorSpec = SubordinatorSpec(2.0, 1.0)

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.beta)):
            raise InvalidParameterError(f"mu and beta must be finite, got {self.mu} and {self.beta}")
        if not (self.rho <= 0 and np.isfinite(self.rho)):
            raise InvalidParameterError(f"rho must be finite and <= 0, got {self.rho}")
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidParameterError(f"theta must lie in [0, 1], got {self.theta}")
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise InvalidParameterError(f"lam must be > 0, got {self.lam}")
        if not (self.sigma0_sq > 0 and np.isfinite(self.sigma0_sq)):
            raise InvalidParameterError(f"sigma0_sq must be > 0, got {self.sigma0_sq}")
        if self.spec_strong.intensity < self.spec_base.intensity:
            raise InvalidParameterError("spec_strong must have intensity >= spec_base")

    @functools.cached_property
    def _jump_weights(self) -> tuple[float, float, float, float]:
        """rho^2, (1-theta)^2, theta^2 and (1-theta)^2 Var[Z_1] + theta^2 Var[Zb_1]: the constants
        of the generalized correlation and variance rate, kept after the first call."""
        _, var_z = subordinator_moments(self.spec_base)
        _, var_zb = subordinator_moments(self.spec_strong)
        w_base = (1.0 - self.theta) ** 2
        w_strong = self.theta**2
        return self.rho**2, w_base, w_strong, w_base * var_z + w_strong * var_zb


@dataclass(frozen=True)
class NoiseSpec:
    """I.i.d. zero-mean Gaussian microstructure noise."""

    std: float = 0.0

    def __post_init__(self):
        if not 0 <= self.std < np.inf:
            raise InvalidParameterError(f"noise std must be finite and >= 0, got {self.std}")


@dataclass(frozen=True)
class VariancePath:
    """Exact variance values at grid points plus the combined driving path."""

    grid: TimeGrid
    values: np.ndarray
    driving: JumpPath


@dataclass(frozen=True)
class LogPricePath:
    """True log price on a grid, optionally with observation noise attached."""

    grid: TimeGrid
    x_true: np.ndarray
    x_observed: np.ndarray | None = None
    noise: np.ndarray | None = None


# `_ou_accumulate` runs the stretches between deposits as numpy running
# products on grids with at least this many steps per event; on denser grids
# (C05's 100 steps carry 8 to 24 events on average) the Python loop is faster
_OU_SPARSE_STEPS = 32


def _recur(v: float, factor: float, deposits: list[float]) -> np.ndarray:
    """Values v, then v_{k+1} = factor * v_k + deposits[k], in Python floats."""
    values = [v] * (len(deposits) + 1)
    k = 0
    for d in deposits:
        v = factor * v + d
        k += 1
        values[k] = v
    return np.fromiter(values, float, len(values))


def _ou_accumulate(grid: TimeGrid, sigma0_sq: float, lam: float,
                   times: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Exact OU solution at grid points for a given weighted event list.

    Stepwise recursion v_{k+1} = exp(-lam dt) v_k + sum of events in
    (t_k, t_{k+1}] decayed to the step end; exact and overflow-free for
    any lam * horizon.

    An event lands in the step whose right end is the first grid time
    >= tau.  The step ends are ``grid_times[1:]``, and the number of
    interior grid times ``grid_times[1:-1]`` below tau is that step's
    index, so one search gives it: an event at or before t0 counts none
    and lands in the first step, one past the horizon counts all n - 1
    and lands in the last, with no shift or clip.
    """
    n = grid.n_steps
    grid_times = grid.times()
    factor = math.exp(-lam * grid.dt)
    step = grid_times[1:-1].searchsorted(times)
    contrib = grid_times[1:].take(step)
    contrib -= times
    contrib *= -lam
    np.exp(contrib, out=contrib)
    contrib *= sizes
    deposit = np.bincount(step, weights=contrib, minlength=n)
    if len(times) * _OU_SPARSE_STEPS > n:
        return _recur(float(sigma0_sq), factor, deposit.tolist())
    # a step without a deposit is factor * v + 0.0, which is factor * v for
    # the non-negative variance: a stretch of them is a running product
    values = np.full(n + 1, factor)
    values[0] = sigma0_sq
    start = 0
    for k in np.flatnonzero(deposit).tolist():
        np.multiply.accumulate(values[start:k + 1], out=values[start:k + 1])
        values[k + 1] = factor * float(values[k]) + float(deposit[k])
        start = k + 1
    np.multiply.accumulate(values[start:], out=values[start:])
    return values


def simulate_variance_path(params: ModelParams, z: JumpPath, zb: JumpPath) -> VariancePath:
    """Variance path of the generalized model from the exact solution.

    Jump sizes are weighted (1-theta) for the base and theta for the strong
    subordinator; there is no discretization error in the values.
    """
    grid = require_same_grid(z, zb)
    driving = combine_paths(z, zb, 1.0 - params.theta, params.theta)
    values = _ou_accumulate(grid, params.sigma0_sq, params.lam,
                            driving.event_times, driving.event_sizes)
    return _built(VariancePath, grid=grid, values=values, driving=driving)


def simulate_variance_path_classical(params: ModelParams, z: JumpPath) -> VariancePath:
    """Variance path of the classical single-subordinator model (theta ignored)."""
    values = _ou_accumulate(z.grid, params.sigma0_sq, params.lam,
                            z.event_times, z.event_sizes)
    return _built(VariancePath, grid=z.grid, values=values, driving=z)


def euler_variance_path(params: ModelParams, z: JumpPath, zb: JumpPath) -> VariancePath:
    """First-order Euler scheme for the variance, for convergence checks.

    v_{k+1} = v_k - lam * v_k * dt + (combined jump increment over the step);
    converges to the exact solution as dt -> 0 on a fixed event set.
    """
    grid = require_same_grid(z, zb)
    driving = combine_paths(z, zb, 1.0 - params.theta, params.theta)
    values = _recur(float(params.sigma0_sq), 1.0 - params.lam * grid.dt,
                    driving.increments().tolist())
    return _built(VariancePath, grid=grid, values=values, driving=driving)


def regrid_path(path: JumpPath, grid: TimeGrid) -> JumpPath:
    """Re-evaluate a path's event list on another grid covering the same span."""
    if not (abs(grid.t0 - path.grid.t0) < 1e-12 and abs(grid.t_end - path.grid.t_end) < 1e-12):
        raise GridMismatchError("target grid must span the same interval")
    return JumpPath(grid=grid, event_times=path.event_times, event_sizes=path.event_sizes)


def _euler_log_price(grid: TimeGrid, params: ModelParams, sigma_sq: np.ndarray,
                     jump_increments: np.ndarray, seed, diffusion: bool) -> np.ndarray:
    """X_0 = 0 and the running sum of (mu + beta sigma_k^2) dt
    + sigma_k sqrt(dt) N_k + rho dm_k, with sigma_k^2 the left-point
    variance.  Each increment is built in one array, in the order of the
    formula.

    Raises `NumericOverflowError` if the sum is non-finite anywhere.  Only
    the last value is checked: a running sum that meets inf or nan stays
    inf or nan (inf plus a finite value is inf, inf - inf is nan, and nan
    plus anything is nan), so one value decides for the whole path.
    """
    n = grid.n_steps
    dt = grid.dt
    left = sigma_sq[:-1]  # left-point variance, non-anticipating
    increments = left * params.beta
    increments += params.mu
    increments *= dt
    if diffusion:
        rng = substream(seed, BROWNIAN_STREAM)
        brownian = rng.standard_normal(n)
        brownian *= math.sqrt(dt)
        brownian *= np.sqrt(left)
    else:
        brownian = 0.0
    x = np.zeros(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        increments += brownian
        increments += params.rho * jump_increments
        increments.cumsum(out=x[1:])
    if not math.isfinite(x[n]):
        raise NumericOverflowError("log price accumulated a non-finite value")
    return x


def simulate_log_price(params: ModelParams, var_path: VariancePath, z: JumpPath, zb: JumpPath,
                       seed, diffusion: bool = True) -> LogPricePath:
    """Euler-Maruyama log price driven by the generalized jump combination.

    X_{k+1} = X_k + (mu + beta sigma_k^2) dt + sigma_k sqrt(dt) N_k
            + rho ((1-theta) dZ_k + theta dZb_k),  X_0 = 0.

    ``diffusion=False`` switches the Brownian term off (deterministic-drift
    and pure-jump configurations).
    """
    grid = require_same_grid(var_path, z, zb)
    dm = z.increments()
    dm *= 1.0 - params.theta
    strong = zb.increments()
    strong *= params.theta
    dm += strong
    x = _euler_log_price(grid, params, var_path.values, dm, seed, diffusion)
    return _built(LogPricePath, grid=grid, x_true=x, x_observed=None, noise=None)


def simulate_log_price_classical(params: ModelParams, var_path: VariancePath, z: JumpPath,
                                 seed, diffusion: bool = True) -> LogPricePath:
    """Classical-model log price: jumps come from the base subordinator alone."""
    grid = require_same_grid(var_path, z)
    x = _euler_log_price(grid, params, var_path.values, z.increments(), seed, diffusion)
    return _built(LogPricePath, grid=grid, x_true=x, x_observed=None, noise=None)


def apply_noise(path: LogPricePath, noise: NoiseSpec, seed) -> LogPricePath:
    """Attach i.i.d. Gaussian observation noise: x_observed = x_true + eps.

    The noise stream is disjoint from the Brownian and jump streams, so the
    noise is independent of the path even under a shared master seed.
    """
    rng = substream(seed, NOISE_STREAM)
    eps = rng.normal(0.0, noise.std, len(path.x_true)) if noise.std > 0 else np.zeros(len(path.x_true))
    return replace(path, noise=eps, x_observed=path.x_true + eps)


def price_series(path: LogPricePath, s0: float = 100.0) -> np.ndarray:
    """Price series s0 * exp(X) of the true log price, from base price ``s0``."""
    return s0 * np.exp(path.x_true)


def instantaneous_variance_rate(params: ModelParams, sigma_sq: float) -> float:
    """Instantaneous variance rate of log returns.

    sigma_t^2 + rho^2 lam ((1-theta)^2 Var[Z_1] + theta^2 Var[Zb_1]).
    """
    rho2, _, _, var_eff = params._jump_weights
    return sigma_sq + rho2 * params.lam * var_eff


def integrate_variance(var_path: VariancePath, upto: float) -> float:
    """Trapezoidal integral of sigma^2 from the grid start to ``upto``
    (offset from t0), with linear interpolation for a partial last cell."""
    grid = var_path.grid
    if not 0.0 <= upto <= grid.horizon + 1e-12:
        raise InvalidParameterError(f"integration bound {upto} outside [0, {grid.horizon}]")
    dt = grid.dt
    vals = var_path.values
    n = grid.n_steps
    k = min(math.floor(upto / dt + 1e-9), n)
    full = dt * (float(vals[:k + 1].sum()) - 0.5 * (vals.item(0) + vals.item(k))) if k >= 1 else 0.0
    frac = upto - k * dt
    if frac > 1e-12 and k < n:
        v0 = vals.item(k)
        v_up = v0 + (vals.item(k + 1) - v0) * frac / dt
        full += 0.5 * (v0 + v_up) * frac
    return float(full)


def _check_interval(var_path: VariancePath, t: float, s: float):
    if not 0.0 < s < t <= var_path.grid.horizon + 1e-12:
        raise InvalidParameterError(f"need 0 < s < t <= horizon, got s={s}, t={t}")


def correlation_classical(var_path: VariancePath, z: JumpPath, params: ModelParams,
                          t: float, s: float) -> float:
    """Correlation functional of the classical model between times t and s.

    Numerator: realized integral of sigma^2 up to s plus rho^2 times the
    realized squared-jump sum of Z up to s.  Denominator: the product of the
    two variance normalizers using the closed-form Var[Z_1] rate.
    t and s are offsets from the grid start, 0 < s < t <= horizon.
    """
    _check_interval(var_path, t, s)
    _, var_z = subordinator_moments(params.spec_base)
    rho2 = params.rho**2
    int_s = integrate_variance(var_path, s)
    int_t = integrate_variance(var_path, t)
    num = int_s + rho2 * realized_jump_energy(z, var_path.grid.t0 + s)
    den = math.sqrt((int_t + t * rho2 * params.lam * var_z)
                    * (int_s + s * rho2 * params.lam * var_z))
    return num / den


def correlation_generalized(var_path: VariancePath, z: JumpPath, zb: JumpPath,
                            params: ModelParams, t: float, s: float) -> float:
    """Correlation functional of the generalized model between t and s.

    The squared-jump sums of both subordinators enter the numerator with
    weights (1-theta)^2 and theta^2; each normalizer alpha(u) adds
    u * rho^2 * lam * ((1-theta)^2 Var[Z_1] + theta^2 Var[Zb_1]) to the
    realized variance integral.  Reduces to the classical functional at
    theta = 0.
    """
    _check_interval(var_path, t, s)
    rho2, w_base, w_strong, var_eff = params._jump_weights
    int_s = integrate_variance(var_path, s)
    int_t = integrate_variance(var_path, t)
    upto = var_path.grid.t0 + s
    num = int_s + rho2 * w_base * realized_jump_energy(z, upto) \
        + rho2 * w_strong * realized_jump_energy(zb, upto)
    den = math.sqrt((int_t + t * rho2 * params.lam * var_eff)
                    * (int_s + s * rho2 * params.lam * var_eff))
    return num / den


PATH_CSV_HEADER = ["t", "sigma_sq", "x_true", "x_observed", "noise"]
PATH_CSV_CHUNK_ROWS = 1024  # rows formatted at a time; bounds the kernel's temporary arrays


@functools.lru_cache(maxsize=1)
def _time_texts(grid: TimeGrid, rows: int) -> tuple[tables.Formatted, ...]:
    """The grid's times formatted ``rows`` at a time.  Every path on a grid
    has the same ``t`` column, so the last grid's is kept (32 bytes a grid
    point).  The package runs no threads; a caller's threads that ask for it
    at once may each compute it."""
    from . import tables

    times = grid.times()
    return tuple(tables.formatted(times[lo:lo + rows]) for lo in range(0, len(times), rows))


def dumps_path_csv(var_path: VariancePath, price_path: LogPricePath) -> str:
    """One simulated path as CSV text: the header, then rows
    t,sigma_sq,x_true,x_observed,noise.

    Each float is written as its ``repr``, the shortest text that reads
    back to the same float, so identical paths always serialize to
    identical bytes; a missing noise column is written empty.  No float
    repr holds a comma, quote or newline, so nothing is quoted.  The rows
    are formatted `PATH_CSV_CHUNK_ROWS` at a time by `tables.float_rows`,
    which bounds its temporary arrays whatever the path's length; the
    ``t`` column is formatted once for all the paths on a grid.
    """
    from . import tables  # only path CSVs need the writers; C05's ensemble never loads them

    grid = require_same_grid(var_path, price_path)
    cols = [None if a is None else np.asarray(a, dtype=float)
            for a in (var_path.values, price_path.x_true, price_path.x_observed, price_path.noise)]
    parts = [(",".join(PATH_CSV_HEADER) + "\n").encode("ascii")]
    rows = PATH_CSV_CHUNK_ROWS
    for lo, times in zip(range(0, grid.n_steps + 1, rows), _time_texts(grid, rows)):
        parts.append(tables.float_rows([times] + [None if c is None else c[lo:lo + rows] for c in cols]))
    return b"".join(parts).decode("ascii")

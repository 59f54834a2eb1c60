"""Error bounds, consistency conditions, Monte-Carlo distortion sweeps,
rate fitting, and single-path convergence traces.

Integrated squared error is computed in coefficient space (exact by
orthonormality), so the Monte-Carlo loops never need quadrature.
"""

from __future__ import annotations

import math
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .estimator import TruncationSchedule, add_sensors, finish_estimates
from .fields import (FieldSpec, FourierSums, ReconstructionCoefficients,
                     as_count, as_grid, as_real, m_term_error, synthesize,
                     true_coefficients)
from .sensing import (SENSORS_MAX, AffineFloorDeployment, Noise, dynamic_range, simulate_batch,
                      stream_keys)


# ---------------------------------------------------------------------------
# distortion upper bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Two-term distortion bound: coefficient variance plus truncation bias."""

    m: int
    variance_term: float
    bias_term: float

    @property
    def total(self) -> float:
        return self.variance_term + self.bias_term


def mse_upper_bound(field: FieldSpec, deploy: AffineFloorDeployment,
                    n: int, m: int, c: float) -> BoundReport:
    """Bound E||f - f_hat||^2 <= (c^2/n) * sum_{j<m} int |phi_j|^2/p_X + tail(m)
    = (c^2/n) * m * I + tail(m), as |phi_j| = 1: I is the integral of 1/p_X,
    and the variance term is infinite exactly where I is."""
    n, m, c = as_count(n, "n", 1, SENSORS_MAX), as_count(m, "m", 0), as_real(c, "c")
    if c <= 0.0:
        raise ValueError(f"dynamic range c must be positive, got {c!r}")
    if m == 0:  # no term, and no 0 * inf
        bias, variance = field.norm_sq, 0.0
    else:
        bias = m_term_error(true_coefficients(field, m), field, m)
        variance = (c * c / n) * (m * deploy.integral)
    return BoundReport(m=m, variance_term=variance, bias_term=bias)


# ---------------------------------------------------------------------------
# consistency-condition checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    """Whether a (schedule, deployment) pair drives the bound to zero."""

    n_grid: tuple[int, ...]
    m_values: tuple[int, ...]
    truncation_nondecreasing: bool
    truncation_grows: bool
    infimum: float
    variance_condition_values: tuple[float, ...]
    variance_condition_decreasing: bool
    variance_condition_vanishing: bool

    @property
    def infimum_positive(self) -> bool:
        return self.infimum > 0.0

    @property
    def truncation_ok(self) -> bool:
        return self.truncation_nondecreasing and self.truncation_grows

    @property
    def variance_ok(self) -> bool:
        return self.variance_condition_decreasing and self.variance_condition_vanishing

    @property
    def all_pass(self) -> bool:
        return self.truncation_ok and self.infimum_positive and self.variance_ok


def check_consistency_conditions(schedule: TruncationSchedule, deploy: AffineFloorDeployment,
                                 n_grid: Sequence[int]) -> ConsistencyReport:
    """Whether m(n) = `schedule.resolve(n)` and `deploy` drive the bound to zero
    along `n_grid`: m nondecreasing and growing, inf p_X > 0, and m * I / n
    decreasing to at most half its first value. Refuses, by `as_grid`, an
    `n_grid` that is not a nonempty, strictly increasing list of counts in [1, SENSORS_MAX]."""
    n_grid = as_grid(n_grid, "n_grid", SENSORS_MAX)
    m_values = tuple(schedule.resolve(n) for n in n_grid)

    # the variance side of the bound, m * I as `mse_upper_bound` takes it
    q = tuple(m * deploy.integral / n for m, n in zip(m_values, n_grid))

    decreasing = all(b < a for a, b in zip(q, q[1:]))
    vanishing = math.isfinite(q[-1]) and q[-1] <= 0.5 * q[0]
    return ConsistencyReport(
        n_grid=n_grid,
        m_values=m_values,
        truncation_nondecreasing=all(b >= a for a, b in zip(m_values, m_values[1:])),
        truncation_grows=m_values[-1] > m_values[0],
        infimum=deploy.nu,
        variance_condition_values=q,
        variance_condition_decreasing=decreasing,
        variance_condition_vanishing=vanishing,
    )


# ---------------------------------------------------------------------------
# realization-level integrated squared error (exact via Parseval)
# ---------------------------------------------------------------------------

def integrated_squared_error(coeffs_hat: ReconstructionCoefficients,
                             true_coeffs: ReconstructionCoefficients,
                             field: FieldSpec) -> float | np.ndarray:
    """||f - f_hat||^2 = sum_{j<m} |a_hat_j - a_j|^2 + tail energy past m;
    one error per row when `coeffs_hat` holds a (trials, m) array."""
    m = coeffs_hat.values.shape[-1]
    if len(true_coeffs) < m:
        raise ValueError(f"need at least {m} true coefficients, got {len(true_coeffs)}")
    head = np.sum(np.abs(coeffs_hat.values - true_coeffs.values[:m]) ** 2, axis=-1)
    return head + m_term_error(true_coeffs, field, m)


# ---------------------------------------------------------------------------
# Monte-Carlo distortion sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrialCell:
    """`trials` independent simulate -> estimate pipelines: n sensors, m coefficients."""

    field: FieldSpec
    deploy: AffineFloorDeployment
    noise: Noise
    n: int
    m: int
    trials: int


# sensors per simulate -> estimate tile: spectral.BLOCK_POINTS, the type-1
# sums' point block, as they need, read through the module so that one patch
# reaches both layers. A block of max(1, BLOCK_POINTS // n) trials shares the
# per-call costs, and a trial of more sensors runs in tiles of BLOCK_POINTS,
# so every tile's arrays stay cache-sized and no array of n sensors exists.
# sensors per pool task: a chunk of max(1, TASK_SENSORS // n) trials, 16 tiles
TASK_SENSORS = 1 << 18
# a pool forks all its workers at its first task (fork start method), so
# their count has a cap, the same on every host
WORKERS_MAX = 64


def _add_tiles(sums, field: FieldSpec, deploy: AffineFloorDeployment, noise: Noise,
               keys: np.ndarray, start: int, stop: int) -> None:
    """Add sensors [start, stop) of every realization of the `stream_keys`
    rows `keys` to running sums: one windowed `simulate_batch` call and
    one `add_sensors` call per tile of at most BLOCK_POINTS sensors,
    whose weights read the p_X of the deployment that placed them."""
    block = spectral.BLOCK_POINTS
    for lo in range(start, stop, block):
        tile = simulate_batch(field, deploy, noise, min(block, stop - lo), keys, lo)
        add_sensors(sums, tile, deploy)


def _trial_chunk(payload) -> np.ndarray:
    cell, seed, cell_index, t0, t1 = payload
    keys = stream_keys(seed, [(cell_index, t) for t in range(t0, t1)])
    c = dynamic_range(cell.field, cell.noise)
    out = np.empty((t1 - t0, cell.m), dtype=np.complex128)
    size = max(1, spectral.BLOCK_POINTS // cell.n)
    for lo in range(0, t1 - t0, size):
        block = keys[lo:lo + size]
        sums = FourierSums(cell.m, (len(block),), cell.n)
        _add_tiles(sums, cell.field, cell.deploy, cell.noise, block, 0, cell.n)
        out[lo:lo + size] = finish_estimates(sums, c).values
    return out


def map_trials(cells: Sequence[TrialCell], seed: int,
               take: Callable[[int, int, np.ndarray], None], workers: int = 1) -> None:
    """Coefficient estimates of every trial, handed to `take(i, t0, rows)`
    chunk by chunk: rows holds the (t1 - t0, m) estimates of trials
    [t0, t1) of cell i.

    A cell's trials go to `workers` processes (1 to WORKERS_MAX) in chunks
    of max(1, TASK_SENSORS // n), and the chunks reach `take` as they
    arrive, in payload order: cell by cell, each cell's in trial order.
    No estimate outlives its chunk unless `take` keeps it. Trial t of cell
    i draws from the stream words trial_seed(seed, i, t), which each chunk
    lays out in one array (`stream_keys`); the chunk runs in blocks of
    trials, and each block in tiles of at most BLOCK_POINTS sensors per
    trial: one windowed `simulate_batch` call and one `add_sensors` call
    per tile feed running sums, finished once per block. A tile equals the
    slice of the whole draw, and the sums add up as one pass over whole
    rows does, so the rows are those of one simulate and one estimate call
    per block, bit for bit, and neither the chunks nor the worker count
    change a byte. The call returns once every chunk is taken, and no pool
    outlives it, also when a chunk or `take` raises.
    """
    workers = as_count(workers, "workers", 1, WORKERS_MAX)
    payloads = [(cell, seed, i, t0, min(t0 + chunk, cell.trials))
                for i, cell in enumerate(cells)
                for chunk in [max(1, TASK_SENSORS // cell.n)]
                for t0 in range(0, cell.trials, chunk)]
    pool = nullcontext()
    if workers > 1:
        # imported here, so a one-worker run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    with pool as executor:
        parts = (executor.map(_trial_chunk, payloads) if executor
                 else (_trial_chunk(payload) for payload in payloads))
        # no name holds a chunk once its take returns; closing the parts
        # cancels the tasks not yet started, so a raise waits only for the
        # running ones before the pool shuts down
        with closing(parts):
            for _, _, i, t0, _ in payloads:
                take(i, t0, next(parts))


@dataclass(frozen=True, eq=False)
class MseSweep:
    trials: tuple[int, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    ci_half: tuple[float, ...]
    trial_values: tuple[np.ndarray, ...]


def monte_carlo_mse(field: FieldSpec, deploy: AffineFloorDeployment, noise: Noise,
                    schedule: TruncationSchedule, n_grid: Sequence[int],
                    trials: int | Sequence[int], seed: int, workers: int = 1) -> MseSweep:
    """Mean integrated squared error (with normal-approximation 95% CI)
    over independent simulate -> estimate -> error pipelines, m(n) =
    `schedule.resolve(n)` Fourier coefficients at each n, `trials` of
    them at each n, or `trials[i]` at `n_grid[i]` for a list or 1-D array;
    `n_grid` is a nonempty, strictly increasing grid of counts (`as_grid`).

    Deterministic in `seed`; the per-trial seeds are derived from
    (seed, n-index, trial-index), so the worker count never changes results.
    """
    n_grid = as_grid(n_grid, "n_grid", SENSORS_MAX)
    if np.ndim(trials) > 1:
        raise ValueError("need one trial count, or one per n")
    trials_per_n = ((as_count(trials, "trials", 2),) * len(n_grid) if np.ndim(trials) == 0
                    else tuple(as_count(t, "each trials entry", 2) for t in trials))
    if len(trials_per_n) != len(n_grid):
        raise ValueError("need one trial count per n")

    m_values = tuple(schedule.resolve(n) for n in n_grid)
    cells = [TrialCell(field, deploy, noise, n, m, t)
             for n, m, t in zip(n_grid, m_values, trials_per_n)]
    true_cvs = [true_coefficients(field, m) for m in m_values]
    per_n = tuple(np.empty(t) for t in trials_per_n)

    def score(i: int, t0: int, rows: np.ndarray) -> None:
        # each row is scored on its own, so chunking changes no error
        per_n[i][t0:t0 + len(rows)] = integrated_squared_error(
            ReconstructionCoefficients(rows), true_cvs[i], field)

    map_trials(cells, seed, score, workers=workers)

    means = tuple(float(np.mean(v)) for v in per_n)
    stds = tuple(float(np.std(v, ddof=1)) for v in per_n)
    ci = tuple(1.96 * s / math.sqrt(t) for s, t in zip(stds, trials_per_n))
    return MseSweep(trials=trials_per_n, means=means, stds=stds, ci_half=ci,
                    trial_values=per_n)


# ---------------------------------------------------------------------------
# log-log rate fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFitResult:
    slope: float
    intercept: float
    r_squared: float
    n_grid: tuple[int, ...]
    mse_values: tuple[float, ...]

    def to_json(self) -> dict:
        return asdict(self)


RATE_FIT_MIN_POINTS = 4


def rate_fit(n_grid: Sequence[int], mse_values: Sequence[float]) -> RateFitResult:
    """Ordinary least squares of log(mse) on log(n)."""
    n_grid = as_grid(n_grid, "n_grid", SENSORS_MAX)
    mse_values = tuple(as_real(v, "each mse value") for v in mse_values)
    if len(n_grid) != len(mse_values) or len(n_grid) < RATE_FIT_MIN_POINTS:
        raise ValueError(f"need at least {RATE_FIT_MIN_POINTS} (n, mse) points")
    if any(v <= 0 for v in mse_values):
        raise ValueError("mse values must be positive for a log-log fit")
    lx = np.log(np.asarray(n_grid, dtype=float))
    ly = np.log(np.asarray(mse_values, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFitResult(slope=float(slope), intercept=float(intercept),
                         r_squared=r2, n_grid=n_grid, mse_values=mse_values)


# ---------------------------------------------------------------------------
# almost-sure-convergence machinery: schedule validation and path traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleValidation:
    """Checks that a growth schedule supports the pathwise-convergence bound.

    `gamma_in_range` is the summability condition: with m(n) ~ n^psi and
    envelope m^(gamma/2) the exponential-series exponent is gamma*psi,
    which must stay below 1 while gamma stays above 1. `c1` and `c2` are
    the bounded-basis constants, None exactly where the infimum is 0.
    """

    psi: float
    gamma: float
    gamma_in_range: bool
    series_exponent: float
    infimum: float
    c1: float | None
    c2: float | None

    @property
    def accepted(self) -> bool:
        return self.gamma_in_range and self.infimum > 0.0

    def to_json(self) -> dict:
        return {**asdict(self), "accepted": self.accepted}


def validate_as_schedule(psi: float, gamma: float, deploy: AffineFloorDeployment,
                         fields: Sequence[FieldSpec]) -> ScheduleValidation:
    """Validate (m(n) = n^psi, envelope m^(gamma/2)) for pathwise convergence
    on the Fourier basis, and state the bounded-basis constants c1 = 1/nu
    and c2 = a, a the largest amplitude bound of `fields`. They hold with
    envelope m by the triangle inequality alone, as |phi_j| = 1, p_X >= nu
    and |alpha_j| <= sup|f| <= a: the kernel sum_{j<m} |phi_j(x) conj
    phi_j(y)| / p_X(y) is at most c1 * m, and |f_m| <= sum_{j<m} |alpha_j|
    <= c2 * m."""
    psi, gamma = as_real(psi, "psi"), as_real(gamma, "gamma")
    if not 0.0 < psi < 1.0:
        raise ValueError(f"psi must lie in (0, 1), got {psi!r}")
    if len(fields) == 0:
        raise ValueError("fields must hold at least one field")
    nu = deploy.nu
    c1 = c2 = None
    if nu > 0.0:
        c1 = 1.0 / nu
        c2 = max(f.amplitude_bound for f in fields)  # * sqrt(vol([0,1])) == 1
    return ScheduleValidation(psi=psi, gamma=gamma, gamma_in_range=1.0 < gamma < 1.0 / psi,
                              series_exponent=gamma * psi, infimum=nu, c1=c1, c2=c2)


JUMP_EXCLUSION_RADIUS = 0.02
TRACE_GRID_POINTS = 513


@dataclass(frozen=True, eq=False)
class ASTraceResult:
    """One nested-sample-path trace of the estimate-vs-truncation error.

    `sup_error` tracks sup_x |f_hat_{n,m(n)}(x) - f_{m(n)}(x)| at each
    checkpoint; the `sup_estimate_*` views track sup |f_hat_n - f|, with
    the interior variant excluding neighborhoods of the field's jumps
    (pointwise consistency holds almost everywhere, not uniformly).
    """

    checkpoints: tuple[int, ...]
    m_values: tuple[int, ...]
    psi: float
    gamma: float
    sup_error: tuple[float, ...]
    sup_estimate_error: tuple[float, ...]
    sup_estimate_error_interior: tuple[float, ...]
    condition: ScheduleValidation

    @property
    def sup_ratio(self) -> float:
        """Last-to-first `sup_error` ratio: the trace's regression statistic."""
        return self.sup_error[-1] / self.sup_error[0]

    def to_json(self) -> dict:
        return {**asdict(self), "condition": self.condition.to_json()}


def as_error_trace(field: FieldSpec, deploy: AffineFloorDeployment, noise: Noise,
                   psi: float, seed: int, n_checkpoints: Sequence[int]) -> ASTraceResult:
    """Grow one sample path of sensors and record sup-norm errors at the
    checkpoints. Each segment between checkpoints runs through the trial
    engine's tiles into running sums of its own, so no array of the whole
    path exists. A single realization: the asymptotic statement itself is
    not falsifiable by finite simulation, so callers should treat this as
    a fixed-seed regression trace, not a proof. The trace runs on the
    Fourier basis and validates the schedule with gamma = (1 + 1/psi) / 2,
    the middle of the summability range (1, 1/psi).
    """
    psi = as_real(psi, "psi")
    if not 0.0 < psi < 1.0:
        raise ValueError(f"psi must lie in (0, 1), got {psi!r}")
    checkpoints = as_grid(n_checkpoints, "n_checkpoints", SENSORS_MAX)
    gamma = 0.5 * (1.0 + 1.0 / psi)
    grid = np.linspace(0.0, 1.0, TRACE_GRID_POINTS)

    m_values = tuple(map(TruncationSchedule.power(psi).resolve, checkpoints))
    m_max = max(m_values)

    keys = stream_keys(seed, [()])
    c = dynamic_range(field, noise)

    true_cv = true_coefficients(field, m_max)
    f_grid = np.asarray(field.eval(grid), dtype=float)
    interior = np.ones(grid.shape, dtype=bool)
    for pt in field.jump_points:
        interior &= np.abs(grid - pt) > JUMP_EXCLUSION_RADIUS

    totals = np.zeros(m_max, dtype=np.complex128)
    prev = 0
    sup_s, sup_est, sup_est_int = [], [], []
    for ckpt, m in zip(checkpoints, m_values):
        sums = FourierSums(m_max, (1,), ckpt - prev)
        _add_tiles(sums, field, deploy, noise, keys, prev, ckpt)
        totals = totals + sums.result()[0]
        prev = ckpt
        alpha_hat = (c / ckpt) * totals
        delta = alpha_hat[:m] - true_cv.values[:m]
        s_grid = synthesize(delta, grid)
        fm_grid = synthesize(true_cv.values[:m], grid)
        est_err = np.abs(s_grid + fm_grid - f_grid)
        sup_s.append(float(np.max(np.abs(s_grid))))
        sup_est.append(float(np.max(est_err)))
        sup_est_int.append(float(np.max(est_err[interior])))

    condition = validate_as_schedule(psi, gamma, deploy, fields=[field])
    return ASTraceResult(checkpoints=checkpoints, m_values=m_values, psi=psi,
                         gamma=gamma, sup_error=tuple(sup_s),
                         sup_estimate_error=tuple(sup_est),
                         sup_estimate_error_interior=tuple(sup_est_int),
                         condition=condition)

"""Error bounds, consistency conditions, Monte-Carlo distortion sweeps,
rate fitting, and single-path convergence traces.

Integrated squared error is computed in coefficient space (exact by
orthonormality), so the Monte-Carlo loops never need quadrature.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .estimator import (EstimatorConfig, ReconstructionCoefficients,
                        TruncationSchedule, estimate_coefficients,
                        weighted_basis_sums)
from .fields import (Basis, CoefficientVector, FieldSpec, FourierBasis,
                     m_term_error, make_bv_field, synthesize, true_coefficients)
from .sensing import Deployment, Noise, simulate_batch, trial_seed

# ---------------------------------------------------------------------------
# deployment-weighted basis integrals, with endpoint-divergence detection
# ---------------------------------------------------------------------------

_PROBE_DELTAS = (1e-3, 1e-6, 1e-9)


def _plain_quad(fn, lo: float, hi: float) -> float:
    """Integral of fn over [lo, hi]; +inf when quad samples a point where
    the density in fn vanishes (a tabulated density is linear between its
    nodes, so a zero there makes 1/p_X unintegrable)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        try:
            val, _ = quad(fn, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=600)
        except ZeroDivisionError:
            return math.inf
    return val


def _integral_with_probe(fn, lo: float, hi: float, probe: bool) -> float:
    """Integral of fn over [lo, hi]; +inf when the shrinking-margin probe
    shows non-collapsing growth toward an endpoint.

    Finite endpoint singularities (x^-1/2 style) produce probe increments
    that collapse geometrically; log and power divergences do not.
    """
    if not probe:
        return _plain_quad(fn, lo, hi)
    span = hi - lo
    probes = [_plain_quad(fn, lo + d * span, hi - d * span) for d in _PROBE_DELTAS]
    inc1 = probes[1] - probes[0]
    inc2 = probes[2] - probes[1]
    if max(probes) > 1e9 or (inc2 > 1e-9 and inc2 >= 0.5 * inc1):
        return math.inf
    return _plain_quad(fn, lo, hi)


@lru_cache(maxsize=256)
def _inverse_density_integral(deploy: Deployment) -> float:
    return _integral_with_probe(lambda x: 1.0 / float(deploy.pdf(x)),
                                0.0, 1.0, probe=deploy.infimum <= 0.0)


def basis_deployment_integral(basis: Basis, deploy: Deployment, j: int) -> float:
    """Integral of |phi_j|^2 / p_X over [0,1]; +inf flags divergence."""
    if basis.constant_modulus:
        # |phi_j| == 1 for every j, so one cached integral serves all of them
        return _inverse_density_integral(deploy)
    # step basis: |phi_j|^2 is `cells` on cell j and 0 elsewhere
    lo, hi = j / basis.cells, (j + 1) / basis.cells
    dens = basis.cells
    return _integral_with_probe(lambda x: dens / float(deploy.pdf(x)),
                                lo, hi, probe=deploy.infimum <= 0.0)


# ---------------------------------------------------------------------------
# distortion upper bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Two-term distortion bound: coefficient variance plus truncation bias."""

    n: int
    m: int
    c: float
    variance_term: float
    bias_term: float
    per_j_integrals: tuple[float, ...]
    divergent_js: tuple[int, ...]

    @property
    def total(self) -> float:
        return self.variance_term + self.bias_term

    @property
    def divergent(self) -> bool:
        return bool(self.divergent_js)


def mse_upper_bound(field: FieldSpec, basis: Basis, deploy: Deployment,
                    n: int, m: int, c: float) -> BoundReport:
    """Bound E||f - f_hat||^2 <= (c^2/n) * sum_{j<m} int |phi_j|^2/p_X + tail(m)."""
    if n < 1:
        raise ValueError("sensor count must be >= 1")
    if m < 0:
        raise ValueError("truncation point must be >= 0")
    integrals = tuple(basis_deployment_integral(basis, deploy, j) for j in range(m))
    divergent = tuple(j for j, v in enumerate(integrals) if math.isinf(v))
    if m == 0:
        bias = field.norm_sq
    else:
        bias = m_term_error(true_coefficients(field, basis, m), field, m)
    variance = math.inf if divergent else (c * c / n) * float(np.sum(integrals))
    return BoundReport(n=n, m=m, c=c, variance_term=variance, bias_term=bias,
                       per_j_integrals=integrals, divergent_js=divergent)


# ---------------------------------------------------------------------------
# consistency-condition checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    """Whether a (schedule, basis, deployment) triple drives the bound to zero."""

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


def check_consistency_conditions(schedule: TruncationSchedule, basis: Basis,
                                 deploy: Deployment,
                                 n_grid: Sequence[int]) -> ConsistencyReport:
    n_grid = tuple(int(n) for n in n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    m_values = tuple(schedule.resolve(n) for n in n_grid)

    m_max = max(m_values)
    if basis.constant_modulus:
        base = basis_deployment_integral(basis, deploy, 0)
        prefix_sums = [m * base for m in m_values]
    else:
        integrals = [basis_deployment_integral(basis, deploy, j) for j in range(m_max)]
        cumulative = np.concatenate([[0.0], np.cumsum(integrals)])
        prefix_sums = [float(cumulative[m]) for m in m_values]
    q = tuple(s / n for s, n in zip(prefix_sums, n_grid))

    decreasing = all(b < a for a, b in zip(q, q[1:]))
    vanishing = math.isfinite(q[-1]) and q[-1] <= 0.5 * q[0]
    return ConsistencyReport(
        n_grid=n_grid,
        m_values=m_values,
        truncation_nondecreasing=all(b >= a for a, b in zip(m_values, m_values[1:])),
        truncation_grows=m_values[-1] > m_values[0],
        infimum=float(deploy.infimum),
        variance_condition_values=q,
        variance_condition_decreasing=decreasing,
        variance_condition_vanishing=vanishing,
    )


# ---------------------------------------------------------------------------
# realization-level integrated squared error (exact via Parseval)
# ---------------------------------------------------------------------------

def integrated_squared_error(coeffs_hat: ReconstructionCoefficients,
                             true_coeffs: CoefficientVector,
                             field: FieldSpec) -> float:
    """||f - f_hat||^2 = sum_{j<m} |a_hat_j - a_j|^2 + tail energy past m."""
    m = len(coeffs_hat)
    if len(true_coeffs) < m:
        raise ValueError(f"need at least {m} true coefficients, got {len(true_coeffs)}")
    head = float(np.sum(np.abs(coeffs_hat.values - true_coeffs.values[:m]) ** 2))
    tail = max(field.norm_sq - float(np.sum(np.abs(true_coeffs.values[:m]) ** 2)), 0.0)
    return head + tail


# ---------------------------------------------------------------------------
# Monte-Carlo distortion sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrialCell:
    """`trials` independent simulate -> estimate pipelines: n sensors, m coefficients."""

    field: FieldSpec
    deploy: Deployment
    noise: Noise
    cfg: EstimatorConfig
    n: int
    m: int
    trials: int


def _trial_chunk(payload) -> np.ndarray:
    cell, seed, cell_index, t0, t1 = payload
    out = np.empty((t1 - t0, cell.m), dtype=np.complex128)
    for t in range(t0, t1):
        batch = simulate_batch(cell.field, cell.deploy, cell.noise, cell.n,
                               trial_seed(seed, cell_index, t))
        out[t - t0] = estimate_coefficients(batch, cell.cfg, cell.m).values
    return out


def map_trials(cells: Sequence[TrialCell], seed: int, chunk: int,
               workers: int = 1) -> list[np.ndarray]:
    """Coefficient estimates of every trial: one (trials, m) array per cell.

    Trial t of cell i draws from trial_seed(seed, i, t), so neither the
    worker count nor the chunk size changes a byte; `chunk` (trials per pool
    task) only trades pool overhead against memory traffic.
    """
    payloads = [(cell, seed, i, t0, min(t0 + chunk, cell.trials))
                for i, cell in enumerate(cells)
                for t0 in range(0, cell.trials, chunk)]
    out = [np.empty((cell.trials, cell.m), dtype=np.complex128) for cell in cells]
    # chunks are copied out as they arrive, so no second copy of the
    # estimates is ever held
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        parts = (pool.map(_trial_chunk, payloads) if pool
                 else map(_trial_chunk, payloads))
        for (_, _, i, t0, t1), part in zip(payloads, parts):
            out[i][t0:t1] = part
    return out


@dataclass(frozen=True, eq=False)
class MseSweep:
    n_grid: tuple[int, ...]
    m_values: tuple[int, ...]
    trials: tuple[int, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    ci_half: tuple[float, ...]
    trial_values: tuple[np.ndarray, ...]


def monte_carlo_mse(field: FieldSpec, deploy: Deployment, noise: Noise,
                    cfg: EstimatorConfig, n_grid: Sequence[int],
                    trials: int | Sequence[int], seed: int,
                    workers: int = 1) -> MseSweep:
    """Mean integrated squared error (with normal-approximation 95% CI)
    over independent simulate -> estimate -> error pipelines.

    Deterministic in `seed`; the per-trial seeds are derived from
    (seed, n-index, trial-index), so the worker count never changes results.
    """
    n_grid = tuple(int(n) for n in n_grid)
    trials_per_n = (tuple(int(t) for t in trials) if isinstance(trials, (list, tuple))
                    else (int(trials),) * len(n_grid))
    if len(trials_per_n) != len(n_grid):
        raise ValueError("need one trial count per n")
    if any(t < 2 for t in trials_per_n):
        raise ValueError("need at least two trials per n")

    m_values = tuple(cfg.schedule.resolve(n) for n in n_grid)
    cells = [TrialCell(field, deploy, noise, cfg, n, m, t)
             for n, m, t in zip(n_grid, m_values, trials_per_n)]
    estimates = map_trials(cells, seed, chunk=25, workers=workers)

    per_n = []
    for cell, rows in zip(cells, estimates):
        true_cv = true_coefficients(field, cfg.basis, cell.m)
        per_n.append(np.array([integrated_squared_error(
            ReconstructionCoefficients(row, cell.n), true_cv, field) for row in rows]))

    means = tuple(float(np.mean(v)) for v in per_n)
    stds = tuple(float(np.std(v, ddof=1)) for v in per_n)
    ci = tuple(1.96 * s / math.sqrt(t) for s, t in zip(stds, trials_per_n))
    return MseSweep(n_grid=n_grid, m_values=m_values, trials=trials_per_n,
                    means=means, stds=stds, ci_half=ci,
                    trial_values=tuple(per_n))


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
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared, "n_grid": list(self.n_grid),
                "mse_values": list(self.mse_values)}


RATE_FIT_MIN_POINTS = 4


def rate_fit(n_grid: Sequence[int], mse_values: Sequence[float]) -> RateFitResult:
    """Ordinary least squares of log(mse) on log(n)."""
    n_grid = tuple(int(n) for n in n_grid)
    mse_values = tuple(float(v) for v in mse_values)
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

_DEFAULT_M_GRID = tuple(2 ** k for k in range(1, 9))  # 2, 4, ..., 256


@dataclass(frozen=True)
class ScheduleValidation:
    """Checks that a growth schedule supports the pathwise-convergence bound.

    `gamma_in_range` is the summability condition: with m(n) ~ n^psi and
    envelope m^(gamma/2) the exponential-series exponent is gamma*psi,
    which must stay below 1 while gamma stays above 1.
    """

    psi: float
    gamma: float
    gamma_in_range: bool
    series_exponent: float
    uniformly_bounded: bool
    infimum: float
    c1: float | None
    c2: float | None
    kernel_ratio_max: float | None       # max over grid of kernel / (c1 * m)
    projection_ratio_max: float | None   # max over grid of |f_m| / (c2 * m)

    @property
    def bounded_route_available(self) -> bool:
        return self.uniformly_bounded and self.infimum > 0.0

    @property
    def kernel_check_ok(self) -> bool | None:
        if self.kernel_ratio_max is None:
            return None
        return self.kernel_ratio_max <= 1.0 + 1e-9

    @property
    def projection_check_ok(self) -> bool | None:
        if self.projection_ratio_max is None:
            return None
        return self.projection_ratio_max <= 1.0 + 1e-9

    @property
    def accepted(self) -> bool:
        return bool(self.gamma_in_range and self.bounded_route_available
                    and self.kernel_check_ok and self.projection_check_ok)

    def to_json(self) -> dict:
        return {"psi": self.psi, "gamma": self.gamma,
                "gamma_in_range": self.gamma_in_range,
                "series_exponent": self.series_exponent,
                "uniformly_bounded": self.uniformly_bounded,
                "infimum": self.infimum, "c1": self.c1, "c2": self.c2,
                "kernel_ratio_max": self.kernel_ratio_max,
                "projection_ratio_max": self.projection_ratio_max,
                "accepted": self.accepted}


def _shipped_field_menu() -> list[FieldSpec]:
    return [make_bv_field("sawtooth"), make_bv_field("step"),
            make_bv_field("staircase")]


def validate_as_schedule(psi: float, gamma: float, basis: Basis,
                         deploy: Deployment, amplitude: float | None = None,
                         fields: Sequence[FieldSpec] | None = None,
                         m_grid: Sequence[int] = _DEFAULT_M_GRID,
                         grid_points: int = 193) -> ScheduleValidation:
    """Validate (m(n) = n^psi, envelope m^(gamma/2)) for pathwise convergence,
    and numerically exercise the bounded-basis kernel/projection bounds
    with envelope m and constants beta^2/nu and a*beta."""
    if not 0.0 < psi < 1.0:
        raise ValueError("growth exponent must lie in (0, 1)")
    gamma_ok = 1.0 < gamma < 1.0 / psi
    nu = float(deploy.infimum)
    bounded = bool(basis.is_uniformly_bounded)

    c1 = c2 = None
    kernel_ratio = projection_ratio = None
    if bounded and nu > 0.0:
        beta = float(basis.bound)
        menu = list(fields) if fields is not None else _shipped_field_menu()
        a = float(amplitude) if amplitude is not None else max(
            f.amplitude_bound for f in menu)
        c1 = beta * beta / nu
        c2 = a * beta  # * sqrt(vol([0,1])) == 1

        xg = np.linspace(0.0, 1.0, grid_points)
        m_grid = tuple(int(m) for m in m_grid)
        m_max = max(m_grid)
        if basis.size is not None:
            m_grid = tuple(m for m in m_grid if m <= basis.size) or (basis.size,)
            m_max = max(m_grid)
        phi = np.column_stack([basis.eval(j, xg) for j in range(m_max)])
        inv_p = 1.0 / np.asarray(deploy.pdf(xg), dtype=float)

        kernel_ratio = 0.0
        for m in m_grid:
            kernel = np.abs(phi[:, :m] @ phi[:, :m].conj().T) * inv_p[None, :]
            kernel_ratio = max(kernel_ratio, float(kernel.max()) / (c1 * m))

        projection_ratio = 0.0
        for f in menu:
            coeffs = true_coefficients(f, basis, m_max).values
            for m in m_grid:
                fm = np.abs(phi[:, :m] @ coeffs[:m])
                projection_ratio = max(projection_ratio, float(fm.max()) / (c2 * m))

    return ScheduleValidation(psi=psi, gamma=gamma, gamma_in_range=gamma_ok,
                              series_exponent=gamma * psi,
                              uniformly_bounded=bounded, infimum=nu,
                              c1=c1, c2=c2, kernel_ratio_max=kernel_ratio,
                              projection_ratio_max=projection_ratio)


JUMP_EXCLUSION_RADIUS = 0.02


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

    def to_json(self) -> dict:
        return {"checkpoints": list(self.checkpoints),
                "m_values": list(self.m_values),
                "psi": self.psi, "gamma": self.gamma,
                "sup_error": list(self.sup_error),
                "sup_estimate_error": list(self.sup_estimate_error),
                "sup_estimate_error_interior": list(self.sup_estimate_error_interior),
                "condition": self.condition.to_json()}


def as_error_trace(field: FieldSpec, deploy: Deployment, noise: Noise,
                   psi: float, seed: int, n_checkpoints: Sequence[int],
                   eval_grid: np.ndarray | None = None,
                   basis: Basis | None = None,
                   gamma: float | None = None,
                   schedule: TruncationSchedule | None = None) -> ASTraceResult:
    """Grow one sample path of sensors and record sup-norm errors at the
    checkpoints. A single realization: the asymptotic statement itself is
    not falsifiable by finite simulation, so callers should treat this as
    a fixed-seed regression trace, not a proof.

    `schedule` overrides the default power-law truncation growth n^psi
    (a frozen schedule reduces the trace to scalar coefficient paths).
    """
    if not 0.0 < psi < 1.0:
        raise ValueError("growth exponent must lie in (0, 1)")
    checkpoints = tuple(int(n) for n in n_checkpoints)
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])) or not checkpoints:
        raise ValueError("checkpoints must be strictly increasing and nonempty")
    basis = basis if basis is not None else FourierBasis()
    gamma = gamma if gamma is not None else 0.5 * (1.0 + 1.0 / psi)
    grid = (np.asarray(eval_grid, dtype=float) if eval_grid is not None
            else np.linspace(0.0, 1.0, 513))

    schedule = schedule if schedule is not None else TruncationSchedule.power(psi)
    m_values = tuple(schedule.resolve(n) for n in checkpoints)
    m_max = max(m_values)

    n_max = checkpoints[-1]
    batch = simulate_batch(field, deploy, noise, n_max, seed)
    p = np.asarray(deploy.pdf(batch.x), dtype=float)
    if np.any(p <= 0):
        raise ValueError("deployment density vanishes at an observed location")
    w = batch.bits / p

    true_cv = true_coefficients(field, basis, m_max)
    f_grid = np.asarray(field.eval(grid), dtype=float)
    interior = np.ones(grid.shape, dtype=bool)
    for pt in field.jump_points:
        interior &= np.abs(grid - pt) > JUMP_EXCLUSION_RADIUS
    if not interior.any():
        interior = np.ones(grid.shape, dtype=bool)

    totals = np.zeros(m_max, dtype=np.complex128)
    prev = 0
    sup_s, sup_est, sup_est_int = [], [], []
    for ckpt, m in zip(checkpoints, m_values):
        totals = totals + weighted_basis_sums(basis, m_max, batch.x[prev:ckpt],
                                              w[prev:ckpt])
        prev = ckpt
        alpha_hat = (batch.c / ckpt) * totals
        delta = alpha_hat[:m] - true_cv.values[:m]
        s_grid = synthesize(basis, delta, grid)
        fm_grid = synthesize(basis, true_cv.values[:m], grid)
        est_err = np.abs(s_grid + fm_grid - f_grid)
        sup_s.append(float(np.max(np.abs(s_grid))))
        sup_est.append(float(np.max(est_err)))
        sup_est_int.append(float(np.max(est_err[interior])))

    condition = validate_as_schedule(psi, gamma, basis, deploy,
                                     amplitude=field.amplitude_bound,
                                     fields=[field])
    return ASTraceResult(checkpoints=checkpoints, m_values=m_values, psi=psi,
                         gamma=gamma, sup_error=tuple(sup_s),
                         sup_estimate_error=tuple(sup_est),
                         sup_estimate_error_interior=tuple(sup_est_int),
                         condition=condition)

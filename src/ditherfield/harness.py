"""Experiment harness: JSON experiment configs, rate-verification sweeps,
statistical tests of the coefficient estimator, convergence traces, and
named suites bundling them. All artifacts (CSV/JSON/summary) are pure
functions of (config, seed): no timestamps, no implicit entropy, and the
worker count never changes a byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .analysis import (RATE_FIT_MIN_POINTS, ASTraceResult, BoundReport,
                       RateFitResult, TrialCell, as_error_trace,
                       basis_deployment_integral, check_consistency_conditions,
                       map_trials, monte_carlo_mse, mse_upper_bound, rate_fit,
                       validate_as_schedule)
from .estimator import EstimatorConfig, TruncationSchedule
from .fields import (Basis, FieldSpec, FourierBasis, basis_from_json,
                     field_from_json, make_bv_field, make_finite_dim_field,
                     make_sobolev_field, true_coefficients)
from .sensing import Deployment, Noise, make_deployment, make_noise

CSV_HEADER = ["experiment_id", "n", "m", "trials", "mse_mean", "mse_std",
              "ci_lo", "ci_hi", "bound_total", "bound_var_term",
              "bound_bias_term", "seed", "config_hash"]

SUITE_NAMES = ("rates", "lemma1", "as_traces", "conditions", "all")

_RATE_CONFIGS = ("finite_dim_k5", "bv_sawtooth", "sobolev_s1")
_MISMATCH_CONFIGS = ("mismatch_linear2x", "mismatch_affine_floor")
_TRACE_CONFIGS = ("as_trace_zero", "as_trace_sawtooth")

_CONFIG_KEYS = ("experiment_id", "field", "basis", "deployment", "noise",
                "schedule", "n_grid", "trials", "seed", "acceptance")
_ACCEPTANCE_KEYS = ("slope_range", "r2_min", "bound_dominance",
                    "expect_rejected", "trace_ratio_max")

# Largest sensor count a config may ask for: 16x the shipped 10^6 of the
# trace configs, and a bound on the arrays one realization allocates.
N_GRID_MAX = 1 << 24
# Trial indices are spawn-key entries, which the bulk stream keys take as
# single 32-bit words.
TRIALS_MAX = (1 << 32) - 1
# Largest dynamic range c = amplitude bound + noise b: squared errors and
# bounds scale as c^2 times the coefficient count, which must stay finite.
DYNAMIC_RANGE_MAX = 1e100


class ConfigValidationError(ValueError):
    """Raised with the full list of violated config fields."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("invalid experiment config: " + "; ".join(self.problems))


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

def _count(value) -> int:
    """An integer, or an integral float such as 64.0, as an int."""
    if isinstance(value, numbers.Integral) or (isinstance(value, float)
                                               and value.is_integer()):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    experiment_id: str
    field: FieldSpec
    deployment: Deployment
    noise: Noise
    basis: Basis
    schedule: TruncationSchedule
    n_grid: tuple[int, ...]
    trials: tuple[int, ...]
    seed: int
    acceptance: dict
    raw: dict

    @property
    def c(self) -> float:
        return self.field.amplitude_bound + self.noise.b

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def parse_experiment_config(doc: dict, seed_override: int | None = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigValidationError([f"config must be a JSON object, got "
                                     f"{type(doc).__name__}"])
    problems: list[str] = []
    doc = dict(doc)
    if seed_override is not None:
        doc["seed"] = int(seed_override)

    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        problems.append(f"unknown keys {unknown}; expected some of {list(_CONFIG_KEYS)}")

    experiment_id = doc.get("experiment_id")
    if not isinstance(experiment_id, str) or not experiment_id:
        problems.append("experiment_id: required non-empty string")

    def _build(key, fn, required=True):
        if key not in doc:
            if required:
                problems.append(f"{key}: required")
            return None
        try:
            return fn(doc[key])
        except Exception as exc:
            problems.append(f"{key}: {exc}")
            return None

    field = _build("field", field_from_json)
    deployment = _build("deployment", lambda d: make_deployment(
        d["kind"], **{k: v for k, v in d.items() if k != "kind"}))
    noise = _build("noise", lambda d: make_noise(
        d["kind"], **{k: v for k, v in d.items() if k != "kind"}))
    schedule = _build("schedule", TruncationSchedule.from_json)
    basis = _build("basis", basis_from_json, required=False) or FourierBasis()

    n_grid: tuple[int, ...] = ()
    raw_grid = doc.get("n_grid")
    if not isinstance(raw_grid, (list, tuple)) or not raw_grid:
        problems.append("n_grid: required non-empty list")
    else:
        try:
            n_grid = tuple(_count(n) for n in raw_grid)
            if any(n < 1 for n in n_grid):
                problems.append("n_grid: entries must be positive")
            if any(n > N_GRID_MAX for n in n_grid):
                problems.append(f"n_grid: entries must be at most {N_GRID_MAX}")
            if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
                problems.append("n_grid: must be strictly increasing")
        except ValueError:
            problems.append("n_grid: entries must be integers")

    trials: tuple[int, ...] = ()
    raw_trials = doc.get("trials")
    if raw_trials is None:
        problems.append("trials: required")
    else:
        try:
            trials = (tuple(_count(t) for t in raw_trials)
                      if isinstance(raw_trials, (list, tuple))
                      else (_count(raw_trials),) * max(len(n_grid), 1))
            if n_grid and len(trials) != len(n_grid):
                problems.append("trials: need one count per n_grid entry")
            if any(t < 2 for t in trials):
                problems.append("trials: every count must be >= 2")
            if any(t > TRIALS_MAX for t in trials):
                problems.append(f"trials: every count must be at most {TRIALS_MAX}")
        except ValueError:
            problems.append("trials: must be an integer or list of integers")

    if schedule is not None and n_grid and min(n_grid) >= 1:
        m_values = [schedule.resolve(n) for n in n_grid]
        if basis.size is not None and max(m_values) > basis.size:
            problems.append(f"schedule: m(n) reaches {max(m_values)} on n_grid, but the "
                            f"{basis.kind} basis has only {basis.size} functions")
        over = [(n, m) for n, m in zip(n_grid, m_values) if m > n]
        if over:
            problems.append(f"schedule: m(n) must not exceed n, but m({over[0][0]}) "
                            f"= {over[0][1]:.6g}")

    if field is not None and noise is not None:
        c = field.amplitude_bound + noise.b
        if not c <= DYNAMIC_RANGE_MAX:
            problems.append(f"field, noise: the dynamic range c = amplitude bound + "
                            f"noise b = {c:g} must be at most {DYNAMIC_RANGE_MAX:g}")

    acceptance = doc.get("acceptance", {})
    if not isinstance(acceptance, dict):
        problems.append("acceptance: must be an object")
        acceptance = {}
    unknown = sorted(set(acceptance) - set(_ACCEPTANCE_KEYS))
    if unknown:
        problems.append(f"acceptance: unknown keys {unknown}; expected some of "
                        f"{list(_ACCEPTANCE_KEYS)}")
    slope_range = acceptance.get("slope_range", (0.0, 0.0))
    if not (isinstance(slope_range, (list, tuple)) and len(slope_range) == 2
            and all(map(_finite_number, slope_range))
            and slope_range[0] <= slope_range[1]):
        problems.append("acceptance: slope_range must be [lo, hi], finite numbers "
                        "with lo <= hi")
    for key in ("r2_min", "trace_ratio_max"):
        if key in acceptance and not _finite_number(acceptance[key]):
            problems.append(f"acceptance: {key} must be a finite number")
    for key in ("bound_dominance", "expect_rejected"):
        if key in acceptance and not isinstance(acceptance[key], bool):
            problems.append(f"acceptance: {key} must be true or false")
    fitted = sorted({"slope_range", "r2_min"} & set(acceptance))
    if fitted and n_grid and len(n_grid) < RATE_FIT_MIN_POINTS:
        problems.append(f"acceptance: {', '.join(fitted)} need a rate fit, which "
                        f"needs at least {RATE_FIT_MIN_POINTS} n_grid points")

    if "seed" not in doc:
        problems.append("seed: required (no implicit entropy)")
        seed = 0
    else:
        try:
            seed = _count(doc["seed"])
        except ValueError:
            problems.append("seed: must be an integer")
            seed = 0
        if seed < 0:
            problems.append("seed: must be >= 0")

    if problems:
        raise ConfigValidationError(problems)
    return ExperimentConfig(
        experiment_id=experiment_id, field=field, deployment=deployment,
        noise=noise, basis=basis, schedule=schedule, n_grid=n_grid,
        trials=trials, seed=seed, acceptance=dict(acceptance), raw=doc)


def load_experiment_config(path, seed_override: int | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return parse_experiment_config(json.load(fh), seed_override)


def load_shipped_config(name: str, seed_override: int | None = None) -> ExperimentConfig:
    text = (resources.files("ditherfield") / "configs" / f"{name}.json").read_text()
    return parse_experiment_config(json.loads(text), seed_override)


# ---------------------------------------------------------------------------
# single experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExperimentOutcome:
    config: ExperimentConfig
    status: str  # PASS | FAIL | FAILED-PRECONDITION
    detail: str
    fit: RateFitResult | None
    bounds: tuple[BoundReport, ...]
    mse_means: tuple[float, ...]
    dominance_violations: int
    artifacts: tuple[str, ...]

    @property
    def rejected(self) -> bool:
        return self.status == "FAILED-PRECONDITION"


def _write_lines(path: Path, lines: Sequence[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def run_experiment(config: ExperimentConfig, out_dir, workers: int = 1) -> ExperimentOutcome:
    """Monte-Carlo sweep + bound table + rate fit for one experiment config.

    A deployment/basis pair whose variance integrals diverge is rejected
    up front (FAILED-PRECONDITION) — the distortion bound is useless there.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eid = config.experiment_id
    csv_path = out / f"{eid}.csv"
    report_path = out / f"{eid}_report.json"
    summary_path = out / f"{eid}_summary.txt"
    artifacts = (str(csv_path), str(report_path), str(summary_path))

    m_values = [config.schedule.resolve(n) for n in config.n_grid]
    m_max = max(m_values)
    divergent = [j for j in range(m_max)
                 if math.isinf(basis_deployment_integral(config.basis,
                                                         config.deployment, j))]
    if divergent:
        detail = (
            f"rejected: the variance side of the distortion bound diverges — "
            f"the integral of |phi_j|^2 / p_X over [0,1] is infinite for "
            f"j in {divergent[:8]}. The deployment density vanishes on the "
            f"domain, so the inverse-density weights are unintegrable and the "
            f"bound is useless; match the basis to the deployment or use a "
            f"density with a strictly positive floor.")
        _write_csv(csv_path, CSV_HEADER, [])
        _write_json(report_path, {"experiment_id": eid,
                                  "status": "FAILED-PRECONDITION",
                                  "detail": detail,
                                  "divergent_js": divergent,
                                  "seed": config.seed,
                                  "config_hash": config.config_hash})
        _write_lines(summary_path, [f"experiment {eid}",
                                    "status FAILED-PRECONDITION", detail])
        return ExperimentOutcome(config=config, status="FAILED-PRECONDITION",
                                 detail=detail, fit=None, bounds=(),
                                 mse_means=(), dominance_violations=0,
                                 artifacts=artifacts)

    est_cfg = EstimatorConfig(basis=config.basis, density=config.deployment,
                              c=config.c, schedule=config.schedule)
    sweep = monte_carlo_mse(config.field, config.deployment, config.noise,
                            est_cfg, config.n_grid, config.trials,
                            seed=config.seed, workers=workers)
    bounds = tuple(mse_upper_bound(config.field, config.basis, config.deployment,
                                   n, m, config.c)
                   for n, m in zip(config.n_grid, m_values))

    # a NaN mean or bound is a violation: dominance must be shown, not assumed
    violations = sum(1 for mean, ci, b in zip(sweep.means, sweep.ci_half, bounds)
                     if not mean <= b.total + 3.0 * ci)

    fit = (rate_fit(config.n_grid, sweep.means)
           if len(config.n_grid) >= RATE_FIT_MIN_POINTS else None)

    # parsing guarantees a rate fit wherever slope_range or r2_min is declared
    accept = config.acceptance
    verdicts: list[tuple[str, bool]] = []
    if "slope_range" in accept:
        lo, hi = accept["slope_range"]
        verdicts.append((f"slope {fit.slope:+.4f} in [{lo}, {hi}]",
                         lo <= fit.slope <= hi))
    if "r2_min" in accept:
        verdicts.append((f"r2 {fit.r_squared:.5f} >= {accept['r2_min']}",
                         fit.r_squared >= accept["r2_min"]))
    if accept.get("bound_dominance"):
        verdicts.append((f"bound dominance violations {violations}", violations == 0))
    # a NaN or infinite number is no evidence, whatever the declared tolerances
    reported = {"mse": sweep.means + sweep.stds, "ci": sweep.ci_half,
                "bound": tuple(v for b in bounds
                               for v in (b.total, b.variance_term, b.bias_term)),
                "fit": (fit.slope, fit.intercept, fit.r_squared) if fit else ()}
    non_finite = [name for name, values in reported.items()
                  if not all(math.isfinite(v) for v in values)]
    if non_finite:
        verdicts.append((f"non-finite {', '.join(non_finite)} values", False))
    checks = [f"{text}: {'ok' if ok else 'VIOLATED'}" for text, ok in verdicts]
    status = "PASS" if all(ok for _, ok in verdicts) else "FAIL"

    rows = []
    for i, n in enumerate(config.n_grid):
        rows.append([eid, n, m_values[i], sweep.trials[i],
                     repr(sweep.means[i]), repr(sweep.stds[i]),
                     repr(sweep.means[i] - sweep.ci_half[i]),
                     repr(sweep.means[i] + sweep.ci_half[i]),
                     repr(bounds[i].total), repr(bounds[i].variance_term),
                     repr(bounds[i].bias_term), config.seed,
                     config.config_hash])
    _write_csv(csv_path, CSV_HEADER, rows)

    report = {"experiment_id": eid, "status": status, "seed": config.seed,
              "config_hash": config.config_hash,
              "n_grid": list(config.n_grid), "m_values": m_values,
              "trials": list(sweep.trials), "mse_means": list(sweep.means),
              "mse_stds": list(sweep.stds), "ci_half": list(sweep.ci_half),
              "bound_totals": [b.total for b in bounds],
              "dominance_violations": violations,
              "checks": checks,
              "rate_fit": fit.to_json() if fit else None}
    _write_json(report_path, report)

    lines = [f"experiment {eid}", f"status {status}", f"seed {config.seed}",
             f"config sha {config.config_hash}"]
    for i, n in enumerate(config.n_grid):
        lines.append(f"n={n} m={m_values[i]} trials={sweep.trials[i]} "
                     f"mse={sweep.means[i]:.6e} ci_half={sweep.ci_half[i]:.2e} "
                     f"bound={bounds[i].total:.6e}")
    lines.extend(checks)
    _write_lines(summary_path, lines)

    detail = "; ".join(checks) if checks else "no declared tolerances"
    return ExperimentOutcome(config=config, status=status, detail=detail,
                             fit=fit, bounds=bounds, mse_means=sweep.means,
                             dominance_violations=violations,
                             artifacts=artifacts)


def run_as_trace(config: ExperimentConfig, out_dir) -> tuple[ASTraceResult, Path]:
    """One sample-path trace at the config's n_grid, growing m(n) = n^psi by
    its power schedule; writes `<experiment_id>_trace.json`."""
    if config.schedule.schedule_kind != "power" or not config.schedule.param < 1.0:
        raise ConfigValidationError(["schedule: a sample-path trace needs a power "
                                     "schedule with psi < 1 (its exponent is the "
                                     "truncation growth rate)"])
    trace = as_error_trace(config.field, config.deployment, config.noise,
                           psi=config.schedule.param, seed=config.seed,
                           n_checkpoints=config.n_grid)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{config.experiment_id}_trace.json"
    _write_json(path, trace.to_json())
    return trace, path


# ---------------------------------------------------------------------------
# statistical battery for the coefficient estimator
# ---------------------------------------------------------------------------

LEMMA_CELL_HEADER = ["cell", "field", "deployment", "noise", "j",
                     "alpha_re", "alpha_im", "mean_re", "mean_im",
                     "dev_sigmas", "var_emp", "var_bound", "var_ratio"]


def lemma_battery_menu() -> list[tuple[str, FieldSpec]]:
    """Three fields (one per studied class), sized for fast repeated sampling."""
    finite = make_finite_dim_field(
        FourierBasis(),
        [0.2, 0.15 + 0.1j, 0.15 - 0.1j, -0.1 + 0.05j, -0.1 - 0.05j],
        amplitude_bound=0.8)
    return [("finite_dim_k5", finite),
            ("sawtooth", make_bv_field("sawtooth")),
            ("sobolev_s1", make_sobolev_field(1.0, seed=7, n_freqs=32))]


@dataclass(frozen=True, eq=False)
class LemmaBatteryResult:
    rows: tuple[dict, ...]
    frac_within_4sigma: float
    max_dev_sigmas: float
    max_var_ratio: float

    WITHIN_SIGMAS: ClassVar[float] = 4.0
    FRAC_WITHIN_MIN: ClassVar[float] = 0.95
    DEV_SIGMAS_MAX: ClassVar[float] = 6.0
    VAR_RATIO_MAX: ClassVar[float] = 1.1

    @property
    def unbiasedness_ok(self) -> bool:
        return (self.frac_within_4sigma >= self.FRAC_WITHIN_MIN
                and self.max_dev_sigmas <= self.DEV_SIGMAS_MAX)

    @property
    def variance_ok(self) -> bool:
        return self.max_var_ratio <= self.VAR_RATIO_MAX


def run_lemma_battery(n: int = 1000, trials: int = 10_000, j_count: int = 8,
                      seed: int = 7_102_030, workers: int = 1) -> LemmaBatteryResult:
    """Across-trials mean and variance of the coefficient estimates versus
    their exact values and variance bounds, over the shipped field /
    deployment / noise menu."""
    if trials < 2:
        raise ValueError("need at least two trials per cell")
    from .sensing import (AffineFloorDeployment, TwoPointNoise,
                          UniformDeployment, UniformSymNoise, ZeroNoise)

    deployments = [("uniform", UniformDeployment()),
                   ("affine_floor_0.5", AffineFloorDeployment(nu=0.5))]
    noises = [("zero", ZeroNoise()), ("uniform_sym_1", UniformSymNoise(b=1.0)),
              ("two_point_1", TwoPointNoise(b=1.0))]
    basis = FourierBasis()

    cells = [(fname, f, dname, d, zname, z)
             for fname, f in lemma_battery_menu()
             for dname, d in deployments
             for zname, z in noises]

    trial_cells = []
    for _, f, _, d, _, z in cells:
        cfg = EstimatorConfig(basis=basis, density=d, c=f.amplitude_bound + z.b,
                              schedule=TruncationSchedule.fixed(j_count))
        trial_cells.append(TrialCell(f, d, z, cfg, n, j_count, trials))
    estimates = map_trials(trial_cells, seed, chunk=250, workers=workers)

    rows: list[dict] = []
    for (fname, f, dname, d, zname, z), mat in zip(cells, estimates):
        c = f.amplitude_bound + z.b
        alpha = true_coefficients(f, basis, j_count).values
        mean = mat.mean(axis=0)
        var_emp = np.sum(np.abs(mat - mean) ** 2, axis=0) / (trials - 1)
        sigma_mean = np.sqrt(var_emp / trials)
        for j in range(j_count):
            bound = (c * c / n) * basis_deployment_integral(basis, d, j)
            dev = (abs(mean[j] - alpha[j]) / sigma_mean[j]
                   if sigma_mean[j] > 0 else 0.0)
            rows.append({
                "cell": f"{fname}/{dname}/{zname}", "field": fname,
                "deployment": dname, "noise": zname, "j": j,
                "alpha_re": alpha[j].real, "alpha_im": alpha[j].imag,
                "mean_re": mean[j].real, "mean_im": mean[j].imag,
                "dev_sigmas": float(dev), "var_emp": float(var_emp[j]),
                "var_bound": float(bound),
                "var_ratio": float(var_emp[j] / bound)})

    devs = np.array([r["dev_sigmas"] for r in rows])
    ratios = np.array([r["var_ratio"] for r in rows])
    return LemmaBatteryResult(rows=tuple(rows),
                              frac_within_4sigma=float(np.mean(
                                  devs <= LemmaBatteryResult.WITHIN_SIGMAS)),
                              max_dev_sigmas=float(devs.max()),
                              max_var_ratio=float(ratios.max()))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteRow:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, eq=False)
class SuiteResult:
    suite: str
    rows: tuple[SuiteRow, ...]
    artifacts: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


def _suite_artifacts(out: Path, suite: str, rows: Sequence[SuiteRow],
                     extra: dict | None = None) -> tuple[str, ...]:
    report = {"suite": suite,
              "rows": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in rows],
              "all_pass": all(r.passed for r in rows)}
    if extra:
        report.update(extra)
    report_path = out / f"{suite}_report.json"
    summary_path = out / f"{suite}_summary.txt"
    _write_json(report_path, report)
    lines = [f"suite {suite}"]
    lines += [f"{'PASS' if r.passed else 'FAIL'}  {r.name}  [{r.detail}]"
              for r in rows]
    lines.append(f"overall {'PASS' if report['all_pass'] else 'FAIL'}")
    _write_lines(summary_path, lines)
    return (str(report_path), str(summary_path))


def _run_rates_suite(out: Path, workers: int) -> SuiteResult:
    rows: list[SuiteRow] = []
    artifacts: list[str] = []
    extra = {}
    for name in _RATE_CONFIGS:
        outcome = run_experiment(load_shipped_config(name), out, workers=workers)
        artifacts.extend(outcome.artifacts)
        slope = outcome.fit.slope if outcome.fit else math.nan
        r2 = outcome.fit.r_squared if outcome.fit else math.nan
        rows.append(SuiteRow(
            name=f"rate {name}", passed=outcome.status == "PASS",
            detail=f"slope={slope:+.4f} r2={r2:.5f} "
                   f"dominance_violations={outcome.dominance_violations}"))
        extra[name] = {"slope": slope, "r_squared": r2,
                       "dominance_violations": outcome.dominance_violations,
                       "status": outcome.status}
    artifacts.extend(_suite_artifacts(out, "rates", rows, extra))
    return SuiteResult(suite="rates", rows=tuple(rows), artifacts=tuple(artifacts))


def _run_lemma1_suite(out: Path, workers: int, trials: int = 10_000) -> SuiteResult:
    battery = run_lemma_battery(trials=trials, workers=workers)
    csv_rows = [[r["cell"], r["field"], r["deployment"], r["noise"], r["j"],
                 repr(r["alpha_re"]), repr(r["alpha_im"]), repr(r["mean_re"]),
                 repr(r["mean_im"]), repr(r["dev_sigmas"]), repr(r["var_emp"]),
                 repr(r["var_bound"]), repr(r["var_ratio"])]
                for r in battery.rows]
    csv_path = out / "lemma1_cells.csv"
    _write_csv(csv_path, LEMMA_CELL_HEADER, csv_rows)
    rows = [
        SuiteRow(f"unbiasedness: >={battery.FRAC_WITHIN_MIN:.0%} of cells within "
                 f"{battery.WITHIN_SIGMAS:g} sigma",
                 battery.frac_within_4sigma >= battery.FRAC_WITHIN_MIN,
                 f"fraction={battery.frac_within_4sigma:.4f}"),
        SuiteRow(f"unbiasedness: no cell beyond {battery.DEV_SIGMAS_MAX:g} sigma",
                 battery.max_dev_sigmas <= battery.DEV_SIGMAS_MAX,
                 f"max_dev={battery.max_dev_sigmas:.3f} sigma"),
        SuiteRow(f"variance bound: empirical var <= {battery.VAR_RATIO_MAX:g} * "
                 f"bound in every cell",
                 battery.variance_ok, f"max_ratio={battery.max_var_ratio:.4f}"),
    ]
    artifacts = [str(csv_path)]
    artifacts.extend(_suite_artifacts(out, "lemma1", rows))
    return SuiteResult(suite="lemma1", rows=tuple(rows), artifacts=tuple(artifacts))


def _run_traces_suite(out: Path, workers: int) -> SuiteResult:
    rows: list[SuiteRow] = []
    artifacts: list[str] = []
    extra = {}
    for name in _TRACE_CONFIGS:
        config = load_shipped_config(name)
        trace, trace_path = run_as_trace(config, out)
        artifacts.append(str(trace_path))
        ratio_max = config.acceptance["trace_ratio_max"]
        ratio = trace.sup_error[-1] / trace.sup_error[0]
        rows.append(SuiteRow(
            name=f"trace {name}: sup error shrinks along one sample path",
            passed=ratio < ratio_max,
            detail=f"sup|S| {trace.sup_error[0]:.4e} -> {trace.sup_error[-1]:.4e} "
                   f"(ratio {ratio:.4f} < {ratio_max})"))
        extra[name] = trace.to_json()
    artifacts.extend(_suite_artifacts(out, "as_traces", rows, extra))
    return SuiteResult(suite="as_traces", rows=tuple(rows), artifacts=tuple(artifacts))


def _run_conditions_suite(out: Path, workers: int) -> SuiteResult:
    from .sensing import AffineFloorDeployment, UniformDeployment

    basis = FourierBasis()
    uniform = UniformDeployment()
    n_grid = (100, 1000, 10_000, 100_000, 1_000_000)
    rows: list[SuiteRow] = []
    extra: dict = {"consistency": {}}

    cases = [
        ("bv", TruncationSchedule.bv(), True),
        ("sobolev_s1", TruncationSchedule.sobolev(1.0), True),
        ("power_psi1", TruncationSchedule.power(1.0), False),
        ("fixed_m5", TruncationSchedule.fixed(5), False),
    ]
    for name, schedule, expect_pass in cases:
        report = check_consistency_conditions(schedule, basis, uniform, n_grid)
        ok = report.all_pass == expect_pass
        rows.append(SuiteRow(
            name=f"consistency {name} ({'should pass' if expect_pass else 'should fail'})",
            passed=ok,
            detail=f"truncation_ok={report.truncation_ok} "
                   f"infimum_positive={report.infimum_positive} "
                   f"variance_ok={report.variance_ok}"))
        extra["consistency"][name] = {
            "m_values": list(report.m_values),
            "variance_condition_values": list(report.variance_condition_values),
            "all_pass": report.all_pass}

    for psi, gamma, expect in ((0.5, 1.5, True), (0.5, 2.5, False)):
        validation = validate_as_schedule(psi, gamma, basis, uniform, amplitude=1.0)
        ok = validation.accepted == expect
        rows.append(SuiteRow(
            name=f"pathwise schedule psi={psi} gamma={gamma} "
                 f"({'accept' if expect else 'reject'})",
            passed=ok,
            detail=f"series_exponent={validation.series_exponent:.3f} "
                   f"c1={validation.c1} c2={validation.c2} "
                   f"kernel_ratio={validation.kernel_ratio_max}"))
        extra[f"schedule_{psi}_{gamma}"] = validation.to_json()

    for name in _MISMATCH_CONFIGS:
        config = load_shipped_config(name)
        expect_rejected = config.acceptance["expect_rejected"]
        outcome = run_experiment(config, out, workers=workers)
        ok = outcome.rejected == expect_rejected
        integral = basis_deployment_integral(basis, config.deployment, 0)
        rows.append(SuiteRow(
            name=f"deployment match {name} "
                 f"({'reject' if expect_rejected else 'accept'})",
            passed=ok,
            detail=f"status={outcome.status} integral_j0={integral}"))
        extra[name] = {"status": outcome.status, "integral_j0": integral}

    artifacts = _suite_artifacts(out, "conditions", rows, extra)
    return SuiteResult(suite="conditions", rows=tuple(rows), artifacts=artifacts)


def run_suite(name: str, out_dir, workers: int = 1) -> SuiteResult:
    """Run one named verification suite; artifacts land under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if name == "rates":
        return _run_rates_suite(out, workers)
    if name == "lemma1":
        return _run_lemma1_suite(out, workers)
    if name == "as_traces":
        return _run_traces_suite(out, workers)
    if name == "conditions":
        return _run_conditions_suite(out, workers)
    if name == "all":
        parts = [run_suite(s, out, workers)
                 for s in ("rates", "lemma1", "as_traces", "conditions")]
        rows = tuple(r for p in parts for r in p.rows)
        artifacts = tuple(a for p in parts for a in p.artifacts)
        artifacts += _suite_artifacts(out, "all", rows)
        return SuiteResult(suite="all", rows=rows, artifacts=artifacts)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")

"""Experiment harness: JSON experiment configs, rate-verification sweeps,
statistical tests of the coefficient estimator, convergence traces, and
named suites bundling them. All artifacts (CSV/JSON/summary) are pure
functions of (config, seed): no timestamps, no implicit entropy, and the
worker count never changes a byte.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import hashlib
import inspect
import json
import math
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import (Callable, ClassVar, NewType, Sequence, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .analysis import (RATE_FIT_MIN_POINTS, ASTraceResult, RateFitResult,
                       TrialCell, as_error_trace, check_consistency_conditions,
                       map_trials, monte_carlo_mse, mse_upper_bound, rate_fit,
                       validate_as_schedule)
from .estimator import TruncationSchedule
from .fields import (FieldSpec, FourierBasis, SawtoothField, as_count, as_grid, as_real,
                     make_finite_dim_field, make_sobolev_field, true_coefficients)
from .sensing import (SEED_MAX, SENSORS_MAX, AffineFloorDeployment, Linear2xDeployment,
                      Noise, UniformDeployment, dynamic_range)

CSV_HEADER = ["experiment_id", "n", "m", "trials", "mse_mean", "mse_std",
              "ci_lo", "ci_hi", "bound_total", "bound_var_term",
              "bound_bias_term", "seed", "config_hash"]

_RATE_CONFIGS = ("finite_dim_k5", "bv_sawtooth", "sobolev_s1")
_MISMATCH_CONFIGS = ("mismatch_linear2x", "mismatch_affine_floor")
_TRACE_CONFIGS = ("as_trace_zero", "as_trace_sawtooth")

# Largest sensor count a config may ask for: 16x the shipped 10^6 of the
# trace configs, and a bound on the arrays one realization allocates.
N_GRID_MAX = 1 << 24
# Largest trial count per cell: a sweep cell's errors are one (trials,)
# array (`MseSweep.trial_values`), so this bounds it before anything is
# allocated; the estimates themselves stream through chunk by chunk.
TRIALS_MAX = (1 << 32) - 1
# Largest dynamic range c = amplitude bound + noise b: squared errors and
# bounds scale as c^2 times the coefficient count, which must stay finite.
DYNAMIC_RANGE_MAX = 1e100


class ConfigValidationError(ValueError):
    """Raised with the full list of violated config fields."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("invalid experiment config: " + "; ".join(self.problems))


@dataclass(frozen=True)
class Acceptance:
    """The tolerances an experiment is judged by, each None where the config
    declares none: the range of the rate fit's slope and its least R^2,
    bound dominance at every n, whether the deployment must be rejected
    before the run, and the largest last-to-first sup-error ratio of a
    trace."""

    slope_range: Sequence[float] | None = None
    r2_min: float | None = None
    bound_dominance: bool | None = None
    expect_rejected: bool | None = None
    trace_ratio_max: float | None = None

    def __post_init__(self):
        if self.slope_range is not None:
            lo_hi = tuple(self.slope_range)
            if not (len(lo_hi) == 2 and lo_hi[0] <= lo_hi[1]):
                raise ValueError("slope_range must be [lo, hi] with lo <= hi")
            object.__setattr__(self, "slope_range", lo_hi)

    def judge(self, fit: RateFitResult | None = None, violations: int | None = None,
              rejected: bool | None = None,
              trace: ASTraceResult | None = None) -> dict[str, tuple[str, bool]]:
        """`{key: (check text, ok)}`, in declaration order, for each declared
        tolerance the run gave evidence for: a sweep's rate fit and
        dominance count, whether the run went ahead, a trace's sup errors.
        A rejected run passes only where `expect_rejected` is true, so it
        is judged whether or not the key is declared."""
        verdicts: dict[str, tuple[str, bool]] = {}
        if fit is not None and self.slope_range is not None:
            lo, hi = self.slope_range
            verdicts["slope_range"] = (f"slope {fit.slope:+.4f} in [{lo}, {hi}]",
                                       lo <= fit.slope <= hi)
        if fit is not None and self.r2_min is not None:
            verdicts["r2_min"] = (f"r2 {fit.r_squared:.5f} >= {self.r2_min}",
                                  fit.r_squared >= self.r2_min)
        if violations is not None and self.bound_dominance:
            verdicts["bound_dominance"] = (f"bound dominance violations {violations}",
                                           violations == 0)
        if rejected or (rejected is not None and self.expect_rejected is not None):
            expected = bool(self.expect_rejected)
            verdicts["expect_rejected"] = (f"{'rejected' if rejected else 'ran'}, "
                                           f"expect_rejected {json.dumps(expected)}",
                                           rejected == expected)
        if trace is not None and self.trace_ratio_max is not None:
            ok = trace.sup_ratio < self.trace_ratio_max
            verdicts["trace_ratio_max"] = (
                f"sup|S| {trace.sup_error[0]:.4e} -> {trace.sup_error[-1]:.4e} (ratio "
                f"{trace.sup_ratio:.4f} {'<' if ok else '>='} {self.trace_ratio_max})", ok)
        return verdicts


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

# annotation -> (section, kind key, kind -> constructor): each section
# document names its constructor by its kind key, and holds that
# constructor's keywords and no other key
_SECTIONS: dict[object, tuple[str, str, dict[str, Callable]]] = {
    AffineFloorDeployment: ("deployment", "kind", {"uniform": UniformDeployment,
                                                   "linear_2x": Linear2xDeployment,
                                                   "affine_floor": AffineFloorDeployment}),
    Noise: ("noise", "kind", {cls.kind: cls for cls in get_args(Noise)}),
    TruncationSchedule: ("schedule", "kind", {
        kind: getattr(TruncationSchedule, kind)
        for kind in ("fixed", "finite_dim", "bv", "sobolev", "power")}),
    FieldSpec: ("field", "class", {"finite_dim": make_finite_dim_field, "bv": SawtoothField,
                                   "sobolev": make_sobolev_field}),
}


def _got(value) -> str:
    """A config value as a problem shows it: a list as itself, a scalar with its type."""
    return ("null" if value is None else repr(value) if isinstance(value, (list, tuple, dict))
            else f"{type(value).__name__} {value!r}")


def _problem(path: str, message: str) -> ConfigValidationError:
    return ConfigValidationError([f"{path}: {message}"])


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(path)
    return value


def _pair(value, path: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(path)
    return complex(as_real(value[0], path), as_real(value[1], path))


def _artifact_name(value, path: str) -> str:
    if not isinstance(value, str) or value in ("", ".", "..") or "/" in value or "\0" in value:
        raise ValueError(path)
    return value


# keys read by a range of their own: an experiment id names the artifact files,
# a seed is one Philox key word, and a grid is read by `as_grid`
ArtifactName = NewType("ArtifactName", str)
Seed = NewType("Seed", int)
Trials = NewType("Trials", int)
Grid = NewType("Grid", tuple)

# annotation -> (what a value must be, its reader: the count and real rules for
# counts and numbers, which raise a ValueError for any other value)
_SCALARS: dict[type, tuple[str, Callable]] = {
    int: ("an integer", as_count),
    Seed: (f"an integer in [0, {SEED_MAX}]", lambda v, path: as_count(v, path, 0, SEED_MAX)),
    Trials: (f"an integer in [2, {TRIALS_MAX}]",
             lambda v, path: as_count(v, path, 2, TRIALS_MAX)),
    ArtifactName: ("a file name other than '', '.' or '..', without '/' or NUL", _artifact_name),
    float: ("a finite number", as_real),
    bool: ("true or false", _flag),
    complex: ("[re, im] of finite numbers", _pair),
}


def _is_list(hint) -> bool:
    return get_origin(hint) is collections.abc.Sequence


def _convert(hint, value, path: str):
    """`value` checked and converted by the one converter its annotation
    picks: a section is a section document, a sequence is a list (held as a
    tuple), a grid a list that `as_grid` reads, and a union takes null where
    it admits None, a list by its sequence arm and any other value by its other."""
    if hint in _SCALARS:  # under the parser's own message
        expected, read = _SCALARS[hint]
        try:
            return read(value, path)
        except ValueError:
            raise _problem(path, f"expected {expected}, got {_got(value)}") from None
    if hint in _SECTIONS or hint is Acceptance:
        return _build_section(hint, value, path)
    if _is_list(hint) or hint is Grid:
        if not isinstance(value, (list, tuple)):
            raise _problem(path, f"expected a list, got {_got(value)}")
        if hint is Grid:  # under as_grid's message, which names the entry
            try:
                return as_grid(value, path, N_GRID_MAX)
            except ValueError as exc:
                raise ConfigValidationError([str(exc)]) from None
        return tuple(_convert(get_args(hint)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    arms = [arm for arm in get_args(hint) if arm is not type(None)]
    if value is None and len(arms) < len(get_args(hint)):
        return None
    for arm in arms:
        if len(arms) == 1 or _is_list(arm) == isinstance(value, (list, tuple)):
            return _convert(arm, value, path)
    raise TypeError(f"no config converter for the annotation {hint!r}")


@functools.cache
def _signature(build: Callable) -> tuple[dict, dict]:
    """`build`'s parameters and their annotations, resolved at its first parse."""
    return inspect.signature(build).parameters, get_type_hints(build)


def _arguments(build: Callable, doc: dict, prefix: str, what: str,
               kind_key: str | None = None) -> tuple[dict, list[str]]:
    """`build`'s keywords read from `doc` by their annotations, defaults where
    doc leaves one out, and a problem at `prefix` + key for each key build
    does not take, each it needs that doc lacks and each value it rejects."""
    params, hints = _signature(build)
    keys = [kind_key, *params] if kind_key else list(params)
    takes = f"{what} takes {keys}"
    problems = [f"{prefix}{key}: unexpected key; {takes}" for key in doc if key not in keys]
    args = {name: param.default for name, param in params.items()
            if param.default is not param.empty}
    for name, param in params.items():
        if name in doc:
            try:  # a tolerance is declared by its value, so it may not be null
                hint = get_args(hints[name])[0] if build is Acceptance else hints[name]
                args[name] = _convert(hint, doc[name], f"{prefix}{name}")
            except ConfigValidationError as exc:
                problems += exc.problems
        elif param.default is param.empty:
            problems.append(f"{prefix}{name}: required; {takes}")
    return args, problems


def _build_section(hint, doc, path: str):
    """The object a section document names: the acceptance block's is an
    `Acceptance`, any other's names its constructor by its kind key. A
    constructor's own range check is reported under `path`."""
    if not isinstance(doc, dict):
        raise _problem(path, f"expected an object, got {_got(doc)}")
    if hint is Acceptance:
        build, what, kind_key = Acceptance, "acceptance", None
    else:
        section, kind_key, kinds = _SECTIONS[hint]
        kind = doc.get(kind_key)
        if not isinstance(kind, str) or kind not in kinds:
            raise _problem(f"{path}.{kind_key}", f"unknown {section} {kind_key} {kind!r}; "
                                                 f"expected one of {list(kinds)}")
        build, what = kinds[kind], f"{kind} {section}"
    args, problems = _arguments(build, doc, f"{path}.", what, kind_key)
    if problems:
        raise ConfigValidationError(problems)
    try:
        return build(**args)
    except (ValueError, OverflowError, MemoryError) as exc:  # a size no machine holds
        raise _problem(path, str(exc)) from None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """An experiment document `raw`, read through this signature like a section."""

    experiment_id: ArtifactName
    field: FieldSpec
    deployment: AffineFloorDeployment
    noise: Noise
    schedule: TruncationSchedule
    n_grid: Grid
    seed: Seed
    trials: Trials | Sequence[Trials] | None = None  # a sweep's; a trace runs none
    acceptance: Acceptance = Acceptance()
    raw: dict = dataclasses.field(init=False)
    # read only by benchmarks/child.py; goes with EstimatorConfig (ROADMAP item 4)
    basis: ClassVar[FourierBasis] = FourierBasis()

    def __post_init__(self):  # sequences convert to tuples; one trial count is one per n
        if isinstance(self.trials, int):
            object.__setattr__(self, "trials", (self.trials,) * len(self.n_grid))

    @property
    def c(self) -> float:
        return dynamic_range(self.field, self.noise)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def parse_experiment_config(doc: dict, seed_override: int | None = None) -> ExperimentConfig:
    """The `ExperimentConfig` a document holds, its seed replaced by a `seed_override`
    read as the document's own. Refuses with one `ConfigValidationError` listing
    every problem, one per key: an unknown or missing key, a value its key's reader
    refuses (a count out of its range, an `n_grid` that `as_grid` refuses, an
    `experiment_id` that cannot name a file, a section its constructor refuses),
    and each rule across keys below."""
    if not isinstance(doc, dict):
        raise ConfigValidationError([f"config must be a JSON object, got {type(doc).__name__}"])
    doc = dict(doc)
    if seed_override is not None:  # read as the document's own seed is
        doc["seed"] = _convert(Seed, seed_override, "seed")
    args, problems = _arguments(ExperimentConfig, doc, "", "experiment config")

    # the checks across keys, on the keys that converted
    n_grid, trials, accept = args.get("n_grid", ()), args["trials"], args["acceptance"]
    schedule = args.get("schedule")
    fitted = [key for key in ("r2_min", "slope_range") if getattr(accept, key) is not None]
    # a declared trace_ratio_max runs one trace in place of the sweep
    traced = accept.trace_ratio_max is not None
    swept = [f"acceptance.{key}" for key in ("slope_range", "r2_min", "bound_dominance")
             if getattr(accept, key) is not None]
    problems += [f"{key}: {message}" for key, message, violated in [
        ("trials", "required; only a trace (acceptance.trace_ratio_max) runs without "
                   "a trial count", not traced and doc.get("trials") is None),
        ("trials", "need one count per n_grid entry",
         isinstance(trials, tuple) and n_grid and len(trials) != len(n_grid)),
        ("acceptance", f"{', '.join(fitted)} need a rate fit, which needs at least "
                       f"{RATE_FIT_MIN_POINTS} n_grid points",
         fitted and 0 < len(n_grid) < RATE_FIT_MIN_POINTS),
        ("schedule", "a trace (acceptance.trace_ratio_max) grows m(n) = n^psi, so it needs "
                     "a schedule with psi < 1",
         traced and schedule is not None
         and (schedule.psi is None or schedule.psi >= 1.0)),
        (", ".join(swept), "a trace (acceptance.trace_ratio_max) runs in place of the "
                           "sweep these judge", traced and swept)] if violated]

    if schedule is not None and n_grid:
        m_values = [schedule.resolve(n) for n in n_grid]
        over = [(n, m) for n, m in zip(n_grid, m_values) if m > n]
        if over:
            problems.append(f"schedule: m(n) must not exceed n, but m({over[0][0]}) "
                            f"= {over[0][1]:.6g}")
    if "field" in args and "noise" in args:
        c = dynamic_range(args["field"], args["noise"])
        if not c <= DYNAMIC_RANGE_MAX:
            problems.append(f"field, noise: the dynamic range c = amplitude bound + "
                            f"noise b = {c:g} must be at most {DYNAMIC_RANGE_MAX:g}")
    if problems:
        raise ConfigValidationError(problems)
    config = ExperimentConfig(**args)
    object.__setattr__(config, "raw", doc)
    return config


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
    dominance_violations: int | None  # None where no sweep ran
    artifacts: tuple[str, ...]
    verdicts: dict  # acceptance key (or "finite") -> whether the run meets it
    divergent_js: tuple[int, ...] = ()
    trace: ASTraceResult | None = None  # where the config declares trace_ratio_max

    @property
    def passed(self) -> bool:
        """Every declared tolerance holds; a rejection passes only where
        the config declares `expect_rejected: true`."""
        return all(self.verdicts.values())


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
    """Monte-Carlo sweep + bound table + rate fit for one experiment config,
    or, where it declares `trace_ratio_max`, one sample-path trace in place
    of the sweep (in this process, whatever `workers` says), judged by its
    `Acceptance`; writes `<experiment_id>.csv`, `_report.json` and
    `_summary.txt`.

    A deployment whose variance integrals diverge is rejected
    up front (FAILED-PRECONDITION) — the distortion bound is useless there.
    """
    eid = config.experiment_id
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, report_path, summary_path = (out / f"{eid}{suffix}" for suffix in
                                           (".csv", "_report.json", "_summary.txt"))
    m_values = [config.schedule.resolve(n) for n in config.n_grid]
    bounds = tuple(mse_upper_bound(config.field, config.deployment, n, m, config.c)
                   for n, m in zip(config.n_grid, m_values))
    divergent = list(max(bounds, key=lambda b: b.m).divergent_js)
    fit = violations = trace = None
    rows, reported, rejection = [], {}, []
    lines = [f"seed {config.seed}", f"config sha {config.config_hash}"]
    if divergent:
        rejection = [
            f"rejected: the variance side of the distortion bound diverges — "
            f"the integral of |phi_j|^2 / p_X over [0,1] is infinite for "
            f"j in {divergent[:8]}. The deployment density vanishes on the "
            f"domain, so the inverse-density weights are unintegrable and the "
            f"bound is useless; use a density with a strictly positive floor."]
        lines = rejection
        report = {"detail": rejection[0], "divergent_js": divergent}
    elif config.acceptance.trace_ratio_max is not None:
        # the parser holds a trace to a schedule with psi < 1
        trace = as_error_trace(config.field, config.deployment, config.noise,
                               psi=config.schedule.psi, seed=config.seed,
                               n_checkpoints=config.n_grid)
        reported = {"trace": (trace.sup_error + trace.sup_estimate_error
                              + trace.sup_estimate_error_interior)}
        lines += [f"n={n} m={m} sup|S_n|={s:.6e}"
                  for n, m, s in zip(trace.checkpoints, trace.m_values, trace.sup_error)]
        report = trace.to_json()
    else:
        sweep = monte_carlo_mse(config.field, config.deployment, config.noise,
                                config.schedule, config.n_grid, config.trials,
                                seed=config.seed, workers=workers)
        # a NaN mean or bound is a violation: dominance must be shown, not assumed
        violations = sum(1 for mean, ci, b in zip(sweep.means, sweep.ci_half, bounds)
                         if not mean <= b.total + 3.0 * ci)
        # a non-finite mean fails the `finite` verdict below, unfitted
        fit = (rate_fit(config.n_grid, sweep.means)
               if len(config.n_grid) >= RATE_FIT_MIN_POINTS
               and all(map(math.isfinite, sweep.means)) else None)
        reported = {"mse": sweep.means + sweep.stds, "ci": sweep.ci_half,
                    "bound": tuple(v for b in bounds
                                   for v in (b.total, b.variance_term, b.bias_term)),
                    "fit": (fit.slope, fit.intercept, fit.r_squared) if fit else ()}
        for n, m, trials, mean, std, ci, b in zip(config.n_grid, m_values, sweep.trials,
                                                  sweep.means, sweep.stds, sweep.ci_half, bounds):
            rows.append([eid, n, m, trials, repr(mean), repr(std), repr(mean - ci),
                         repr(mean + ci), repr(b.total), repr(b.variance_term),
                         repr(b.bias_term), config.seed, config.config_hash])
            lines.append(f"n={n} m={m} trials={trials} mse={mean:.6e} ci_half={ci:.2e} "
                         f"bound={b.total:.6e}")
        report = {"n_grid": list(config.n_grid), "m_values": m_values,
                  "trials": list(sweep.trials), "mse_means": list(sweep.means),
                  "mse_stds": list(sweep.stds), "ci_half": list(sweep.ci_half),
                  "bound_totals": [b.total for b in bounds],
                  "dominance_violations": violations,
                  "rate_fit": fit.to_json() if fit else None}

    verdicts = config.acceptance.judge(fit=fit, violations=violations,
                                       rejected=bool(divergent), trace=trace)
    # a NaN or infinite number is no evidence, whatever the declared tolerances
    non_finite = [name for name, values in reported.items()
                  if not all(math.isfinite(v) for v in values)]
    if non_finite:
        verdicts["finite"] = (f"non-finite {', '.join(non_finite)} values", False)
    checks = [f"{text}: {'ok' if ok else 'VIOLATED'}" for text, ok in verdicts.values()]
    status = ("FAILED-PRECONDITION" if divergent
              else "PASS" if all(ok for _, ok in verdicts.values()) else "FAIL")

    _write_csv(csv_path, CSV_HEADER, rows)
    _write_json(report_path, {"experiment_id": eid, "status": status, "seed": config.seed,
                              "config_hash": config.config_hash, "checks": checks, **report})
    _write_lines(summary_path, [f"experiment {eid}", f"status {status}", *lines, *checks])
    return ExperimentOutcome(config=config, status=status,
                             detail="; ".join(rejection + checks) or "no declared tolerances",
                             fit=fit, dominance_violations=violations,
                             artifacts=(str(csv_path), str(report_path), str(summary_path)),
                             verdicts={key: ok for key, (_, ok) in verdicts.items()},
                             divergent_js=tuple(divergent), trace=trace)


# ---------------------------------------------------------------------------
# statistical battery for the coefficient estimator
# ---------------------------------------------------------------------------

LEMMA_CELL_HEADER = ["cell", "field", "deployment", "noise", "j",
                     "alpha_re", "alpha_im", "mean_re", "mean_im",
                     "dev_sigmas", "var_emp", "var_bound", "var_ratio"]


def lemma_battery_menu() -> list[tuple[str, FieldSpec]]:
    """Three fields (one per studied class), sized for fast repeated sampling."""
    finite = make_finite_dim_field(
        [0.2, 0.15 + 0.1j, 0.15 - 0.1j, -0.1 + 0.05j, -0.1 - 0.05j],
        amplitude_bound=0.8)
    return [("finite_dim_k5", finite),
            ("sawtooth", SawtoothField()),
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


def _ordered_sum(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., one row at a time in order, or the
    rows alone when total is None: the order in which numpy's axis-0 mean
    adds a (trials, m) array for m >= 2, so a streamed mean equals it bit
    for bit. A copy, so the partial sums of the chunk are not kept."""
    stack = rows if total is None else np.concatenate((total[None], rows))
    return np.cumsum(stack, axis=0)[-1].copy()


def run_lemma_battery(n: int = 1000, trials: int = 10_000, j_count: int = 8,
                      seed: int = 7_102_030, workers: int = 1) -> LemmaBatteryResult:
    """Across-trials mean and variance of the coefficient estimates versus
    their exact values and variance bounds, over the shipped field /
    deployment / noise menu."""
    n, trials = as_count(n, "n", 1, SENSORS_MAX), as_count(trials, "trials", 2)
    j_count = as_count(j_count, "j_count", 1)
    from .sensing import TwoPointNoise, UniformSymNoise, ZeroNoise

    deployments = [("uniform", UniformDeployment()),
                   ("affine_floor_0.5", AffineFloorDeployment(nu=0.5))]
    noises = [("zero", ZeroNoise()), ("uniform_sym_1", UniformSymNoise(b=1.0)),
              ("two_point_1", TwoPointNoise(b=1.0))]

    cells = [(fname, f, dname, d, zname, z)
             for fname, f in lemma_battery_menu()
             for dname, d in deployments
             for zname, z in noises]

    trial_cells = [TrialCell(f, d, z, n, j_count, trials)
                   for _, f, _, d, _, z in cells]
    alphas = [true_coefficients(f, j_count).values for _, f, *_ in cells]
    # per cell, S1 = sum of alpha_hat and S2 = sum of |alpha_hat - alpha|^2,
    # shifted by the exact alpha (Chan, Golub & LeVeque, Am. Stat. 1983):
    # O(m) numbers at any trial count
    s1, s2 = [None] * len(cells), [None] * len(cells)

    def take(i: int, t0: int, rows: np.ndarray) -> None:
        s1[i] = _ordered_sum(s1[i], rows)
        s2[i] = _ordered_sum(s2[i], np.abs(rows - alphas[i]) ** 2)

    map_trials(trial_cells, seed, take, workers=workers)

    rows: list[dict] = []
    for (fname, f, dname, d, zname, z), alpha, total, shifted in zip(cells, alphas, s1, s2):
        # the one-term bound's variance is every j's: |phi_j| = 1
        bound = mse_upper_bound(f, d, n, 1, dynamic_range(f, z)).variance_term
        mean = total / trials
        var_emp = (shifted - trials * np.abs(mean - alpha) ** 2) / (trials - 1)
        sigma_mean = np.sqrt(var_emp / trials)
        for j in range(j_count):
            dev = (abs(mean[j] - alpha[j]) / sigma_mean[j]
                   if sigma_mean[j] > 0 else 0.0)
            rows.append({
                "cell": f"{fname}/{dname}/{zname}", "field": fname,
                "deployment": dname, "noise": zname, "j": j,
                "alpha_re": float(alpha[j].real), "alpha_im": float(alpha[j].imag),
                "mean_re": float(mean[j].real), "mean_im": float(mean[j].imag),
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
# suites: one run each, which the acceptance table judges
# ---------------------------------------------------------------------------

def _run_configs(names: Sequence[str], out: Path, workers: int) -> dict:
    return {name: run_experiment(load_shipped_config(name), out, workers=workers)
            for name in names}


def _run_lemma1(out: Path, workers: int) -> LemmaBatteryResult:
    battery = run_lemma_battery(workers=workers)
    _write_csv(out / "lemma1_cells.csv", LEMMA_CELL_HEADER,
               [[repr(r[k]) if isinstance(r[k], float) else r[k] for k in LEMMA_CELL_HEADER]
                for r in battery.rows])
    return battery


def _run_conditions(out: Path, workers: int) -> dict:
    uniform = UniformDeployment()
    mismatch = _run_configs(_MISMATCH_CONFIGS, out, workers)
    grid = (100, 1000, 10_000, 100_000, 1_000_000)
    reports = {name: check_consistency_conditions(schedule, uniform, grid)
               for name, schedule in (("bv", TruncationSchedule.bv()),
                                      ("sobolev_s1", TruncationSchedule.sobolev(1.0)),
                                      ("power_psi1", TruncationSchedule.power(1.0)),
                                      ("fixed_m5", TruncationSchedule.fixed(5)))}
    fields = [load_shipped_config(name).field for name in _RATE_CONFIGS]
    good, bad = (validate_as_schedule(0.5, gamma, uniform, fields)
                 for gamma in (1.5, 2.5))
    affine = mismatch["mismatch_affine_floor"].config.deployment
    return {"mismatch": mismatch,
            "linear2x_js": mismatch["mismatch_linear2x"].divergent_js,
            "integral_j0": affine.integral,
            "consistency": {**{name: bool(r.all_pass) for name, r in reports.items()},
                            "power_psi1 variance_ok": bool(reports["power_psi1"].variance_ok)},
            "schedules": {"gamma1.5 accepted": good.accepted, "gamma2.5 accepted": bad.accepted,
                          "c1": good.c1, "c2": good.c2}}


_SUITE_RUNS = {"rates": functools.partial(_run_configs, _RATE_CONFIGS), "lemma1": _run_lemma1,
               "as_traces": functools.partial(_run_configs, _TRACE_CONFIGS),
               "conditions": _run_conditions}
SUITE_NAMES = (*_SUITE_RUNS, "all")


# ---------------------------------------------------------------------------
# acceptance table: criteria 1-10, each judged on its suite's run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteRow:
    criterion: int
    name: str
    statistic: object
    bound: object
    passed: bool

    @property
    def line(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'}  {self.criterion}. {self.name}  "
                f"[statistic {json.dumps(self.statistic)}; bound {json.dumps(self.bound)}]")


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion: `statistic` reads the run of `suite`,
    `bound` reads the bound where it is defined (a shipped config,
    `LemmaBatteryResult` or this table), and `verdict(run, bound)` judges."""

    number: int
    name: str
    suite: str
    statistic: Callable[[object], object]
    bound: Callable[[], object]
    verdict: Callable[[object, object], bool]

    def judge(self, run) -> SuiteRow:
        bound = self.bound()
        return SuiteRow(self.number, self.name, self.statistic(run), bound,
                        bool(self.verdict(run, bound)))


def _rate(number: int, name: str, config: str) -> Criterion:
    """run_experiment judges the config's declared tolerances, dominance included."""
    def bound() -> dict:
        accept = load_shipped_config(config).acceptance
        return {"slope_range": list(accept.slope_range), "r2_min": accept.r2_min}

    def statistic(run) -> dict | None:
        fit = run[config].fit  # None where a non-finite mean left the sweep unfitted
        return None if fit is None else {"slope": fit.slope, "r_squared": fit.r_squared}

    return Criterion(number, name, "rates", statistic, bound,
                     lambda run, bound: run[config].passed)


_BATTERY = LemmaBatteryResult

ACCEPTANCE = (
    _rate(1, "finite-dimensional MSE rate n^-1", "finite_dim_k5"),
    _rate(2, "bounded-variation MSE rate n^-1/2", "bv_sawtooth"),
    _rate(3, "Sobolev s=1 MSE rate n^-2/3", "sobolev_s1"),
    Criterion(4, "Monte-Carlo MSE <= bound + 3 CI at every grid point", "rates",
              lambda run: {name: o.dominance_violations for name, o in run.items()},
              lambda: {name: load_shipped_config(name).acceptance.bound_dominance
                       for name in _RATE_CONFIGS},
              lambda run, bound: all(o.verdicts.get("bound_dominance", False)
                                     for o in run.values())),
    Criterion(5, "coefficient estimates are unbiased", "lemma1",
              lambda b: {"frac_within_4sigma": b.frac_within_4sigma,
                         "max_dev_sigmas": b.max_dev_sigmas},
              lambda: {"within_sigmas": _BATTERY.WITHIN_SIGMAS,
                       "frac_within_min": _BATTERY.FRAC_WITHIN_MIN,
                       "dev_sigmas_max": _BATTERY.DEV_SIGMAS_MAX},
              lambda b, bound: b.unbiasedness_ok),
    Criterion(6, "coefficient variance <= (c^2/n) x integral in every cell", "lemma1",
              lambda b: {"max_var_ratio": b.max_var_ratio},
              lambda: {"var_ratio_max": _BATTERY.VAR_RATIO_MAX},
              lambda b, bound: b.variance_ok),
    Criterion(7, "p(x)=2x rejected for its j=0 divergence, affine floor accepted",
              "conditions",
              lambda run: {"status": {name: o.status for name, o in run["mismatch"].items()},
                           "first_divergent_j": next(iter(run["linear2x_js"]), None),
                           "integral_j0": run["integral_j0"]},
              lambda: {"first_divergent_j": 0, "integral_j0": math.log(3.0), "tolerance": 1e-6},
              lambda run, bound: (
                  all(o.passed for o in run["mismatch"].values())
                  and run["linear2x_js"][:1] == (bound["first_divergent_j"],)
                  and abs(run["integral_j0"] - bound["integral_j0"]) <= bound["tolerance"])),
    Criterion(8, "consistency: m(n)=n fails the variance check, sqrt(n) and n^(1/3) "
                 "pass", "conditions",
              lambda run: run["consistency"],
              lambda: {"bv": True, "sobolev_s1": True, "power_psi1": False,
                       "fixed_m5": False, "power_psi1 variance_ok": False},
              lambda run, bound: run["consistency"] == bound),
    Criterion(9, "pathwise schedule: psi=0.5 accepted at gamma=1.5, rejected at 2.5",
              "conditions",
              lambda run: run["schedules"],
              lambda: {"gamma1.5 accepted": True, "gamma2.5 accepted": False,
                       "c1": 1.0, "c2": 1.0},
              lambda run, bound: run["schedules"] == bound),
    Criterion(10, "sup error shrinks along one sample path", "as_traces",
              lambda run: {name: o.trace.sup_ratio for name, o in run.items()},
              lambda: {name: load_shipped_config(name).acceptance.trace_ratio_max
                       for name in _TRACE_CONFIGS},
              lambda run, bound: all(o.verdicts.get("trace_ratio_max", False)
                                     for o in run.values())),
)


@dataclass(frozen=True, eq=False)
class SuiteResult:
    suite: str
    rows: tuple[SuiteRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


def run_suite(name: str, out_dir, workers: int = 1) -> SuiteResult:
    """Run one named suite and judge its criteria with the acceptance table
    (`all`: every suite); writes `<name>_report.json` and `<name>_summary.txt`
    beside the runs' own artifacts under out_dir."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if name == "all":
        rows = sorted((r for s in _SUITE_RUNS for r in run_suite(s, out, workers).rows),
                      key=lambda r: r.criterion)
    else:
        run = _SUITE_RUNS[name](out, workers)
        rows = [c.judge(run) for c in ACCEPTANCE if c.suite == name]
    result = SuiteResult(suite=name, rows=tuple(rows))
    _write_json(out / f"{name}_report.json",
                {"suite": name, "rows": [asdict(r) for r in rows],
                 "all_pass": result.all_pass})
    _write_lines(out / f"{name}_summary.txt", [f"suite {name}"] + [r.line for r in rows]
                 + [f"overall {'PASS' if result.all_pass else 'FAIL'}"])
    return result

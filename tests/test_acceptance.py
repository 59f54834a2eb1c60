"""Acceptance suite: criteria 1-10 as `harness.ACCEPTANCE` judges them on one
run of each suite, the same rows `ditherfield suite all` writes; every bound
of the table pinned as a literal; and the three checks that are not
deterministic outcomes or stay off the CLI's import path: criterion 1's
runtime, criterion 11 (the quadrature oracle) and criterion 12 (byte identity).
Below them: the sha256 of every file the four suites write, and each derived
number of those files recomputed from the file's own columns.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import csv
import hashlib
import inspect
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ditherfield import (AffineFloorDeployment, ReconstructionCoefficients,
                         TwoPointNoise, UniformDeployment, UniformSymNoise, ZeroNoise,
                         analysis, harness, integrated_squared_error, load_shipped_config,
                         make_finite_dim_field, run_experiment, run_suite,
                         true_coefficients)
from ditherfield.fields import synthesize
from ditherfield.sensing import dynamic_range

from conftest import exact_coefficient_variance, exact_mse

WORKERS = 2

# Every bound of criteria 1-10, where the table reads it: a change to a bound
# is a change to this literal.
BOUNDS = {
    1: {"slope_range": [-1.15, -0.85], "r2_min": 0.98},
    2: {"slope_range": [-0.65, -0.35], "r2_min": 0.95},
    3: {"slope_range": [-0.82, -0.52], "r2_min": 0.95},
    4: {"finite_dim_k5": True, "bv_sawtooth": True, "sobolev_s1": True},
    5: {"within_sigmas": 4.0, "frac_within_min": 0.95, "dev_sigmas_max": 6.0},
    6: {"var_ratio_max": 1.1},
    7: {"first_divergent_j": 0, "integral_j0": 1.0986122886681098, "tolerance": 1e-6},
    8: {"bv": True, "sobolev_s1": True, "power_psi1": False, "fixed_m5": False,
        "power_psi1 variance_ok": False},
    9: {"gamma1.5 accepted": True, "gamma2.5 accepted": False, "c1": 1.0, "c2": 1.0},
    10: {"as_trace_zero": 0.3, "as_trace_sawtooth": 0.3},
}


def criterion(number: int, passed: bool, detail: str) -> None:
    print(f"\nCRITERION {number}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {number}: {detail}"


def _row(result, number: int):
    [row] = [r for r in result.rows if r.criterion == number]
    return row


def _run(tmp_path_factory, suite):
    out = tmp_path_factory.mktemp(suite)
    start = time.perf_counter()
    return run_suite(suite, out, workers=WORKERS), out, time.perf_counter() - start


@pytest.fixture(scope="module")
def rates(tmp_path_factory):
    return _run(tmp_path_factory, "rates")


@pytest.fixture(scope="module")
def lemma1(tmp_path_factory):
    return _run(tmp_path_factory, "lemma1")


@pytest.fixture(scope="module")
def conditions(tmp_path_factory):
    return _run(tmp_path_factory, "conditions")


@pytest.fixture(scope="module")
def as_traces(tmp_path_factory):
    return _run(tmp_path_factory, "as_traces")


def test_the_table_holds_the_pinned_bounds():
    assert [c.number for c in harness.ACCEPTANCE] == list(range(1, 11))
    assert {c.number: c.bound() for c in harness.ACCEPTANCE} == BOUNDS


@pytest.mark.parametrize("entry", harness.ACCEPTANCE, ids=lambda c: f"criterion_{c.number}")
def test_the_table_passes_each_criterion(request, entry):
    result, _, _ = request.getfixturevalue(entry.suite)
    row = _row(result, entry.number)
    assert row.bound == BOUNDS[entry.number]
    criterion(entry.number, row.passed, row.line)


def test_criterion_1_runtime(rates):
    _, _, elapsed = rates
    criterion(1, elapsed <= 300.0, f"the three rate experiments ran in {elapsed:.1f}s <= 300s")


def test_criterion_11_parseval_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        n_pairs = int(rng.integers(1, 4))
        values = [complex(rng.uniform(-1, 1), 0)]
        for _ in range(n_pairs):
            re, im = rng.uniform(-0.6, 0.6, 2)
            values.extend([complex(re, -im), complex(re, im)])
        field = make_finite_dim_field(values, amplitude_bound=5.0)
        m = int(rng.integers(1, len(values) + 1))
        hat_vals = rng.uniform(-0.7, 0.7, m) + 1j * rng.uniform(-0.7, 0.7, m)
        hat = ReconstructionCoefficients(values=hat_vals)
        cv = true_coefficients(field, len(values))
        fast = integrated_squared_error(hat, cv, field)

        def integrand(x):
            f_hat = complex(synthesize(hat_vals, np.array([x]))[0])
            return abs(field.eval(x) - f_hat) ** 2

        direct, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, limit=400)
        worst = max(worst, abs(fast - direct) / max(direct, 1e-300))
    criterion(11, worst <= 1e-6,
              f"coefficient-space error matches direct quadrature of "
              f"||f - f_hat||^2 on 20 randomized instances "
              f"(worst relative gap {worst:.2e} <= 1e-6)")


def test_criterion_12_byte_identical_reruns(rates, conditions, tmp_path):
    # same config + seed, worker counts 1 against the fixtures' 2 -> identical bytes
    _, rates_out, _ = rates
    run_experiment(load_shipped_config("finite_dim_k5"), tmp_path, workers=1)
    csv_same = ((rates_out / "finite_dim_k5.csv").read_bytes()
                == (tmp_path / "finite_dim_k5.csv").read_bytes())

    _, conditions_out, _ = conditions
    rerun = run_suite("conditions", tmp_path, workers=1)
    files = ["conditions_report.json", "conditions_summary.txt",
             "mismatch_linear2x.csv", "mismatch_affine_floor.csv"]
    suite_same = all((conditions_out / f).read_bytes() == (tmp_path / f).read_bytes()
                     for f in files)
    criterion(12, csv_same and suite_same and rerun.all_pass,
              "rate CSV identical across worker counts 1 vs 2; conditions "
              "suite rerun byte-identical (report, summary, experiment CSVs)")


# ---------------------------------------------------------------------------
# every artifact byte: golden digests, and derived numbers against their columns
# ---------------------------------------------------------------------------

# sha256 of each file a suite fixture writes at WORKERS = 2, under numpy 2.4.6
# and scipy 1.17.1. A change that moves a value on purpose updates its
# literal here, in the same change, and says so.
ARTIFACT_SHA256 = {
    "rates": {
        "finite_dim_k5.csv": "77d22b341ced826a47dd26ebb863f31c16dff121b41b3001313f3a45205850c0",
        "finite_dim_k5_report.json":
            "b6433d269e69117c0baad5b246154b8c438d68a30d1a247b64ef7f88867c76ca",
        "finite_dim_k5_summary.txt":
            "9f9c1f5755cc2cfb04ad4719575fd8356713fdc8bd11572f0b557eb1d9d2d162",
        "bv_sawtooth.csv": "3b4a61eb36415a34f5959182d8bc7dc7cb32ab45c73a64fccb9f8f2ad601f467",
        "bv_sawtooth_report.json":
            "e8d0ebb29d356df3858f40f5d8444869269173fd30bc63750187e38406656fbd",
        "bv_sawtooth_summary.txt":
            "c5c76699af2db260f352042980f0f43f76ce5614a47da5a55395e4f9ee627be9",
        "sobolev_s1.csv": "a72805a391789e4e5f09431b0c5e3396386cfe10cb9438fe745769eb28ad48e9",
        "sobolev_s1_report.json":
            "96517d43d10e2a3084973fef2ddef1c8d9e83c47759e5253f55b977032dbdcec",
        "sobolev_s1_summary.txt":
            "0e4c05cc73bff90796ff93bef8eac41d698f9aabdee86d399a008e179493b782",
        "rates_report.json": "a2d9a6291f73f131fbe1900193982abc18a1128cb9deb7bf87e59241aa198f75",
        "rates_summary.txt": "8b22bb1f0073d6e9f908ec9ce9585197cdd6f152000688be0797ebdc449f8bc3",
    },
    "lemma1": {
        "lemma1_cells.csv": "e82f6b10e3b222d42a415630d040acdd1865cc0df71d2ac072882744211c4d93",
        "lemma1_report.json": "684564c552961c47f6aabd99e69cbd8805f03bf3ee23ceb8ce89c7838224343c",
        "lemma1_summary.txt": "3b8bfdba78ebbc0d9c4745b7cac71ae15e0c9743762793bf7b19814091f7eeef",
    },
    "conditions": {
        "mismatch_linear2x.csv":
            "9a29ff74269ce85aa68bce5ce7e2134fc7e98b89a05db006258f1d8982260c23",
        "mismatch_linear2x_report.json":
            "41a2d30e21e1c1a601aa95cabc0c13d3f8bcc0fbd395cbe668bf5132004e52ab",
        "mismatch_linear2x_summary.txt":
            "afa8b58d36f4ce9dfe0f7dc8dca7f574e0e76af5ff6a83e637c459eab93f6d38",
        "mismatch_affine_floor.csv":
            "5d436ecfcf2bf5ba4025705c971f3ebe928a7bbb3cb59780359aa620a92b7612",
        "mismatch_affine_floor_report.json":
            "5942fdf67ffad0d9a34b99f92407c23d8ab227dbe90c14f0fc7b49464142d54f",
        "mismatch_affine_floor_summary.txt":
            "7dd445efb2b5242fb792646140d9fa7ac0b9b9b034af604df1f60caeb59e7963",
        "conditions_report.json":
            "d06091647f058557784665227ec33438c881cbf79bf51680b89ab4047ddc9962",
        "conditions_summary.txt":
            "26eab5a47bcd1d5b3d0c54dbf322eb3452d90889201e54c30ce34fce5b6df06f",
    },
    "as_traces": {
        "as_trace_zero.csv": "9a29ff74269ce85aa68bce5ce7e2134fc7e98b89a05db006258f1d8982260c23",
        "as_trace_zero_report.json":
            "561e6ae5e7b976a0fcdb61f5b2d94bc5a927eb123d3f87247b9634d496be833a",
        "as_trace_zero_summary.txt":
            "8dbe7e739855048ea3fc3086673da50aa0ef6c65d90a65b2561df527bfbf5075",
        "as_trace_sawtooth.csv":
            "9a29ff74269ce85aa68bce5ce7e2134fc7e98b89a05db006258f1d8982260c23",
        "as_trace_sawtooth_report.json":
            "d4a1679acdc0d762ba0555e11636b003727d50998f4d55e81f35a57f2974da35",
        "as_trace_sawtooth_summary.txt":
            "e308a8ad65c7b2084ea8974a2503fc2e0e006dbf98f5fdcef12353a27cc8b0c2",
        "as_traces_report.json":
            "94c973db31ba61847e66ef09778d88baf00faeb80722734788133672b731bd00",
        "as_traces_summary.txt":
            "c60d3e1b36df26fb5d5faae1f33b95e195d8871f2f1856b4466dc0f6601f593d",
    },
}


@pytest.mark.parametrize("suite", ARTIFACT_SHA256)
def test_each_suite_writes_the_pinned_files(request, suite):
    _, out, _ = request.getfixturevalue(suite)
    assert sorted(path.name for path in out.iterdir()) == sorted(ARTIFACT_SHA256[suite])


@pytest.mark.parametrize("suite, name", [(suite, name) for suite, files in ARTIFACT_SHA256.items()
                                         for name in files])
def test_each_artifact_holds_its_pinned_bytes(request, suite, name):
    _, out, _ = request.getfixturevalue(suite)
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == ARTIFACT_SHA256[suite][name]


def _columns(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [row[key] for row in rows] for key in rows[0]}


@pytest.mark.parametrize("name", harness._RATE_CONFIGS)
def test_a_sweep_artifact_agrees_with_its_own_columns(rates, name):
    """The CSV's interval ends, bound totals and the report's numbers, each
    recomputed from the CSV's columns, and the rate fit by its own
    least-squares line of log mse on log n."""
    _, out, _ = rates
    cols = _columns(out / f"{name}.csv")
    report = json.loads((out / f"{name}_report.json").read_text())
    n, m, trials = ([int(v) for v in cols[key]] for key in ("n", "m", "trials"))
    mean, std, ci_lo, ci_hi, total, var_term, bias_term = (
        [float(v) for v in cols[key]] for key in ("mse_mean", "mse_std", "ci_lo", "ci_hi",
                                                  "bound_total", "bound_var_term",
                                                  "bound_bias_term"))
    config = load_shipped_config(name)
    assert n == list(config.n_grid) == report["n_grid"]
    assert m == [config.schedule.resolve(k) for k in n] == report["m_values"]
    assert trials == report["trials"]
    assert set(cols["seed"]) == {str(config.seed)} and report["seed"] == config.seed
    assert set(cols["config_hash"]) == {config.config_hash} == {report["config_hash"]}
    assert mean == report["mse_means"] and std == report["mse_stds"]
    # the 95% normal-approximation half-width of each mean, and its interval
    ci = [1.96 * s / math.sqrt(t) for s, t in zip(std, trials)]
    assert report["ci_half"] == ci
    assert ci_lo == [a - h for a, h in zip(mean, ci)]
    assert ci_hi == [a + h for a, h in zip(mean, ci)]
    assert total == [v + b for v, b in zip(var_term, bias_term)]
    assert report["bound_totals"] == total
    assert report["dominance_violations"] == sum(
        not a <= b + 3.0 * h for a, b, h in zip(mean, total, ci))
    lx, ly = np.log(n), np.log(mean)
    slope, intercept = np.polyfit(lx, ly, 1)
    r2 = 1.0 - np.sum((ly - (slope * lx + intercept)) ** 2) / np.sum((ly - ly.mean()) ** 2)
    fit = report["rate_fit"]
    assert fit["n_grid"] == n and fit["mse_values"] == mean
    assert [fit["slope"], fit["intercept"], fit["r_squared"]] == pytest.approx(
        [slope, intercept, r2], rel=1e-12, abs=0.0)


def test_the_battery_cells_agree_with_their_own_columns(lemma1):
    """Each cell's exact coefficient is `true_coefficients` of its field, its
    variance ratio is its two variances' quotient, and criteria 5 and 6
    read their statistics off the CSV's columns."""
    result, out, _ = lemma1
    cols = _columns(out / "lemma1_cells.csv")
    j = [int(v) for v in cols["j"]]
    fields = dict(harness.lemma_battery_menu())
    alphas = {name: true_coefficients(field, max(j) + 1).values
              for name, field in fields.items()}
    assert set(cols["field"]) == set(fields)
    alpha = [alphas[name][k] for name, k in zip(cols["field"], j)]
    assert [float(v) for v in cols["alpha_re"]] == [a.real for a in alpha]
    assert [float(v) for v in cols["alpha_im"]] == [a.imag for a in alpha]
    assert cols["cell"] == [f"{f}/{d}/{z}" for f, d, z in
                            zip(cols["field"], cols["deployment"], cols["noise"])]
    var_emp, var_bound, var_ratio, dev = ([float(v) for v in cols[key]] for key in
                                          ("var_emp", "var_bound", "var_ratio", "dev_sigmas"))
    assert var_ratio == [e / b for e, b in zip(var_emp, var_bound)]
    assert _row(result, 5).statistic == {
        "frac_within_4sigma": float(np.mean(np.array(dev) <= 4.0)), "max_dev_sigmas": max(dev)}
    assert _row(result, 6).statistic == {"max_var_ratio": max(var_ratio)}


# Tolerances of the exact-moment checks below, apart from the bounds of
# criteria 1-12. A sweep row's z = (mean - E) / (std / sqrt(trials)) against
# its exact expectation E: under normality |z| > 4 has probability 6.3e-5
# per row and 1.1e-3 over the 17 rows (for the 8-trial mismatch rows, read
# as t on 7 degrees of freedom, 5.2e-3 per row).
SWEEP_Z_MAX = 4.0
# A battery row's var_emp / Var alpha_hat_j must lie within 1 +- k / sqrt(trials).
# The ratio's sd is at most sqrt(2 / (trials - 1)), reached by a real
# coefficient such as j = 0, so k = 6 is at least 4.24 sd: under normality
# at most 2.2e-5 per row and 3.2e-3 over the 144 rows.
VAR_RATIO_K = 6.0
# The sum of dev_sigmas^2 over the 144 battery rows. With independent trials
# each row's dev^2 has mean about 1, but the 8 rows of a cell share their
# trials, so the null spread is simulated, not taken from chi^2: over 100
# batteries, run_lemma_battery(trials=1000, seed=1000 + s, workers=2) for
# s < 100, the sum read mean 143.1, sd 16.6 and at most 180.6. A scaled chi^2
# with those two moments exceeds 220 with probability 2.8e-5 (2.2e-4 with the
# sd 15% higher). Trials that share draws understate each sigma: with trials
# 2k and 2k + 1 equal, the shipped battery reads 278.1 where it reads 163.6.
BATTERY_DEV_SQ_MAX = 220.0


@pytest.mark.parametrize("suite, name", [("rates", name) for name in harness._RATE_CONFIGS]
                         + [("conditions", "mismatch_affine_floor")])
def test_each_sweep_mean_matches_its_exact_expectation(request, suite, name):
    """Each Monte-Carlo mean against the closed-form E||f - f_hat||^2 of its
    row (`exact_mse`): a two-sided test of the law of the draws, where
    criterion 4 only asks each mean to stay under the bound plus 3 CI."""
    _, out, _ = request.getfixturevalue(suite)
    cols = _columns(out / f"{name}.csv")
    config = load_shipped_config(name)
    z = [(float(mean) - exact_mse(config.field, config.deployment, config.c, int(n), int(m)))
         / (float(std) / math.sqrt(int(trials)))
         for n, m, trials, mean, std in zip(cols["n"], cols["m"], cols["trials"],
                                            cols["mse_mean"], cols["mse_std"])]
    assert len(z) == len(config.n_grid)
    assert max(map(abs, z)) <= SWEEP_Z_MAX, z


def test_each_battery_variance_matches_its_exact_value(lemma1):
    """Each battery cell's across-trials variance against the closed-form
    Var alpha_hat_j (`exact_coefficient_variance`): two-sided, where
    criterion 6 only bounds the variance from above."""
    _, out, _ = lemma1
    cols = _columns(out / "lemma1_cells.csv")
    defaults = inspect.signature(harness.run_lemma_battery).parameters
    n, trials = defaults["n"].default, defaults["trials"].default
    fields = dict(harness.lemma_battery_menu())
    deployments = {"uniform": UniformDeployment(),
                   "affine_floor_0.5": AffineFloorDeployment(nu=0.5)}
    noises = {"zero": ZeroNoise(), "uniform_sym_1": UniformSymNoise(b=1.0),
              "two_point_1": TwoPointNoise(b=1.0)}
    ratios = []
    for f, d, z, j, var_emp in zip(cols["field"], cols["deployment"], cols["noise"],
                                   cols["j"], cols["var_emp"]):
        c = dynamic_range(fields[f], noises[z])
        exact = exact_coefficient_variance(fields[f], deployments[d], c, n, int(j) + 1)
        ratios.append(float(var_emp) / exact[int(j)])
    assert len(ratios) == 144
    worst = max(ratios, key=lambda r: abs(r - 1.0))
    assert abs(worst - 1.0) <= VAR_RATIO_K / math.sqrt(trials), worst


def test_the_battery_deviations_disperse_as_independent_trials_do(lemma1):
    """The battery's z-scores against their exact coefficients spread as
    those of independent trials: criterion 5 bounds each one and the
    exact-moment tests each mean and variance, and none of them sees trials
    that share their draws."""
    _, out, _ = lemma1
    dev = [float(v) for v in _columns(out / "lemma1_cells.csv")["dev_sigmas"]]
    assert len(dev) == 144
    assert sum(d * d for d in dev) <= BATTERY_DEV_SQ_MAX


@pytest.mark.parametrize("name", harness._TRACE_CONFIGS)
def test_a_trace_artifact_agrees_with_its_sups_on_the_grid(as_traces, monkeypatch, name):
    """The trace's three sups, recomputed from its two syntheses at each
    checkpoint on the grid: the interior one leaves out every grid point
    within 0.02 of a jump of the field."""
    _, out, _ = as_traces
    report = json.loads((out / f"{name}_report.json").read_text())
    config = load_shipped_config(name)
    synthesized = []

    def recorded(values, x):
        synthesized.append((x, synthesize(values, x)))
        return synthesized[-1][1]

    monkeypatch.setattr(analysis, "synthesize", recorded)
    analysis.as_error_trace(config.field, config.deployment, config.noise,
                            psi=config.schedule.psi, seed=config.seed,
                            n_checkpoints=config.n_grid)
    # per checkpoint: the estimate's deviation from f_m, then f_m itself
    assert len(synthesized) == 2 * len(report["checkpoints"])
    sups = {"sup_error": [], "sup_estimate_error": [], "sup_estimate_error_interior": []}
    for (grid, deviation), (_, truncated) in zip(synthesized[::2], synthesized[1::2]):
        error = np.abs(deviation + truncated - config.field.eval(grid))
        interior = np.ones(grid.shape, dtype=bool)
        for jump in config.field.jump_points:
            interior &= np.abs(grid - jump) > 0.02
        sups["sup_error"].append(float(np.max(np.abs(deviation))))
        sups["sup_estimate_error"].append(float(np.max(error)))
        sups["sup_estimate_error_interior"].append(float(np.max(error[interior])))
    assert {key: report[key] for key in sups} == sups

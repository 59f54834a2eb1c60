import dataclasses
import json
import math
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherfield import (ConfigValidationError, EstimatorConfig,
                         TruncationSchedule, harness, load_shipped_config,
                         monte_carlo_mse, parse_experiment_config,
                         run_experiment, run_lemma_battery, run_suite)
from ditherfield.harness import _MISMATCH_CONFIGS, _RATE_CONFIGS, _TRACE_CONFIGS

MINI_CONFIG = {
    "experiment_id": "mini",
    "field": {"class": "bv", "shape": "sawtooth"},
    "basis": "fourier",
    "deployment": {"kind": "uniform"},
    "noise": {"kind": "uniform_sym", "b": 1.0},
    "schedule": {"kind": "bv"},
    "n_grid": [256, 512, 1024, 2048],
    "trials": 12,
    "seed": 99,
    "acceptance": {"bound_dominance": True},
}


def test_shipped_configs_parse():
    for name in _RATE_CONFIGS + _TRACE_CONFIGS + _MISMATCH_CONFIGS:
        config = load_shipped_config(name)
        assert config.experiment_id == name
        assert config.seed is not None


def test_validation_reports_every_problem():
    bad = {"experiment_id": "", "field": {"class": "nope"},
           "deployment": {"kind": "uniform"}, "noise": {"kind": "zero"},
           "schedule": {"kind": "bv"}, "n_grid": [100, 50], "trials": 1}
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(bad)
    text = str(err.value)
    for token in ("experiment_id", "field", "n_grid", "trials", "seed"):
        assert token in text


@pytest.mark.parametrize("keys", [{"slope_range": [-1.0, 0.0]}, {"r2_min": 0.9}])
def test_rate_acceptance_needs_four_grid_points(keys):
    doc = dict(MINI_CONFIG, n_grid=[256, 512, 1024], acceptance=keys)
    with pytest.raises(ConfigValidationError, match="at least 4 n_grid points"):
        parse_experiment_config(doc)


@pytest.mark.parametrize("schedule", [{"kind": "fixed", "s": 3},
                                      {"kind": "sobolev", "m": 3},
                                      {"kind": "bv", "psi": 0.5},
                                      {"kind": "power", "psi": 0.4, "k": 2}])
def test_schedule_takes_only_its_own_parameter_key(schedule):
    with pytest.raises(ValueError, match="schedule takes"):
        TruncationSchedule.from_json(schedule)
    with pytest.raises(ConfigValidationError, match="schedule:"):
        parse_experiment_config(dict(MINI_CONFIG, schedule=schedule))


@pytest.mark.parametrize("schedule", [TruncationSchedule.fixed(3),
                                      TruncationSchedule.bv(),
                                      TruncationSchedule.sobolev(1.5),
                                      TruncationSchedule.power(0.4)])
def test_schedule_json_round_trip(schedule):
    assert TruncationSchedule.from_json(schedule.to_json()) == schedule


def test_step_basis_smaller_than_the_schedule_is_rejected_at_parse():
    doc = dict(MINI_CONFIG, basis={"kind": "step", "cells": 16},
               n_grid=[100, 1000], acceptance={})
    with pytest.raises(ConfigValidationError,
                       match="reaches 32 on n_grid, but the step basis has only 16"):
        parse_experiment_config(doc)


@pytest.mark.parametrize("doc", [dict(MINI_CONFIG, outputs="out"),
                                 dict(MINI_CONFIG, n_gird=[1, 2]),
                                 dict(MINI_CONFIG, acceptance={"r2min": 0.9})])
def test_unknown_config_keys_are_rejected(doc):
    with pytest.raises(ConfigValidationError, match="unknown keys"):
        parse_experiment_config(doc)


def test_seed_override_changes_the_hash():
    a = parse_experiment_config(MINI_CONFIG)
    b = parse_experiment_config(MINI_CONFIG, seed_override=1234)
    assert b.seed == 1234
    assert a.config_hash != b.config_hash


def test_run_experiment_artifacts_and_determinism(tmp_path):
    config = parse_experiment_config(MINI_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    outcome1 = run_experiment(config, out1, workers=1)
    outcome2 = run_experiment(config, out2, workers=2)
    assert outcome1.status == outcome2.status
    csv1 = (out1 / "mini.csv").read_bytes()
    csv2 = (out2 / "mini.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0].split(",")
    assert header[:4] == ["experiment_id", "n", "m", "trials"]
    assert "seed" in header and "config_hash" in header
    report = json.loads((out1 / "mini_report.json").read_text())
    assert report["m_values"] == [16, 23, 32, 46]
    assert (out1 / "mini_summary.txt").exists()


def test_divergent_deployment_is_rejected_with_explanation(tmp_path):
    config = load_shipped_config("mismatch_linear2x")
    outcome = run_experiment(config, tmp_path)
    assert outcome.status == "FAILED-PRECONDITION"
    assert "diverges" in outcome.detail
    report = json.loads((tmp_path / "mismatch_linear2x_report.json").read_text())
    assert 0 in report["divergent_js"]


def test_matched_deployment_runs(tmp_path):
    config = load_shipped_config("mismatch_affine_floor")
    outcome = run_experiment(config, tmp_path)
    assert outcome.status == "PASS"


def test_conditions_suite_passes_and_is_byte_stable(tmp_path):
    r1 = run_suite("conditions", tmp_path / "one")
    r2 = run_suite("conditions", tmp_path / "two")
    assert r1.all_pass
    assert [(row.name, row.passed) for row in r1.rows] == \
        [(row.name, row.passed) for row in r2.rows]
    b1 = (tmp_path / "one" / "conditions_report.json").read_bytes()
    b2 = (tmp_path / "two" / "conditions_report.json").read_bytes()
    assert b1 == b2


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_suite("nope", tmp_path)


def test_step_basis_experiment_end_to_end(tmp_path):
    doc = {
        "experiment_id": "step_finite_dim",
        "field": {"class": "finite_dim", "basis": {"kind": "step", "cells": 16},
                  "coefficients": [[0.2, 0.0], [-0.1, 0.0], [0.05, 0.0]],
                  "amplitude_bound": 1.0},
        "basis": {"kind": "step", "cells": 16},
        "deployment": {"kind": "uniform"},
        "noise": {"kind": "uniform_sym", "b": 0.5},
        "schedule": {"kind": "finite_dim", "k": 3},
        "n_grid": [500, 1000, 2000, 4000],
        "trials": 40,
        "seed": 510,
        "acceptance": {"slope_range": [-1.6, -0.4], "r2_min": 0.8,
                       "bound_dominance": True},
    }
    outcome = run_experiment(parse_experiment_config(doc), tmp_path)
    assert outcome.status == "PASS", outcome.detail


def test_lemma_battery_smoke():
    # statistical thresholds are asserted at full scale in the acceptance
    # suite; this checks the machinery and row layout at reduced trials
    battery = run_lemma_battery(n=500, trials=200, j_count=4, workers=1)
    assert len(battery.rows) == 3 * 2 * 3 * 4
    assert battery.frac_within_4sigma > 0.9
    assert battery.max_var_ratio < 1.5
    cells = {r["cell"] for r in battery.rows}
    assert len(cells) == 18


def test_lemma_battery_needs_two_trials():
    # one trial has no sample variance (it divided by zero into NaN rows)
    with pytest.raises(ValueError, match="two trials"):
        run_lemma_battery(n=100, trials=1, j_count=2)


def test_lemma_battery_rows_do_not_depend_on_the_worker_count():
    serial = run_lemma_battery(n=500, trials=200, j_count=4, workers=1)
    parallel = run_lemma_battery(n=500, trials=200, j_count=4, workers=2)
    assert serial.rows == parallel.rows


def test_cli_run_and_check_conditions(tmp_path):
    config_path = tmp_path / "mini.json"
    config_path.write_text(json.dumps(MINI_CONFIG))
    proc = subprocess.run(
        [sys.executable, "-m", "ditherfield.cli", "run", str(config_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "mini: PASS" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "ditherfield.cli", "check-conditions",
         str(config_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout


def test_cli_trace(tmp_path):
    doc = dict(MINI_CONFIG)
    doc.update({"experiment_id": "mini_trace",
                "schedule": {"kind": "power", "psi": 0.4},
                "n_grid": [500, 5000]})
    config_path = tmp_path / "trace.json"
    config_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "ditherfield.cli", "trace-as", str(config_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "mini_trace_trace.json").exists()


@pytest.mark.parametrize("schedule", [None, {"kind": "power", "psi": 1.0}])
def test_cli_trace_rejects_a_non_power_schedule(tmp_path, schedule):
    """A trace needs a power schedule with psi < 1; anything else is a config
    error (exit 2), not a traceback."""
    doc = dict(MINI_CONFIG)
    if schedule is not None:
        doc["schedule"] = schedule
    config_path = tmp_path / "mini.json"
    config_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "ditherfield.cli", "trace-as", str(config_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "power schedule" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pdf_values", [[1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 1]])
@pytest.mark.parametrize("basis", ["fourier", {"kind": "step", "cells": 64}],
                         ids=["fourier", "step64"])
def test_cli_rejects_a_tabulated_density_with_a_zero(tmp_path, pdf_values, basis):
    """A tabulated density with a zero node makes the variance integral
    infinite: `run` reports FAILED-PRECONDITION and
    `check-conditions` fails, both without a traceback."""
    doc = dict(MINI_CONFIG, basis=basis,
               deployment={"kind": "tabulated", "pdf_values": pdf_values})
    config_path = tmp_path / "mini.json"
    config_path.write_text(json.dumps(doc))
    for command, expected in ((["run", "--out", str(tmp_path / "out")],
                               "mini: FAILED-PRECONDITION"),
                              (["check-conditions"], "overall: FAIL")):
        proc = subprocess.run(
            [sys.executable, "-m", "ditherfield.cli", command[0], str(config_path)]
            + command[1:], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert expected in proc.stdout
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_tabulated_density_is_a_config_error(bad):
    doc = dict(MINI_CONFIG, deployment={"kind": "tabulated", "pdf_values": [1.0, bad, 1.0]})
    with pytest.raises(ConfigValidationError, match="deployment: density values must be finite"):
        parse_experiment_config(doc)


def _numeric_leaves(doc, path=()):
    """Paths of every number in a config document outside `acceptance`."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []
    return [leaf for key, value in items if key != "acceptance"
            for leaf in _numeric_leaves(value, path + (key,))]


def _shipped_doc(name):
    return json.loads((resources.files("ditherfield") / "configs" / f"{name}.json").read_text())


_LEAF_CASES = [(name, path) for name in _RATE_CONFIGS + _TRACE_CONFIGS + _MISMATCH_CONFIGS
               for path in _numeric_leaves(_shipped_doc(name))]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, path", _LEAF_CASES,
                         ids=[f"{n}:{'.'.join(map(str, p))}" for n, p in _LEAF_CASES])
def test_a_non_finite_number_anywhere_is_a_config_error(name, path, bad):
    doc = _shipped_doc(name)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    with pytest.raises(ConfigValidationError, match=f"{path[0]}:"):
        parse_experiment_config(doc)


@pytest.mark.parametrize("key, value", [("n_grid", [256, 512.5, 1024, 2048]),
                                        ("trials", 2.7),
                                        ("trials", [12, 12, 12.5, 12]),
                                        ("seed", 1.5),
                                        ("seed", -1),
                                        ("seed", "99")])
def test_counts_must_be_integral_and_the_seed_nonnegative(key, value):
    with pytest.raises(ConfigValidationError, match=f"{key}:"):
        parse_experiment_config(dict(MINI_CONFIG, **{key: value}))


def test_integral_floats_are_counts():
    config = parse_experiment_config(dict(MINI_CONFIG, n_grid=[256.0, 512, 1024, 2048],
                                          trials=12.0, seed=99.0))
    assert config.n_grid == (256, 512, 1024, 2048) and config.trials == (12,) * 4
    assert config.seed == 99 and type(config.seed) is int


def test_fourier_basis_takes_no_parameters():
    with pytest.raises(ConfigValidationError, match="basis:"):
        parse_experiment_config(dict(MINI_CONFIG, basis={"kind": "fourier", "cells": 16}))


def test_a_nan_bound_is_a_dominance_violation(tmp_path, monkeypatch):
    """Bound dominance holds only where mean <= bound + 3 ci is true; a NaN
    bound is not evidence of dominance."""
    real = harness.mse_upper_bound
    monkeypatch.setattr(harness, "mse_upper_bound", lambda *args: dataclasses.replace(
        real(*args), bias_term=math.nan))
    outcome = run_experiment(parse_experiment_config(MINI_CONFIG), tmp_path)
    assert outcome.status == "FAIL"
    assert outcome.dominance_violations == len(MINI_CONFIG["n_grid"])


def test_import_leaves_scipy_integrate_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ditherfield; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["run", "check-conditions", "trace-as"])
@pytest.mark.parametrize("change", [{"seed": -1}, {"n_grid": [256, 1e18]}],
                         ids=["negative_seed", "huge_n"])
def test_cli_config_errors_exit_2_without_a_traceback(tmp_path, command, change):
    """Exit 1 is a FAIL verdict; a config that does not parse is exit 2 and
    one line on stderr, for every subcommand that reads a config."""
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(dict(MINI_CONFIG, **change)))
    out = [] if command == "check-conditions" else ["--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "ditherfield.cli", command, str(config_path)] + out,
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"{command}: invalid experiment config")
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_cli_unreadable_config_exits_2(tmp_path):
    config_path = tmp_path / "broken.json"
    config_path.write_text("{not json")
    for path in (config_path, tmp_path / "missing.json"):
        proc = subprocess.run(
            [sys.executable, "-m", "ditherfield.cli", "check-conditions", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


def test_a_config_must_be_an_object():
    with pytest.raises(ConfigValidationError, match="JSON object"):
        parse_experiment_config([MINI_CONFIG])


@pytest.mark.parametrize("key, value, ok", [
    ("n_grid", [256, harness.N_GRID_MAX], True),
    ("n_grid", [256, harness.N_GRID_MAX + 1], False),
    ("n_grid", [256, 1e18], False),
    ("trials", (1 << 32) - 1, True),
    ("trials", 1 << 32, False),
    ("trials", [12, 12, 12, 1 << 40], False)])
def test_counts_are_capped_at_parse_time(key, value, ok):
    """Parsed only: a config at a cap is never run here."""
    assert harness.N_GRID_MAX >= 10 ** 6  # the shipped trace checkpoints
    doc = dict(MINI_CONFIG, **{key: value})
    if ok:
        assert parse_experiment_config(doc) is not None
    else:
        with pytest.raises(ConfigValidationError, match=f"{key}: .* at most"):
            parse_experiment_config(doc)


def test_a_non_finite_bound_fails_without_declared_tolerances(tmp_path, monkeypatch):
    real = harness.mse_upper_bound
    monkeypatch.setattr(harness, "mse_upper_bound", lambda *args: dataclasses.replace(
        real(*args), variance_term=math.inf))
    outcome = run_experiment(parse_experiment_config(dict(MINI_CONFIG, acceptance={})),
                             tmp_path)
    assert outcome.status == "FAIL"
    assert "non-finite bound values: VIOLATED" in outcome.detail


def test_a_non_finite_rate_fit_fails(tmp_path, monkeypatch):
    real = harness.rate_fit
    monkeypatch.setattr(harness, "rate_fit", lambda *args: dataclasses.replace(
        real(*args), slope=math.nan))
    outcome = run_experiment(parse_experiment_config(dict(MINI_CONFIG, acceptance={})),
                             tmp_path)
    assert outcome.status == "FAIL"
    assert "non-finite fit values: VIOLATED" in outcome.detail
    report = json.loads((tmp_path / "mini_report.json").read_text())
    assert report["status"] == "FAIL"


def test_a_schedule_may_not_ask_for_more_coefficients_than_sensors():
    doc = dict(MINI_CONFIG, schedule={"kind": "fixed", "m": 300})
    with pytest.raises(ConfigValidationError, match=r"schedule: m\(n\) must not exceed n, "
                                                    r"but m\(256\) = 300"):
        parse_experiment_config(doc)
    doc["schedule"] = {"kind": "finite_dim", "k": 1e308}
    with pytest.raises(ConfigValidationError, match="schedule: m"):
        parse_experiment_config(doc)
    assert parse_experiment_config(dict(doc, schedule={"kind": "fixed", "m": 256}))


@pytest.mark.parametrize("key, change", [
    ("noise", {"kind": "uniform_sym", "b": 1e308}),
    ("field", {"class": "finite_dim", "basis": "fourier", "coefficients": [[0.1, 0.0]],
               "amplitude_bound": 1e308}),
    ("field", {"class": "sobolev", "s": 1.0, "seed": 7, "amplitude_bound": 1e101})])
def test_the_dynamic_range_is_capped_at_parse_time(key, change):
    """c = 1e308 parsed, and every squared error overflowed to inf."""
    with pytest.raises(ConfigValidationError, match="field, noise: the dynamic range"):
        parse_experiment_config(dict(MINI_CONFIG, **{key: change}))
    widest = {"kind": "uniform_sym", "b": harness.DYNAMIC_RANGE_MAX - 1}
    config = parse_experiment_config(dict(MINI_CONFIG, noise=widest))
    assert config.c <= harness.DYNAMIC_RANGE_MAX


# ---------------------------------------------------------------------------
# config fuzzer: one leaf of a shipped config replaced, or one key dropped
# ---------------------------------------------------------------------------

_SHIPPED = _RATE_CONFIGS + _TRACE_CONFIGS + _MISMATCH_CONFIGS
_DROP = "<drop the key>"
_FUZZ_VALUES = (0, -1, 1e308, 2.5, "text", None, _DROP)


def _every_path(doc, path=()):
    """Paths of every dict entry and list element, nested ones included."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    return [p for key, value in items
            for p in [path + (key,)] + _every_path(value, path + (key,))]


_FUZZ_TARGETS = [(name, path) for name in _SHIPPED
                 for path in _every_path(_shipped_doc(name))]


@given(st.sampled_from(_FUZZ_TARGETS), st.sampled_from(_FUZZ_VALUES))
@settings(max_examples=300, deadline=None)
def test_a_fuzzed_config_is_rejected_or_runs_to_finite_errors(target, value):
    """Either parsing raises ConfigValidationError, or a 2-trial sweep on
    n <= 512 finishes with finite means and standard deviations."""
    name, path = target
    doc = _shipped_doc(name)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == _DROP:
        if isinstance(parent, list):
            return
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        config = parse_experiment_config(doc)
    except ConfigValidationError:
        return
    cfg = EstimatorConfig(basis=config.basis, density=config.deployment, c=config.c,
                          schedule=config.schedule)
    sweep = monte_carlo_mse(config.field, config.deployment, config.noise, cfg,
                            (64, 128, 256, 512), 2, seed=config.seed)
    assert np.all(np.isfinite(sweep.means)) and np.all(np.isfinite(sweep.stds))


@pytest.mark.parametrize("key, value", [("slope_range", "text"), ("slope_range", None),
                                        ("slope_range", [-0.5]), ("slope_range", 2.5),
                                        ("slope_range", [-0.35, -0.65]),
                                        ("slope_range", ["x", 1.0]),
                                        ("slope_range", [-1.0, math.nan]),
                                        ("r2_min", "0.9"), ("r2_min", None),
                                        ("r2_min", True),
                                        ("trace_ratio_max", math.inf),
                                        ("bound_dominance", 0),
                                        ("expect_rejected", "false")])
def test_acceptance_values_are_checked_at_parse_time(key, value):
    """A malformed verdict rule used to parse and then end a finished sweep
    with a TypeError or ValueError."""
    doc = dict(MINI_CONFIG, acceptance={key: value})
    with pytest.raises(ConfigValidationError, match=f"acceptance: {key} must"):
        parse_experiment_config(doc)

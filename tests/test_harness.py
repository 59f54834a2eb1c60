import dataclasses
import functools
import inspect
import json
import math
import re
import subprocess
import sys
import tempfile
import types
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherfield import (AffineFloorDeployment, ConfigValidationError, FiniteDimField,
                         FourierBasis, Linear2xDeployment, TwoPointNoise, UniformDeployment,
                         UniformSymNoise, ZeroNoise, cli, harness, load_shipped_config,
                         make_finite_dim_field, monte_carlo_mse, parse_experiment_config,
                         run_experiment, run_lemma_battery, run_suite, true_coefficients)
from ditherfield import analysis
from ditherfield.analysis import WORKERS_MAX, map_trials
from ditherfield.fields import SOBOLEV_FREQS_MAX
from ditherfield.harness import _MISMATCH_CONFIGS, _RATE_CONFIGS, _TRACE_CONFIGS

from conftest import collect_trials

MINI_CONFIG = {
    "experiment_id": "mini",
    "field": {"class": "bv", "shape": "sawtooth"},
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


@pytest.mark.parametrize("schedule, key", [({"kind": "fixed", "s": 3}, "s"),
                                           ({"kind": "sobolev", "m": 3}, "m"),
                                           ({"kind": "bv", "psi": 0.5}, "psi"),
                                           ({"kind": "power", "psi": 0.4, "k": 2}, "k")])
def test_schedule_takes_only_its_own_parameter_key(schedule, key):
    with pytest.raises(ConfigValidationError,
                       match=rf"schedule\.{key}: unexpected key; {schedule['kind']} "
                             rf"schedule takes \['kind'"):
        parse_experiment_config(dict(MINI_CONFIG, schedule=schedule))


@pytest.mark.parametrize("doc, path, what", [
    (dict(MINI_CONFIG, outputs="out"), "outputs", "experiment config"),
    (dict(MINI_CONFIG, n_gird=[1, 2]), "n_gird", "experiment config"),
    (dict(MINI_CONFIG, acceptance={"r2min": 0.9}), "acceptance.r2min", "acceptance")],
    ids=["outputs", "n_gird", "acceptance.r2min"])
def test_unknown_config_keys_are_rejected(doc, path, what):
    """The top level and the acceptance block take their keys by the rule
    of every section."""
    with pytest.raises(ConfigValidationError,
                       match=rf"{path}: unexpected key; {what} takes \['"):
        parse_experiment_config(doc)


def test_seed_override_changes_the_hash():
    a = parse_experiment_config(MINI_CONFIG)
    b = parse_experiment_config(MINI_CONFIG, seed_override=1234)
    assert b.seed == 1234 and type(b.seed) is int
    assert a.config_hash != b.config_hash
    assert b.config_hash == parse_experiment_config(dict(MINI_CONFIG, seed=1234)).config_hash


@pytest.mark.parametrize("override, got", [(True, "bool True"), (7.9, "float 7.9"),
                                           ("12", "str '12'")])
def test_a_seed_override_is_read_as_the_documents_seed(override, got):
    """An override used to go through int(): True parsed as seed 1, 7.9 as
    7 and "12" as 12, where the document's own seed rejects all three."""
    with pytest.raises(ConfigValidationError) as err:
        load_shipped_config("mismatch_linear2x", seed_override=override)
    assert err.value.problems == [f"seed: expected an integer, got {got}"]


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
    assert sorted(report) == ["bound_totals", "checks", "ci_half", "config_hash",
                              "dominance_violations", "experiment_id", "m_values", "mse_means",
                              "mse_stds", "n_grid", "rate_fit", "seed", "status", "trials"]
    assert (out1 / "mini_summary.txt").exists()


REJECTION = ("rejected: the variance side of the distortion bound diverges — the integral "
             "of |phi_j|^2 / p_X over [0,1] is infinite for j in [0, 1, 2, 3, 4, 5, 6, 7]. "
             "The deployment density vanishes on the domain, so the inverse-density weights "
             "are unintegrable and the bound is useless; match the basis to the deployment or "
             "use a density with a strictly positive floor.")


def test_divergent_deployment_is_rejected_with_explanation(tmp_path):
    """A rejected run writes the three artifacts of any run: a header-only
    CSV, a report and a summary that give the rejection and its check."""
    config = load_shipped_config("mismatch_linear2x")
    outcome = run_experiment(config, tmp_path)
    assert outcome.status == "FAILED-PRECONDITION"
    assert outcome.detail == f"{REJECTION}; rejected, expect_rejected true: ok"
    assert outcome.dominance_violations is None and outcome.fit is None
    assert (tmp_path / "mismatch_linear2x.csv").read_text() == ",".join(harness.CSV_HEADER) + "\n"
    report = json.loads((tmp_path / "mismatch_linear2x_report.json").read_text())
    assert sorted(report) == ["checks", "config_hash", "detail", "divergent_js",
                              "experiment_id", "seed", "status"]
    assert report["divergent_js"] == list(range(32))
    assert report["checks"] == ["rejected, expect_rejected true: ok"]
    assert (tmp_path / "mismatch_linear2x_summary.txt").read_text().splitlines() == [
        "experiment mismatch_linear2x", "status FAILED-PRECONDITION", REJECTION,
        "rejected, expect_rejected true: ok"]


def test_matched_deployment_runs(tmp_path):
    config = load_shipped_config("mismatch_affine_floor")
    outcome = run_experiment(config, tmp_path)
    assert outcome.status == "PASS"


def test_the_conditions_suite_holds_the_affine_floor_integral_at_ln3(tmp_path, monkeypatch):
    """Criterion 7 fails when the affine-floor integral of 1/p_X misses ln 3
    by more than 1e-6: the conditions suite reads the deployment's own
    integral, the one the bound reads."""
    real = AffineFloorDeployment.inverse_integral
    monkeypatch.setattr(AffineFloorDeployment, "inverse_integral",
                        lambda self, lo, hi: real(self, lo, hi) + 2e-6)
    result = run_suite("conditions", tmp_path)
    verdicts = [(row.criterion, row.passed) for row in result.rows]
    assert verdicts == [(7, False), (8, True), (9, True)] and not result.all_pass


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_suite("nope", tmp_path)


def test_lemma_battery_smoke():
    # statistical thresholds are asserted at full scale in the acceptance
    # suite; this checks the machinery and row layout at reduced trials
    battery = run_lemma_battery(n=500, trials=200, j_count=4, workers=1)
    assert len(battery.rows) == 3 * 2 * 3 * 4
    assert battery.frac_within_4sigma > 0.9
    assert battery.max_var_ratio < 1.5
    cells = {r["cell"] for r in battery.rows}
    assert len(cells) == 18


@pytest.mark.parametrize("n, trials, message", [(100, 1, "trials must be an integer >= 2"),
                                                 (0, 10, r"n must be an integer in \[1, ")])
def test_lemma_battery_needs_two_trials(n, trials, message):
    # one trial has no sample variance (it divided by zero into NaN rows);
    # no sensors divided by zero in the pool-task size
    with pytest.raises(ValueError, match=message):
        run_lemma_battery(n=n, trials=trials, j_count=2)


def test_lemma_battery_reads_integral_floats_and_numpy_ints_as_counts():
    assert (run_lemma_battery(n=50.0, trials=np.int64(2), j_count=2.0).rows
            == run_lemma_battery(n=50, trials=2, j_count=2).rows)


def test_lemma_battery_rows_do_not_depend_on_the_worker_count(monkeypatch):
    """Chunks of 7 trials, so each cell folds 29 of them into its sums."""
    monkeypatch.setattr(analysis, "TASK_SENSORS", 7 * 500)
    serial = run_lemma_battery(n=500, trials=200, j_count=4, workers=1)
    parallel = run_lemma_battery(n=500, trials=200, j_count=4, workers=2)
    assert serial.rows == parallel.rows


def test_streamed_battery_moments_equal_the_two_pass_moments(monkeypatch):
    """The streamed means are, bit for bit, the means of each cell's
    estimates gathered into one array, and var_emp, dev_sigmas and
    var_ratio are the two-pass values within 1e-13 relative."""
    monkeypatch.setattr(analysis, "TASK_SENSORS", 7 * 500)
    kept, cells = [], []

    def gathering(trial_cells, seed, take, workers=1):
        kept.extend(collect_trials(trial_cells, seed, workers))
        cells.extend(trial_cells)
        return map_trials(trial_cells, seed, take, workers)

    monkeypatch.setattr(harness, "map_trials", gathering)
    n, trials, j_count = 500, 200, 4
    battery = run_lemma_battery(n=n, trials=trials, j_count=j_count)
    assert len(kept) == len(cells) == 18
    for c, (cell, mat) in enumerate(zip(cells, kept)):
        alpha = true_coefficients(cell.field, j_count).values
        scale = (cell.field.amplitude_bound + cell.noise.b) ** 2 / n
        var_bound = scale * cell.deploy.inverse_integral(0.0, 1.0)
        mean = mat.mean(axis=0)
        var_emp = np.sum(np.abs(mat - mean) ** 2, axis=0) / (trials - 1)
        dev_sigmas = np.abs(mean - alpha) / np.sqrt(var_emp / trials)
        for j, row in enumerate(battery.rows[c * j_count:(c + 1) * j_count]):
            assert (row["mean_re"], row["mean_im"]) == (mean[j].real, mean[j].imag)
            assert row["var_emp"] == pytest.approx(var_emp[j], rel=1e-13, abs=0.0)
            assert row["dev_sigmas"] == pytest.approx(dev_sigmas[j], rel=1e-13, abs=0.0)
            assert row["var_ratio"] == pytest.approx(var_emp[j] / var_bound, rel=1e-13,
                                                     abs=0.0)


@pytest.mark.parametrize("m", [2, 8])
def test_numpy_adds_the_rows_of_a_mean_in_order(m):
    """numpy's axis-0 mean of a (trials, m) array, m >= 2, adds the rows
    one at a time in order, as the battery's streamed sums do; a numpy
    that summed them pairwise would move the battery's means."""
    rng = np.random.default_rng(m)
    mat = rng.standard_normal((5000, m)) + 1j * rng.standard_normal((5000, m))
    total = None
    for t0 in range(0, 5000, 262):
        total = harness._ordered_sum(total, mat[t0:t0 + 262])
    assert np.array_equal(total / 5000, mat.mean(axis=0))


def test_lemma_cells_csv_holds_plain_numbers(tmp_path, monkeypatch):
    # numpy scalars would print as np.float64(...) under repr()
    monkeypatch.setattr(harness, "run_lemma_battery",
                        functools.partial(harness.run_lemma_battery, trials=20))
    harness._run_lemma1(tmp_path, workers=1)
    lines = (tmp_path / "lemma1_cells.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == harness.LEMMA_CELL_HEADER and len(lines) == 1 + 18 * 8
    numeric = header.index("j")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(header)
        for value in fields[numeric:]:
            float(value)


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


_OK_FLOOR = "deployment floor positive: ok (infimum 1.0)"
# (shipped config, exit code, the four verdict lines of `check-conditions`)
_CONDITIONS = [
    ("bv_sawtooth", 0, ["truncation grows: ok (m: 32 -> 512)", _OK_FLOOR,
                        "variance share vanishes: ok (values ['3.125e-02', '1.562e-02', "
                        "'7.812e-03', '3.906e-03', '1.953e-03'])", "overall: PASS"]),
    ("sobolev_s1", 0, ["truncation grows: ok (m: 11 -> 64)", _OK_FLOOR,
                       "variance share vanishes: ok (values ['1.074e-02', '3.906e-03', "
                       "'1.587e-03', '6.256e-04', '2.441e-04'])", "overall: PASS"]),
    ("mismatch_affine_floor", 0, ["truncation grows: ok (m: 16 -> 32)",
                                  "deployment floor positive: ok (infimum 0.5)",
                                  "variance share vanishes: ok (values ['6.866e-02', "
                                  "'3.433e-02'])", "overall: PASS"]),
    *[(name, 0, ["truncation grows: ok (m: 16 -> 252)", _OK_FLOOR,
                 "variance share vanishes: ok (values ['1.600e-02', '4.000e-03', "
                 "'1.000e-03', '2.520e-04'])", "overall: PASS"])
      for name in ("as_trace_zero", "as_trace_sawtooth")],
    # a fixed m does not grow, and the linear-2x density has infimum 0
    ("finite_dim_k5", 1, ["truncation grows: FAIL (m: 5 -> 5)", _OK_FLOOR,
                          "variance share vanishes: ok (values ['4.883e-03', '1.221e-03', "
                          "'3.052e-04', '7.629e-05', '1.907e-05'])", "overall: FAIL"]),
    ("mismatch_linear2x", 1, ["truncation grows: ok (m: 16 -> 32)",
                              "deployment floor positive: FAIL (infimum 0.0)",
                              "variance share vanishes: FAIL (values ['inf', 'inf'])",
                              "overall: FAIL"])]


@pytest.mark.parametrize("name, code, lines", _CONDITIONS, ids=[case[0] for case in _CONDITIONS])
def test_check_conditions_gives_each_shipped_config_its_verdict(capsys, name, code, lines):
    path = resources.files("ditherfield") / "configs" / f"{name}.json"
    assert cli.main(["check-conditions", str(path)]) == code
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("name, expect_rejected, status, code", [
    ("mismatch_linear2x", True, "FAILED-PRECONDITION", 0),
    ("mismatch_linear2x", False, "FAILED-PRECONDITION", 1),
    ("mismatch_linear2x", None, "FAILED-PRECONDITION", 1),
    ("mismatch_affine_floor", False, "PASS", 0),
    ("mismatch_affine_floor", True, "FAIL", 1)])
def test_cli_run_holds_expect_rejected(tmp_path, capsys, name, expect_rejected, status, code):
    """A declared rejection that happens is exit 0 and keeps its status; one
    that does not happen is exit 1, like a rejection declared false or not
    declared at all (None drops the key)."""
    doc = _shipped_doc(name)
    doc["acceptance"]["expect_rejected"] = expect_rejected
    if expect_rejected is None:
        del doc["acceptance"]["expect_rejected"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "out")]) == code
    out = capsys.readouterr().out
    assert f"{name}: {status}\n" in out
    declared = json.dumps(bool(expect_rejected))
    assert f"expect_rejected {declared}: {'VIOLATED' if code else 'ok'}" in out


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize("workers", [0, -1, WORKERS_MAX + 1])
def test_cli_rejects_a_worker_count_out_of_range(tmp_path, capsys, command, workers):
    """Exit 2 with one line on stderr, before any run starts or any file
    is written."""
    config_path = tmp_path / "mini.json"
    config_path.write_text(json.dumps(MINI_CONFIG))
    target = str(config_path) if command == "run" else "rates"
    out = tmp_path / "out"
    assert cli.main([command, target, f"--workers={workers}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"[1, {WORKERS_MAX}]" in err
    assert not out.exists()


TRACE_CONFIG = dict(MINI_CONFIG, experiment_id="mini_trace",
                    schedule={"kind": "power", "psi": 0.4}, n_grid=[500, 5000],
                    acceptance={"trace_ratio_max": 0.9})


def test_a_declared_trace_ratio_runs_a_trace_in_place_of_the_sweep(tmp_path):
    """The one write of a run holds the trace: its fields in the report
    beside status, seed, hash and checks, a header-only CSV, and the sup
    error per checkpoint in the summary."""
    config = parse_experiment_config(TRACE_CONFIG)
    outcome = run_experiment(config, tmp_path, workers=2)
    trace = analysis.as_error_trace(config.field, config.deployment, config.noise, psi=0.4,
                                    seed=99, n_checkpoints=(500, 5000))
    assert outcome.trace.to_json() == trace.to_json() and outcome.fit is None
    assert outcome.status == "PASS" and outcome.verdicts == {"trace_ratio_max": True}
    check = (f"sup|S| {trace.sup_error[0]:.4e} -> {trace.sup_error[1]:.4e} "
             f"(ratio {trace.sup_ratio:.4f} < 0.9): ok")
    assert outcome.detail == check
    assert (tmp_path / "mini_trace.csv").read_text() == ",".join(harness.CSV_HEADER) + "\n"
    report = json.loads((tmp_path / "mini_trace_report.json").read_text())
    assert report == json.loads(json.dumps(
        {"experiment_id": "mini_trace", "status": "PASS", "seed": 99,
         "config_hash": config.config_hash, "checks": [check], **trace.to_json()}))
    assert (tmp_path / "mini_trace_summary.txt").read_text().splitlines() == [
        "experiment mini_trace", "status PASS", "seed 99", f"config sha {config.config_hash}",
        *[f"n={n} m={m} sup|S_n|={s:.6e}" for n, m, s in zip((500, 5000), trace.m_values,
                                                              trace.sup_error)], check]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mini_trace.csv", "mini_trace_report.json", "mini_trace_summary.txt"]


def _without_trials(doc: dict, trials) -> dict:
    """`doc` with its trial count left out, or set to null where `trials` is None."""
    doc = {key: value for key, value in doc.items() if key != "trials"}
    return doc if trials == "<left out>" else dict(doc, trials=None)


@pytest.mark.parametrize("trials", ["<left out>", None])
def test_a_trace_document_need_not_carry_trials(tmp_path, trials):
    """A trace runs no trials, so its document may leave the count out or
    null; it runs the trace of the same document with a count."""
    config = parse_experiment_config(_without_trials(TRACE_CONFIG, trials))
    assert config.trials is None
    counted = run_experiment(parse_experiment_config(TRACE_CONFIG), tmp_path / "counted")
    outcome = run_experiment(config, tmp_path / "uncounted")
    assert outcome.status == "PASS" and outcome.trace.to_json() == counted.trace.to_json()


@pytest.mark.parametrize("trials", ["<left out>", None])
def test_a_sweep_document_must_carry_trials(trials):
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(_without_trials(MINI_CONFIG, trials))
    assert err.value.problems == [
        "trials: required; only a trace (acceptance.trace_ratio_max) runs without a trial count"]


@pytest.mark.parametrize("name, ratio", [("as_trace_zero", "0.2126"),
                                         ("as_trace_sawtooth", "0.1387")])
def test_cli_run_judges_a_shipped_trace(tmp_path, capsys, name, ratio):
    """`run` on a trace config judges its declared trace_ratio_max, which
    its 2-trial sweep used to leave unjudged (PASS, no declared tolerances)."""
    path = resources.files("ditherfield") / "configs" / f"{name}.json"
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{name}: PASS"
    assert re.fullmatch(rf"sup\|S\| \S+ -> \S+ \(ratio {ratio} < 0\.3\): ok", out[1]), out


def test_cli_run_exits_1_when_the_declared_trace_ratio_is_missed(tmp_path, capsys):
    """A miss is a FAIL verdict (exit 1), and the trace is still written."""
    config_path = tmp_path / "trace.json"
    config_path.write_text(json.dumps(dict(TRACE_CONFIG, acceptance={"trace_ratio_max": 1e-9})))
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "mini_trace: FAIL\n" in out
    assert re.search(r"\(ratio [0-9.]+ >= 1e-09\): VIOLATED", out), out
    report = json.loads((tmp_path / "out" / "mini_trace_report.json").read_text())
    assert report["status"] == "FAIL" and len(report["sup_error"]) == 2


@pytest.mark.parametrize("change, named", [
    ({"schedule": {"kind": "fixed", "m": 5}}, "schedule: a trace (acceptance.trace_ratio_max) "
                                              "grows m(n) = n^psi, so it needs a schedule "
                                              "with psi < 1"),
    ({"schedule": {"kind": "finite_dim", "k": 5}}, "schedule: a trace"),
    ({"schedule": {"kind": "power", "psi": 1.0}}, "schedule: a trace"),
    ({"acceptance": {"trace_ratio_max": 0.9, "bound_dominance": False}},
     "acceptance.bound_dominance: a trace (acceptance.trace_ratio_max) runs in place of "
     "the sweep these judge"),
    ({"acceptance": {"trace_ratio_max": 0.9, "slope_range": [-1, 0], "r2_min": 0.9},
      "n_grid": [500, 1000, 2000, 5000]}, "acceptance.slope_range, acceptance.r2_min: a trace")],
    ids=["fixed_schedule", "finite_dim_schedule", "psi_1", "bound_dominance", "rate_fit"])
def test_cli_run_rejects_a_trace_it_cannot_judge(tmp_path, capsys, change, named):
    """A trace grows m(n) = n^psi, psi < 1, and judges no sweep tolerance:
    anything else is a config error (exit 2, one stderr line naming the
    key) before any file is written."""
    config_path = tmp_path / "trace.json"
    config_path.write_text(json.dumps(dict(TRACE_CONFIG, **change)))
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("run: invalid experiment config: ")
    assert f"config: {named}" in captured.err, captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("schedule, psi", [({"kind": "bv"}, 0.5),
                                           ({"kind": "sobolev", "s": 1.0}, 1 / 3)],
                         ids=["bv", "sobolev"])
def test_cli_runs_a_trace_on_any_schedule_with_psi_below_1(tmp_path, capsys, schedule, psi):
    """A bv or sobolev schedule grows m(n) = ceil(n^psi) with psi < 1, so its
    trace document runs to a PASS report: the trace of its psi, as the
    power schedule of that psi gives it."""
    config_path = tmp_path / "trace.json"
    config_path.write_text(json.dumps(dict(TRACE_CONFIG, schedule=schedule)))
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "mini_trace: PASS"
    report = json.loads((tmp_path / "out" / "mini_trace_report.json").read_text())
    power = run_experiment(parse_experiment_config(
        dict(TRACE_CONFIG, schedule={"kind": "power", "psi": psi})), tmp_path / "power")
    assert report["status"] == "PASS" and report["psi"] == psi
    assert report["m_values"] == [math.ceil(round(n ** psi, 9)) for n in (500, 5000)]
    assert {k: v for k, v in report.items() if k != "config_hash"} == json.loads(
        json.dumps({"experiment_id": "mini_trace", "status": "PASS", "seed": 99,
                    "checks": [power.detail], **power.trace.to_json()}))


@pytest.mark.parametrize("basis", [None, "fourier", {"kind": "fourier"}],
                         ids=["unnamed", "fourier", "object"])
def test_cli_rejects_a_density_with_a_zero(tmp_path, basis):
    """A density with a zero makes the variance integral infinite: `run`
    reports FAILED-PRECONDITION and `check-conditions` fails, both without
    a traceback. The same document naming the Fourier basis, the only
    basis and no input, is a config error to both, however it is spelled."""
    doc = dict(MINI_CONFIG, deployment={"kind": "linear_2x"})
    if basis is not None:
        doc["basis"] = basis
    config_path = tmp_path / "mini.json"
    config_path.write_text(json.dumps(doc))
    for command, expected in ((["run", "--out", str(tmp_path / "out")],
                               "mini: FAILED-PRECONDITION"),
                              (["check-conditions"], "overall: FAIL")):
        proc = subprocess.run(
            [sys.executable, "-m", "ditherfield.cli", command[0], str(config_path)]
            + command[1:], capture_output=True, text=True)
        assert "Traceback" not in proc.stderr
        if basis is None:
            assert proc.returncode == 1 and expected in proc.stdout, proc.stderr
        else:
            assert proc.returncode == 2 and proc.stdout == ""
            assert "basis: unexpected key; experiment config takes" in proc.stderr
    assert (tmp_path / "out").exists() == (basis is None)


def _numeric_leaves(doc, path=()):
    """Paths of every number in a config document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []
    return [leaf for key, value in items for leaf in _numeric_leaves(value, path + (key,))]


def _shipped_doc(name):
    return json.loads((resources.files("ditherfield") / "configs" / f"{name}.json").read_text())


def _key_path(path):
    """A document path as a problem names it: `field.coefficients[0]`."""
    return path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])


_LEAF_CASES = [(name, path) for name in _RATE_CONFIGS + _TRACE_CONFIGS + _MISMATCH_CONFIGS
               for path in _numeric_leaves(_shipped_doc(name))]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False])
@pytest.mark.parametrize("name, path", _LEAF_CASES,
                         ids=[f"{n}:{'.'.join(map(str, p))}" for n, p in _LEAF_CASES])
def test_a_non_finite_number_anywhere_is_a_config_error(name, path, bad):
    doc = _shipped_doc(name)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    # a problem starts with the leaf's key path, a coefficient pair's at the pair
    named = re.escape(_key_path(path[:3])) + ":"
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(doc)
    assert any(re.match(named, line) for line in err.value.problems), err.value.problems


@pytest.mark.parametrize("key, value, problem", [
    ("n_grid", [256, 512.5, 1024, 2048], "n_grid[1]: expected an integer, got float 512.5"),
    ("trials", 2.7, "trials: expected an integer, got float 2.7"),
    ("trials", [12, 12, 12.5, 12], "trials[2]: expected an integer, got float 12.5"),
    ("seed", 1.5, "seed: expected an integer, got float 1.5"),
    ("seed", -1, "seed: must be >= 0"),
    ("seed", "99", "seed: expected an integer, got str '99'"),
    *[("experiment_id", eid, "experiment_id: names the artifact files, so it may not be '.' "
                             f"or '..' or hold '/' or NUL; got {eid!r}")
      for eid in ("sub/x", "../escaped", ".", "..", "a\0b")]],
    ids=["n_grid_fraction", "trials_fraction", "trials_entry_fraction", "seed_fraction",
         "seed_negative", "seed_string", "id_subdir", "id_escapes", "id_dot", "id_dotdot",
         "id_nul"])
def test_counts_must_be_integral_and_the_seed_nonnegative(key, value, problem):
    """An experiment_id names the files a run writes, so "sub/x" ran its
    whole sweep before it failed to open them and "../escaped" wrote
    outside the output directory."""
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(dict(MINI_CONFIG, **{key: value}))
    assert problem in err.value.problems


def test_the_seed_is_one_u64():
    """A seed is one Philox key word: 2^64 - 1 parses, 2^64 does not."""
    assert parse_experiment_config(MINI_CONFIG, seed_override=2 ** 64 - 1).seed == 2 ** 64 - 1
    with pytest.raises(ConfigValidationError,
                       match="seed: must be at most 18446744073709551615"):
        parse_experiment_config(dict(MINI_CONFIG, seed=2 ** 64))


def test_integral_floats_are_counts():
    config = parse_experiment_config(dict(MINI_CONFIG, n_grid=[256.0, 512, 1024, 2048],
                                          trials=12.0, seed=99.0))
    assert config.n_grid == (256, 512, 1024, 2048) and config.trials == (12,) * 4
    assert config.seed == 99 and type(config.seed) is int


_NAMED_BASIS = {
    "basis": "basis: unexpected key; experiment config takes ['experiment_id', 'field', "
             "'deployment', 'noise', 'schedule', 'n_grid', 'seed', 'trials', 'acceptance']",
    "field.basis": "field.basis: unexpected key; finite_dim field takes "
                   "['class', 'coefficients', 'amplitude_bound']"}


def test_fourier_basis_takes_no_parameters():
    """The Fourier basis is a constant of the program, not a section: a
    document that names it, with parameters or without, is refused."""
    for basis in ({"kind": "fourier", "cells": 16}, {"kind": "fourier"}):
        with pytest.raises(ConfigValidationError) as err:
            parse_experiment_config(dict(MINI_CONFIG, basis=basis))
        assert err.value.problems == [_NAMED_BASIS["basis"]]


@pytest.mark.parametrize("name", _RATE_CONFIGS + _TRACE_CONFIGS + _MISMATCH_CONFIGS)
def test_the_basis_is_a_constant_no_constructor_takes(name):
    """The benchmark reads `config.basis` and a finite-dim `field.basis`:
    both are the Fourier basis, held by the class, not by any argument."""
    config = load_shipped_config(name)
    assert isinstance(config.basis, FourierBasis) and "basis" not in config.raw
    if isinstance(config.field, FiniteDimField):
        assert isinstance(config.field.basis, FourierBasis)
    for build in (harness.ExperimentConfig, FiniteDimField, make_finite_dim_field):
        assert "basis" not in inspect.signature(build).parameters


_STEP16 = {"kind": "step", "cells": 16}
_K5_DOC = _shipped_doc("finite_dim_k5")
_STEP_FIELD = {"class": "finite_dim", "coefficients": [[0.2, 0.0], [-0.1, 0.0], [0.05, 0.0]],
               "amplitude_bound": 1.0, "basis": _STEP16}


# documents that name a basis, the Fourier basis or the step basis that is
# gone, in the tests that ran, capped or fuzzed it; each lists the sections
# that name it, in the order their problems are reported
@pytest.mark.parametrize("doc, sections", [
    (dict(MINI_CONFIG, basis="fourier"), ["basis"]),
    (dict(MINI_CONFIG, field=dict(_STEP_FIELD, basis="fourier")), ["field.basis"]),
    (dict(_K5_DOC, basis="fourier"), ["basis"]),
    (dict(_K5_DOC, field=dict(_K5_DOC["field"], basis="fourier")), ["field.basis"]),
    (dict(MINI_CONFIG, basis=_STEP16), ["basis"]),
    (dict(MINI_CONFIG, field=_STEP_FIELD), ["field.basis"]),
    (dict(MINI_CONFIG, field=_STEP_FIELD, basis=_STEP16, schedule={"kind": "finite_dim", "k": 3}),
     ["basis", "field.basis"]),
    (dict(MINI_CONFIG, field=dict(_STEP_FIELD, basis={"kind": "step", "cells": "16"})),
     ["field.basis"]),
    (dict(MINI_CONFIG, basis="step"), ["basis"]),
    (dict(MINI_CONFIG, field=dict(_STEP_FIELD, basis="step")), ["field.basis"]),
    (dict(TRACE_CONFIG, basis={"kind": "step", "cells": 64}), ["basis"]),
    (dict(MINI_CONFIG, basis={"kind": "step", "cells": 64},
          deployment={"kind": "linear_2x"}), ["basis"]),
    (dict(MINI_CONFIG, basis={"kind": "step", "cells": 64},
          field={"class": "sobolev", "s": 1.0, "seed": 7, "n_freqs": 32}), ["basis"]),
    *[(dict(MINI_CONFIG, basis={"kind": "step", "cells": cells}), ["basis"])
      for cells in (1024, -1, 0, 1025, 1 << 40)]],
    ids=["fourier_top", "fourier_field", "k5_fourier_top", "k5_fourier_field",
         "top", "field", "both", "nested_cells_string", "top_kind_alone", "field_kind_alone",
         "trace", "zero_density",
         "fuzz_sized", "cells_1024", "cells_-1", "cells_0", "cells_1025", "cells_2^40"])
def test_a_named_basis_fails_at_the_boundary(tmp_path, capsys, doc, sections):
    """The Fourier basis is the only basis, so no document names one: a
    document that does, at the top level or in a finite_dim field, by an
    object or by its kind alone, is a config error listing the keys the
    section takes, and `run` exits 2 before any file is written."""
    fails_at_the_boundary(tmp_path, capsys, doc, [_NAMED_BASIS[section] for section in sections])


@pytest.mark.parametrize("doc, problems", [
    (dict(MINI_CONFIG, deployment={"kind": "tabulated", "pdf_values": [1, 0, 1]}),
     ["deployment.kind: unknown deployment kind 'tabulated'; "
      "expected one of ['uniform', 'linear_2x', 'affine_floor']"]),
    (dict(MINI_CONFIG, noise={"kind": "trunc_gauss", "sigma": 0.5, "b": 1.0}),
     ["noise.kind: unknown noise kind 'trunc_gauss'; "
      "expected one of ['zero', 'uniform_sym', 'two_point']"]),
    (dict(MINI_CONFIG, field={"class": "bv", "shape": "piecewise", "edges": [0.0, 0.25, 1.0],
                              "levels": [0.5, -0.25]}),
     ["field.edges: unexpected key; bv field takes ['class', 'shape']",
      "field.levels: unexpected key; bv field takes ['class', 'shape']"])],
    ids=["tabulated_deployment", "trunc_gauss_noise", "bv_edges_levels"])
def test_a_removed_input_fails_at_the_boundary(tmp_path, capsys, doc, problems):
    """The tabulated density, the truncated-Gaussian noise and the custom
    piecewise field are gone: a document that names one is a config error
    naming what is left, and `run` exits 2 before any file is written."""
    fails_at_the_boundary(tmp_path, capsys, doc, problems)


def fails_at_the_boundary(tmp_path, capsys, doc, problems):
    """Parsing `doc` raises exactly `problems`, and `run` on it exits 2 with
    that error as its one stderr line and writes no output directory."""
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(doc)
    assert err.value.problems == problems
    config_path = tmp_path / "removed.json"
    config_path.write_text(json.dumps(doc))
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {err.value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, doc, named", [
    ("noise", {"kind": "zero", "b": 1.0}, r"noise\.b: unexpected key; zero noise takes "
                                          r"\['kind'\]"),
    ("deployment", {"kind": "uniform", "nu": 0.5},
     r"deployment\.nu: unexpected key; uniform deployment takes \['kind'\]"),
    ("deployment", {"kind": "affine_floor", "nu": 0.5, "foo": 1},
     r"deployment\.foo: unexpected key; affine_floor deployment takes \['kind', 'nu'\]"),
    ("deployment", {"kind": "linear_2x", "nu": 0.5},
     r"deployment\.nu: unexpected key; linear_2x deployment takes \['kind'\]"),
    ("noise", {"kind": "uniform_sym", "b": 1.0, "sigma": 0.5},
     r"noise\.sigma: unexpected key; uniform_sym noise takes \['kind', 'b'\]"),
    ("noise", {"kind": "two_point", "b": 0.7, "sigma": 0.5},
     r"noise\.sigma: unexpected key; two_point noise takes \['kind', 'b'\]"),
    ("deployment", {"type": "uniform"}, r"deployment\.kind: unknown deployment kind None")],
    ids=["zero_noise_b", "uniform_nu", "affine_floor_stray", "linear_2x_nu", "uniform_sym_sigma",
         "two_point_sigma", "no_kind"])
def test_a_deployment_or_noise_takes_only_its_own_keys(key, doc, named):
    """Zero noise with b = 1 used to parse as c = a, not a + 1, the stray
    keys of a deployment went unread, and a missing kind raised a bare
    KeyError."""
    with pytest.raises(ConfigValidationError, match=named):
        parse_experiment_config(dict(MINI_CONFIG, **{key: doc}))


@pytest.mark.parametrize("key, doc, built", [
    ("deployment", {"kind": "uniform"}, UniformDeployment()),
    ("deployment", {"kind": "linear_2x"}, Linear2xDeployment()),
    ("deployment", {"kind": "affine_floor", "nu": 0.25}, AffineFloorDeployment(nu=0.25)),
    ("noise", {"kind": "zero"}, ZeroNoise()),
    ("noise", {"kind": "uniform_sym", "b": 0.5}, UniformSymNoise(b=0.5)),
    ("noise", {"kind": "two_point", "b": 0.7}, TwoPointNoise(b=0.7))],
    ids=["uniform", "linear_2x", "affine_floor", "zero", "uniform_sym", "two_point"])
def test_each_deployment_and_noise_kind_parses_to_its_input(key, doc, built):
    assert getattr(parse_experiment_config(dict(MINI_CONFIG, **{key: doc})), key) == built


@pytest.mark.parametrize("key, doc, problem", [
    ("deployment", {"kind": "affine_floor", "nu": 0.0}, "deployment: floor must lie in (0, 1]"),
    ("deployment", {"kind": "affine_floor", "nu": 1.5}, "deployment: floor must lie in (0, 1]"),
    ("noise", {"kind": "uniform_sym", "b": 0.0}, "noise: noise bound b must be positive, got 0.0"),
    ("noise", {"kind": "two_point", "b": -1.0}, "noise: noise bound b must be positive, got -1.0"),
    ("field", {"class": "finite_dim", "coefficients": [[0.1, 0.0]], "amplitude_bound": -1.0},
     "field: amplitude_bound must be positive, got -1.0"),
    ("field", {"class": "sobolev", "s": 1.0, "seed": 7, "amplitude_bound": 0},
     "field: amplitude_bound must be positive, got 0.0")],
    ids=["floor_zero", "floor_above_one", "uniform_sym_zero", "two_point_negative",
         "finite_dim_amplitude_negative", "sobolev_amplitude_zero"])
def test_an_input_parameter_out_of_range_is_a_config_error(key, doc, problem):
    """The constructor's guard reaches the user as a config problem under
    the section's name, not as a traceback."""
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(dict(MINI_CONFIG, **{key: doc}))
    assert err.value.problems == [problem]


@pytest.mark.parametrize("key, doc, message", [
    ("deployment", {"kind": [1]}, "kind: unknown deployment kind"),
    ("noise", {"kind": [1]}, "kind: unknown noise kind"),
    ("schedule", {"kind": [1]}, "kind: unknown schedule kind"),
    ("field", {"class": [1]}, "class: unknown field class")],
    ids=["deployment", "noise", "schedule", "field"])
def test_a_kind_that_is_not_a_string_is_unknown(key, doc, message):
    """A list kind used to fail the table lookup as an unhashable type."""
    with pytest.raises(ConfigValidationError, match=rf"{key}\.{message} \[1\]; expected one of"):
        parse_experiment_config(dict(MINI_CONFIG, **{key: doc}))


@pytest.mark.parametrize("key, doc, message", [
    ("noise", {"kind": "uniform_sym", "b": "1"},
     r"noise\.b: expected a finite number, got str '1'"),
    ("noise", {"kind": "two_point", "b": None},
     r"noise\.b: expected a finite number, got null"),
    ("deployment", {"kind": "affine_floor", "nu": [0.5]},
     r"deployment\.nu: expected a finite number, got \[0\.5\]"),
    ("n_grid", ["256", "512"], r"n_grid\[0\]: expected an integer, got str '256'"),
    ("field", "sawtooth", r"field: expected an object, got str 'sawtooth'"),
    ("field", {"class": "finite_dim", "amplitude_bound": 1.0},
     r"field\.coefficients: required; finite_dim field takes "
     r"\['class', 'coefficients', 'amplitude_bound'\]"),
    ("field", {"class": "finite_dim", "coefficients": [[0.1]], "amplitude_bound": 1.0},
     r"field\.coefficients\[0\]: expected \[re, im\] of finite numbers, got \[0\.1\]"),
    ("field", {"class": "sobolev", "s": 1.0, "seed": 7.5},
     r"field\.seed: expected an integer, got float 7\.5"),
    ("schedule", {"m": 5}, r"schedule\.kind: unknown schedule kind None; expected one of "
                           r"\['fixed', 'finite_dim', 'bv', 'sobolev', 'power'\]"),
    ("basis", 5, r"basis: unexpected key; experiment config takes \['experiment_id', "
                 r"'field', 'deployment', 'noise', 'schedule', 'n_grid', 'seed', 'trials', "
                 r"'acceptance'\]"),
    ("field", {"class": "sobolev", "s": 1.0, "seed": -1},
     r"field: seed must be an integer >= 0, got -1")],
    ids=["noise_b_string", "noise_b_null", "nu_list", "n_grid_strings", "field_string",
         "no_coefficients", "coefficient_not_a_pair", "sobolev_seed_fraction",
         "schedule_no_kind", "basis_number", "sobolev_seed_negative"])
def test_a_value_of_the_wrong_type_is_named_by_its_key_path(key, doc, message):
    """These used to leak Python internals (`'<' not supported between
    instances`, `dictionary update sequence`, a private function's name,
    a bare KeyError)."""
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(dict(MINI_CONFIG, **{key: doc}))
    assert any(re.fullmatch(message, line) for line in err.value.problems), err.value.problems


@pytest.mark.parametrize("name, deployment, noise, c", [
    ("finite_dim_k5", UniformDeployment(), UniformSymNoise(b=1.0), 1.8),
    ("bv_sawtooth", UniformDeployment(), UniformSymNoise(b=1.0), 1.5),
    ("sobolev_s1", UniformDeployment(), UniformSymNoise(b=1.0), 2.0),
    ("as_trace_zero", UniformDeployment(), ZeroNoise(), 1.0),
    ("as_trace_sawtooth", UniformDeployment(), UniformSymNoise(b=0.5), 1.0),
    ("mismatch_linear2x", Linear2xDeployment(), UniformSymNoise(b=1.0), 1.5),
    ("mismatch_affine_floor", AffineFloorDeployment(nu=0.5), UniformSymNoise(b=1.0), 1.5)])
def test_shipped_configs_parse_to_their_deployment_noise_and_range(name, deployment,
                                                                   noise, c):
    config = load_shipped_config(name)
    assert config.deployment == deployment and config.noise == noise
    assert config.c == c


def test_a_nan_bound_is_a_dominance_violation(tmp_path, monkeypatch):
    """Bound dominance holds only where mean <= bound + 3 ci is true; a NaN
    bound is not evidence of dominance."""
    real = harness.mse_upper_bound
    monkeypatch.setattr(harness, "mse_upper_bound", lambda *args: dataclasses.replace(
        real(*args), bias_term=math.nan))
    outcome = run_experiment(parse_experiment_config(MINI_CONFIG), tmp_path)
    assert outcome.status == "FAIL"
    assert outcome.dominance_violations == len(MINI_CONFIG["n_grid"])


@pytest.mark.parametrize("excess, violations", [(3.5, 1), (2.5, 0)])
def test_dominance_forgives_a_mean_up_to_three_ci_above_the_bound(tmp_path, monkeypatch,
                                                                 excess, violations):
    """One grid point's mean is lifted to the bound's total plus `excess`
    of its CI half-width; the others stay where the sweep put them."""
    config = parse_experiment_config(MINI_CONFIG)
    n, m = config.n_grid[1], config.schedule.resolve(config.n_grid[1])
    total = harness.mse_upper_bound(config.field, config.deployment, n, m, config.c).total
    real = harness.monte_carlo_mse

    def lifted(*args, **kwargs):
        sweep = real(*args, **kwargs)
        means = list(sweep.means)
        means[1] = total + excess * sweep.ci_half[1]
        return dataclasses.replace(sweep, means=tuple(means))

    monkeypatch.setattr(harness, "monte_carlo_mse", lifted)
    outcome = run_experiment(config, tmp_path)
    assert outcome.dominance_violations == violations


def test_no_run_needs_scipy(tmp_path):
    """With scipy unimportable, the package imports, runs a sweep, and runs
    a battery at one and at two workers; the process pool loads only for
    two workers."""
    probe = ("import json, sys\n"
             "sys.modules['scipy'] = None  # every import of scipy now fails\n"
             "import ditherfield\n"
             "pool = ['concurrent.futures.process', 'multiprocessing']\n"
             "loaded = [[m in sys.modules for m in pool]]\n"
             "config = ditherfield.parse_experiment_config(json.loads(sys.argv[1]))\n"
             "assert ditherfield.run_experiment(config, sys.argv[2]).status == 'PASS'\n"
             "loaded.append([m in sys.modules for m in pool])\n"
             "for workers in (1, 2):\n"
             "    ditherfield.run_lemma_battery(trials=2, workers=workers)\n"
             "    loaded.append([m in sys.modules for m in pool])\n"
             "print(json.dumps(loaded))\n")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(MINI_CONFIG), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[False, False]] * 3 + [[True, True]]


@pytest.mark.parametrize("command", ["run", "check-conditions"])
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


def test_cli_seed_above_u64_exits_2(tmp_path):
    config_path = tmp_path / "mini.json"
    config_path.write_text(json.dumps(MINI_CONFIG))
    proc = subprocess.run(
        [sys.executable, "-m", "ditherfield.cli", "run", str(config_path),
         "--seed", str(2 ** 64), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "seed: must be at most 18446744073709551615" in proc.stderr
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


_SOBOLEV = {"class": "sobolev", "s": 1.0, "seed": 7}


@pytest.mark.parametrize("key, value, ok", [
    ("n_grid", [256, harness.N_GRID_MAX], True),
    ("n_grid", [256, harness.N_GRID_MAX + 1], False),
    ("n_grid", [256, 1e18], False),
    ("trials", (1 << 32) - 1, True),
    ("trials", 1 << 32, False),
    ("trials", [12, 12, 12, 1 << 40], False),
    ("field", dict(_SOBOLEV, n_freqs=SOBOLEV_FREQS_MAX), True),
    *[("field", dict(_SOBOLEV, n_freqs=n_freqs), False)
      for n_freqs in (-1, 0, SOBOLEV_FREQS_MAX + 1, 1 << 40)]])
def test_counts_are_capped_at_parse_time(key, value, ok):
    """Parsed only: a config at a cap is never run here, and a section is
    checked before anything of its size is allocated (n_freqs = -1 used to
    read numpy's negative dimensions)."""
    assert harness.N_GRID_MAX >= 10 ** 6  # the shipped trace checkpoints
    doc = dict(MINI_CONFIG, **{key: value})
    if ok:
        assert parse_experiment_config(doc) is not None
    else:
        # a sobolev section's count range comes from its constructor's count rule
        cap = rf"in \[1, {SOBOLEV_FREQS_MAX}\]" if key == "field" else "at most"
        with pytest.raises(ConfigValidationError, match=f"{key}: .* {cap}"):
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


def test_a_non_finite_sweep_fails_unfitted(tmp_path, monkeypatch):
    """A NaN mean reaches the `finite` verdict and a null fit, not a traceback
    in `rate_fit` or in the rate criterion that reads the fit."""
    real = harness.monte_carlo_mse

    def nan_first(*args, **kwargs):
        sweep = real(*args, **kwargs)
        return dataclasses.replace(sweep, means=(math.nan,) + sweep.means[1:])

    monkeypatch.setattr(harness, "monte_carlo_mse", nan_first)
    outcome = run_experiment(parse_experiment_config(MINI_CONFIG), tmp_path)
    assert outcome.status == "FAIL" and outcome.fit is None
    assert "non-finite mse values: VIOLATED" in outcome.detail
    report = json.loads((tmp_path / "mini_report.json").read_text())
    assert report["status"] == "FAIL" and report["rate_fit"] is None
    row = harness.ACCEPTANCE[1].judge({"bv_sawtooth": outcome})
    assert row.statistic is None and not row.passed


def test_a_schedule_may_not_ask_for_more_coefficients_than_sensors():
    doc = dict(MINI_CONFIG, schedule={"kind": "fixed", "m": 300})
    with pytest.raises(ConfigValidationError, match=r"schedule: m\(n\) must not exceed n, "
                                                    r"but m\(256\) = 300"):
        parse_experiment_config(doc)
    doc["schedule"] = {"kind": "finite_dim", "k": 1e308}
    with pytest.raises(ConfigValidationError, match="schedule: m"):
        parse_experiment_config(doc)
    assert parse_experiment_config(dict(doc, schedule={"kind": "fixed", "m": 256}))


@pytest.mark.parametrize("schedule", [{"kind": "bv"}, {"kind": "finite_dim", "k": 5}])
@pytest.mark.parametrize("n", [1e308, 2 ** 1100])
def test_a_sensor_count_past_floats_is_a_config_error(schedule, n):
    """m(n) of such an n raised a bare OverflowError out of the parser, or
    a ValueError of the schedule's own count rule."""
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(dict(MINI_CONFIG, schedule=schedule, n_grid=[64, n]))
    assert err.value.problems == [f"n_grid: entries must be at most {harness.N_GRID_MAX}"]


@pytest.mark.parametrize("key, change", [
    ("noise", {"kind": "uniform_sym", "b": 1e308}),
    ("field", {"class": "finite_dim", "coefficients": [[0.1, 0.0]], "amplitude_bound": 1e308}),
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
_FUZZ_VALUES = (0, -1, 1e308, 1 << 40, 2.5, "text", None, "1", [0.5], {}, True, _DROP)
# the shipped configs, and one that sets the size key none of them sets
_FUZZ_DOCS = {**{name: _shipped_doc(name) for name in _SHIPPED},
              "sized": dict(MINI_CONFIG, field=dict(_SOBOLEV, n_freqs=32))}


def _every_path(doc, path=()):
    """Paths of every dict entry and list element, nested ones included."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    return [p for key, value in items
            for p in [path + (key,)] + _every_path(value, path + (key,))]


# a problem starts with the key paths it names, and leaks no Python internals
_PATH = r"[A-Za-z]\w*(?:\.\w+|\[\d+\])*"
_PROBLEM_PATHS = re.compile(rf"{_PATH}(?:, {_PATH})*: ")
_INTERNALS = re.compile(r"not supported between instances|positional argument|keyword argument"
                        r"|dictionary update sequence|is not iterable|string indices"
                        r"|unhashable|negative dimensions|(?<![\w.])_\w")

_FUZZ_TARGETS = [(name, path) for name, doc in _FUZZ_DOCS.items() for path in _every_path(doc)]


@given(st.sampled_from(_FUZZ_TARGETS), st.sampled_from(_FUZZ_VALUES))
@settings(max_examples=300, deadline=None)
def test_a_fuzzed_config_is_rejected_or_runs_to_finite_errors(target, value):
    """Either parsing raises ConfigValidationError, each problem naming its
    key paths first and one of them the fuzzed key, or a 2-trial run on
    n <= 512 judges the declared tolerances and reports finite numbers, and
    its sweep finishes with finite means and standard deviations."""
    name, path = target
    doc = json.loads(json.dumps(_FUZZ_DOCS[name]))
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
    except ConfigValidationError as exc:
        for line in exc.problems:
            assert _PROBLEM_PATHS.match(line) and not _INTERNALS.search(line), line
        # some problem names the fuzzed key, a key above it or one below it
        fuzzed = _key_path(path)
        named = [p for line in exc.problems for p in line.split(": ", 1)[0].split(", ")]
        assert any(fuzzed.startswith(p) or p.startswith(fuzzed) for p in named), exc.problems
        return
    grid = (64, 128, 256, 512)
    small = parse_experiment_config(dict(doc, n_grid=list(grid), trials=2))
    with tempfile.TemporaryDirectory() as out:
        outcome = run_experiment(small, out)
    assert "finite" not in outcome.verdicts, outcome.detail
    # the sweep alone, which a run of a rejected deployment never reaches
    sweep = monte_carlo_mse(config.field, config.deployment, config.noise, config.schedule,
                            grid, 2, seed=config.seed)
    assert np.all(np.isfinite(sweep.means)) and np.all(np.isfinite(sweep.stds))


@pytest.mark.parametrize("key, value, problem", [
    ("slope_range", "text", "acceptance.slope_range: expected a list, got str 'text'"),
    ("slope_range", None, "acceptance.slope_range: expected a list, got null"),
    ("slope_range", [-0.5], "acceptance: slope_range must be [lo, hi] with lo <= hi"),
    ("slope_range", 2.5, "acceptance.slope_range: expected a list, got float 2.5"),
    ("slope_range", [-0.35, -0.65], "acceptance: slope_range must be [lo, hi] with lo <= hi"),
    ("slope_range", ["x", 1.0],
     "acceptance.slope_range[0]: expected a finite number, got str 'x'"),
    ("slope_range", [-1.0, math.nan],
     "acceptance.slope_range[1]: expected a finite number, got float nan"),
    ("r2_min", "0.9", "acceptance.r2_min: expected a finite number, got str '0.9'"),
    ("r2_min", None, "acceptance.r2_min: expected a finite number, got null"),
    ("r2_min", True, "acceptance.r2_min: expected a finite number, got bool True"),
    ("trace_ratio_max", math.inf,
     "acceptance.trace_ratio_max: expected a finite number, got float inf"),
    ("trace_ratio_max", None, "acceptance.trace_ratio_max: expected a finite number, got null"),
    ("bound_dominance", 0, "acceptance.bound_dominance: expected true or false, got int 0"),
    ("bound_dominance", None, "acceptance.bound_dominance: expected true or false, got null"),
    ("expect_rejected", "false",
     "acceptance.expect_rejected: expected true or false, got str 'false'"),
    ("expect_rejected", None, "acceptance.expect_rejected: expected true or false, got null")],
    ids=["slope_range_string", "slope_range_null", "slope_range_one", "slope_range_number",
         "slope_range_reversed", "slope_range_entry_string", "slope_range_entry_nan",
         "r2_min_string", "r2_min_null", "r2_min_bool", "trace_ratio_max_inf",
         "trace_ratio_max_null", "bound_dominance_int", "bound_dominance_null",
         "expect_rejected_string", "expect_rejected_null"])
def test_acceptance_values_are_checked_at_parse_time(key, value, problem):
    """A malformed verdict rule used to parse and then end a finished sweep
    with a TypeError or ValueError. A tolerance is declared by its value, so
    a null one is a problem, not a verdict silently dropped."""
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(dict(MINI_CONFIG, acceptance={key: value}))
    assert err.value.problems == [problem]


_FIT = analysis.RateFitResult(slope=-0.5, intercept=0.0, r_squared=0.99, n_grid=(),
                              mse_values=())
_TRACE = types.SimpleNamespace(sup_error=(0.4, 0.1), sup_ratio=0.25)
_JUDGED = {"slope_range": ("slope -0.5000 in [-0.65, -0.35]", True),
           "r2_min": ("r2 0.99000 >= 0.995", False),
           "bound_dominance": ("bound dominance violations 1", False),
           "expect_rejected": ("ran, expect_rejected false", True),
           "trace_ratio_max": ("sup|S| 4.0000e-01 -> 1.0000e-01 (ratio 0.2500 < 0.3)", True)}


@pytest.mark.parametrize("declared, judged", [
    ({}, []),
    ({"slope_range": [-0.65, -0.35]}, ["slope_range"]),
    ({"r2_min": 0.995}, ["r2_min"]),
    ({"bound_dominance": True}, ["bound_dominance"]),
    ({"bound_dominance": False}, []),
    ({"expect_rejected": False}, ["expect_rejected"]),
    ({"trace_ratio_max": 0.3}, ["trace_ratio_max"]),
    ({"trace_ratio_max": 0.3, "expect_rejected": False, "bound_dominance": True,
      "r2_min": 0.995, "slope_range": [-0.65, -0.35]}, list(_JUDGED))],
    ids=["none", "slope_range", "r2_min", "bound_dominance", "bound_dominance_false",
         "expect_rejected", "trace_ratio_max", "all"])
def test_judge_judges_a_tolerance_only_where_it_is_declared(declared, judged):
    """Each declared tolerance gives one check, in declaration order, on the
    evidence of a sweep that went ahead and of a trace; none without it."""
    accept = harness.Acceptance(**declared)
    verdicts = accept.judge(fit=_FIT, violations=1, rejected=False, trace=_TRACE)
    assert list(verdicts.items()) == [(key, _JUDGED[key]) for key in judged]
    assert accept.judge() == {}


@pytest.mark.parametrize("declared, ok", [
    ({"expect_rejected": True}, True),
    ({"expect_rejected": False}, False),
    ({}, False),
    ({"slope_range": [-0.65, -0.35], "r2_min": 0.9, "bound_dominance": True}, False)],
    ids=["expected", "declared_false", "undeclared", "rate_tolerances_only"])
def test_judge_passes_a_rejection_only_under_expect_rejected_true(declared, ok):
    verdicts = harness.Acceptance(**declared).judge(rejected=True)
    assert verdicts == {"expect_rejected": (f"rejected, expect_rejected {json.dumps(ok)}", ok)}


def test_a_trace_ratio_equal_to_its_bound_fails():
    """The ratio must lie strictly below trace_ratio_max."""
    verdicts = harness.Acceptance(trace_ratio_max=0.25).judge(trace=_TRACE)
    assert verdicts == {"trace_ratio_max": (
        "sup|S| 4.0000e-01 -> 1.0000e-01 (ratio 0.2500 >= 0.25)", False)}


def test_a_parsed_config_holds_no_list():
    """Lists convert to tuples, so the frozen tolerances hash and the grid,
    the trial counts and the slope range cannot change in place."""
    config = load_shipped_config("bv_sawtooth")
    accept = config.acceptance
    assert accept.slope_range == (-0.65, -0.35)
    assert hash(accept) == hash(harness.Acceptance([-0.65, -0.35], 0.95, True))
    assert config.n_grid == (1024, 4096, 16384, 65536, 262144)
    assert config.trials == (200, 200, 200, 50, 50)
    assert parse_experiment_config(MINI_CONFIG).trials == (12,) * 4

"""Acceptance suite: criteria 1-10 as `harness.ACCEPTANCE` judges them on one
run of each suite, the same rows `ditherfield suite all` writes; every bound
of the table pinned as a literal; and the three checks that are not
deterministic outcomes or stay off the CLI's import path: criterion 1's
runtime, criterion 11 (the quadrature oracle) and criterion 12 (byte identity).

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from ditherfield import (FourierBasis, ReconstructionCoefficients, harness,
                         integrated_squared_error, load_shipped_config,
                         make_finite_dim_field, run_experiment, run_suite,
                         true_coefficients)
from ditherfield.fields import synthesize

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
    [row] = [r for r in result.rows if r.criterion == entry.number]
    assert row.bound == BOUNDS[entry.number]
    criterion(entry.number, row.passed, row.line)


def test_criterion_1_runtime(rates):
    _, _, elapsed = rates
    criterion(1, elapsed <= 300.0, f"the three rate experiments ran in {elapsed:.1f}s <= 300s")


def test_criterion_11_parseval_oracle_equivalence():
    rng = np.random.default_rng(1234)
    basis = FourierBasis()
    worst = 0.0
    for _ in range(20):
        n_pairs = int(rng.integers(1, 4))
        values = [complex(rng.uniform(-1, 1), 0)]
        for _ in range(n_pairs):
            re, im = rng.uniform(-0.6, 0.6, 2)
            values.extend([complex(re, -im), complex(re, im)])
        field = make_finite_dim_field(values, amplitude_bound=5.0, basis=basis)
        m = int(rng.integers(1, len(values) + 1))
        hat_vals = rng.uniform(-0.7, 0.7, m) + 1j * rng.uniform(-0.7, 0.7, m)
        hat = ReconstructionCoefficients(values=hat_vals, n_used=1)
        cv = true_coefficients(field, basis, len(values))
        fast = integrated_squared_error(hat, cv, field)

        def integrand(x):
            f_hat = complex(synthesize(basis, hat_vals, np.array([x]))[0])
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

"""Every argument guard of the sensor, field, estimator, analysis, harness
and kernel layers, reached in process with its message: a bad argument fails
at the boundary with a clear error, never mid-sweep or as a silent number."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherfield import (AffineFloorDeployment, EstimatorConfig, FieldSpec,
                         FiniteDimField, FourierBasis, SawtoothField,
                         SensorBatch, TruncationSchedule,
                         TwoPointNoise, UniformDeployment, UniformSymNoise,
                         ZeroNoise, as_error_trace, check_consistency_conditions,
                         estimate_coefficients, integrated_squared_error,
                         m_term_error, make_finite_dim_field,
                         make_sobolev_field, monte_carlo_mse, mse_upper_bound,
                         rate_fit, run_lemma_battery, run_suite,
                         simulate_batch, stream_keys, trial_seed,
                         true_coefficients, validate_as_schedule)
from ditherfield.estimator import sensor_weights
from ditherfield.fields import as_grid
from ditherfield.harness import N_GRID_MAX, ConfigValidationError, parse_experiment_config
from ditherfield.sensing import SENSORS_MAX
from ditherfield.spectral import ConjSums

from conftest import HIGH_PAIR

SAWTOOTH = SawtoothField()
UNIFORM, FOURIER = UniformDeployment(), FourierBasis()
BATCH = simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 8, 1)
CFG = EstimatorConfig(basis=FOURIER, density=UNIFORM, c=BATCH.c,
                      schedule=TruncationSchedule.bv())
# a batch drawn with c = 0.5 + 1.0, and a config with twice its range
NOISY_BATCH = simulate_batch(SAWTOOTH, UNIFORM, UniformSymNoise(b=1.0), 8, 1)
WIDE_CFG = EstimatorConfig(basis=FOURIER, density=UNIFORM, c=3.0,
                           schedule=TruncationSchedule.bv())
EMPTY = SensorBatch(x=np.empty(0), y=np.empty(0), t=np.empty(0), bits=np.empty(0), c=1.0)
# the range of a sensor count whose powers and reciprocals a float holds, as the
# count rule and a grid's reader (`as_grid`) state it
TO_SENSORS_MAX = f"must be an integer in [1, {SENSORS_MAX}]"
IN_SENSORS_MAX = f"expected an integer in [1, {SENSORS_MAX}]"

# (id, call, exception type, message: the whole text for an empty one,
# else a part of it)
GUARDS = [
    # sensing
    ("spawn_keys_not_2d", lambda: stream_keys(1, [1, 2]), ValueError,
     "spawn keys must be an (R, L) array"),
    ("no_sensor", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 0, 1), ValueError,
     "n must be an integer >= 1, got 0"),
    ("signed_words", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 4,
                                            trial_seed(1).astype(np.int64)), ValueError,
     "stream keys must be a (3, 4) or (R, 3, 4) uint64 array"),
    ("simulate_fractional_n", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 2.5, 1),
     ValueError, "n must be an integer >= 1, got 2.5"),
    ("simulate_bool_n", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), True, 1),
     ValueError, "n must be an integer >= 1, got True"),
    ("simulate_fractional_start",
     lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 4, 1, 1.5), ValueError,
     "start must be an integer >= 0, got 1.5"),
    ("seed_fraction", lambda: stream_keys(1.5, [()]), ValueError,
     "seed must be an integer in [0, 18446744073709551615], got 1.5"),
    ("spawn_entry_fraction", lambda: stream_keys(1, [(0.5,)]), ValueError,
     "each spawn-key entry must be an integer, got 0.5"),
    ("floor_bool", lambda: AffineFloorDeployment(nu=True), ValueError,
     "nu must be a finite number, got True"),
    ("floor_negative", lambda: AffineFloorDeployment(nu=-0.1), ValueError,
     "nu must lie in [0, 1], got -0.1"),
    ("uniform_noise_bool", lambda: UniformSymNoise(b=True), ValueError,
     "b must be a finite number, got True"),
    ("two_point_noise_bool", lambda: TwoPointNoise(b=True), ValueError,
     "b must be a finite number, got True"),
    ("uniform_noise_negative", lambda: UniformSymNoise(b=-1), ValueError,
     "noise bound b must be positive, got -1.0"),
    ("two_point_noise_negative", lambda: TwoPointNoise(b=-2), ValueError,
     "noise bound b must be positive, got -2.0"),
    # sensors 2^66 on would carry the counter into the spawn-key word and read
    # another realization's draws
    ("sensor_window_past_2_66",
     lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 8, stream_keys(7, [(0,)]),
                            (1 << 66) - 4), ValueError,
     "start + n must be at most 2^66: sensor i is drawn at Philox counter word i // 4, "
     "which past 2^64 carries into the spawn-key word; got 73786976294838206468"),
    ("sensor_start_2_70", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 4, 1, 2 ** 70),
     ValueError, "start + n must be at most 2^66: sensor i is drawn at Philox counter word "
                 "i // 4, which past 2^64 carries into the spawn-key word; got "
                 "1180591620717411303428"),
    # fields
    ("abstract_eval", lambda: FieldSpec().eval(0.5), NotImplementedError, ""),
    ("abstract_fourier", lambda: FieldSpec().fourier_coefficients(np.arange(3)),
     NotImplementedError, ""),
    ("no_coefficient", lambda: FiniteDimField(values=np.zeros(0),
                                              amplitude_bound=1.0), ValueError,
     "need at least one coefficient"),
    ("coefficient_nan", lambda: FiniteDimField(values=np.array([np.nan]),
                                               amplitude_bound=1.0), ValueError,
     "coefficients must be finite"),
    ("amplitude_zero", lambda: FiniteDimField(values=np.array([0.1]),
                                              amplitude_bound=0.0), ValueError,
     "amplitude_bound must be positive, got 0.0"),
    ("finite_dim_negative_amplitude", lambda: make_finite_dim_field([0.1], amplitude_bound=-1.0),
     ValueError, "amplitude_bound must be positive, got -1.0"),
    ("constant_not_real", lambda: FiniteDimField(values=np.array([0.5j]),
                                                 amplitude_bound=1.0), ValueError,
     "coefficient of the constant function must be real"),
    ("broken_conjugates", lambda: FiniteDimField(values=np.array([0.0, 0.1 + 0.1j, 0.2]),
                                                 amplitude_bound=1.0), ValueError,
     "coefficients 1 and 2 are not conjugate partners"),
    ("amplitude_exceeded", lambda: make_finite_dim_field([1.0], amplitude_bound=0.5),
     ValueError, "field may exceed its amplitude bound: sup|f| is up to 1 > a = 0.5"),
    ("finite_dim_amplitude_exceeded",
     lambda: FiniteDimField(values=[0, 2, 2], amplitude_bound=0.5),
     ValueError, "field may exceed its amplitude bound: sup|f| is up to 4 > a = 0.5"),
    # the pair at frequency 2500 peaks between the points of a 20001-point grid
    ("finite_dim_high_frequency_amplitude_exceeded",
     lambda: make_finite_dim_field(HIGH_PAIR, amplitude_bound=0.93), ValueError,
     "field may exceed its amplitude bound: sup|f| is up to 1 > a = 0.93"),
    ("sobolev_smoothness", lambda: make_sobolev_field(0.5, seed=1), ValueError,
     "smoothness order s must exceed 1/2, got 0.5"),
    ("sobolev_no_frequency", lambda: make_sobolev_field(1.0, seed=1, n_freqs=0), ValueError,
     "n_freqs must be an integer in [1, 8192], got 0"),
    ("sobolev_bool_smoothness", lambda: make_sobolev_field(True, 7), ValueError,
     "s must be a finite number, got True"),
    ("finite_dim_bool_amplitude", lambda: make_finite_dim_field([0.1], True), ValueError,
     "amplitude_bound must be a finite number, got True"),
    ("sobolev_negative_seed", lambda: make_sobolev_field(1.0, seed=-1), ValueError,
     "seed must be an integer >= 0, got -1"),
    ("sobolev_bool_freqs", lambda: make_sobolev_field(1.0, 7, n_freqs=True), ValueError,
     "n_freqs must be an integer in [1, 8192], got True"),
    ("sobolev_fractional_seed", lambda: make_sobolev_field(1.0, seed=7.5), ValueError,
     "seed must be an integer >= 0, got 7.5"),
    ("sobolev_negative_amplitude",
     lambda: make_sobolev_field(1.0, seed=7, amplitude_bound=-1.0, n_freqs=2), ValueError,
     "amplitude_bound must be positive, got -1.0"),
    ("sawtooth_takes_no_shape", lambda: SawtoothField(shape="step"), TypeError,
     "unexpected keyword argument 'shape'"),
    ("true_count_zero", lambda: true_coefficients(SAWTOOTH, 0), ValueError,
     "count must be an integer >= 1, got 0"),
    ("true_count_fraction", lambda: true_coefficients(SAWTOOTH, 2.5), ValueError,
     "count must be an integer >= 1, got 2.5"),
    ("true_count_bool", lambda: true_coefficients(SAWTOOTH, True), ValueError,
     "count must be an integer >= 1, got True"),
    ("tail_negative_m", lambda: m_term_error(true_coefficients(SAWTOOTH, 2),
                                             SAWTOOTH, -1), ValueError,
     "m must be an integer >= 0, got -1"),
    ("tail_fractional_m", lambda: m_term_error(true_coefficients(SAWTOOTH, 3), SAWTOOTH, 2.5),
     ValueError, "m must be an integer >= 0, got 2.5"),
    # estimator
    ("schedule_empty", lambda: TruncationSchedule(), ValueError,
     "a truncation schedule holds exactly one of m and psi, got m=None, psi=None"),
    ("schedule_both", lambda: TruncationSchedule(m=3, psi=0.5), ValueError,
     "a truncation schedule holds exactly one of m and psi, got m=3, psi=0.5"),
    ("schedule_nan", lambda: TruncationSchedule(psi=np.nan), ValueError,
     "psi must be a finite number, got nan"),
    ("fixed_zero", lambda: TruncationSchedule.fixed(0), ValueError,
     "m must be an integer >= 1, got 0"),
    ("fixed_fraction", lambda: TruncationSchedule(m=2.5), ValueError,
     "m must be an integer >= 1, got 2.5"),
    ("fixed_bool", lambda: TruncationSchedule.fixed(True), ValueError,
     "m must be an integer >= 1, got True"),
    ("finite_dim_fraction", lambda: TruncationSchedule.finite_dim(4.5), ValueError,
     "k must be an integer >= 1, got 4.5"),
    ("sobolev_schedule_half", lambda: TruncationSchedule.sobolev(0.5), ValueError,
     "smoothness order s must exceed 1/2, got 0.5"),
    ("sobolev_schedule_bool", lambda: TruncationSchedule.sobolev(True), ValueError,
     "s must be a finite number, got True"),
    ("power_bool", lambda: TruncationSchedule.power(True), ValueError,
     "psi must be a finite number, got True"),
    ("power_zero", lambda: TruncationSchedule.power(0.0), ValueError,
     "psi must lie in (0, 1], got 0.0"),
    ("power_above_one", lambda: TruncationSchedule.power(1.5), ValueError,
     "psi must lie in (0, 1], got 1.5"),
    ("direct_psi_negative", lambda: TruncationSchedule(psi=-0.5), ValueError,
     "psi must lie in (0, 1], got -0.5"),
    ("resolve_zero", lambda: TruncationSchedule.bv().resolve(0), ValueError,
     f"n {TO_SENSORS_MAX}, got 0"),
    ("resolve_fractional_n", lambda: TruncationSchedule.bv().resolve(100.5), ValueError,
     f"n {TO_SENSORS_MAX}, got 100.5"),
    ("resolve_bool_n", lambda: TruncationSchedule.bv().resolve(True), ValueError,
     f"n {TO_SENSORS_MAX}, got True"),
    # n ** psi of an n past a float's range raised a bare OverflowError
    ("resolve_n_past_floats", lambda: TruncationSchedule.bv().resolve(2 ** 1100), ValueError,
     f"n {TO_SENSORS_MAX}, got {2 ** 1100}"),
    ("range_zero", lambda: EstimatorConfig(basis=FOURIER, density=UNIFORM, c=0.0,
                                           schedule=TruncationSchedule.bv()), ValueError,
     "dynamic range c must be positive, got 0.0"),
    ("range_nan", lambda: EstimatorConfig(basis=FOURIER, density=UNIFORM, c=float("nan"),
                                          schedule=TruncationSchedule.bv()), ValueError,
     "c must be a finite number, got nan"),
    ("empty_batch", lambda: sensor_weights(EMPTY, UNIFORM), ValueError, "empty batch"),
    ("no_estimate", lambda: estimate_coefficients(BATCH, CFG, 0), ValueError,
     "m must be an integer >= 1, got 0"),
    ("estimate_fractional_m", lambda: estimate_coefficients(BATCH, CFG, 2.5), ValueError,
     "m must be an integer >= 1, got 2.5"),
    ("estimate_bool_m", lambda: estimate_coefficients(BATCH, CFG, True), ValueError,
     "m must be an integer >= 1, got True"),
    ("estimate_other_range", lambda: estimate_coefficients(NOISY_BATCH, WIDE_CFG, 4),
     ValueError, "estimator c = 3.0 is not the batch's c = 1.5, the range its "
                 "thresholds were drawn from"),
    # analysis
    ("bound_no_sensor", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 0, 1, 1.0),
     ValueError, f"n {TO_SENSORS_MAX}, got 0"),
    ("bound_n_past_floats", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 2 ** 1100, 4, 1.5),
     ValueError, f"n {TO_SENSORS_MAX}, got {2 ** 1100}"),
    ("bound_negative_m", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 10, -1, 1.0),
     ValueError, "m must be an integer >= 0, got -1"),
    ("bound_fractional_n", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 100.5, 3, 1.5),
     ValueError, f"n {TO_SENSORS_MAX}, got 100.5"),
    ("bound_fractional_m", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 100, 3.5, 1.5),
     ValueError, "m must be an integer >= 0, got 3.5"),
    ("bound_nan_range", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 10, 3, float("nan")),
     ValueError, "c must be a finite number, got nan"),
    ("bound_negative_range", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 10, 3, -1.5),
     ValueError, "dynamic range c must be positive, got -1.5"),
    ("bound_zero_range", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 10, 3, 0),
     ValueError, "dynamic range c must be positive, got 0.0"),
    ("conditions_empty_grid",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, []),
     ValueError, "n_grid: expected at least one count, got none"),
    ("conditions_grid_order",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, [10, 10]),
     ValueError, "n_grid[1]: expected an integer above n_grid[0] = 10, got 10"),
    ("conditions_fractional_n",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, [100.5, 1000]),
     ValueError, f"n_grid[0]: {IN_SENSORS_MAX}, got 100.5"),
    ("conditions_bool_n",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, [True, 4]),
     ValueError, f"n_grid[0]: {IN_SENSORS_MAX}, got True"),
    ("conditions_n_past_floats",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, [10, 2 ** 1100]),
     ValueError, f"n_grid[1]: {IN_SENSORS_MAX}, got {2 ** 1100}"),
    ("error_short_truth",
     lambda: integrated_squared_error(estimate_coefficients(BATCH, CFG, 3),
                                      true_coefficients(SAWTOOTH, 2), SAWTOOTH),
     ValueError, "need at least 3 true coefficients, got 2"),
    ("fit_three_points", lambda: rate_fit([10, 20, 40], [1.0, 0.5, 0.25]), ValueError,
     "need at least 4 (n, mse) points"),
    ("fit_zero_mse", lambda: rate_fit([10, 20, 40, 80], [1.0, 0.5, 0.0, 0.1]), ValueError,
     "mse values must be positive for a log-log fit"),
    ("fit_nan_mse", lambda: rate_fit([10, 20, 40, 80], [1, np.nan, 0.25, 0.125]),
     ValueError, "each mse value must be a finite number, got nan"),
    ("fit_inf_mse", lambda: rate_fit([10, 20, 40, 80], [1, 0.5, np.inf, 0.125]),
     ValueError, "each mse value must be a finite number, got inf"),
    ("fit_negative_inf_mse", lambda: rate_fit([10, 20, 40, 80], [1, 0.5, 0.25, -np.inf]),
     ValueError, "each mse value must be a finite number, got -inf"),
    ("fit_negative_n", lambda: rate_fit([-10, 20, 40, 80], [1.0, 0.5, 0.25, 0.125]),
     ValueError, f"n_grid[0]: {IN_SENSORS_MAX}, got -10"),
    ("fit_fractional_n", lambda: rate_fit([10.5, 20, 40, 80], [1.0, 0.5, 0.25, 0.125]),
     ValueError, f"n_grid[0]: {IN_SENSORS_MAX}, got 10.5"),
    ("fit_n_past_floats", lambda: rate_fit([10, 20, 40, 2 ** 1100], [1.0, 0.5, 0.25, 0.125]),
     ValueError, f"n_grid[3]: {IN_SENSORS_MAX}, got {2 ** 1100}"),
    ("fit_grid_order", lambda: rate_fit([10, 10, 10, 10], [1, 2, 3, 4]), ValueError,
     "n_grid[1]: expected an integer above n_grid[0] = 10, got 10"),
    ("sweep_trial_counts",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10, 20], [5], seed=1), ValueError, "need one trial count per n"),
    ("sweep_trial_count_table",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10, 20], np.array([[2], [3]]), seed=1), ValueError,
     "need one trial count, or one per n"),
    ("sweep_one_trial",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10], 1, seed=1), ValueError,
     "trials must be an integer >= 2, got 1"),
    ("sweep_fractional_n",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [500.5, 2000], 2, seed=1), ValueError,
     f"n_grid[0]: {IN_SENSORS_MAX}, got 500.5"),
    ("sweep_n_past_floats",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [2 ** 1100], 2, seed=1), ValueError,
     f"n_grid[0]: {IN_SENSORS_MAX}, got {2 ** 1100}"),
    ("sweep_fractional_trials",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [500, 2000], 2.5, seed=1), ValueError,
     "trials must be an integer >= 2, got 2.5"),
    ("sweep_fractional_trial_counts",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [500, 2000], [2.7, 3.2], seed=1), ValueError,
     "each trials entry must be an integer >= 2, got 2.7"),
    ("sweep_fractional_workers",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10], 2, seed=1, workers=1.5), ValueError,
     "workers must be an integer in [1, 64], got 1.5"),
    ("sweep_bool_workers",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10], 2, seed=1, workers=True), ValueError,
     "workers must be an integer in [1, 64], got True"),
    ("schedule_psi", lambda: validate_as_schedule(1.0, 1.5, UNIFORM, [SAWTOOTH]), ValueError,
     "psi must lie in (0, 1), got 1.0"),
    ("schedule_psi_zero", lambda: validate_as_schedule(0.0, 1.5, UNIFORM, [SAWTOOTH]),
     ValueError, "psi must lie in (0, 1), got 0.0"),
    ("schedule_fields_required", lambda: validate_as_schedule(0.5, 1.5, UNIFORM), TypeError,
     "missing 1 required positional argument: 'fields'"),
    ("schedule_bool_gamma", lambda: validate_as_schedule(0.5, True, UNIFORM, [SAWTOOTH]),
     ValueError,
     "gamma must be a finite number, got True"),
    ("schedule_no_field", lambda: validate_as_schedule(0.5, 1.5, UNIFORM, fields=[]), ValueError,
     "fields must hold at least one field"),
    ("trace_psi", lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 1.0, 1, [10]),
     ValueError, "psi must lie in (0, 1), got 1.0"),
    ("trace_psi_zero", lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 0.0, 1, [10]),
     ValueError, "psi must lie in (0, 1), got 0.0"),
    ("trace_no_checkpoint", lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 0.5, 1, []),
     ValueError, "n_checkpoints: expected at least one count, got none"),
    ("trace_fractional_checkpoint",
     lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 0.5, 1, [10, 20.5]), ValueError,
     f"n_checkpoints[1]: {IN_SENSORS_MAX}, got 20.5"),
    ("trace_checkpoint_past_floats",
     lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 0.5, 1, [10, 2 ** 1100]), ValueError,
     f"n_checkpoints[1]: {IN_SENSORS_MAX}, got {2 ** 1100}"),
    # harness
    ("battery_one_trial", lambda: run_lemma_battery(trials=1), ValueError,
     "trials must be an integer >= 2, got 1"),
    ("battery_j_count_zero", lambda: run_lemma_battery(j_count=0), ValueError,
     "j_count must be an integer >= 1, got 0"),
    ("battery_j_count_negative", lambda: run_lemma_battery(j_count=-1), ValueError,
     "j_count must be an integer >= 1, got -1"),
    ("battery_fractional_n", lambda: run_lemma_battery(n=100.5), ValueError,
     f"n {TO_SENSORS_MAX}, got 100.5"),
    ("battery_fractional_trials", lambda: run_lemma_battery(trials=2.5), ValueError,
     "trials must be an integer >= 2, got 2.5"),
    ("battery_fractional_j_count", lambda: run_lemma_battery(j_count=2.5), ValueError,
     "j_count must be an integer >= 1, got 2.5"),
    ("battery_bool_n", lambda: run_lemma_battery(n=True), ValueError,
     f"n {TO_SENSORS_MAX}, got True"),
    ("battery_n_past_floats", lambda: run_lemma_battery(n=2 ** 1100), ValueError,
     f"n {TO_SENSORS_MAX}, got {2 ** 1100}"),
    ("unknown_suite", lambda: run_suite("nope", "unwritten"), ValueError,
     "unknown suite 'nope'; choose from"),
    # spectral
    ("sums_past_n", lambda: ConjSums((), 10, 3).add(np.zeros(11), np.zeros(11)), ValueError,
     "more than the declared 10 points per row"),
    ("sums_unfed", lambda: ConjSums((), 10, 3).result(), ValueError,
     "fed 0 of 10 points per row"),
]


@pytest.mark.parametrize("call, kind, message", [case[1:] for case in GUARDS],
                         ids=[case[0] for case in GUARDS])
def test_each_guard_raises_its_message(call, kind, message):
    with pytest.raises(kind) as caught:
        call()
    assert caught.type is kind
    if message:
        assert re.search(re.escape(message), str(caught.value))
    else:
        assert str(caught.value) == ""


# The five readers of a grid of sensor counts, as (id, the name the grid goes
# by, the grid's upper end, the call on a grid); the other arguments are tiny.
GRID_DOC = {"experiment_id": "grid", "field": {"class": "bv"}, "deployment": {"kind": "uniform"},
            "noise": {"kind": "zero"}, "schedule": {"kind": "fixed", "m": 1}, "seed": 1,
            "trials": 2}
GRID_READERS = [
    ("document", "n_grid", N_GRID_MAX,
     lambda grid: parse_experiment_config(dict(GRID_DOC, n_grid=grid))),
    ("check_consistency_conditions", "n_grid", SENSORS_MAX,
     lambda grid: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, grid)),
    ("monte_carlo_mse", "n_grid", SENSORS_MAX,
     lambda grid: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                                  grid, 2, seed=1)),
    ("rate_fit", "n_grid", SENSORS_MAX, lambda grid: rate_fit(grid, [1.0] * len(grid))),
    ("as_error_trace", "n_checkpoints", SENSORS_MAX,
     lambda grid: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 0.5, 1, grid)),
]
# each bad grid, with the one message of `as_grid` for it
BAD_GRIDS = [
    ("empty", [], "{what}: expected at least one count, got none"),
    ("repeat", [10, 10], "{what}[1]: expected an integer above {what}[0] = 10, got 10"),
    ("falls", [20, 10], "{what}[1]: expected an integer above {what}[0] = 20, got 10"),
    ("zero", [0, 5], "{what}[0]: expected an integer in [1, {hi}], got 0"),
    ("fraction", [1.5, 4], "{what}[0]: expected an integer in [1, {hi}], got 1.5"),
    ("bool", [True, 4], "{what}[0]: expected an integer in [1, {hi}], got True"),
    ("past_floats", [4, 2 ** 1100], f"{{what}}[1]: expected an integer in [1, {{hi}}], "
                                    f"got {2 ** 1100}"),
]


@pytest.mark.parametrize("grid, message", [case[1:] for case in BAD_GRIDS],
                         ids=[case[0] for case in BAD_GRIDS])
@pytest.mark.parametrize("what, hi, call", [case[1:] for case in GRID_READERS],
                         ids=[case[0] for case in GRID_READERS])
def test_every_grid_reader_refuses_a_bad_grid_with_the_one_message(what, hi, call, grid,
                                                                   message):
    """A document's n_grid, the consistency check, the sweep, the rate fit and
    the trace read their grid through `as_grid`, so each refuses an empty, a
    repeating, a falling or a non-count grid with its message, naming the
    entry. The sweep used to run an empty grid and an unsorted one."""
    message = message.format(what=what, hi=hi)
    with pytest.raises(ValueError) as own:
        as_grid(grid, what, hi)
    assert str(own.value) == message
    with pytest.raises(ValueError) as caught:
        call(grid)
    if isinstance(caught.value, ConfigValidationError):
        assert caught.value.problems == [message]
    else:
        assert caught.type is ValueError and str(caught.value) == message


def _entry(draw, n: int):
    """`n` in one of the forms a count may take, or a fraction or a bool."""
    return draw(st.sampled_from([n, float(n), np.int64(n), np.uint16(abs(n)), np.float32(n),
                                 n + 0.5, n % 2 == 1]))


@st.composite
def _grid_candidate(draw):
    """(values, hi): a list of count-like entries, sorted half of the time."""
    counts = draw(st.lists(st.integers(-2, 40), max_size=6))
    if draw(st.booleans()):
        counts = sorted(counts)
    return [_entry(draw, n) for n in counts], draw(st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(_grid_candidate())
def test_as_grid_takes_exactly_the_increasing_count_lists(case):
    """`as_grid` returns, as Python ints, exactly the nonempty, strictly
    increasing lists of integral values (never a bool) in [1, hi], and refuses
    every other list with a message that names the grid or one entry."""
    values, hi = case
    integral = [not isinstance(v, (bool, np.bool_)) and float(v).is_integer() for v in values]
    ok = (bool(values) and all(integral) and all(1 <= v <= hi for v in values)
          and all(a < b for a, b in zip(values, values[1:])))
    if ok:
        grid = as_grid(values, "g", hi)
        assert grid == tuple(int(v) for v in values)
        assert all(type(n) is int for n in grid)
    else:
        with pytest.raises(ValueError, match=r"^g(\[\d+\])?: expected "):
            as_grid(values, "g", hi)


# Every count argument of the public entry points, as (id, the rule's message
# for it up to ", got <value>": its name and its range, a valid value, the
# call with that argument set to a value); the other arguments are tiny, so
# that a call takes milliseconds.
BV, TAIL_COEFFS = TruncationSchedule.bv(), true_coefficients(SAWTOOTH, 4)


def _sweep(n_grid=(4,), trials=2, workers=1):
    return monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), BV, n_grid, trials, seed=1,
                           workers=workers).means


AT_LEAST_1 = "must be an integer >= 1"
COUNT_ARGUMENTS = [
    ("true_coefficients.count", f"count {AT_LEAST_1}", 3,
     lambda v: true_coefficients(SAWTOOTH, v).values),
    ("m_term_error.m", "m must be an integer >= 0", 2,
     lambda v: m_term_error(TAIL_COEFFS, SAWTOOTH, v)),
    ("mse_upper_bound.n", f"n {TO_SENSORS_MAX}", 10,
     lambda v: mse_upper_bound(SAWTOOTH, UNIFORM, v, 3, 1.5)),
    ("mse_upper_bound.m", "m must be an integer >= 0", 3,
     lambda v: mse_upper_bound(SAWTOOTH, UNIFORM, 10, v, 1.5)),
    ("resolve.n", f"n {TO_SENSORS_MAX}", 10, BV.resolve),
    ("fixed.m", f"m {AT_LEAST_1}", 3, TruncationSchedule.fixed),
    ("finite_dim.k", f"k {AT_LEAST_1}", 3, TruncationSchedule.finite_dim),
    ("TruncationSchedule.m", f"m {AT_LEAST_1}", 3, lambda v: TruncationSchedule(m=v)),
    ("simulate_batch.n", f"n {AT_LEAST_1}", 4,
     lambda v: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), v, 1).bits),
    ("simulate_batch.start", "start must be an integer >= 0", 2,
     lambda v: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 4, 1, v).bits),
    ("estimate_coefficients.m", f"m {AT_LEAST_1}", 3,
     lambda v: estimate_coefficients(BATCH, CFG, v).values),
    ("make_sobolev_field.n_freqs", "n_freqs must be an integer in [1, 8192]", 2,
     lambda v: make_sobolev_field(1.0, 7, n_freqs=v).values),
    ("make_sobolev_field.seed", "seed must be an integer >= 0", 7,
     lambda v: make_sobolev_field(1.0, v, n_freqs=2).values),
    ("stream_keys.seed", "seed must be an integer in [0, 18446744073709551615]", 7,
     lambda v: stream_keys(v, [(1, 2)])),
    ("stream_keys.entry", "each spawn-key entry must be an integer", 1,
     lambda v: stream_keys(7, [(v, 2)])),
    ("check_consistency_conditions.n", f"n_grid[0]: {IN_SENSORS_MAX}", 10,
     lambda v: check_consistency_conditions(BV, UNIFORM, [v, 1000])),
    ("rate_fit.n", f"n_grid[0]: {IN_SENSORS_MAX}", 10,
     lambda v: rate_fit([v, 20, 40, 80], [1.0, 0.5, 0.25, 0.125])),
    ("monte_carlo_mse.n", f"n_grid[0]: {IN_SENSORS_MAX}", 4,
     lambda v: _sweep(n_grid=[v])),
    ("monte_carlo_mse.trials", "trials must be an integer >= 2", 2, lambda v: _sweep(trials=v)),
    ("monte_carlo_mse.trials_entry", "each trials entry must be an integer >= 2", 2,
     lambda v: _sweep(trials=[v])),
    ("monte_carlo_mse.workers", "workers must be an integer in [1, 64]", 1,
     lambda v: _sweep(workers=v)),
    ("run_lemma_battery.n", f"n {TO_SENSORS_MAX}", 4,
     lambda v: run_lemma_battery(n=v, trials=2, j_count=1).rows),
    ("run_lemma_battery.trials", "trials must be an integer >= 2", 2,
     lambda v: run_lemma_battery(n=4, trials=v, j_count=1).rows),
    ("run_lemma_battery.j_count", f"j_count {AT_LEAST_1}", 1,
     lambda v: run_lemma_battery(n=4, trials=2, j_count=v).rows),
]
# the one range refusal that keeps a message of its own, for the reason it gives
OWN_RANGE_MESSAGES = {"stream_keys.entry": "spawn-key entries must be nonnegative ints of "
                                           "at most 2^64 - 2 (the stream word is entry + 1)"}

NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def _count_argument(draw):
    """(row, kind, value): a value of one kind for one count argument; numpy
    ints and integral floats hold the argument's valid value."""
    row = draw(st.sampled_from(COUNT_ARGUMENTS))
    kind = draw(st.sampled_from(["fraction", "bool", "numpy_int", "integral_float", "negative"]))
    valid = row[2]
    value = {
        "fraction": lambda: draw(st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())),
        "bool": lambda: draw(st.booleans()),
        "numpy_int": lambda: draw(st.sampled_from(NUMPY_INTS))(valid),
        "integral_float": lambda: draw(st.sampled_from([float, np.float64, np.float32]))(valid),
        "negative": lambda: draw(st.sampled_from([int, float, np.int64]))(
            draw(st.integers(-10 ** 6, -1))),
    }[kind]()
    return row, kind, value


@settings(max_examples=150, deadline=None)
@given(_count_argument())
def test_every_count_argument_keeps_the_one_count_rule(case):
    """Each entry point reads each kind of value alike: a fraction, a bool or a
    negative count is refused with the rule's message, which names the argument
    and its range, and a numpy int or an integral float gives, repr for repr,
    what the int gives."""
    (row_id, rule, valid, call), kind, value = case
    if kind in ("fraction", "bool", "negative"):
        with pytest.raises(ValueError) as caught:
            call(value)
        if kind == "negative" and row_id in OWN_RANGE_MESSAGES:
            assert str(caught.value).startswith(OWN_RANGE_MESSAGES[row_id] + ", got ")
        else:
            assert str(caught.value) == f"{rule}, got {value!r}"
    else:
        assert repr(call(value)) == repr(call(valid))


# Every real parameter of an exported constructor or function, as (id, the name
# the real rule's message gives it, a valid value that float32 holds exactly,
# the call with that parameter set to a value).
REAL_ARGUMENTS = [
    ("TruncationSchedule.sobolev.s", "s", 1.5, TruncationSchedule.sobolev),
    ("TruncationSchedule.power.psi", "psi", 1.0, TruncationSchedule.power),
    ("TruncationSchedule.psi", "psi", 0.5, lambda v: TruncationSchedule(psi=v)),
    ("AffineFloorDeployment.nu", "nu", 0.5, lambda v: AffineFloorDeployment(nu=v)),
    ("UniformSymNoise.b", "b", 1.0, lambda v: UniformSymNoise(b=v)),
    ("TwoPointNoise.b", "b", 2.0, lambda v: TwoPointNoise(b=v)),
    ("FiniteDimField.amplitude_bound", "amplitude_bound", 1.0,
     lambda v: FiniteDimField(values=np.array([0.5]), amplitude_bound=v)),
    ("make_finite_dim_field.amplitude_bound", "amplitude_bound", 1.0,
     lambda v: make_finite_dim_field([0.1], v)),
    ("make_sobolev_field.s", "s", 1.0, lambda v: make_sobolev_field(v, 7, n_freqs=2)),
    ("make_sobolev_field.amplitude_bound", "amplitude_bound", 2.0,
     lambda v: make_sobolev_field(1.0, 7, amplitude_bound=v, n_freqs=2)),
    ("EstimatorConfig.c", "c", 1.5,
     lambda v: EstimatorConfig(basis=FOURIER, density=UNIFORM, c=v, schedule=BV)),
    ("mse_upper_bound.c", "c", 1.5, lambda v: mse_upper_bound(SAWTOOTH, UNIFORM, 10, 3, v)),
    ("validate_as_schedule.psi", "psi", 0.5,
     lambda v: validate_as_schedule(v, 1.5, UNIFORM, [SAWTOOTH])),
    ("validate_as_schedule.gamma", "gamma", 3.0,
     lambda v: validate_as_schedule(0.5, v, UNIFORM, [SAWTOOTH])),
    ("as_error_trace.psi", "psi", 0.5,
     lambda v: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), v, 1, [4, 8]).to_json()),
]


@st.composite
def _real_argument(draw):
    """(row, kind, value): a value of one kind for one real argument; an int
    (where the valid value is integral) and numpy floats hold the valid value."""
    row = draw(st.sampled_from(REAL_ARGUMENTS))
    valid = row[2]
    kinds = ["bool", "nan", "inf", "float32", "float64"] + ["int"] * valid.is_integer()
    value = {
        "bool": lambda: draw(st.booleans()),
        "nan": lambda: draw(st.sampled_from([float, np.float64, np.float32]))("nan"),
        "inf": lambda: draw(st.sampled_from([float, np.float64, np.float32]))(
            draw(st.sampled_from(["inf", "-inf"]))),
        "float32": lambda: np.float32(valid),
        "float64": lambda: np.float64(valid),
        "int": lambda: int(valid),
    }[draw(st.sampled_from(kinds))]()
    return row, value


@settings(max_examples=150, deadline=None)
@given(_real_argument())
def test_every_real_argument_keeps_the_one_real_rule(case):
    """Each entry point reads each kind of value alike: a bool, a NaN or an
    infinity is refused with the real rule's message naming the argument, and
    an int, a float32 or a float64 holding a valid value gives, repr for repr,
    what the Python float gives."""
    (_, name, valid, call), value = case
    if isinstance(value, bool) or not np.isfinite(value):
        with pytest.raises(ValueError) as caught:
            call(value)
        assert str(caught.value) == f"{name} must be a finite number, got {value!r}"
    else:
        assert repr(call(value)) == repr(call(valid))

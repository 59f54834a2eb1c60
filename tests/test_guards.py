"""Every argument guard of the sensor, field, estimator, analysis, harness
and kernel layers, reached in process with its message: a bad argument fails
at the boundary with a clear error, never mid-sweep or as a silent number."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherfield import (EstimatorConfig, FieldSpec, FiniteDimField,
                         FourierBasis, PiecewiseConstantField, SensorBatch,
                         TruncationSchedule, UniformDeployment, ZeroNoise,
                         as_error_trace, check_consistency_conditions,
                         estimate_coefficients, integrated_squared_error,
                         m_term_error, make_bv_field, make_finite_dim_field,
                         make_sobolev_field, monte_carlo_mse, mse_upper_bound,
                         rate_fit, run_lemma_battery, run_suite,
                         simulate_batch, stream_keys, trial_seed,
                         true_coefficients, validate_as_schedule)
from ditherfield.estimator import sensor_weights
from ditherfield.spectral import ConjSums

SAWTOOTH = make_bv_field("sawtooth")
UNIFORM, FOURIER = UniformDeployment(), FourierBasis()
BATCH = simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 8, 1)
CFG = EstimatorConfig(basis=FOURIER, density=UNIFORM, c=BATCH.c,
                      schedule=TruncationSchedule.bv())
EMPTY = SensorBatch(x=np.empty(0), y=np.empty(0), t=np.empty(0), bits=np.empty(0), c=1.0)

# (id, call, exception type, message: the whole text for an empty one,
# else a part of it)
GUARDS = [
    # sensing
    ("spawn_keys_not_2d", lambda: stream_keys(1, [1, 2]), ValueError,
     "spawn keys must be an (R, L) array"),
    ("no_sensor", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 0, 1), ValueError,
     "need at least one sensor"),
    ("signed_words", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 4,
                                            trial_seed(1).astype(np.int64)), ValueError,
     "stream keys must be a (3, 4) or (R, 3, 4) uint64 array"),
    ("simulate_fractional_n", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 2.5, 1),
     ValueError, "n must be an integer, got 2.5"),
    ("simulate_bool_n", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), True, 1),
     ValueError, "n must be an integer, got True"),
    ("simulate_fractional_start",
     lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 4, 1, 1.5), ValueError,
     "start must be an integer, got 1.5"),
    ("seed_fraction", lambda: stream_keys(1.5, [()]), ValueError,
     "seed must be an integer, got 1.5"),
    ("spawn_entry_fraction", lambda: stream_keys(1, [(0.5,)]), ValueError,
     "each spawn-key entry must be an integer, got 0.5"),
    # fields
    ("abstract_eval", lambda: FieldSpec().eval(0.5), NotImplementedError, ""),
    ("abstract_fourier", lambda: FieldSpec().fourier_coefficients(np.arange(3)),
     NotImplementedError, ""),
    ("no_coefficient", lambda: FiniteDimField(basis=FOURIER, values=np.zeros(0),
                                              amplitude_bound=1.0), ValueError,
     "need at least one coefficient"),
    ("coefficient_nan", lambda: FiniteDimField(basis=FOURIER, values=np.array([np.nan]),
                                               amplitude_bound=1.0), ValueError,
     "coefficients must be finite"),
    ("amplitude_zero", lambda: FiniteDimField(basis=FOURIER, values=np.array([0.1]),
                                              amplitude_bound=0.0), ValueError,
     "amplitude bound must be positive and finite"),
    ("constant_not_real", lambda: FiniteDimField(basis=FOURIER, values=np.array([0.5j]),
                                                 amplitude_bound=1.0), ValueError,
     "coefficient of the constant function must be real"),
    ("broken_conjugates", lambda: FiniteDimField(basis=FOURIER,
                                                 values=np.array([0.0, 0.1 + 0.1j, 0.2]),
                                                 amplitude_bound=1.0), ValueError,
     "coefficients 1 and 2 are not conjugate partners"),
    ("amplitude_exceeded", lambda: make_finite_dim_field([1.0], amplitude_bound=0.5),
     ValueError, "field exceeds its amplitude bound: sup|f| = 1 > a = 0.5"),
    ("sobolev_smoothness", lambda: make_sobolev_field(0.5, seed=1), ValueError,
     "smoothness order must be finite and exceed 1/2"),
    ("sobolev_no_frequency", lambda: make_sobolev_field(1.0, seed=1, n_freqs=0), ValueError,
     "n_freqs must be a positive integer of at most"),
    ("sobolev_negative_seed", lambda: make_sobolev_field(1.0, seed=-1), ValueError,
     "seed must be a nonnegative integer, got -1"),
    ("sobolev_bool_freqs", lambda: make_sobolev_field(1.0, 7, n_freqs=True), ValueError,
     "n_freqs must be an integer, got True"),
    ("sobolev_fractional_seed", lambda: make_sobolev_field(1.0, seed=7.5), ValueError,
     "seed must be an integer, got 7.5"),
    ("edges_levels_count", lambda: PiecewiseConstantField(edges=(0.0, 1.0), levels=(1.0, 2.0)),
     ValueError, "need len(edges) == len(levels) + 1"),
    ("edges_span", lambda: PiecewiseConstantField(edges=(0.1, 1.0), levels=(1.0,)),
     ValueError, "edges must span [0, 1]"),
    ("edges_increasing", lambda: PiecewiseConstantField(edges=(0.0, 0.5, 0.5, 1.0),
                                                        levels=(1.0, 2.0, 3.0)),
     ValueError, "edges must be strictly increasing"),
    ("edges_nan", lambda: PiecewiseConstantField(edges=(0.0, np.nan, 1.0), levels=(1.0, 2.0)),
     ValueError, "edges and levels must be finite"),
    ("true_count_zero", lambda: true_coefficients(SAWTOOTH, 0), ValueError,
     "count must be >= 1"),
    ("true_count_fraction", lambda: true_coefficients(SAWTOOTH, 2.5), ValueError,
     "count must be an integer, got 2.5"),
    ("true_count_bool", lambda: true_coefficients(SAWTOOTH, True), ValueError,
     "count must be an integer, got True"),
    ("tail_negative_m", lambda: m_term_error(true_coefficients(SAWTOOTH, 2),
                                             SAWTOOTH, -1), ValueError, "m must be >= 0"),
    ("tail_fractional_m", lambda: m_term_error(true_coefficients(SAWTOOTH, 3), SAWTOOTH, 2.5),
     ValueError, "m must be an integer, got 2.5"),
    # estimator
    ("schedule_kind", lambda: TruncationSchedule("cubic"), ValueError,
     "unknown schedule kind 'cubic'"),
    ("bv_parameter", lambda: TruncationSchedule("bv", 1.0), ValueError,
     "bv schedule takes no parameter"),
    ("schedule_nan", lambda: TruncationSchedule("power", np.nan), ValueError,
     "power schedule parameter must be finite"),
    ("fixed_zero", lambda: TruncationSchedule.fixed(0), ValueError,
     "need a positive integer parameter"),
    ("fixed_fraction", lambda: TruncationSchedule("fixed", 2.5), ValueError,
     "fixed schedule parameter must be an integer, got 2.5"),
    ("fixed_bool", lambda: TruncationSchedule.fixed(True), ValueError,
     "fixed schedule parameter must be an integer, got True"),
    ("fixed_missing", lambda: TruncationSchedule("fixed"), ValueError,
     "fixed schedule parameter must be an integer, got None"),
    ("finite_dim_fraction", lambda: TruncationSchedule.finite_dim(4.5), ValueError,
     "finite_dim schedule parameter must be an integer, got 4.5"),
    ("sobolev_schedule_half", lambda: TruncationSchedule.sobolev(0.5), ValueError,
     "smoothness order must exceed 1/2"),
    ("power_zero", lambda: TruncationSchedule.power(0.0), ValueError,
     "exponent must lie in (0, 1]"),
    ("power_above_one", lambda: TruncationSchedule.power(1.5), ValueError,
     "exponent must lie in (0, 1]"),
    ("resolve_zero", lambda: TruncationSchedule.bv().resolve(0), ValueError,
     "sensor count must be >= 1"),
    ("resolve_fractional_n", lambda: TruncationSchedule.bv().resolve(100.5), ValueError,
     "n must be an integer, got 100.5"),
    ("resolve_bool_n", lambda: TruncationSchedule.bv().resolve(True), ValueError,
     "n must be an integer, got True"),
    ("range_zero", lambda: EstimatorConfig(basis=FOURIER, density=UNIFORM, c=0.0,
                                           schedule=TruncationSchedule.bv()), ValueError,
     "dynamic range must be positive"),
    ("empty_batch", lambda: sensor_weights(EMPTY, UNIFORM), ValueError, "empty batch"),
    ("no_estimate", lambda: estimate_coefficients(BATCH, CFG, 0), ValueError,
     "need at least one coefficient"),
    ("estimate_fractional_m", lambda: estimate_coefficients(BATCH, CFG, 2.5), ValueError,
     "m must be an integer, got 2.5"),
    ("estimate_bool_m", lambda: estimate_coefficients(BATCH, CFG, True), ValueError,
     "m must be an integer, got True"),
    # analysis
    ("bound_no_sensor", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 0, 1, 1.0),
     ValueError, "sensor count must be >= 1"),
    ("bound_negative_m", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 10, -1, 1.0),
     ValueError, "truncation point must be >= 0"),
    ("bound_fractional_n", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 100.5, 3, 1.5),
     ValueError, "n must be an integer, got 100.5"),
    ("bound_fractional_m", lambda: mse_upper_bound(SAWTOOTH, UNIFORM, 100, 3.5, 1.5),
     ValueError, "m must be an integer, got 3.5"),
    ("conditions_empty_grid",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, []),
     ValueError, "n_grid must hold at least one sensor count"),
    ("conditions_grid_order",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, [10, 10]),
     ValueError, "n_grid must be strictly increasing"),
    ("conditions_fractional_n",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, [100.5, 1000]),
     ValueError, "each n_grid entry must be an integer, got 100.5"),
    ("conditions_bool_n",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), UNIFORM, [True, 4]),
     ValueError, "each n_grid entry must be an integer, got True"),
    ("error_short_truth",
     lambda: integrated_squared_error(estimate_coefficients(BATCH, CFG, 3),
                                      true_coefficients(SAWTOOTH, 2), SAWTOOTH),
     ValueError, "need at least 3 true coefficients, got 2"),
    ("fit_three_points", lambda: rate_fit([10, 20, 40], [1.0, 0.5, 0.25]), ValueError,
     "need at least 4 (n, mse) points"),
    ("fit_zero_mse", lambda: rate_fit([10, 20, 40, 80], [1.0, 0.5, 0.0, 0.1]), ValueError,
     "n_grid entries and mse values must be positive for a log-log fit"),
    ("fit_negative_n", lambda: rate_fit([-10, 20, 40, 80], [1.0, 0.5, 0.25, 0.125]),
     ValueError, "n_grid entries and mse values must be positive for a log-log fit"),
    ("fit_fractional_n", lambda: rate_fit([10.5, 20, 40, 80], [1.0, 0.5, 0.25, 0.125]),
     ValueError, "each n_grid entry must be an integer, got 10.5"),
    ("sweep_trial_counts",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10, 20], [5], seed=1), ValueError, "need one trial count per n"),
    ("sweep_trial_count_table",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10, 20], np.array([[2], [3]]), seed=1), ValueError,
     "need one trial count, or one per n"),
    ("sweep_one_trial",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10], 1, seed=1), ValueError, "need at least two trials per n"),
    ("sweep_fractional_n",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [500.5, 2000], 2, seed=1), ValueError,
     "each n_grid entry must be an integer, got 500.5"),
    ("sweep_fractional_trials",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [500, 2000], 2.5, seed=1), ValueError,
     "trials must be an integer, got 2.5"),
    ("sweep_fractional_trial_counts",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [500, 2000], [2.7, 3.2], seed=1), ValueError,
     "each trials entry must be an integer, got 2.7"),
    ("sweep_fractional_workers",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10], 2, seed=1, workers=1.5), ValueError,
     "workers must be an integer, got 1.5"),
    ("sweep_bool_workers",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), TruncationSchedule.bv(),
                             [10], 2, seed=1, workers=True), ValueError,
     "workers must be an integer, got True"),
    ("schedule_psi", lambda: validate_as_schedule(1.0, 1.5, UNIFORM), ValueError,
     "growth exponent must lie in (0, 1)"),
    ("schedule_no_field", lambda: validate_as_schedule(0.5, 1.5, UNIFORM, fields=[]), ValueError,
     "fields must hold at least one field"),
    ("trace_psi", lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 1.0, 1, [10]),
     ValueError, "growth exponent must lie in (0, 1)"),
    ("trace_no_checkpoint", lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 0.5, 1, []),
     ValueError, "checkpoints must be strictly increasing and nonempty"),
    ("trace_fractional_checkpoint",
     lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 0.5, 1, [10, 20.5]), ValueError,
     "each n_checkpoints entry must be an integer, got 20.5"),
    # harness
    ("battery_one_trial", lambda: run_lemma_battery(trials=1), ValueError,
     "need at least two trials per cell"),
    ("battery_j_count_zero", lambda: run_lemma_battery(j_count=0), ValueError,
     "j_count must be >= 1"),
    ("battery_j_count_negative", lambda: run_lemma_battery(j_count=-1), ValueError,
     "j_count must be >= 1"),
    ("battery_fractional_n", lambda: run_lemma_battery(n=100.5), ValueError,
     "n must be an integer, got 100.5"),
    ("battery_fractional_trials", lambda: run_lemma_battery(trials=2.5), ValueError,
     "trials must be an integer, got 2.5"),
    ("battery_fractional_j_count", lambda: run_lemma_battery(j_count=2.5), ValueError,
     "j_count must be an integer, got 2.5"),
    ("battery_bool_n", lambda: run_lemma_battery(n=True), ValueError,
     "n must be an integer, got True"),
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


# Every count argument of the public entry points, as (id, the name its
# message gives it, a valid value, the call with that argument set to a
# value); the other arguments are tiny, so that a call takes milliseconds.
BV, TAIL_COEFFS = TruncationSchedule.bv(), true_coefficients(SAWTOOTH, 4)


def _sweep(n_grid=(4,), trials=2, workers=1):
    return monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), BV, n_grid, trials, seed=1,
                           workers=workers).means


COUNT_ARGUMENTS = [
    ("true_coefficients.count", "count", 3, lambda v: true_coefficients(SAWTOOTH, v).values),
    ("m_term_error.m", "m", 2, lambda v: m_term_error(TAIL_COEFFS, SAWTOOTH, v)),
    ("mse_upper_bound.n", "n", 10, lambda v: mse_upper_bound(SAWTOOTH, UNIFORM, v, 3, 1.5)),
    ("mse_upper_bound.m", "m", 3, lambda v: mse_upper_bound(SAWTOOTH, UNIFORM, 10, v, 1.5)),
    ("resolve.n", "n", 10, BV.resolve),
    ("fixed.m", "fixed schedule parameter", 3, TruncationSchedule.fixed),
    ("finite_dim.k", "finite_dim schedule parameter", 3, TruncationSchedule.finite_dim),
    ("simulate_batch.n", "n", 4,
     lambda v: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), v, 1).bits),
    ("simulate_batch.start", "start", 2,
     lambda v: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 4, 1, v).bits),
    ("estimate_coefficients.m", "m", 3, lambda v: estimate_coefficients(BATCH, CFG, v).values),
    ("make_sobolev_field.n_freqs", "n_freqs", 2,
     lambda v: make_sobolev_field(1.0, 7, n_freqs=v).values),
    ("make_sobolev_field.seed", "seed", 7,
     lambda v: make_sobolev_field(1.0, v, n_freqs=2).values),
    ("stream_keys.seed", "seed", 7, lambda v: stream_keys(v, [(1, 2)])),
    ("stream_keys.entry", "each spawn-key entry", 1, lambda v: stream_keys(7, [(v, 2)])),
    ("check_consistency_conditions.n", "each n_grid entry", 10,
     lambda v: check_consistency_conditions(BV, UNIFORM, [v, 1000])),
    ("rate_fit.n", "each n_grid entry", 10,
     lambda v: rate_fit([v, 20, 40, 80], [1.0, 0.5, 0.25, 0.125])),
    ("monte_carlo_mse.n", "each n_grid entry", 4, lambda v: _sweep(n_grid=[v])),
    ("monte_carlo_mse.trials", "trials", 2, lambda v: _sweep(trials=v)),
    ("monte_carlo_mse.trials_entry", "each trials entry", 2, lambda v: _sweep(trials=[v])),
    ("monte_carlo_mse.workers", "workers", 1, lambda v: _sweep(workers=v)),
    ("run_lemma_battery.n", "n", 4, lambda v: run_lemma_battery(n=v, trials=2, j_count=1).rows),
    ("run_lemma_battery.trials", "trials", 2,
     lambda v: run_lemma_battery(n=4, trials=v, j_count=1).rows),
    ("run_lemma_battery.j_count", "j_count", 1,
     lambda v: run_lemma_battery(n=4, trials=2, j_count=v).rows),
]

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
    """Each entry point reads each kind of value alike: a fraction or a bool
    is refused with the argument's name, a negative count is refused, and a
    numpy int or an integral float gives, repr for repr, what the int gives."""
    (_, name, valid, call), kind, value = case
    if kind in ("fraction", "bool"):
        with pytest.raises(ValueError) as caught:
            call(value)
        assert str(caught.value) == f"{name} must be an integer, got {value!r}"
    elif kind == "negative":
        with pytest.raises(ValueError):
            call(value)
    else:
        assert repr(call(value)) == repr(call(valid))

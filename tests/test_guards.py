"""Every argument guard of the sensor, field, estimator, analysis and
kernel layers, reached in process with its message: a bad argument fails
at the boundary with a clear error, never mid-sweep or as a silent number."""

import re

import numpy as np
import pytest

from ditherfield import (EstimatorConfig, FieldSpec, FiniteDimField,
                         FourierBasis, PiecewiseConstantField, SensorBatch,
                         TabulatedDeployment, TruncationSchedule,
                         UniformDeployment, ZeroNoise, as_error_trace,
                         check_consistency_conditions, estimate_coefficients,
                         m_term_error, make_bv_field, monte_carlo_mse,
                         mse_upper_bound, simulate_batch, stream_keys,
                         trial_seed, true_coefficients, validate_as_schedule)
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
    ("tabulated_one_node", lambda: TabulatedDeployment(np.array([1.0])), ValueError,
     "need densities on at least two nodes"),
    ("tabulated_nan", lambda: TabulatedDeployment(np.array([1.0, np.nan])), ValueError,
     "density values must be finite"),
    ("tabulated_negative", lambda: TabulatedDeployment(np.array([1.0, -1.0])), ValueError,
     "density values must be nonnegative"),
    ("tabulated_zero_mass", lambda: TabulatedDeployment(np.zeros(3)), ValueError,
     "density integrates to zero"),
    ("no_sensor", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 0, 1), ValueError,
     "need at least one sensor"),
    ("signed_words", lambda: simulate_batch(SAWTOOTH, UNIFORM, ZeroNoise(), 4,
                                            trial_seed(1).astype(np.int64)), ValueError,
     "stream keys must be a (3, 4) or (R, 3, 4) uint64 array"),
    # fields
    ("abstract_eval", lambda: FieldSpec().eval(0.5), NotImplementedError, ""),
    ("abstract_fourier", lambda: FieldSpec().fourier_coefficients(np.arange(3)),
     NotImplementedError, ""),
    ("no_coefficient", lambda: FiniteDimField(basis=FOURIER, values=np.zeros(0),
                                              amplitude_bound=1.0), ValueError,
     "need at least one coefficient"),
    ("edges_levels_count", lambda: PiecewiseConstantField(edges=(0.0, 1.0), levels=(1.0, 2.0)),
     ValueError, "need len(edges) == len(levels) + 1"),
    ("edges_span", lambda: PiecewiseConstantField(edges=(0.1, 1.0), levels=(1.0,)),
     ValueError, "edges must span [0, 1]"),
    ("edges_increasing", lambda: PiecewiseConstantField(edges=(0.0, 0.5, 0.5, 1.0),
                                                        levels=(1.0, 2.0, 3.0)),
     ValueError, "edges must be strictly increasing"),
    ("true_count_zero", lambda: true_coefficients(SAWTOOTH, FOURIER, 0), ValueError,
     "count must be >= 1"),
    ("tail_negative_m", lambda: m_term_error(true_coefficients(SAWTOOTH, FOURIER, 2),
                                             SAWTOOTH, -1), ValueError, "m must be >= 0"),
    # estimator
    ("schedule_kind", lambda: TruncationSchedule("cubic"), ValueError,
     "unknown schedule kind 'cubic'"),
    ("bv_parameter", lambda: TruncationSchedule("bv", 1.0), ValueError,
     "bv schedule takes no parameter"),
    ("resolve_zero", lambda: TruncationSchedule.bv().resolve(0), ValueError,
     "sensor count must be >= 1"),
    ("range_zero", lambda: EstimatorConfig(basis=FOURIER, density=UNIFORM, c=0.0,
                                           schedule=TruncationSchedule.bv()), ValueError,
     "dynamic range must be positive"),
    ("empty_batch", lambda: sensor_weights(EMPTY, UNIFORM), ValueError, "empty batch"),
    ("no_estimate", lambda: estimate_coefficients(BATCH, CFG, 0), ValueError,
     "need at least one coefficient"),
    # analysis
    ("bound_no_sensor", lambda: mse_upper_bound(SAWTOOTH, FOURIER, UNIFORM, 0, 1, 1.0),
     ValueError, "sensor count must be >= 1"),
    ("bound_negative_m", lambda: mse_upper_bound(SAWTOOTH, FOURIER, UNIFORM, 10, -1, 1.0),
     ValueError, "truncation point must be >= 0"),
    ("conditions_grid_order",
     lambda: check_consistency_conditions(TruncationSchedule.bv(), FOURIER, UNIFORM, [10, 10]),
     ValueError, "n_grid must be strictly increasing"),
    ("sweep_trial_counts",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), FOURIER, TruncationSchedule.bv(),
                             [10, 20], [5], seed=1), ValueError, "need one trial count per n"),
    ("sweep_one_trial",
     lambda: monte_carlo_mse(SAWTOOTH, UNIFORM, ZeroNoise(), FOURIER, TruncationSchedule.bv(),
                             [10], 1, seed=1), ValueError, "need at least two trials per n"),
    ("schedule_psi", lambda: validate_as_schedule(1.0, 1.5, UNIFORM), ValueError,
     "growth exponent must lie in (0, 1)"),
    ("trace_psi", lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 1.0, 1, [10]),
     ValueError, "growth exponent must lie in (0, 1)"),
    ("trace_no_checkpoint", lambda: as_error_trace(SAWTOOTH, UNIFORM, ZeroNoise(), 0.5, 1, []),
     ValueError, "checkpoints must be strictly increasing and nonempty"),
    # spectral
    ("sums_past_n", lambda: ConjSums((), 10, 3).add(np.zeros(11), np.zeros(11)), ValueError,
     "more than the declared 10 points per row"),
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

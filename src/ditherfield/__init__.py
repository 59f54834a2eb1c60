"""Reconstruction of a deterministic field on [0,1] from randomly deployed
sensors that report one dither-quantized bit each, with distortion bounds,
consistency checkers, and rate-verification experiments."""

from .analysis import (ASTraceResult, BoundReport, ConsistencyReport,
                       MseSweep, RateFitResult, ScheduleValidation,
                       as_error_trace, basis_deployment_integral,
                       check_consistency_conditions, integrated_squared_error,
                       monte_carlo_mse, mse_upper_bound, rate_fit,
                       validate_as_schedule)
from .estimator import (EstimationError, EstimatorConfig,
                        ReconstructionCoefficients, TruncationSchedule,
                        estimate_coefficients, reconstruct)
from .fields import (CoefficientVector, FieldSpec, FiniteDimField,
                     FourierBasis, PiecewiseConstantField, QuadratureError,
                     SawtoothField, SobolevField, StepBasis, field_from_json,
                     m_term_error, make_basis, make_bv_field, make_finite_dim_field,
                     make_sobolev_field, true_coefficients, zero_field)
from .harness import (ConfigValidationError, ExperimentConfig,
                      ExperimentOutcome, SuiteResult, load_experiment_config,
                      load_shipped_config, parse_experiment_config,
                      run_experiment, run_lemma_battery, run_suite)
from .sensing import (AffineFloorDeployment, Linear2xDeployment, SensorBatch,
                      TabulatedDeployment, TruncGaussNoise, TwoPointNoise,
                      UniformDeployment, UniformSymNoise, ZeroNoise,
                      make_deployment, make_noise, quantize_one,
                      simulate_batch, substream, tabulate_deployment,
                      trial_seed)

__version__ = "0.1.0"

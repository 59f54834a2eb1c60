import math

import numpy as np
import pytest
from scipy.integrate import quad

from ditherfield import (AffineFloorDeployment, EstimatorConfig, FourierBasis,
                         Linear2xDeployment, ReconstructionCoefficients,
                         TabulatedDeployment, TruncationSchedule,
                         UniformDeployment, UniformSymNoise, ZeroNoise,
                         as_error_trace, basis_deployment_integral,
                         check_consistency_conditions, estimate_coefficients,
                         integrated_squared_error, make_finite_dim_field,
                         make_sobolev_field, monte_carlo_mse, mse_upper_bound,
                         rate_fit, simulate_batch, trial_seed,
                         true_coefficients, validate_as_schedule, zero_field)
from ditherfield.analysis import TrialCell, map_trials
from ditherfield.fields import synthesize

LN3 = 1.0986122886681098


# ---------------------------------------------------------------------------
# deployment integrals
# ---------------------------------------------------------------------------

def test_uniform_integrals_are_exactly_one(fourier):
    for j in (0, 1, 5, 30):
        assert basis_deployment_integral(fourier, UniformDeployment(), j) == \
            pytest.approx(1.0, abs=1e-9)


def test_vanishing_linear_density_diverges(fourier):
    assert math.isinf(basis_deployment_integral(fourier, Linear2xDeployment(), 0))
    assert math.isinf(basis_deployment_integral(fourier, Linear2xDeployment(), 3))


def test_affine_floor_integral_is_log3(fourier):
    value = basis_deployment_integral(fourier, AffineFloorDeployment(nu=0.5), 0)
    assert value == pytest.approx(LN3, abs=1e-9)


def test_integrable_endpoint_singularity_is_not_flagged(fourier):
    class SqrtDensity:
        # p(x) = 1.5 sqrt(x): integrates to 1, vanishes at 0, but 1/p is
        # integrable — the probe increments collapse geometrically
        infimum = 0.0

        def pdf(self, x):
            return 1.5 * np.sqrt(np.asarray(x, dtype=float))

    value = basis_deployment_integral(fourier, SqrtDensity(), 0)
    assert value == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_step_basis_integral_picks_up_its_cell(step64):
    # cells away from the vanishing endpoint stay finite under p(x) = 2x
    deploy = Linear2xDeployment()
    value = basis_deployment_integral(step64, deploy, 32)
    lo, hi = 32 / 64, 33 / 64
    expected = 64 * (np.log(hi) - np.log(lo)) / 2.0
    assert value == pytest.approx(expected, rel=1e-9)
    assert math.isinf(basis_deployment_integral(step64, deploy, 0))


@pytest.mark.parametrize("pdf_values", [[1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 1]])
def test_tabulated_density_with_a_zero_diverges(fourier, step64, pdf_values):
    # quad samples points where p_X is exactly 0; 1/p_X is unintegrable there
    deploy = TabulatedDeployment(np.asarray(pdf_values, dtype=float))
    assert math.isinf(basis_deployment_integral(fourier, deploy, 0))
    zero_cell = 10 if pdf_values == [0, 0, 1, 1] else 32
    assert math.isinf(basis_deployment_integral(step64, deploy, zero_cell))


# ---------------------------------------------------------------------------
# distortion bound
# ---------------------------------------------------------------------------

def test_finite_dim_bound_arithmetic(fourier, finite_dim_k5):
    report = mse_upper_bound(finite_dim_k5, fourier, UniformDeployment(),
                             n=1000, m=5, c=2.0)
    assert report.bias_term == 0.0
    assert report.total == pytest.approx(0.02, abs=1e-9)
    assert report.per_j_integrals == pytest.approx((1.0,) * 5, abs=1e-9)


def test_bound_at_m_zero_is_the_field_energy(fourier, sawtooth):
    report = mse_upper_bound(sawtooth, fourier, UniformDeployment(),
                             n=10, m=0, c=1.5)
    assert report.variance_term == 0.0
    assert report.total == pytest.approx(sawtooth.norm_sq)


def test_bound_flags_divergent_deployment(fourier, sawtooth):
    report = mse_upper_bound(sawtooth, fourier, Linear2xDeployment(),
                             n=100, m=3, c=1.5)
    assert report.divergent
    assert 0 in report.divergent_js
    assert math.isinf(report.total)


def test_bound_decomposition_and_monotone_bias(fourier, sawtooth):
    deploy = AffineFloorDeployment(nu=0.5)
    previous_bias = math.inf
    for m in (1, 2, 4, 8, 16):
        report = mse_upper_bound(sawtooth, fourier, deploy, n=500, m=m, c=1.5)
        assert report.total == report.variance_term + report.bias_term
        assert report.variance_term <= (1.5 ** 2) * m / (500 * 0.5) + 1e-12
        assert report.bias_term <= previous_bias
        previous_bias = report.bias_term


# ---------------------------------------------------------------------------
# consistency conditions
# ---------------------------------------------------------------------------

def test_bv_schedule_passes_all_conditions(fourier):
    grid = (100, 1000, 10_000, 100_000, 1_000_000)
    report = check_consistency_conditions(TruncationSchedule.bv(), fourier,
                                          UniformDeployment(), grid)
    assert report.all_pass
    expected = tuple(math.ceil(math.sqrt(n)) / n for n in grid)
    assert report.variance_condition_values == pytest.approx(expected, rel=1e-12)


def test_fixed_schedule_fails_growth(fourier):
    report = check_consistency_conditions(TruncationSchedule.fixed(5), fourier,
                                          UniformDeployment(),
                                          (100, 1000, 10_000))
    assert not report.truncation_grows
    assert not report.all_pass
    assert report.variance_ok  # 5/n still vanishes; growth is what fails


def test_linear_truncation_fails_the_variance_condition(fourier):
    report = check_consistency_conditions(TruncationSchedule.power(1.0), fourier,
                                          UniformDeployment(),
                                          (100, 1000, 10_000))
    assert report.truncation_ok
    assert not report.variance_ok
    assert not report.all_pass
    assert report.variance_condition_values == pytest.approx((1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# integrated squared error
# ---------------------------------------------------------------------------

def test_exact_coefficients_give_zero_error(fourier, finite_dim_k5):
    cv = true_coefficients(finite_dim_k5, fourier, 5)
    hat = ReconstructionCoefficients(values=cv.values.copy(), n_used=1)
    assert integrated_squared_error(hat, cv, finite_dim_k5) == 0.0


def test_zero_estimate_gives_full_energy(fourier, sawtooth):
    cv = true_coefficients(sawtooth, fourier, 8)
    hat = ReconstructionCoefficients(values=np.zeros(8, complex), n_used=1)
    assert integrated_squared_error(hat, cv, sawtooth) == \
        pytest.approx(sawtooth.norm_sq, abs=1e-12)


def test_hand_worked_case():
    field = make_finite_dim_field(FourierBasis(), [0.5, 0.5j, -0.5j],
                                  amplitude_bound=2.0)
    # ||f||^2 = 0.25 + 0.25 + 0.25 = 0.75; use the first two coefficients:
    # |1 - 0.5|^2 + |0 - 0.5j|^2 = 0.5, tail = 0.25
    cv = true_coefficients(field, FourierBasis(), 2)
    hat = ReconstructionCoefficients(values=np.array([1.0, 0.0], dtype=complex),
                                     n_used=1)
    assert integrated_squared_error(hat, cv, field) == pytest.approx(0.75, abs=1e-12)


def test_parseval_error_matches_direct_quadrature(fourier):
    rng = np.random.default_rng(3)
    for case in range(5):
        n_pairs = int(rng.integers(1, 4))
        values = [complex(rng.uniform(-1, 1), 0)]
        for _ in range(n_pairs):
            re, im = rng.uniform(-0.5, 0.5, 2)
            values.extend([complex(re, -im), complex(re, im)])
        field = make_finite_dim_field(fourier, values, amplitude_bound=4.0)
        m = int(rng.integers(1, len(values) + 1))
        hat_vals = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.5, 0.5, m)
        hat = ReconstructionCoefficients(values=hat_vals, n_used=1)
        cv = true_coefficients(field, fourier, len(values))
        fast = integrated_squared_error(hat, cv, field)

        def integrand(x):
            f_hat = complex(synthesize(fourier, hat_vals, np.array([x]))[0])
            return abs(field.eval(x) - f_hat) ** 2

        direct, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=300)
        assert abs(fast - direct) <= 1e-6 * max(direct, 1e-12)


def test_error_requires_enough_true_coefficients(fourier, sawtooth):
    cv = true_coefficients(sawtooth, fourier, 2)
    hat = ReconstructionCoefficients(values=np.zeros(4, complex), n_used=1)
    with pytest.raises(ValueError):
        integrated_squared_error(hat, cv, sawtooth)


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps
# ---------------------------------------------------------------------------

def test_monte_carlo_is_deterministic(sawtooth):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    cfg = EstimatorConfig(basis=FourierBasis(), density=deploy, c=1.5,
                          schedule=TruncationSchedule.bv())
    a = monte_carlo_mse(sawtooth, deploy, noise, cfg, [500, 2000], trials=2, seed=21)
    b = monte_carlo_mse(sawtooth, deploy, noise, cfg, [500, 2000], trials=2, seed=21)
    assert a.means == b.means and a.stds == b.stds


def test_worker_count_does_not_change_results(sawtooth):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    cfg = EstimatorConfig(basis=FourierBasis(), density=deploy, c=1.5,
                          schedule=TruncationSchedule.bv())
    serial = monte_carlo_mse(sawtooth, deploy, noise, cfg, [400, 1600],
                             trials=60, seed=31, workers=1)
    parallel = monte_carlo_mse(sawtooth, deploy, noise, cfg, [400, 1600],
                               trials=60, seed=31, workers=2)
    assert serial.means == parallel.means
    assert all(np.array_equal(x, y)
               for x, y in zip(serial.trial_values, parallel.trial_values))


def test_chunk_size_does_not_change_trial_estimates(sawtooth):
    deploy, noise = AffineFloorDeployment(nu=0.5), UniformSymNoise(b=1.0)
    sobolev = make_sobolev_field(1.0, seed=7, n_freqs=32)
    cells = [TrialCell(f, deploy, noise,
                       EstimatorConfig(basis=FourierBasis(), density=deploy,
                                       c=f.amplitude_bound + noise.b,
                                       schedule=TruncationSchedule.fixed(m)),
                       n, m, trials)
             for f, n, m, trials in ((sawtooth, 300, 5, 23), (sobolev, 700, 8, 9))]
    runs = [map_trials(cells, seed=17, chunk=chunk) for chunk in (1, 7, 250)]
    assert [a.shape for a in runs[0]] == [(23, 5), (9, 8)]
    for other in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], other))
    # trial t of cell i draws from trial_seed(seed, i, t)
    batch = simulate_batch(sobolev, deploy, noise, 700, trial_seed(17, 1, 3))
    assert np.array_equal(runs[0][1][3],
                          estimate_coefficients(batch, cells[1].cfg, 8).values)


def test_zero_field_mse_tracks_the_variance_bound():
    # with m = 1 the distortion is Var[alpha_hat_0] <= c^2 / n
    field, deploy, noise = zero_field(1.0), UniformDeployment(), ZeroNoise()
    cfg = EstimatorConfig(basis=FourierBasis(), density=deploy, c=1.0,
                          schedule=TruncationSchedule.fixed(1))
    sweep = monte_carlo_mse(field, deploy, noise, cfg, [10_000], trials=200, seed=41)
    assert sweep.means[0] <= 1.2 * 1.0 / 10_000


def test_finite_dim_mse_scales_inversely_with_n(finite_dim_k5):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    cfg = EstimatorConfig(basis=FourierBasis(), density=deploy, c=1.8,
                          schedule=TruncationSchedule.finite_dim(5))
    sweep = monte_carlo_mse(finite_dim_k5, deploy, noise, cfg, [1000, 10_000],
                            trials=150, seed=51)
    ratio = sweep.means[0] / sweep.means[1]
    assert 6.0 <= ratio <= 14.0


def test_variance_bias_trade_off_is_not_monotone(sawtooth):
    # fixed n, growing m: distortion falls (bias unwinds) then rises
    # (variance accumulates), with an interior minimum
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    cfg = EstimatorConfig(basis=FourierBasis(), density=deploy, c=1.5,
                          schedule=TruncationSchedule.fixed(1024))
    n, trials = 100_000, 12
    ms = [2 ** k for k in range(1, 11)]
    cv = true_coefficients(sawtooth, FourierBasis(), 1024)
    from ditherfield import estimate_coefficients, trial_seed

    curves = np.zeros((trials, len(ms)))
    for t in range(trials):
        batch = simulate_batch(sawtooth, deploy, noise, n, trial_seed(61, t))
        hat = estimate_coefficients(batch, cfg, 1024)
        sq = np.abs(hat.values - cv.values) ** 2
        head = np.concatenate([[0.0], np.cumsum(sq)])
        tail_sq = np.concatenate([[0.0], np.cumsum(np.abs(cv.values) ** 2)])
        for i, m in enumerate(ms):
            curves[t, i] = head[m] + max(sawtooth.norm_sq - tail_sq[m], 0.0)
    mean_curve = curves.mean(axis=0)
    k_min = int(np.argmin(mean_curve))
    assert 0 < k_min < len(ms) - 1
    assert mean_curve[k_min] < 0.5 * min(mean_curve[0], mean_curve[-1])


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_exact_power_law_fit():
    fit = rate_fit([10, 100, 1000, 10_000], [0.1, 0.01, 0.001, 0.0001])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_constant_mse_fits_zero_slope():
    fit = rate_fit([10, 100, 1000, 10_000], [0.5, 0.5, 0.5, 0.5])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_input_validation():
    with pytest.raises(ValueError):
        rate_fit([10, 100, 1000], [1, 2, 3])
    with pytest.raises(ValueError):
        rate_fit([10, 100, 1000, 10_000], [1.0, -1.0, 0.5, 0.1])


# ---------------------------------------------------------------------------
# pathwise-convergence machinery
# ---------------------------------------------------------------------------

def test_schedule_validation_accepts_and_rejects(fourier):
    ok = validate_as_schedule(0.5, 1.5, fourier, UniformDeployment(), amplitude=1.0)
    assert ok.gamma_in_range and ok.accepted
    assert ok.series_exponent == pytest.approx(0.75)
    bad = validate_as_schedule(0.5, 2.5, fourier, UniformDeployment(), amplitude=1.0)
    assert not bad.gamma_in_range and not bad.accepted


def test_bounded_basis_route_constants_and_kernel_equality(fourier):
    val = validate_as_schedule(0.5, 1.5, fourier, UniformDeployment(), amplitude=1.0)
    assert val.c1 == pytest.approx(1.0)  # beta^2 / nu with beta = nu = 1
    assert val.c2 == pytest.approx(1.0)  # a * beta * sqrt(vol) with a = 1
    # the summed kernel attains c1 * m on the diagonal, so the max ratio is 1
    assert val.kernel_ratio_max == pytest.approx(1.0, abs=1e-9)
    assert val.projection_check_ok


def test_unbounded_weights_disable_the_bounded_route(fourier):
    val = validate_as_schedule(0.5, 1.5, fourier, Linear2xDeployment())
    assert val.c1 is None and not val.accepted


def test_trace_error_shrinks_along_the_path(sawtooth):
    trace = as_error_trace(sawtooth, UniformDeployment(), UniformSymNoise(b=0.5),
                           psi=0.4, seed=17, n_checkpoints=(1000, 100_000))
    assert trace.sup_error[-1] < trace.sup_error[0]
    assert trace.m_values == (16, 100)
    assert trace.condition.gamma_in_range


def test_frozen_schedule_reduces_to_the_scalar_path():
    field, deploy, noise = zero_field(1.0), UniformDeployment(), ZeroNoise()
    trace = as_error_trace(field, deploy, noise, psi=0.4, seed=23,
                           n_checkpoints=(1000, 10_000),
                           schedule=TruncationSchedule.fixed(1))
    from ditherfield import EstimatorConfig, estimate_coefficients

    cfg = EstimatorConfig(basis=FourierBasis(), density=deploy, c=1.0,
                          schedule=TruncationSchedule.fixed(1))
    big = simulate_batch(field, deploy, noise, 10_000, seed=23)
    for i, n in enumerate((1000, 10_000)):
        alpha0 = estimate_coefficients(big.prefix(n), cfg, 1).values[0]
        assert trace.sup_error[i] == pytest.approx(abs(alpha0), rel=1e-12)


def test_interior_sup_excludes_jump_neighborhoods(step_field):
    trace = as_error_trace(step_field, UniformDeployment(), UniformSymNoise(b=0.5),
                           psi=0.4, seed=29, n_checkpoints=(2000, 200_000))
    # the jump at 1/2 keeps the full-grid estimate error from collapsing,
    # while the interior view improves along the path
    assert trace.sup_estimate_error_interior[-1] < trace.sup_estimate_error[-1]
    assert trace.sup_estimate_error_interior[-1] < trace.sup_estimate_error_interior[0]


def test_sawtooth_pointwise_view_improves_away_from_the_wrap_jump(sawtooth):
    trace = as_error_trace(sawtooth, UniformDeployment(), UniformSymNoise(b=0.5),
                           psi=0.3, seed=37, n_checkpoints=(1000, 1_000_000))
    assert trace.sup_estimate_error_interior[-1] < \
        trace.sup_estimate_error_interior[0]

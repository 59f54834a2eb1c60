import math
import multiprocessing

import numpy as np
import pytest
from scipy.integrate import quad

from ditherfield import (AffineFloorDeployment, EstimatorConfig, FourierBasis,
                         Linear2xDeployment, ReconstructionCoefficients,
                         SawtoothField, TruncationSchedule, TwoPointNoise,
                         UniformDeployment, UniformSymNoise, ZeroNoise,
                         as_error_trace, check_consistency_conditions,
                         estimate_coefficients, integrated_squared_error,
                         make_finite_dim_field, make_sobolev_field,
                         monte_carlo_mse, mse_upper_bound, rate_fit,
                         simulate_batch, trial_seed,
                         true_coefficients, validate_as_schedule)
from ditherfield import analysis, spectral
from ditherfield.analysis import WORKERS_MAX, TrialCell, map_trials
from ditherfield.fields import synthesize

from conftest import collect_trials, fourier_eval, zero_field

LN3 = 1.0986122886681098


# ---------------------------------------------------------------------------
# deployment integrals
# ---------------------------------------------------------------------------

def test_uniform_integrals_are_exactly_one(sawtooth):
    """Each of the m = 31 terms of the variance side adds c^2/n * 1."""
    report = mse_upper_bound(sawtooth, UniformDeployment(), n=1, m=31, c=1.0)
    assert report.variance_term == pytest.approx(31.0, abs=1e-9)


def test_vanishing_linear_density_diverges(sawtooth):
    report = mse_upper_bound(sawtooth, Linear2xDeployment(), n=1, m=4, c=1.0)
    assert report.divergent_js == (0, 1, 2, 3)
    assert math.isinf(report.variance_term)


def test_affine_floor_integral_is_log3():
    value = AffineFloorDeployment(nu=0.5).integral
    assert value == pytest.approx(LN3, abs=1e-9)


# ---------------------------------------------------------------------------
# distortion bound
# ---------------------------------------------------------------------------

def test_finite_dim_bound_arithmetic(finite_dim_k5):
    report = mse_upper_bound(finite_dim_k5, UniformDeployment(),
                             n=1000, m=5, c=2.0)
    assert report.bias_term == 0.0
    assert report.total == pytest.approx(0.02, abs=1e-9)
    assert report.variance_term == pytest.approx(0.02, abs=1e-9)
    assert report.divergent_js == ()


@pytest.mark.parametrize("deploy", [UniformDeployment(), Linear2xDeployment()],
                         ids=["uniform", "linear_2x"])
def test_bound_at_m_zero_is_the_field_energy(sawtooth, deploy):
    """No term, so no divergent j and no 0 * inf where the integral of 1/p_X
    diverges."""
    report = mse_upper_bound(sawtooth, deploy, n=10, m=0, c=1.5)
    assert report.variance_term == 0.0
    assert report.divergent_js == ()
    assert report.total == pytest.approx(sawtooth.norm_sq)


def test_bound_flags_divergent_deployment(sawtooth):
    report = mse_upper_bound(sawtooth, Linear2xDeployment(),
                             n=100, m=3, c=1.5)
    assert 0 in report.divergent_js
    assert math.isinf(report.total)


def test_bound_decomposition_and_monotone_bias(sawtooth):
    deploy = AffineFloorDeployment(nu=0.5)
    previous_bias = math.inf
    for m in (1, 2, 4, 8, 16):
        report = mse_upper_bound(sawtooth, deploy, n=500, m=m, c=1.5)
        assert report.total == report.variance_term + report.bias_term
        assert report.variance_term <= (1.5 ** 2) * m / (500 * 0.5) + 1e-12
        assert report.bias_term <= previous_bias
        previous_bias = report.bias_term


@pytest.mark.parametrize("m", [5, 33, 101])
def test_the_sawtooth_bias_term_is_its_closed_form_tail(sawtooth, m):
    """|<f, phi_j>|^2 = 1/(4 pi^2 k^2) at frequency +-k, so the tail past
    m = 2K + 1 is 2 sum_{k>K} 1/(4 pi^2 k^2) = psi_1(K + 1) / (2 pi^2)."""
    from scipy.special import polygamma

    report = mse_upper_bound(sawtooth, UniformDeployment(), 1000, m, 1.5)
    k = (m - 1) // 2
    assert report.bias_term == pytest.approx(polygamma(1, k + 1) / (2.0 * math.pi ** 2),
                                             rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# consistency conditions
# ---------------------------------------------------------------------------

def test_bv_schedule_passes_all_conditions():
    grid = (100, 1000, 10_000, 100_000, 1_000_000)
    report = check_consistency_conditions(TruncationSchedule.bv(), UniformDeployment(), grid)
    assert report.all_pass
    expected = tuple(math.ceil(math.sqrt(n)) / n for n in grid)
    assert report.variance_condition_values == pytest.approx(expected, rel=1e-12)


def test_fixed_schedule_fails_growth():
    report = check_consistency_conditions(TruncationSchedule.fixed(5), UniformDeployment(),
                                          (100, 1000, 10_000))
    assert not report.truncation_grows
    assert not report.all_pass
    assert report.variance_ok  # 5/n still vanishes; growth is what fails


@pytest.mark.parametrize("grid, vanishing", [((100, 166), False), ((100, 250), True)],
                         ids=["ratio_0.602", "ratio_0.400"])
def test_the_variance_condition_vanishes_at_half_its_first_value(grid, vanishing):
    """A fixed m = 5 gives q_n = 5/n: the last q must be at most half the first."""
    report = check_consistency_conditions(TruncationSchedule.fixed(5), UniformDeployment(), grid)
    assert report.variance_condition_vanishing is vanishing


def test_linear_truncation_fails_the_variance_condition():
    report = check_consistency_conditions(TruncationSchedule.power(1.0), UniformDeployment(),
                                          (100, 1000, 10_000))
    assert report.truncation_ok
    assert not report.variance_ok
    assert not report.all_pass
    assert report.variance_condition_values == pytest.approx((1.0, 1.0, 1.0))


def test_the_checker_reads_the_variance_sum_of_the_bound():
    """q_n is the bound's m * I over n, I the deployment's integral of
    1/p_X, to the last bit (a pairwise sum of m copies of I differs from it
    at m = 100, 317, 1000)."""
    deploy = AffineFloorDeployment(nu=0.5)
    grid = (100, 1000, 10_000, 100_000, 1_000_000)
    report = check_consistency_conditions(TruncationSchedule.bv(), deploy, grid)
    assert report.m_values == (10, 32, 100, 317, 1000)
    for q, m, n in zip(report.variance_condition_values, report.m_values, grid):
        assert q == m * deploy.integral / n


def test_an_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="n_grid"):
        check_consistency_conditions(TruncationSchedule.bv(), UniformDeployment(), [])


# ---------------------------------------------------------------------------
# integrated squared error
# ---------------------------------------------------------------------------

def test_exact_coefficients_give_zero_error(finite_dim_k5):
    cv = true_coefficients(finite_dim_k5, 5)
    hat = ReconstructionCoefficients(values=cv.values.copy())
    assert integrated_squared_error(hat, cv, finite_dim_k5) == 0.0


def test_zero_estimate_gives_full_energy(sawtooth):
    cv = true_coefficients(sawtooth, 8)
    hat = ReconstructionCoefficients(values=np.zeros(8, complex))
    assert integrated_squared_error(hat, cv, sawtooth) == \
        pytest.approx(sawtooth.norm_sq, abs=1e-12)


def test_hand_worked_case():
    field = make_finite_dim_field([0.5, 0.5j, -0.5j], amplitude_bound=2.0)
    # ||f||^2 = 0.25 + 0.25 + 0.25 = 0.75; use the first two coefficients:
    # |1 - 0.5|^2 + |0 - 0.5j|^2 = 0.5, tail = 0.25
    cv = true_coefficients(field, 2)
    hat = ReconstructionCoefficients(values=np.array([1.0, 0.0], dtype=complex))
    assert integrated_squared_error(hat, cv, field) == pytest.approx(0.75, abs=1e-12)


def test_parseval_error_matches_direct_quadrature():
    rng = np.random.default_rng(3)
    for case in range(5):
        n_pairs = int(rng.integers(1, 4))
        values = [complex(rng.uniform(-1, 1), 0)]
        for _ in range(n_pairs):
            re, im = rng.uniform(-0.5, 0.5, 2)
            values.extend([complex(re, -im), complex(re, im)])
        field = make_finite_dim_field(values, amplitude_bound=4.0)
        m = int(rng.integers(1, len(values) + 1))
        hat_vals = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.5, 0.5, m)
        hat = ReconstructionCoefficients(values=hat_vals)
        cv = true_coefficients(field, len(values))
        fast = integrated_squared_error(hat, cv, field)

        def integrand(x):
            f_hat = complex(synthesize(hat_vals, np.array([x]))[0])
            return abs(field.eval(x) - f_hat) ** 2

        direct, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=300)
        assert abs(fast - direct) <= 1e-6 * max(direct, 1e-12)


def test_error_requires_enough_true_coefficients(sawtooth):
    cv = true_coefficients(sawtooth, 2)
    hat = ReconstructionCoefficients(values=np.zeros(4, complex))
    with pytest.raises(ValueError):
        integrated_squared_error(hat, cv, sawtooth)


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps
# ---------------------------------------------------------------------------

def test_monte_carlo_is_deterministic(sawtooth):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    schedule = TruncationSchedule.bv()
    a = monte_carlo_mse(sawtooth, deploy, noise, schedule, [500, 2000], trials=2, seed=21)
    b = monte_carlo_mse(sawtooth, deploy, noise, schedule, [500, 2000], trials=2, seed=21)
    assert a.means == b.means and a.stds == b.stds


def test_worker_count_does_not_change_results(sawtooth):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    schedule = TruncationSchedule.bv()
    serial = monte_carlo_mse(sawtooth, deploy, noise, schedule, [400, 1600],
                             trials=60, seed=31, workers=1)
    parallel = monte_carlo_mse(sawtooth, deploy, noise, schedule, [400, 1600],
                               trials=60, seed=31, workers=2)
    assert serial.means == parallel.means
    assert all(np.array_equal(x, y)
               for x, y in zip(serial.trial_values, parallel.trial_values))


@pytest.mark.parametrize("deploy, noise", [(AffineFloorDeployment(nu=0.5), TwoPointNoise(b=0.7)),
                                           (Linear2xDeployment(), ZeroNoise())],
                         ids=["affine_floor-two_point", "linear_2x-zero"])
def test_worker_count_does_not_change_results_on_other_inputs(sawtooth, deploy, noise):
    """The pool workers rebuild the deployment and noise they are sent and
    draw from them what the parent draws."""
    serial, parallel = (monte_carlo_mse(sawtooth, deploy, noise, TruncationSchedule.bv(),
                                        [300, 900], trials=30, seed=37, workers=workers)
                        for workers in (1, 2))
    assert all(np.array_equal(x, y)
               for x, y in zip(serial.trial_values, parallel.trial_values))


def test_an_array_of_trial_counts_is_one_count_per_n(sawtooth):
    """A 1-D array of counts reads as a list does; it used to fail as a
    conversion of the whole array to one Python int."""
    args = (sawtooth, UniformDeployment(), ZeroNoise(), TruncationSchedule.bv(), [64, 128])
    from_array = monte_carlo_mse(*args, trials=np.array([2, 3]), seed=5)
    from_list = monte_carlo_mse(*args, trials=[2, 3], seed=5)
    assert from_array.trials == from_list.trials == (2, 3)
    assert all(np.array_equal(a, b)
               for a, b in zip(from_array.trial_values, from_list.trial_values))


def test_integral_floats_and_numpy_ints_are_counts(sawtooth):
    """500.0 and np.int64(500) read as the int 500 wherever a count is
    taken; a fractional count is refused (`test_guards`)."""
    args = (sawtooth, UniformDeployment(), ZeroNoise(), TruncationSchedule.bv())
    as_floats = monte_carlo_mse(*args, [64.0, np.int64(128)], trials=[2.0, np.int64(3)], seed=5)
    as_ints = monte_carlo_mse(*args, [64, 128], trials=[2, 3], seed=5)
    assert all(np.array_equal(a, b) for a, b in zip(as_floats.trial_values, as_ints.trial_values))
    assert monte_carlo_mse(*args, [64], trials=2.0, seed=5).trials == (2,)
    counts = [as_floats.trials,
              check_consistency_conditions(TruncationSchedule.bv(), UniformDeployment(),
                                           [100.0, np.int64(1000)]).n_grid,
              rate_fit([10.0, 20, 40, np.int64(80)], [1.0, 0.5, 0.25, 0.125]).n_grid]
    assert counts == [(2, 3), (100, 1000), (10, 20, 40, 80)]
    assert all(type(n) is int for values in counts for n in values)


def test_chunk_size_does_not_change_trial_estimates(sawtooth, monkeypatch):
    """Pool tasks of TASK_SENSORS = 2100 and 75000 sensors, 7 and 250 trials
    at n = 300 and 3 and 107 at n = 700, split blocks (54 and 23 trials),
    and TASK_SENSORS = 1 makes one-trial tasks; two workers run the tasks
    out of order."""
    deploy, noise = AffineFloorDeployment(nu=0.5), UniformSymNoise(b=1.0)
    sobolev = make_sobolev_field(1.0, seed=7, n_freqs=32)
    cells = [TrialCell(f, deploy, noise, n, m, trials)
             for f, n, m, trials in ((sawtooth, 300, 5, 123), (sobolev, 700, 8, 9),
                                     (sobolev, 1, 8, 12))]
    runs = []
    for workers in (1, 2):
        for task_sensors in (1, 2100, 75_000):
            monkeypatch.setattr(analysis, "TASK_SENSORS", task_sensors)
            runs.append(collect_trials(cells, seed=17, workers=workers))
    assert [a.shape for a in runs[0]] == [(123, 5), (9, 8), (12, 8)]
    for other in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], other))
    # trial t of cell i draws from trial_seed(seed, i, t)
    batch = simulate_batch(sobolev, deploy, noise, 700, trial_seed(17, 1, 3))
    cfg = EstimatorConfig(basis=FourierBasis(), density=deploy,
                          c=sobolev.amplitude_bound + noise.b,
                          schedule=TruncationSchedule.fixed(8))
    assert np.array_equal(runs[0][1][3], estimate_coefficients(batch, cfg, 8).values)


@pytest.mark.parametrize("workers", [0, -1, WORKERS_MAX + 1])
def test_the_worker_count_is_checked_before_any_trial_runs(sawtooth, workers):
    deploy, noise = UniformDeployment(), ZeroNoise()
    taken = []
    with pytest.raises(ValueError, match=rf"workers must be an integer in \[1, {WORKERS_MAX}\]"):
        map_trials([TrialCell(sawtooth, deploy, noise, 100, 4, 2)], seed=1,
                   take=lambda *chunk: taken.append(chunk), workers=workers)
    assert taken == []


def test_chunks_reach_take_in_payload_order(sawtooth, monkeypatch):
    """Cell by cell, each cell's chunks in trial order, at either worker count."""
    monkeypatch.setattr(analysis, "TASK_SENSORS", 500)
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    cells = [TrialCell(sawtooth, deploy, noise, n, 4, trials)
             for n, trials in ((100, 12), (200, 5))]
    for workers in (1, 2):
        order = []
        map_trials(cells, seed=3, workers=workers,
                   take=lambda i, t0, rows: order.append((i, t0, rows.shape)))
        assert order == [(0, 0, (5, 4)), (0, 5, (5, 4)), (0, 10, (2, 4)),
                         (1, 0, (2, 4)), (1, 2, (2, 4)), (1, 4, (1, 4))]


class UnevaluableField(SawtoothField):
    """A sawtooth whose evaluation raises, in whatever process runs it."""

    def eval(self, x):
        raise ArithmeticError("this field cannot be evaluated")


def test_no_pool_outlives_a_raise(sawtooth, monkeypatch):
    """A chunk that raises in a worker (its field cannot be evaluated) and
    a `take` that raises both leave no worker process behind."""
    monkeypatch.setattr(analysis, "TASK_SENSORS", 100)
    deploy, noise = UniformDeployment(), ZeroNoise()

    def cell(field):
        return TrialCell(field, deploy, noise, 100, 8, 6)

    with pytest.raises(ArithmeticError, match="cannot be evaluated"):
        map_trials([cell(sawtooth), cell(UnevaluableField())], seed=2,
                   take=lambda *chunk: None, workers=2)
    assert multiprocessing.active_children() == []

    def take(i, t0, rows):
        raise RuntimeError("consumer failed")

    with pytest.raises(RuntimeError, match="consumer failed"):
        map_trials([cell(sawtooth)], seed=2, take=take, workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("m", [1, 8, 512])
def test_sweep_scores_each_trial_as_its_own_row(sawtooth, m):
    """Scoring the (trials, m) array at once gives, bitwise, the error of
    each trial scored on its own."""
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    sweep = monte_carlo_mse(sawtooth, deploy, noise, TruncationSchedule.fixed(m), [1024],
                            trials=12, seed=41)
    rows = collect_trials([TrialCell(sawtooth, deploy, noise, 1024, m, 12)], seed=41)[0]
    true_cv = true_coefficients(sawtooth, m)
    per_row = [integrated_squared_error(ReconstructionCoefficients(row),
                                        true_cv, sawtooth) for row in rows]
    assert np.array_equal(sweep.trial_values[0], per_row)


def test_the_sweep_reports_the_sample_std_and_a_95_percent_ci(sawtooth, monkeypatch):
    """Hand-built errors 1, 2, 3, 4 of one cell: mean 2.5, sample standard
    deviation sqrt(5/3) (ddof = 1) and CI half-width 1.96 sqrt(5/3) / sqrt(4)."""
    monkeypatch.setattr(analysis, "integrated_squared_error",
                        lambda *args: np.array([1.0, 2.0, 3.0, 4.0]))
    sweep = monte_carlo_mse(sawtooth, UniformDeployment(), ZeroNoise(),
                            TruncationSchedule.fixed(1), [8], trials=4, seed=0)
    assert sweep.means == (2.5,)
    assert sweep.stds == pytest.approx((math.sqrt(5.0 / 3.0),), rel=1e-15)
    assert sweep.ci_half == pytest.approx((0.98 * math.sqrt(5.0 / 3.0),), rel=1e-15)


# |z| > 4 has two-sided probability 6.3e-5 under N(0, 1): a false alarm
# rate of 1.9e-4 over the three lags
LAG_Z_MAX = 4.0


def test_trial_errors_are_uncorrelated_across_trials_blocks_and_chunks(sawtooth):
    """The correlation of trial t's error with trial t + lag's, over the
    T - lag pairs, reads as N(0, 1/(T - lag)) at lag 1, at the trials of a
    block (BLOCK_POINTS // n) and at those of a pool chunk (TASK_SENSORS // n).
    Two trials that shared their stream words would read about 0.5 at lag 1."""
    n, trials = 2048, 512
    sweep = monte_carlo_mse(sawtooth, UniformDeployment(), UniformSymNoise(b=1.0),
                            TruncationSchedule.fixed(16), [n], trials=trials, seed=61)
    errors = sweep.trial_values[0]
    lags = (1, spectral.BLOCK_POINTS // n, analysis.TASK_SENSORS // n)
    assert lags == (1, 8, 128)  # 64 blocks in 4 chunks
    for lag in lags:
        r = np.corrcoef(errors[:-lag], errors[lag:])[0, 1]
        assert abs(r) * math.sqrt(trials - lag) < LAG_Z_MAX, lag


def test_zero_field_mse_tracks_the_variance_bound():
    # with m = 1 the distortion is Var[alpha_hat_0] <= c^2 / n
    field, deploy, noise = zero_field(1.0), UniformDeployment(), ZeroNoise()
    sweep = monte_carlo_mse(field, deploy, noise, TruncationSchedule.fixed(1),
                            [10_000], trials=200, seed=41)
    assert sweep.means[0] <= 1.2 * 1.0 / 10_000


def test_finite_dim_mse_scales_inversely_with_n(finite_dim_k5):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    sweep = monte_carlo_mse(finite_dim_k5, deploy, noise, TruncationSchedule.finite_dim(5),
                            [1000, 10_000], trials=150, seed=51)
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
    cv = true_coefficients(sawtooth, 1024)
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

def test_schedule_validation_accepts_and_rejects(sawtooth):
    ok = validate_as_schedule(0.5, 1.5, UniformDeployment(), [sawtooth])
    assert ok.gamma_in_range and ok.accepted
    assert ok.series_exponent == pytest.approx(0.75)
    bad = validate_as_schedule(0.5, 2.5, UniformDeployment(), [sawtooth])
    assert not bad.gamma_in_range and not bad.accepted


def test_bounded_basis_route_constants(shipped_fields):
    val = validate_as_schedule(0.5, 1.5, UniformDeployment(), list(shipped_fields.values()))
    assert val.c1 == pytest.approx(1.0)  # beta^2 / nu with beta = nu = 1
    assert val.c2 == pytest.approx(1.0)  # a * beta * sqrt(vol), a = 1 of sobolev_s1


@pytest.mark.parametrize("m", [2, 16, 128])
def test_the_stated_constants_bound_the_dense_kernel_and_projections(m, shipped_fields):
    """The dense sums of phi_j(x) conj phi_j(y) / p_X(y) and alpha_j phi_j(x)
    over j < m stay within c1 * m and c2 * m, and the kernel attains c1 * m
    on the diagonal where p_X = nu."""
    deploy = AffineFloorDeployment(nu=0.5)
    val = validate_as_schedule(0.5, 1.5, deploy, list(shipped_fields.values()))
    assert (val.c1, val.c2) == (2.0, 1.0)
    xg = np.linspace(0.0, 1.0, 193)
    phi = np.column_stack([fourier_eval(j, xg) for j in range(m)])
    kernel = np.abs(phi @ phi.conj().T) / np.asarray(deploy.pdf(xg))[None, :]
    assert kernel.max() == pytest.approx(val.c1 * m, rel=1e-12)
    for f in shipped_fields.values():
        assert np.abs(phi @ true_coefficients(f, m).values).max() <= val.c2 * m


def test_the_projection_constant_takes_the_largest_amplitude_bound_of_its_fields():
    fields = [zero_field(0.25), make_finite_dim_field([0.2, 0.1, 0.1], amplitude_bound=0.8)]
    val = validate_as_schedule(0.5, 1.5, AffineFloorDeployment(nu=0.25), fields=fields)
    assert (val.c1, val.c2) == (4.0, 0.8)
    assert val.accepted


def test_unbounded_weights_disable_the_bounded_route():
    val = validate_as_schedule(0.5, 1.5, Linear2xDeployment(), [zero_field()])
    assert val.c1 is None and not val.accepted


def test_trace_error_shrinks_along_the_path(sawtooth):
    trace = as_error_trace(sawtooth, UniformDeployment(), UniformSymNoise(b=0.5),
                           psi=0.4, seed=17, n_checkpoints=(1000, 100_000))
    assert trace.sup_error[-1] < trace.sup_error[0]
    assert trace.m_values == (16, 100)
    assert trace.condition.gamma_in_range


def test_trace_checkpoints_equal_the_whole_path_estimates():
    """Each checkpoint's sup error is that of the whole-path estimate of
    that many sensors: the trace's segments and tiles, started on or off a
    multiple of 4, add up to one pass over the nested sample path."""
    field, deploy, noise = zero_field(1.0), UniformDeployment(), ZeroNoise()
    cfg = EstimatorConfig(basis=FourierBasis(), density=deploy, c=1.0,
                          schedule=TruncationSchedule.power(0.4))
    grid = np.linspace(0.0, 1.0, analysis.TRACE_GRID_POINTS)
    # (3, 40_001): a segment of three tiles, the first starting at sensor 3
    for checkpoints in [(1000, 10_000), (1001, 10_003), (3, 40_001)]:
        trace = as_error_trace(field, deploy, noise, psi=0.4, seed=23,
                               n_checkpoints=checkpoints)
        for i, n in enumerate(checkpoints):
            batch = simulate_batch(field, deploy, noise, n, seed=23)
            alpha = estimate_coefficients(batch, cfg, trace.m_values[i]).values
            sup = np.max(np.abs(synthesize(alpha, grid)))
            assert trace.sup_error[i] == pytest.approx(sup, rel=1e-12), n


def test_interior_sup_excludes_jump_neighborhoods(sawtooth):
    trace = as_error_trace(sawtooth, UniformDeployment(), UniformSymNoise(b=0.5),
                           psi=0.4, seed=29, n_checkpoints=(2000, 200_000))
    # the interior view is a part of the grid, and past the first checkpoint
    # the wrap jump at 0/1 holds the full-grid error near |f(0) - f_m(0)| = 1/2
    assert all(i <= f for i, f in zip(trace.sup_estimate_error_interior,
                                      trace.sup_estimate_error))
    assert trace.sup_estimate_error[-1] > 0.4
    assert trace.sup_estimate_error_interior[-1] < 0.5 * trace.sup_estimate_error[-1]


def test_sawtooth_pointwise_view_improves_away_from_the_wrap_jump(sawtooth):
    trace = as_error_trace(sawtooth, UniformDeployment(), UniformSymNoise(b=0.5),
                           psi=0.3, seed=37, n_checkpoints=(1000, 1_000_000))
    # the wrap jump at 0/1 keeps the full-grid estimate error from
    # collapsing, while the interior view improves along the path
    assert trace.sup_estimate_error_interior[-1] < trace.sup_estimate_error[-1]
    assert trace.sup_estimate_error_interior[-1] < \
        trace.sup_estimate_error_interior[0]

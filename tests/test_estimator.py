import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherfield import (EstimationError, EstimatorConfig, FourierBasis,
                         Linear2xDeployment, SensorBatch, TruncationSchedule,
                         UniformDeployment, UniformSymNoise, ZeroNoise,
                         estimate_coefficients, simulate_batch,
                         trial_seed, true_coefficients)

from conftest import zero_field


def make_cfg(c, schedule=None, density=None):
    return EstimatorConfig(basis=FourierBasis(),
                           density=density or UniformDeployment(), c=c,
                           schedule=schedule or TruncationSchedule.fixed(8))


# ---------------------------------------------------------------------------
# truncation schedules
# ---------------------------------------------------------------------------

def test_schedule_examples():
    assert TruncationSchedule.bv().resolve(10_000) == 100
    assert TruncationSchedule.sobolev(1.0).resolve(1000) == 10
    for n in (1, 7, 10_000, 123_456):
        assert TruncationSchedule.finite_dim(5).resolve(n) == 5
    assert TruncationSchedule.power(0.4).resolve(1000) == 16
    assert TruncationSchedule.power(1.0).resolve(777) == 777
    assert TruncationSchedule.fixed(3).resolve(10) == 3


def test_schedule_integerization_does_not_overshoot_exact_roots():
    assert TruncationSchedule.sobolev(1.0).resolve(27) == 3
    assert TruncationSchedule.sobolev(1.0).resolve(8) == 2
    assert TruncationSchedule.bv().resolve(49) == 7


@given(st.sampled_from(["bv", "sobolev", "power", "fixed", "finite_dim"]),
       st.integers(min_value=1, max_value=10 ** 7),
       st.integers(min_value=1, max_value=10 ** 7))
@settings(max_examples=60, deadline=None)
def test_schedules_are_positive_and_nondecreasing(kind, n1, n2):
    schedule = {"bv": TruncationSchedule.bv(),
                "sobolev": TruncationSchedule.sobolev(1.5),
                "power": TruncationSchedule.power(0.3),
                "fixed": TruncationSchedule.fixed(4),
                "finite_dim": TruncationSchedule.finite_dim(6)}[kind]
    lo, hi = sorted((n1, n2))
    m_lo, m_hi = schedule.resolve(lo), schedule.resolve(hi)
    assert m_lo >= 1
    assert m_hi >= m_lo


def test_invalid_schedules_rejected():
    with pytest.raises(ValueError):
        TruncationSchedule.power(0.0)
    with pytest.raises(ValueError):
        TruncationSchedule.sobolev(0.5)
    with pytest.raises(ValueError):
        TruncationSchedule.fixed(0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, keyword", [
    (TruncationSchedule.fixed, "m"), (TruncationSchedule.finite_dim, "k"),
    (TruncationSchedule.sobolev, "s"), (TruncationSchedule.power, "psi"),
    (lambda v: TruncationSchedule(m=v), "m"), (lambda v: TruncationSchedule(psi=v), "psi")],
    ids=["fixed", "finite_dim", "sobolev", "power", "direct_m", "direct_psi"])
def test_non_finite_schedule_parameters_rejected(make, keyword, bad):
    """Refused by the count rule (m, k) or the real rule (s, psi), under the
    keyword the caller passed."""
    with pytest.raises(ValueError, match=f"^{keyword} must be an? "):
        make(bad)


def _kind_ladder(kind: str, param, n: int) -> int:
    """m(n) by the five-way kind ladder the schedule once held: the oracle."""
    if kind in ("fixed", "finite_dim"):
        return param
    if kind == "bv":
        exponent = 0.5
    elif kind == "sobolev":
        exponent = 1.0 / (2.0 * param + 1.0)
    else:
        exponent = param
    return max(1, math.ceil(round(n ** exponent, 9)))


@given(st.sampled_from(["fixed", "finite_dim", "bv", "sobolev", "power"]),
       st.integers(min_value=1, max_value=1 << 24),
       st.integers(min_value=1, max_value=1 << 10),
       st.floats(min_value=0.5, max_value=20.0, exclude_min=True),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@settings(max_examples=300, deadline=None)
def test_each_schedule_resolves_as_its_kind_ladder(kind, n, m, s, psi):
    """A constant m or ceil(n^psi) gives, for every shipped kind, the m(n)
    of the kind ladder, with psi = 1/2 for bv and 1/(2s+1) for sobolev."""
    param = {"fixed": m, "finite_dim": m, "bv": None, "sobolev": s, "power": psi}[kind]
    make = getattr(TruncationSchedule, kind)
    schedule = make() if param is None else make(param)
    assert schedule.resolve(n) == _kind_ladder(kind, param, n)


# ---------------------------------------------------------------------------
# coefficient estimation
# ---------------------------------------------------------------------------

def test_single_sensor_arithmetic():
    # one sensor at x = 1/2 reporting +1 under uniform deployment: the
    # zeroth estimate is exactly c * conj(phi_0(x)) * B / p(x) = c
    batch = SensorBatch(x=np.array([0.5]), y=np.array([0.3]),
                        t=np.array([0.1]), bits=np.array([1.0]), c=2.0)
    hat = estimate_coefficients(batch, make_cfg(c=2.0), 1)
    assert hat.values[0] == pytest.approx(2.0 + 0.0j, abs=1e-15)


def test_zero_field_estimates_are_unbiased():
    # Across many small trials the mean of alpha_hat_0 concentrates at 0
    # with sd c / sqrt(n * trials).
    trials, n, c = 10_000, 100, 1.0
    field, deploy, noise = zero_field(1.0), UniformDeployment(), ZeroNoise()
    cfg = make_cfg(c=c, schedule=TruncationSchedule.fixed(1))
    acc = 0.0 + 0.0j
    for t in range(trials):
        batch = simulate_batch(field, deploy, noise, n, trial_seed(505, t))
        acc += estimate_coefficients(batch, cfg, 1).values[0]
    mean = acc / trials
    assert abs(mean) <= 4.0 * c / np.sqrt(n * trials)


def test_sawtooth_estimate_matches_quadrature_coefficient(sawtooth):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    c = sawtooth.amplitude_bound + noise.b
    cfg = make_cfg(c=c)
    trials, n = 40, 100_000
    values = np.empty(trials, dtype=complex)
    for t in range(trials):
        batch = simulate_batch(sawtooth, deploy, noise, n, trial_seed(606, t))
        values[t] = estimate_coefficients(batch, cfg, 2).values[1]
    alpha_1 = true_coefficients(sawtooth, 2).values[1]
    sigma_mean = np.sqrt(np.mean(np.abs(values - values.mean()) ** 2) / trials)
    assert abs(values.mean() - alpha_1) <= 4.0 * sigma_mean


@pytest.mark.parametrize("nu", [1.0, 0.5])
def test_empirical_variance_respects_the_bound(sawtooth, nu):
    from ditherfield import AffineFloorDeployment

    deploy = AffineFloorDeployment(nu=nu)
    noise = UniformSymNoise(b=1.0)
    c = sawtooth.amplitude_bound + noise.b
    cfg = make_cfg(c=c, density=deploy)
    trials, n, j_count = 400, 1000, 4
    mat = np.empty((trials, j_count), dtype=complex)
    for t in range(trials):
        batch = simulate_batch(sawtooth, deploy, noise, n, trial_seed(707, t))
        mat[t] = estimate_coefficients(batch, cfg, j_count).values
    var_emp = np.mean(np.abs(mat - mat.mean(axis=0)) ** 2, axis=0)
    slack = 1.0 + 5.0 / np.sqrt(trials)
    bound = (c * c / n) * deploy.integral  # every j's: |phi_j| = 1
    for j in range(j_count):
        assert var_emp[j] <= bound * slack


def test_estimator_is_noise_law_blind(sawtooth):
    batch = simulate_batch(sawtooth, UniformDeployment(), UniformSymNoise(b=1.0),
                           20_000, seed=42)
    cfg = make_cfg(c=batch.c)
    blinded = SensorBatch(x=batch.x, y=np.zeros_like(batch.y),
                          t=np.zeros_like(batch.t), bits=batch.bits, c=batch.c)
    a = estimate_coefficients(batch, cfg, 6).values
    b = estimate_coefficients(blinded, cfg, 6).values
    assert np.array_equal(a, b)


def test_coefficient_magnitudes_respect_the_weight_bound(sawtooth):
    from ditherfield import AffineFloorDeployment

    deploy = AffineFloorDeployment(nu=0.5)
    noise = UniformSymNoise(b=1.0)
    c = sawtooth.amplitude_bound + noise.b
    cfg = make_cfg(c=c, density=deploy)
    batch = simulate_batch(sawtooth, deploy, noise, 10_000, seed=8)
    hat = estimate_coefficients(batch, cfg, 16)
    assert np.max(np.abs(hat.values)) <= c * 1.0 / deploy.infimum + 1e-9


def test_coefficients_converge_along_one_sample_path(sawtooth):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    cfg = make_cfg(c=sawtooth.amplitude_bound + noise.b)
    big = simulate_batch(sawtooth, deploy, noise, 1_000_000, seed=909)
    alpha = true_coefficients(sawtooth, 4).values
    small = simulate_batch(sawtooth, deploy, noise, 1000, seed=909)
    early = estimate_coefficients(small, cfg, 4).values
    late = estimate_coefficients(big, cfg, 4).values
    for j in range(4):
        assert abs(late[j] - alpha[j]) < abs(early[j] - alpha[j])


def test_vanishing_density_raises_with_location():
    batch = SensorBatch(x=np.array([0.4, 0.0]), y=np.zeros(2),
                        t=np.zeros(2), bits=np.array([1.0, -1.0]), c=1.0)
    cfg = make_cfg(c=1.0, density=Linear2xDeployment())
    with pytest.raises(EstimationError, match="0.0"):
        estimate_coefficients(batch, cfg, 2)


@pytest.mark.parametrize("x, bits, message", [
    ([0.1, np.nan, 0.3, np.nan], [1.0, -1.0, 1.0, 1.0], r"x\[1\]=nan is not in \[0, 1\]"),
    ([0.1, 0.2, 1.5, -0.2], [1.0, -1.0, 1.0, 1.0], r"x\[2\]=1.5 is not in"),
    ([-1e-12, 0.2, 0.3, 0.4], [1.0, -1.0, 1.0, 1.0], r"x\[0\]=-1e-12 is not in"),
    ([0.1, 0.2, 0.3, 0.4], [1.0, -1.0, 0.0, 1.0], r"bits\[2\]=0.0 is not -1 or \+1"),
    ([0.1, 0.2, 0.3, 0.4], [1.0, np.nan, 1.0, 2.0], r"bits\[1\]=nan is not"),
])
def test_bad_sensor_data_raises_with_the_first_bad_index(x, bits, message):
    batch = SensorBatch(x=np.array(x), y=np.zeros(4), t=np.zeros(4),
                        bits=np.array(bits), c=1.0)
    with pytest.raises(EstimationError, match=message):
        estimate_coefficients(batch, make_cfg(c=1.0), 4)


def test_unit_interval_endpoints_are_valid_locations():
    batch = SensorBatch(x=np.array([0.0, 1.0]), y=np.zeros(2), t=np.zeros(2),
                        bits=np.array([1.0, -1.0]), c=1.0)
    assert np.all(np.isfinite(estimate_coefficients(batch, make_cfg(c=1.0), 4).values))


# ---------------------------------------------------------------------------
# the README
# ---------------------------------------------------------------------------

def test_the_readme_quick_start_runs_as_written():
    """The README's one `python` block, run as it stands, so that its
    signatures cannot go stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    names = {}
    exec(blocks[0], names)
    assert names["m"] == 317 and len(names["alpha_hat"]) == 317
    assert 0.0 < names["err"] < 0.05
    assert names["estimate_on_grid"].shape == (513,)

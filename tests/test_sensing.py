import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ditherfield import (AffineFloorDeployment, Linear2xDeployment, TwoPointNoise,
                         UniformDeployment, UniformSymNoise, ZeroNoise,
                         simulate_batch, stream_keys)
from ditherfield.sensing import (SENSORS_MAX, STREAM_LOCATIONS, STREAM_NOISE,
                                 STREAM_THRESHOLDS, _quantize)

from conftest import substream, zero_field

# nu = 1 is the flat floor, which samples and integrates by its own branches
DEPLOYMENTS = [UniformDeployment(), Linear2xDeployment(),
               AffineFloorDeployment(nu=0.5), AffineFloorDeployment(nu=0.9),
               AffineFloorDeployment(nu=1.0)]

NOISES = [ZeroNoise(), UniformSymNoise(b=1.0), TwoPointNoise(b=0.7)]


# each deployment's cdf on [0, 1], the integral of its density: the sampler's oracle
CDFS = {"uniform": lambda deploy, x: x,
        "linear_2x": lambda deploy, x: x * x,
        "affine_floor": lambda deploy, x: deploy.nu * x + (1.0 - deploy.nu) * x * x}


# ---------------------------------------------------------------------------
# deployment densities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("deploy", DEPLOYMENTS, ids=lambda d: d.kind)
def test_pdf_integrates_to_one(deploy):
    total, _ = quad(lambda x: float(deploy.pdf(x)), 0.0, 1.0, epsabs=1e-10, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("deploy", DEPLOYMENTS, ids=lambda d: d.kind)
def test_sampler_matches_cdf(deploy):
    rng = substream(314, STREAM_LOCATIONS)
    x = deploy.sample(rng.random(100_000))
    assert x.min() >= 0.0 and x.max() <= 1.0
    xs = np.sort(x)
    ecdf_hi = np.arange(1, len(xs) + 1) / len(xs)
    ecdf_lo = np.arange(0, len(xs)) / len(xs)
    cdf = CDFS[deploy.kind](deploy, xs)
    ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    assert ks < 0.01


@pytest.mark.parametrize("deploy", DEPLOYMENTS, ids=lambda d: d.kind)
def test_infimum_matches_dense_grid_minimum(deploy):
    grid = np.linspace(0.0, 1.0, 100_001)
    assert deploy.infimum == pytest.approx(float(np.min(deploy.pdf(grid))), abs=1e-6)


def test_affine_floor_requires_positive_floor():
    with pytest.raises(ValueError):
        AffineFloorDeployment(nu=0.0)


@pytest.mark.parametrize("nu", [0.0, -0.5, np.nextafter(1.0, 2.0), 1.5, np.nan, np.inf,
                                -np.inf])
def test_affine_floor_must_lie_in_the_unit_interval(nu):
    """A floor above 1 would give a negative density at the right edge; a
    non-finite floor fails the real rule before the range is tested."""
    message = r"floor must lie in \(0, 1\]" if np.isfinite(nu) else "^nu must be a finite number"
    with pytest.raises(ValueError, match=message):
        AffineFloorDeployment(nu=nu)


def test_the_flat_affine_floor_is_the_uniform_deployment():
    """At nu = 1 the slope is 0: sampling and the inverse-density integral
    take their own branches, and give the uniform deployment's numbers."""
    flat, uniform = AffineFloorDeployment(nu=1.0), UniformDeployment()
    u = substream(55, STREAM_LOCATIONS).random(1000)
    assert np.array_equal(flat.sample(u), uniform.sample(u))
    assert np.array_equal(flat.pdf(u), uniform.pdf(u))
    assert flat.infimum == uniform.infimum == 1.0
    for lo, hi in ((0.0, 1.0), (0.25, 0.75), (0.0, 1e-300)):
        assert flat.inverse_integral(lo, hi) == uniform.inverse_integral(lo, hi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("make", [lambda v: UniformSymNoise(b=v),
                                  lambda v: TwoPointNoise(b=v)],
                         ids=["uniform_sym_b", "two_point_b"])
def test_noise_scales_must_be_positive_and_finite(make, bad):
    message = ("^noise bound b must be positive, got " if np.isfinite(bad)
               else "^b must be a finite number")
    with pytest.raises(ValueError, match=message):
        make(bad)


# ---------------------------------------------------------------------------
# closed-form inverse-density integrals, against scipy quad
# ---------------------------------------------------------------------------

def quad_inverse(deploy, lo, hi):
    value, _ = quad(lambda x: 1.0 / float(deploy.pdf(x)), lo, hi,
                    epsabs=0.0, epsrel=1e-13, limit=1000)
    return value


@st.composite
def sub_intervals(draw, lo_min=0.0):
    a = draw(st.floats(min_value=lo_min, max_value=1.0))
    b = draw(st.floats(min_value=lo_min, max_value=1.0))
    assume(abs(b - a) > 1e-6)
    return min(a, b), max(a, b)


@given(st.floats(min_value=1e-6, max_value=1.0), sub_intervals())
@settings(max_examples=60, deadline=None)
def test_affine_inverse_integral_matches_quad(nu, interval):
    deploy = AffineFloorDeployment(nu=nu)
    for lo, hi in (interval, (0.0, 1.0)):
        assert deploy.inverse_integral(lo, hi) == pytest.approx(
            quad_inverse(deploy, lo, hi), rel=1e-10)


@pytest.mark.parametrize("nu", [1e-300, 1e-310, 5e-324])
def test_affine_inverse_integral_with_a_vanishing_floor_stays_finite(nu):
    # log(1 + 2(1 - nu)/nu) / (2(1 - nu)), where 2/nu overflows a float;
    # quad cannot resolve the near-singularity at 0, so it is no reference here
    expected = 0.5 * (np.log(2.0) - np.log(nu))
    assert AffineFloorDeployment(nu=nu).inverse_integral(0.0, 1.0) == \
        pytest.approx(expected, rel=1e-12)


@given(sub_intervals(lo_min=1e-3))
@settings(max_examples=60, deadline=None)
def test_linear_inverse_integral_matches_quad(interval):
    lo, hi = interval
    deploy = Linear2xDeployment()
    assert deploy.inverse_integral(lo, hi) == pytest.approx(
        quad_inverse(deploy, lo, hi), rel=1e-10)
    assert deploy.inverse_integral(0.0, hi) == np.inf


def test_uniform_inverse_integral_is_the_length():
    assert UniformDeployment().inverse_integral(0.0, 1.0) == 1.0
    assert UniformDeployment().inverse_integral(0.25, 0.75) == 0.5


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("noise", NOISES, ids=lambda z: z.kind)
def test_noise_bounded_and_zero_mean(noise):
    z = noise.sample(substream(2718, STREAM_NOISE).random(1_000_000))
    assert np.max(np.abs(z)) <= noise.b + 1e-12
    assert abs(z.mean()) <= 4.0 * max(noise.b, 1e-12) / 1000.0


def test_two_point_noise_is_minus_b_below_one_half_and_plus_b_from_it():
    """The tie u = 1/2 gives +b; its two float neighbours and the ends of
    [0, 1) fall on their own sides."""
    half = 0.5
    u = np.array([0.0, 5e-324, np.nextafter(half, 0.0), half, np.nextafter(half, 1.0),
                  np.nextafter(1.0, 0.0)])
    z = TwoPointNoise(b=0.7).sample(u)
    assert z.tolist() == [-0.7, -0.7, -0.7, 0.7, 0.7, 0.7]
    draws = substream(808, STREAM_NOISE).random(10_000)
    assert np.array_equal(TwoPointNoise(b=0.7).sample(draws),
                          np.where(draws < 0.5, -0.7, 0.7))


def test_noise_prefix_stability():
    for noise in NOISES:
        short = noise.sample(substream(99, STREAM_NOISE).random(1000))
        long = noise.sample(substream(99, STREAM_NOISE).random(5000))
        assert np.array_equal(short, long[:1000])


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_ties_quantize_to_minus_one():
    y = np.array([0.5, 1.0, -1.0, 0.0, -0.0, np.nan, 0.3, np.nan])
    t = np.array([0.5, 0.999, -1.0, -0.0, 0.0, 0.3, np.nan, np.nan])
    assert np.array_equal(_quantize(y, t), [-1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0])


@pytest.mark.parametrize("noise", NOISES, ids=lambda z: z.kind)
def test_zero_noise_skips_its_stream(noise, sawtooth, monkeypatch):
    from ditherfield import sensing

    calls = []

    def counted(gen, keys, *rest):
        calls.append(len(keys))
        return fill(gen, keys, *rest)

    fill = sensing._fill_uniforms
    monkeypatch.setattr(sensing, "_fill_uniforms", counted)
    keys = stream_keys(21, [(0, t) for t in range(4)])
    batch = simulate_batch(sawtooth, UniformDeployment(), noise, 50, keys)
    assert calls == [4] * (2 if noise.b == 0.0 else 3)
    assert batch.y.flags.c_contiguous and batch.y.base is None


def test_dither_makes_the_bit_unbiased():
    # E[B | Y=y] = y/c for uniform thresholds on [-c, c]
    y, c, n = 0.3, 1.0, 1_000_000
    t = (2.0 * substream(7, STREAM_THRESHOLDS).random(n) - 1.0) * c
    bits = np.where(y > t, 1.0, -1.0)
    sigma = np.sqrt((1.0 - (y / c) ** 2) / n)
    assert abs(bits.mean() - y / c) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# batch simulation
# ---------------------------------------------------------------------------

def test_batches_are_deterministic(sawtooth):
    a = simulate_batch(sawtooth, UniformDeployment(), UniformSymNoise(b=1.0),
                       5000, seed=123)
    b = simulate_batch(sawtooth, UniformDeployment(), UniformSymNoise(b=1.0),
                       5000, seed=123)
    for name in ("x", "y", "t", "bits"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_constant_max_field_saturates_the_quantizer():
    from ditherfield import make_finite_dim_field

    field = make_finite_dim_field([1.0], amplitude_bound=1.0)
    batch = simulate_batch(field, UniformDeployment(), ZeroNoise(), 20_000, seed=5)
    assert batch.c == 1.0
    assert np.all(batch.bits == 1.0)


def test_zero_field_bits_are_balanced():
    batch = simulate_batch(zero_field(1.0), UniformDeployment(), ZeroNoise(),
                           1_000_000, seed=11)
    assert batch.c == 1.0
    assert abs(batch.bits.mean()) <= 0.004  # 4 sigma for a fair coin


def test_batch_invariants(sawtooth):
    noise = UniformSymNoise(b=0.5)
    batch = simulate_batch(sawtooth, AffineFloorDeployment(nu=0.5), noise,
                           50_000, seed=77)
    assert batch.c == pytest.approx(1.0)
    assert np.max(np.abs(batch.y)) <= batch.c + 1e-12
    assert np.max(np.abs(batch.t)) <= batch.c + 1e-12
    assert set(np.unique(batch.bits)) == {-1.0, 1.0}
    assert np.array_equal(batch.bits, np.where(batch.y > batch.t, 1.0, -1.0))


def test_nested_sample_paths(sawtooth):
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    small = simulate_batch(sawtooth, deploy, noise, 1000, seed=13)
    grown = simulate_batch(sawtooth, deploy, noise, 10_000, seed=13)
    assert grown.n == 10_000
    for name in ("x", "y", "t", "bits"):
        assert np.array_equal(getattr(grown, name)[:1000], getattr(small, name)), name


def test_substreams_are_labeled_and_independent():
    keys = stream_keys(40, [()])[0]
    assert len({tuple(k) for k in keys}) == 3
    batch = simulate_batch(zero_field(1.0), UniformDeployment(), UniformSymNoise(b=1.0),
                           8, seed=40)
    assert np.array_equal(batch.x, substream(40, STREAM_LOCATIONS).random(8))


def test_the_last_sensor_window_is_its_own_realizations(sawtooth):
    """Sensors up to 2^66 - 1 sit on counter word 0 of their realization:
    the last four differ from the first four of the next spawn key, which a
    carry into the spawn-key word would read, and one sensor more is
    refused."""
    deploy, last = UniformDeployment(), SENSORS_MAX - 4
    tail = simulate_batch(sawtooth, deploy, ZeroNoise(), 4, stream_keys(7, [(0,)]), last)
    head = simulate_batch(sawtooth, deploy, ZeroNoise(), 4, stream_keys(7, [(1,)]))
    assert tail.start == last and not np.array_equal(tail.x, head.x)
    with pytest.raises(ValueError, match=r"^start \+ n must be at most 2\^66: "):
        simulate_batch(sawtooth, deploy, ZeroNoise(), 5, stream_keys(7, [(0,)]), last)

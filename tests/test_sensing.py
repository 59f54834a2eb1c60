import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from ditherfield import (AffineFloorDeployment, Linear2xDeployment,
                         TabulatedDeployment, TruncGaussNoise, TwoPointNoise,
                         UniformDeployment, UniformSymNoise, ZeroNoise,
                         simulate_batch, stream_keys)
from ditherfield.sensing import (STREAM_LOCATIONS, STREAM_NOISE,
                                 STREAM_THRESHOLDS, _quantize)

from conftest import substream, tabulate_deployment, zero_field

DEPLOYMENTS = [UniformDeployment(), Linear2xDeployment(),
               AffineFloorDeployment(nu=0.5), AffineFloorDeployment(nu=0.9),
               tabulate_deployment(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))]

NOISES = [ZeroNoise(), UniformSymNoise(b=1.0), TruncGaussNoise(sigma=0.5, b=1.0),
          TwoPointNoise(b=0.7)]


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
    cdf = deploy.cdf(xs)
    ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    assert ks < 0.01


@pytest.mark.parametrize("values", [[0.5, 1.5], [1.0, 0.0, 2.0, 0.5], [0.0, 0.0, 1.0, 1.0]],
                         ids=lambda v: "_".join(map(str, v)))
def test_tabulated_cdf_integrates_the_pdf_and_sample_inverts_it(values):
    """On coarse tables, where the interpolated density is far from its cell
    averages: the cdf is the integral of the pdf the weights divide by, and
    sampling inverts it. Both used to interpolate the cdf linearly, so
    [0.5, 1.5] sampled uniformly and E[1/p(X)] read ln 3, not 1."""
    deploy = TabulatedDeployment(np.asarray(values))
    nodes = np.linspace(0.0, 1.0, len(values))
    x = np.linspace(0.0, 1.0, 41)
    integral = [quad(lambda t: float(deploy.pdf(t)), 0.0, end, epsabs=1e-15, epsrel=1e-13,
                     points=[node for node in nodes if 0.0 < node < end] or None)[0]
                for end in x]
    assert np.allclose(deploy.cdf(x), integral, rtol=0.0, atol=1e-12)
    u = np.concatenate([np.linspace(0.0, 1.0, 4001)[:-1], [1.0 - 2.0 ** -53]])
    assert np.allclose(deploy.cdf(deploy.sample(u)), u, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("deploy", DEPLOYMENTS, ids=lambda d: d.kind)
def test_infimum_matches_dense_grid_minimum(deploy):
    grid = np.linspace(0.0, 1.0, 100_001)
    assert deploy.infimum == pytest.approx(float(np.min(deploy.pdf(grid))), abs=1e-6)


def test_affine_floor_requires_positive_floor():
    with pytest.raises(ValueError):
        AffineFloorDeployment(nu=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("make", [lambda v: UniformSymNoise(b=v),
                                  lambda v: TwoPointNoise(b=v),
                                  lambda v: TruncGaussNoise(sigma=0.5, b=v),
                                  lambda v: TruncGaussNoise(sigma=v, b=1.0)],
                         ids=["uniform_sym_b", "two_point_b", "trunc_gauss_b",
                              "trunc_gauss_sigma"])
def test_noise_scales_must_be_positive_and_finite(make, bad):
    with pytest.raises(ValueError, match="positive and finite"):
        make(bad)


@pytest.mark.parametrize("sigma, b", [(0.5, 1.0), (2.0, 0.3), (1e-3, 1.0)])
def test_trunc_gauss_samples_are_the_clipped_inverse_cdf(sigma, b):
    """Bitwise: clip(sigma ndtri(lo + (hi - lo) u), -b, b), lo and hi the
    normal cdf at -b / sigma and b / sigma, computed here with scipy."""
    u = substream(808, STREAM_NOISE).random(10_000)
    u[:3] = [0.0, 0.5, 1.0 - 2.0 ** -53]
    lo, hi = ndtr(-b / sigma), ndtr(b / sigma)
    want = np.clip(sigma * ndtri(lo + (hi - lo) * u), -b, b)
    assert np.array_equal(TruncGaussNoise(sigma=sigma, b=b).sample(u), want)


# ---------------------------------------------------------------------------
# closed-form inverse-density integrals, against scipy quad
# ---------------------------------------------------------------------------

def quad_inverse(deploy, lo, hi, points=None):
    inner = sorted(p for p in (() if points is None else points) if lo < p < hi)
    value, _ = quad(lambda x: 1.0 / float(deploy.pdf(x)), lo, hi, points=inner or None,
                    epsabs=0.0, epsrel=1e-13, limit=1000)
    return value


@st.composite
def sub_intervals(draw, lo_min=0.0):
    a = draw(st.floats(min_value=lo_min, max_value=1.0))
    b = draw(st.floats(min_value=lo_min, max_value=1.0))
    assume(abs(b - a) > 1e-6)
    return min(a, b), max(a, b)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=33),
       sub_intervals())
@settings(max_examples=60, deadline=None)
def test_tabulated_inverse_integral_matches_quad(values, interval):
    deploy = TabulatedDeployment(np.asarray(values))
    nodes = np.linspace(0.0, 1.0, len(values))
    for lo, hi in (interval, (0.0, 1.0)):
        assert deploy.inverse_integral(lo, hi) == pytest.approx(
            quad_inverse(deploy, lo, hi, points=nodes), rel=1e-10)


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


@pytest.mark.parametrize("values", [[5e-324, 2.0], [1e-310, 2.0], [2.0, 5e-324], [1.0, 1e-17],
                                    [1.0, 1e-10]], ids=lambda v: "_".join(map(str, v)))
def test_tabulated_inverse_integral_beside_a_tiny_node_stays_finite(values):
    """log(p1/p0) / (p1 - p0) on the one linear piece, in 30-digit decimal
    from the exact normalized node values. A subnormal left node gave NaN
    (p1/p0 overflowed); a right node far below the left lost eight digits at
    1e-10 and read inf below 1.1e-16 (p1/p0 - 1 rounded toward -1)."""
    p0, p1 = map(Decimal, TabulatedDeployment(np.asarray(values)).pdf_values.tolist())
    with localcontext() as ctx:
        ctx.prec = 30
        expected = float((p1.ln() - p0.ln()) / (p1 - p0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = TabulatedDeployment(np.asarray(values)).inverse_integral(0.0, 1.0)
    assert got == pytest.approx(expected, rel=1e-13)


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


def test_constant_max_field_saturates_the_quantizer(fourier):
    from ditherfield import make_finite_dim_field

    field = make_finite_dim_field([1.0], amplitude_bound=1.0, basis=fourier)
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

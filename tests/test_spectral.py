"""Agreement of the gridded and direct paths of the nonuniform Fourier sums.

The measure is the benchmark's: max |gridded - direct| / max |direct|,
which must stay within 1e-10. Points and weights come from a seeded
generator, with some points pinned to 0.0, 1.0 and nodes of the
oversampled grid, where the kernel support wraps or lands exactly on a
node.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherfield import FourierBasis, StepBasis, spectral
from ditherfield.fields import synthesize

RTOL = 1e-10
# small K, which the cost model keeps direct at every n, and large K,
# which it sends to the gridded path for most n in [1, 5000]
K_VALUES = st.one_of(st.integers(0, 24), st.integers(25, 300))


def _on_path(gridded: bool, fn, *args):
    """fn(*args) with the cost model overridden to pick one path."""
    with mock.patch.object(spectral, "_gridded", lambda n, K, kind: gridded):
        return fn(*args)


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _points(n: int, K: int, seed: int, pinned: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    m = spectral._grid_size(K)
    special = np.concatenate([[0.0, 1.0], rng.integers(0, m + 1, 8) / m])
    k = min(pinned, n)
    x[rng.choice(n, k, replace=False)] = rng.choice(special, k)
    return x


def _exp_sums(x, w, K) -> np.ndarray:
    """sum_i w_i exp(-2 pi i k x_i), one exponential per term."""
    out = np.zeros(K + 1, dtype=np.complex128)
    k = np.arange(K + 1)
    for lo in range(0, len(x), 2048):
        out += np.exp(-2j * np.pi * np.outer(k, x[lo:lo + 2048])) @ w[lo:lo + 2048]
    return out


def _exp_series(a0, pos, x) -> np.ndarray:
    k = np.arange(1, len(pos) + 1)
    out = np.empty(len(x))
    for lo in range(0, len(x), 2048):
        terms = np.exp(2j * np.pi * np.outer(x[lo:lo + 2048], k)) @ pos
        out[lo:lo + 2048] = a0 + 2.0 * terms.real
    return out


def _exp_synthesis(values, x) -> np.ndarray:
    """sum_j values_j phi_j(x) over interleaved frequencies, one exponential per term."""
    freqs = [FourierBasis.frequency(j) for j in range(len(values))]
    out = np.empty(len(x), dtype=np.complex128)
    for lo in range(0, len(x), 2048):
        out[lo:lo + 2048] = np.exp(2j * np.pi * np.outer(x[lo:lo + 2048], freqs)) @ values
    return out


@given(n=st.integers(1, 5000), K=K_VALUES, seed=st.integers(0, 2 ** 32 - 1),
       pinned=st.integers(0, 10), complex_weights=st.booleans())
@settings(max_examples=40, deadline=None)
def test_type1_paths_agree(n, K, seed, pinned, complex_weights):
    # positive weights (positive real and imaginary parts) make |S_0|, which
    # is at least sum|w_i| / sqrt(2), bound the reference from below, so no
    # cancellation shrinks it; signed weights are covered by the l1 bound
    # and the full-size case below
    x = _points(n, K, seed, pinned)
    rng = np.random.default_rng(seed + 1)
    w = rng.uniform(0.0, 1.0, n)
    if complex_weights:
        w = w + 1j * rng.uniform(0.0, 1.0, n)
    direct = _on_path(False, spectral.conj_sums, x, w, K)
    gridded = _on_path(True, spectral.conj_sums, x, w, K)
    assert direct.shape == gridded.shape == (K + 1,)
    assert _rel_err(gridded, direct) <= RTOL
    if n * (K + 1) <= 200_000:
        assert _rel_err(direct, _exp_sums(x, w, K)) <= RTOL


@given(n=st.integers(1, 5000), K=K_VALUES, seed=st.integers(0, 2 ** 32 - 1),
       pinned=st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_type2_paths_agree(n, K, seed, pinned):
    # 1024 equispaced probe points join the drawn ones; they resolve every
    # K <= 300, so max |direct| is at least the series' L2 norm rather than
    # its value at one unlucky point
    x = np.concatenate([_points(n, K, seed, pinned), np.linspace(0.0, 1.0, 1025)])
    rng = np.random.default_rng(seed + 1)
    a0 = rng.uniform(-1.0, 1.0)
    pos = rng.uniform(-1.0, 1.0, K) + 1j * rng.uniform(-1.0, 1.0, K)
    direct = _on_path(False, spectral.series, a0, pos, x)
    gridded = _on_path(True, spectral.series, a0, pos, x)
    assert direct.shape == gridded.shape == x.shape
    assert _rel_err(gridded, direct) <= RTOL
    if len(x) * (K + 1) <= 200_000:
        assert _rel_err(direct, _exp_series(a0, pos, x)) <= RTOL


# Absolute slack at the bottom of the float range, where the relative bound
# alone is unattainable: 1e-11 times a subnormal l1 norm is below one
# representable step (w = 2.2e-313 gives results 5e-324 apart), and the
# gridded type-2 path divides each coefficient by the kernel transform (up
# to 2.8e13) before its FFT, so coefficients within that factor of the
# normal range lose bits to gradual underflow (all-subnormal ones flush to
# 0). The largest excess measured over the relative bound, for K <= 300
# and scales 1e-323 to 1e-285, was 5.5 times the smallest normal float.
UNDERFLOW_FLOOR = 64 * np.finfo(float).tiny


@given(x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       w=st.lists(st.floats(-1.0, 1.0), min_size=40, max_size=40),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=120),
       K=K_VALUES)
@settings(max_examples=60, deadline=None)
def test_gridded_error_is_bounded_by_the_l1_norm(x, w, coeffs, K):
    """The accuracy guarantee behind both paths, on arbitrary inputs: an
    absolute error within 1e-11 times the l1 norm of the weights or of the
    coefficients, which holds even where the sums cancel."""
    x = np.array(x)
    w = np.array(w[:len(x)])
    diff = (_on_path(True, spectral.conj_sums, x, w, K)
            - _on_path(False, spectral.conj_sums, x, w, K))
    assert np.max(np.abs(diff)) <= 1e-11 * np.sum(np.abs(w)) + UNDERFLOW_FLOOR
    a0, pos = coeffs[0], np.array(coeffs[1:]) * (1.0 - 0.5j)
    diff = (_on_path(True, spectral.series, a0, pos, x)
            - _on_path(False, spectral.series, a0, pos, x))
    assert (np.max(np.abs(diff))
            <= 1e-11 * (abs(a0) + 2.0 * np.sum(np.abs(pos))) + UNDERFLOW_FLOOR)


def test_points_outside_the_unit_interval_use_periodicity():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 3.0, 3000)
    w = rng.uniform(-1.0, 1.0, 3000)
    pos = rng.uniform(-1.0, 1.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
    assert _rel_err(_on_path(True, spectral.conj_sums, x, w, 100),
                    _on_path(False, spectral.conj_sums, x, w, 100)) <= RTOL
    assert _rel_err(_on_path(True, spectral.series, 0.2, pos, x),
                    _on_path(False, spectral.series, 0.2, pos, x)) <= RTOL


def test_non_finite_points_propagate_on_either_path():
    x = np.array([0.25, np.nan, 0.5])
    pos = np.ones(64, dtype=np.complex128)
    for gridded in (False, True):
        values = _on_path(gridded, spectral.series, 1.0, pos, x)
        assert np.isnan(values[1]) and np.all(np.isfinite(values[[0, 2]]))
        sums = _on_path(gridded, spectral.conj_sums, x, np.ones(3), 64)
        assert np.all(np.isnan(sums[1:]))


def test_series_keeps_the_shape_of_x():
    pos = np.array([0.1 + 0.2j, -0.3j])
    assert spectral.series(0.5, pos, 0.25).shape == ()
    assert spectral.series(0.5, pos, np.zeros((3, 2))).shape == (3, 2)
    assert np.all(spectral.series(0.5, np.zeros(0), np.ones(4)) == 0.5)


def test_full_size_type1_against_exponential_sums():
    """n = 262144, m = 512 (frequencies 0..256): the estimator's largest
    call on the BV sweep, on the gridded path, against one exp per term."""
    n, K = 262144, 256
    assert spectral._gridded(n, K, 1)
    rng = np.random.default_rng(11)
    x = rng.random(n)
    w = np.where(rng.random(n) < 0.5, -1.0, 1.0) / (0.5 + x)
    assert _rel_err(spectral.conj_sums(x, w, K), _exp_sums(x, w, K)) <= RTOL


@pytest.mark.parametrize("n, K", [(1000, 4), (262144, 128)])
def test_public_functions_match_exponential_sums(n, K):
    rng = np.random.default_rng(n + K)
    x = rng.random(n)
    w = rng.uniform(-1.0, 1.0, n)
    pos = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / np.arange(1, K + 1) ** 1.5
    assert _rel_err(spectral.conj_sums(x, w, K), _exp_sums(x, w, K)) <= RTOL
    assert _rel_err(spectral.series(0.3, pos, x), _exp_series(0.3, pos, x)) <= RTOL
    # complex coefficients, no conjugate pairs; odd and even lengths on both
    # sides of the series crossover at K = 54
    xs = x[:4096]
    for length in (9, 10, 257, 258):
        values = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        assert _rel_err(synthesize(FourierBasis(), values, xs),
                        _exp_synthesis(values, xs)) <= RTOL


@given(n=st.integers(1, 3000), m=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       step=st.booleans())
@settings(max_examples=40, deadline=None)
def test_synthesis_is_the_adjoint_of_the_weighted_sums(n, m, seed, step):
    """sum_i w_i f_v(x_i) = sum_j v_j conj(sum_i w_i conj(phi_j(x_i))) for real w:
    the synthesis and analysis kernels are one pair."""
    basis = StepBasis(cells=m) if step else FourierBasis()
    rng = np.random.default_rng(seed)
    x = _points(n, m // 2, seed, 4)
    w = rng.uniform(-1.0, 1.0, n)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    lhs = np.sum(w * synthesize(basis, v, x))
    rhs = np.sum(v * np.conj(basis.weighted_conj_sums(m, x, w)))
    assert abs(lhs - rhs) <= 1e-10 * np.sum(np.abs(w)) * np.sum(np.abs(v))


# ---------------------------------------------------------------------------
# the direct paths: table-driven unit phases and Horner synthesis
# ---------------------------------------------------------------------------

TURN = 8 * np.arctan(np.longdouble(1))  # 2 pi in long double


def _phase_reference(x: np.ndarray, sign: int) -> np.ndarray:
    """exp(sign 2 pi i x) in extended precision, from the exact fraction
    x - rint(x), so the argument itself carries no rounding."""
    frac = (x - np.rint(x)).astype(np.longdouble)
    return np.exp(sign * 1j * TURN * frac.astype(np.clongdouble))


@pytest.mark.parametrize("sign", [1, -1])
def test_unit_phase_is_accurate_on_the_unit_interval(sign):
    nodes = np.arange(spectral._PHASE_N + 1) / spectral._PHASE_N
    x = np.concatenate([nodes, [0.0, 1.0, 0.5 / spectral._PHASE_N],
                        np.random.default_rng(8).random(200_000)])
    err = np.abs(spectral._unit_phase(x, sign) - _phase_reference(x, sign))
    assert float(err.max()) <= 2e-15


@pytest.mark.parametrize("scale", [5.0, 1e3, 1e12])
def test_unit_phase_of_large_points_uses_periodicity(scale):
    # any RuntimeWarning fails the test (pytest's filterwarnings)
    x = np.random.default_rng(9).uniform(-scale, scale, 50_000)
    for sign in (1, -1):
        err = np.abs(spectral._unit_phase(x, sign) - _phase_reference(x, sign))
        assert float(err.max()) <= 2e-15


def test_unit_phase_of_extreme_and_non_finite_points():
    x = np.array([1e308, -1e308, 5e-324, -5e-324, np.nan, np.inf, -np.inf])
    z = spectral._unit_phase(x, 1)
    assert np.all(z[:2] == 1.0)
    assert np.allclose(z[2:4], 1.0, rtol=0, atol=1e-300)
    assert np.all(np.isnan(z[4:].real) & np.isnan(z[4:].imag))


@pytest.mark.parametrize("K", [1, 4, 32, 53])
def test_one_point_equals_that_point_inside_a_long_call(K):
    """Bit for bit: the direct paths compute each point on its own, so the
    other points of a call never change its terms."""
    assert not spectral._gridded(1, K, 1) and not spectral._gridded(1, K, 2)
    rng = np.random.default_rng(K)
    x = np.concatenate([rng.uniform(-2.0, 3.0, 10_000 - 3), [0.0, 1.0, 0.25]])
    w = rng.standard_normal(10_000)
    pos = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    # a (10^4, 1) call: one phase pass over all points, one row per point
    rows = spectral.conj_sums(x[:, None], w[:, None], K)
    values = spectral.series(0.4, pos, x)
    for i in rng.choice(10_000, 40, replace=False).tolist() + [9997, 9998, 9999]:
        assert np.array_equal(spectral.conj_sums(x[i:i + 1], w[i:i + 1], K), rows[i])
        assert np.array_equal(spectral.series(0.4, pos, x[i:i + 1]), values[i:i + 1])


@pytest.mark.parametrize("K", [1, 2, 17, 53])
def test_horner_series_against_extended_precision(K):
    rng = np.random.default_rng(100 + K)
    x = rng.random(5000)
    a0 = rng.uniform(-1.0, 1.0)
    pos = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    k = np.arange(1, K + 1, dtype=np.longdouble)
    terms = np.exp(1j * TURN * np.outer(x.astype(np.longdouble), k).astype(np.clongdouble))
    want = a0 + 2.0 * (terms @ pos.astype(np.clongdouble)).real
    got = spectral.series(a0, pos, x)
    scale = abs(a0) + 2.0 * np.sum(np.abs(pos))
    assert float(np.max(np.abs(got - want))) <= 4 * K * np.finfo(float).eps * scale


def test_direct_paths_take_no_complex_exponential():
    real_exp = np.exp

    def real_only(a, *args, **kwargs):
        assert not np.iscomplexobj(a), "complex np.exp on a direct path"
        return real_exp(a, *args, **kwargs)

    rng = np.random.default_rng(4)
    x, w = rng.random((3, 700)), rng.standard_normal((3, 700))
    pos = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    with mock.patch.object(np, "exp", real_only):
        sums = _on_path(False, spectral.conj_sums, x, w + 1j * w, 20)
        values = _on_path(False, spectral.series, 0.1, pos, x)
    assert sums.shape == (3, 21) and values.shape == x.shape

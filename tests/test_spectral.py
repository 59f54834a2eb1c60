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

from ditherfield import spectral

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

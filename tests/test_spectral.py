"""Accuracy of the nonuniform Fourier sums: the two type-1 paths against
each other, and both sums against one exponential per term.

The measure is the benchmark's: max |got - reference| / max |reference|,
which must stay within 1e-10. Points and weights come from a seeded
generator, with some points pinned to 0.0, 1.0, cell nodes c / M (offset
0, and c = M wraps to cell 0) and half-cell points (c + 1/2) / M, where
rint ties to even and the offset is -1/2 or +1/2.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherfield import spectral
from ditherfield.fields import FiniteDimField, frequencies, synthesize
from ditherfield.harness import _RATE_CONFIGS, _TRACE_CONFIGS, load_shipped_config

from conftest import basis_sums, conj_sums

RTOL = 1e-10
# small K (M = 64 to 1024 cells) as often as large K (up to M = 16384)
K_VALUES = st.one_of(st.integers(0, 24), st.integers(25, 300))


def _on_path(gridded: bool, fn, *args):
    """fn(*args) with the type-1 cost model overridden to pick one path."""
    with mock.patch.object(spectral, "_gridded", lambda n, K: gridded):
        return fn(*args)


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _points(n: int, K: int, seed: int, pinned: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    m = spectral._cells(K)
    cells = rng.integers(0, m + 1, 8)
    special = np.concatenate([[0.0, 1.0], cells / m, (cells + 0.5) / m])
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


TURN = 8 * np.arctan(np.longdouble(1))  # 2 pi in long double


def _long_series(a0, pos, x) -> np.ndarray:
    """a0 + 2 Re sum_k pos_k exp(2 pi i k x) in extended precision."""
    k = np.arange(1, len(pos) + 1, dtype=np.longdouble)
    out = np.empty(len(x), dtype=np.longdouble)
    for lo in range(0, len(x), 1024):
        phase = np.outer(x[lo:lo + 1024].astype(np.longdouble), k)
        terms = np.exp(1j * TURN * phase.astype(np.clongdouble))
        out[lo:lo + 1024] = a0 + 2.0 * (terms @ pos.astype(np.clongdouble)).real
    return out


def _exp_synthesis(values, x) -> np.ndarray:
    """sum_j values_j phi_j(x) over interleaved frequencies, one exponential per term."""
    freqs = frequencies(len(values))
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
    direct = _on_path(False, conj_sums, x, w, K)
    gridded = _on_path(True, conj_sums, x, w, K)
    assert direct.shape == gridded.shape == (K + 1,)
    assert _rel_err(gridded, direct) <= RTOL
    if n * (K + 1) <= 200_000:
        assert _rel_err(direct, _exp_sums(x, w, K)) <= RTOL


@given(n=st.integers(1, 5000), K=K_VALUES, seed=st.integers(0, 2 ** 32 - 1),
       pinned=st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_type2_series_matches_exponential_sums(n, K, seed, pinned):
    # 1024 equispaced probe points join the drawn ones; they resolve every
    # K <= 300, so max |reference| is at least the series' L2 norm rather
    # than its value at one unlucky point
    x = np.concatenate([_points(n, K, seed, pinned), np.linspace(0.0, 1.0, 1025)])
    rng = np.random.default_rng(seed + 1)
    a0 = rng.uniform(-1.0, 1.0)
    pos = rng.uniform(-1.0, 1.0, K) + 1j * rng.uniform(-1.0, 1.0, K)
    got = spectral.series(a0, pos, x)
    assert got.shape == x.shape
    assert _rel_err(got, _exp_series(a0, pos, x)) <= RTOL


# Absolute slack at the bottom of the float range, where the relative bound
# alone is unattainable: 1e-11 times a subnormal l1 norm is below one
# representable step (w = 2.2e-313 gives results 5e-324 apart), and the
# gridded paths scale the moments and coefficients by up to
# (2 pi K / M)^8 / 8! = 5.5e-11, so terms near the normal range lose bits
# to gradual underflow (subnormal ones flush to 0). Each rounding there is
# at most half a subnormal step. The largest excess measured over the
# relative bound, for K <= 300 and scales 1e-323 to 1e-285, was 6e-14
# times the smallest normal float (about 270 subnormal steps, mostly the
# direct paths' own rounding); the floor keeps its earlier, wider value.
UNDERFLOW_FLOOR = 64 * np.finfo(float).tiny


@given(x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       w=st.lists(st.floats(-1.0, 1.0), min_size=40, max_size=40),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=120),
       K=K_VALUES)
@settings(max_examples=60, deadline=None)
def test_gridded_error_is_bounded_by_the_l1_norm(x, w, coeffs, K):
    """The accuracy guarantee behind every path, on arbitrary inputs: an
    absolute error within 1e-11 times the l1 norm of the weights or of the
    coefficients, which holds even where the sums cancel. The series is
    held to the extended-precision sum."""
    x = np.array(x)
    w = np.array(w[:len(x)])
    diff = (_on_path(True, conj_sums, x, w, K)
            - _on_path(False, conj_sums, x, w, K))
    assert np.max(np.abs(diff)) <= 1e-11 * np.sum(np.abs(w)) + UNDERFLOW_FLOOR
    a0, pos = coeffs[0], np.array(coeffs[1:]) * (1.0 - 0.5j)
    diff = spectral.series(a0, pos, x) - _long_series(a0, pos, x)
    assert (float(np.max(np.abs(diff)))
            <= 1e-11 * (abs(a0) + 2.0 * np.sum(np.abs(pos))) + UNDERFLOW_FLOOR)


def test_points_outside_the_unit_interval_use_periodicity():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 3.0, 3000)
    w = rng.uniform(-1.0, 1.0, 3000)
    pos = rng.uniform(-1.0, 1.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
    assert _rel_err(_on_path(True, conj_sums, x, w, 100),
                    _on_path(False, conj_sums, x, w, 100)) <= RTOL
    assert _rel_err(spectral.series(0.2, pos, x), _exp_series(0.2, pos, x)) <= RTOL


def test_non_finite_points_propagate_on_every_path():
    """Type 2 and the direct type-1 path read NaN at a non-finite point;
    the gridded type-1 path takes finite points only, which the estimator
    checks before it adds them."""
    x = np.array([0.25, np.nan, 0.5])
    values = spectral.series(1.0, np.ones(64, dtype=np.complex128), x)
    assert np.isnan(values[1]) and np.all(np.isfinite(values[[0, 2]]))
    sums = _on_path(False, conj_sums, x, np.ones(3), 64)
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
    assert spectral._gridded(n, K)
    rng = np.random.default_rng(11)
    x = rng.random(n)
    w = np.where(rng.random(n) < 0.5, -1.0, 1.0) / (0.5 + x)
    assert _rel_err(conj_sums(x, w, K), _exp_sums(x, w, K)) <= RTOL


@pytest.mark.parametrize("kind, K", [(1, 256), (2, 128), (2, 256)])
def test_full_size_gridded_paths_within_1e13_of_the_l1_norm(kind, K):
    """262144 points, the largest calls of the BV and Sobolev sweeps: the
    Taylor paths within 1e-13 of sum|w_i| or |a0| + 2 sum|pos_k|, type 1
    against the direct path, type 2 against one exponential per term on
    every 16th point (the series is pointwise, so the subset's values are
    those of the full call)."""
    n = 262144
    rng = np.random.default_rng(kind * 1000 + K)
    x = rng.random(n)
    if kind == 1:
        w = rng.standard_normal(n)
        args, scale = (conj_sums, x, w, K), np.sum(np.abs(w))
        diff = _on_path(True, *args) - _on_path(False, *args)
    else:
        pos = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / np.arange(1, K + 1)
        scale = 0.7 + 2.0 * np.sum(np.abs(pos))
        diff = spectral.series(-0.7, pos, x)[::16] - _exp_series(-0.7, pos, x[::16])
    assert np.max(np.abs(diff)) <= 1e-13 * scale


# The path the type-1 cost model picks for every call of the shipped
# workloads, by (sensors per row, K). A refit of the model shows up as a
# diff of this table.
TYPE1_GRIDDED = {
    # bv_sawtooth: m = sqrt(n), K = m // 2
    (1024, 16): False, (4096, 32): True, (16384, 64): True,
    (65536, 128): True, (262144, 256): True,
    # sobolev_s1: m = ceil(n^(1/3))
    (1024, 5): False, (4096, 8): False, (16384, 13): True,
    (65536, 20): True, (262144, 32): True,
    # finite_dim_k5: m = 5
    (1024, 2): False, (4096, 2): False, (16384, 2): False,
    (65536, 2): False, (262144, 2): False,
    # lemma battery: n = 1000, m = 8
    (1000, 4): False,
    # as_trace_*: the sensors between checkpoints, m = 252 (n = 10^6, psi = 0.4)
    (1000, 126): False, (9000, 126): True, (90000, 126): True, (900000, 126): True,
}


def _workload_calls():
    """(n, K) of the type-1 calls of the three rate sweeps, the lemma
    battery and the two trace configs."""
    calls = {(1000, 4)}
    for name in _RATE_CONFIGS:
        cfg = load_shipped_config(name)
        calls |= {(n, cfg.schedule.resolve(n) // 2) for n in cfg.n_grid}
    for name in _TRACE_CONFIGS:
        cfg = load_shipped_config(name)
        K = max(cfg.schedule.resolve(n) for n in cfg.n_grid) // 2
        calls |= {(n - prev, K) for prev, n in zip((0,) + cfg.n_grid, cfg.n_grid)}
    return calls


def test_cost_model_paths_of_the_shipped_workloads():
    assert set(TYPE1_GRIDDED) == _workload_calls()
    assert {nk: spectral._gridded(*nk) for nk in TYPE1_GRIDDED} == TYPE1_GRIDDED


@pytest.mark.parametrize("n, K", [(1000, 4), (262144, 128)])
def test_public_functions_match_exponential_sums(n, K):
    rng = np.random.default_rng(n + K)
    x = rng.random(n)
    w = rng.uniform(-1.0, 1.0, n)
    pos = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / np.arange(1, K + 1) ** 1.5
    assert _rel_err(conj_sums(x, w, K), _exp_sums(x, w, K)) <= RTOL
    assert _rel_err(spectral.series(0.3, pos, x), _exp_series(0.3, pos, x)) <= RTOL
    # complex coefficients, no conjugate pairs; odd and even lengths, K = 0
    # to 129, every one read from its tables (64 cells up to K = 2)
    xs = x[:4096]
    for k in (0, 1, 2):
        assert spectral.RealSeries(0.3, pos[:k]).tables.shape == (spectral._TERMS, 64)
    for length in (1, 2, 3, 4, 9, 10, 257, 258):
        values = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        assert _rel_err(synthesize(values, xs),
                        _exp_synthesis(values, xs)) <= RTOL


@given(n=st.integers(1, 3000), m=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_synthesis_is_the_adjoint_of_the_weighted_sums(n, m, seed):
    """sum_i w_i f_v(x_i) = sum_j v_j conj(sum_i w_i conj(phi_j(x_i))) for real w:
    the synthesis and analysis kernels are one pair."""
    rng = np.random.default_rng(seed)
    x = _points(n, m // 2, seed, 4)
    w = rng.uniform(-1.0, 1.0, n)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    lhs = np.sum(w * synthesize(v, x))
    rhs = np.sum(v * np.conj(basis_sums(m, x, w)))
    assert abs(lhs - rhs) <= 1e-10 * np.sum(np.abs(w)) * np.sum(np.abs(v))


# ---------------------------------------------------------------------------
# the direct type-1 path's table-driven unit phase; pointwise synthesis
# ---------------------------------------------------------------------------

def _phase_reference(x: np.ndarray) -> np.ndarray:
    """exp(-2 pi i x) in extended precision, from the exact fraction
    rint(x) - x, so the argument itself carries no rounding."""
    frac = (np.rint(x) - x).astype(np.longdouble)
    return np.exp(1j * TURN * frac.astype(np.clongdouble))


def test_unit_phase_is_accurate_on_the_unit_interval():
    nodes = np.arange(spectral._PHASE_N + 1) / spectral._PHASE_N
    x = np.concatenate([nodes, [0.0, 1.0, 0.5 / spectral._PHASE_N],
                        np.random.default_rng(8).random(200_000)])
    err = np.abs(spectral._unit_phase(x) - _phase_reference(x))
    assert float(err.max()) <= 2e-15


@pytest.mark.parametrize("scale", [5.0, 1e3, 1e12])
def test_unit_phase_of_large_points_uses_periodicity(scale):
    # any RuntimeWarning fails the test (pytest's filterwarnings)
    x = np.random.default_rng(9).uniform(-scale, scale, 50_000)
    err = np.abs(spectral._unit_phase(x) - _phase_reference(x))
    assert float(err.max()) <= 2e-15


def test_unit_phase_of_extreme_and_non_finite_points():
    x = np.array([1e308, -1e308, 5e-324, -5e-324, np.nan, np.inf, -np.inf])
    z = spectral._unit_phase(x)
    assert np.all(z[:2] == 1.0)
    assert np.allclose(z[2:4], 1.0, rtol=0, atol=1e-300)
    assert np.all(np.isnan(z[4:].real) & np.isnan(z[4:].imag))


EXTREME_POINTS = [np.nan, np.inf, -np.inf, 1e308, -3.75]


@pytest.mark.parametrize("K", [0, 1, 2, 4, 32, 53, 128])
@pytest.mark.parametrize("non_finite", [False, True])
def test_one_point_equals_that_point_inside_a_long_call(K, non_finite):
    """Bit for bit: every path computes each point on its own, so the
    other points of a call, NaN and +-inf among them, never change its
    terms; the non-finite ones read NaN."""
    # one-point rows take the direct type-1 path; the series reads its
    # tables at every K
    assert not spectral._gridded(1, K)
    rng = np.random.default_rng(K)
    pos = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    assert spectral.RealSeries(0.4, pos).tables.shape == (spectral._TERMS, spectral._cells(K))
    tail = EXTREME_POINTS if non_finite else [0.25, -3.75, 0.5, 2.0, 0.75]
    x = np.concatenate([rng.uniform(-2.0, 3.0, 10_000 - 7), [0.0, 1.0], tail])
    w = rng.standard_normal(10_000)
    # a (10^4, 1) call: one phase pass over all points, one row per point
    rows = conj_sums(x[:, None], w[:, None], K)
    values = spectral.series(0.4, pos, x)
    assert np.isnan(values).sum() == 3 * non_finite
    for i in rng.choice(10_000, 40, replace=False).tolist() + list(range(9993, 10_000)):
        assert np.array_equal(conj_sums(x[i:i + 1], w[i:i + 1], K), rows[i],
                              equal_nan=True)
        assert np.array_equal(spectral.series(0.4, pos, x[i:i + 1]), values[i:i + 1],
                              equal_nan=True)


@pytest.mark.parametrize("K", [1, 2, 17, 53])
def test_horner_series_against_extended_precision(K):
    rng = np.random.default_rng(100 + K)
    x = rng.random(5000)
    a0 = rng.uniform(-1.0, 1.0)
    pos = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    want = _long_series(a0, pos, x)
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
    with mock.patch.object(np, "exp", real_only):
        sums = _on_path(False, conj_sums, x, w + 1j * w, 20)
    assert sums.shape == (3, 21)


def test_synthesis_never_reaches_the_unit_phase(monkeypatch):
    """Type 2 has one path, its tables: no call reaches the phase of the
    direct type-1 path, whatever K and whatever its points."""
    def no_phase(x):
        raise AssertionError("type-2 synthesis reached the unit phase")

    monkeypatch.setattr(spectral, "_unit_phase", no_phase)
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-1.0, 2.0, 3000), EXTREME_POINTS])
    for K in (0, 1, 2, 128):
        pos = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        assert np.all(np.isfinite(spectral.series(0.2, pos, x[:3000])))
        assert np.isnan(spectral.series(0.2, pos, x)).sum() == 3
    values = np.array([0.5, 0.25 + 0.1j, 0.25 - 0.1j])  # K = 1, real
    field = FiniteDimField(values=values, amplitude_bound=2.0)
    assert np.isnan(field.eval(x)).sum() == 3

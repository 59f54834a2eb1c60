import tracemalloc

import numpy as np
import pytest

from ditherfield import (AffineFloorDeployment, FiniteDimField, FourierBasis,
                         SawtoothField, SensorBatch, UniformDeployment, m_term_error,
                         make_finite_dim_field, make_sobolev_field, true_coefficients)
from ditherfield import spectral
from ditherfield.fields import FourierSums, frequencies
from ditherfield.analysis import map_trials
from ditherfield.sensing import (STREAM_LOCATIONS, STREAM_NOISE,
                                 STREAM_THRESHOLDS)

SHIPPED_K5_COEFFS = [0.2, 0.15 + 0.1j, 0.15 - 0.1j, -0.1 + 0.05j, -0.1 - 0.05j]
# cos(2 pi 2500 x + pi/8): its sup is 1, but it reads at most 0.924 on a
# grid of 20001 points
HIGH_PAIR = np.zeros(5001, dtype=np.complex128)
HIGH_PAIR[4999:] = 0.5 * np.exp(-1j * np.pi / 8), 0.5 * np.exp(1j * np.pi / 8)


def zero_field(amplitude_bound: float = 1.0) -> FiniteDimField:
    return FiniteDimField(values=np.zeros(1),
                          amplitude_bound=amplitude_bound)


def substream(seed: int, label: int, key: tuple = ()) -> np.random.Generator:
    """Stream `label` of the realization with this seed and spawn key,
    built afresh: a Philox keyed by (seed, label), its counter at
    (0, i0 + 1, i1 + 1, 0) for the spawn key (i0, i1), a missing entry
    giving 0. The oracle for the engine's stream words and reused
    generator."""
    i0, i1 = ([k + 1 for k in key] + [0, 0])[:2]
    return np.random.Generator(np.random.Philox(key=seed | label << 64,
                                                counter=i0 << 64 | i1 << 128))


def reference_batch(field, deploy, noise, n: int, seed: int, key: tuple = ()) -> SensorBatch:
    """One realization (seed, spawn key) simulated from `substream`
    generators, one trial at a time: what a block row of `simulate_batch`
    must equal, bit for bit."""
    c = field.amplitude_bound + noise.b
    x = deploy.sample(substream(seed, STREAM_LOCATIONS, key).random(n))
    z = noise.sample(substream(seed, STREAM_NOISE, key).random(n))
    t = (2.0 * substream(seed, STREAM_THRESHOLDS, key).random(n) - 1.0) * c
    y = field.eval(x) + z
    return SensorBatch(x=x, y=y, t=t, bits=np.where(y > t, 1.0, -1.0), c=c)


def fourier_eval(j: int, x) -> np.ndarray:
    """phi_j(x) of the Fourier basis, one complex exponential per point:
    the oracle that synthesis is compared against."""
    return np.exp(2j * np.pi * frequencies(j + 1)[j] * np.asarray(x, dtype=float))


def basis_sums(m: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i * conj(phi_j(x_i)) for j < m over the last axis, for real
    weights: one pass of the Fourier basis's running sums."""
    sums = FourierSums(m, x.shape[:-1], x.shape[-1])
    sums.add(x, w)
    return sums.result()


def conj_sums(x, w, K: int) -> np.ndarray:
    """S_k = sum_i w_i exp(-2 pi i k x_i) for k = 0..K (K + 1 values), over
    the last axis: an (R, n) input gives one row of sums per row. One pass
    of `spectral.ConjSums` over the input, on the path its cost model picks.

    Real or complex weights; complex ones are split into their real and
    imaginary parts (the sum is linear in w)."""
    x = np.asarray(x, dtype=float)
    if np.iscomplexobj(w):
        return conj_sums(x, np.real(w), K) + 1j * conj_sums(x, np.imag(w), K)
    sums = spectral.ConjSums(x.shape[:-1], x.shape[-1], K)
    sums.add(x, np.asarray(w, dtype=float))
    return sums.result()


def collect_trials(cells, seed, workers: int = 1) -> list[np.ndarray]:
    """Every trial's estimates, one (trials, m) array per cell, collected
    from the chunks `map_trials` hands over."""
    out = [np.empty((cell.trials, cell.m), dtype=np.complex128) for cell in cells]

    def take(i, t0, rows):
        out[i][t0:t0 + len(rows)] = rows

    map_trials(cells, seed, take, workers=workers)
    return out


def exact_coefficient_variance(field, deploy, c: float, n: int, count: int) -> np.ndarray:
    """Var alpha_hat_j = (c^2 I_j - |alpha_j|^2) / n for j < count, exactly.

    With T uniform on [-c, c] and independent of Y = f(X) + Z, |Y| <= c,
    E[B | X, Z] = Y / c and B^2 = 1. So one sensor's term c conj(phi_j(X))
    B / p_X(X) has mean alpha_j (Z has mean zero) and second moment c^2 I_j,
    I_j = int |phi_j|^2 / p_X = int 1 / p_X (the deployment's `integral`)
    for every j, and alpha_hat_j is the mean of n such independent terms."""
    alpha = true_coefficients(field, count).values
    return (c * c * deploy.integral - np.abs(alpha) ** 2) / n


def exact_mse(field, deploy, c: float, n: int, m: int) -> float:
    """E||f - f_hat||^2 = (c^2 sum_{j<m} I_j - sum_{j<m} |alpha_j|^2) / n
    + tail(m): the coefficient variances plus the energy past m. The
    shipped bound `mse_upper_bound` is this plus ||f_m||^2 / n."""
    variances = exact_coefficient_variance(field, deploy, c, n, m)
    return float(np.sum(variances)) + m_term_error(true_coefficients(field, m), field, m)


def traced_peak_mb(fn) -> float:
    """Peak memory traced by `tracemalloc` while fn() runs, in MB: what
    fn's numpy arrays and Python objects hold at once, at most."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def fourier():
    return FourierBasis()


@pytest.fixture(scope="session")
def finite_dim_k5():
    return make_finite_dim_field(SHIPPED_K5_COEFFS, amplitude_bound=0.8)


@pytest.fixture(scope="session")
def sawtooth():
    return SawtoothField()


@pytest.fixture(scope="session")
def sobolev_s1():
    return make_sobolev_field(1.0, seed=7)


@pytest.fixture(scope="session")
def shipped_fields(finite_dim_k5, sawtooth, sobolev_s1):
    return {"finite_dim_k5": finite_dim_k5, "sawtooth": sawtooth, "sobolev_s1": sobolev_s1}


@pytest.fixture(scope="session")
def uniform_deploy():
    return UniformDeployment()


@pytest.fixture(scope="session")
def affine_deploy():
    return AffineFloorDeployment(nu=0.5)


def midpoint_grid(n=1 << 15):
    return (np.arange(n) + 0.5) / n

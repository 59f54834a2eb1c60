"""The orthonormal Fourier basis on [0,1], concrete test fields, and series truncation error.

Everything here is exact by construction: every field carries closed-form
inner products against the complex exponential system, so coefficient
horizons of 10^4+ terms cost microseconds and the truncation error is
evaluated through Parseval, never by quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .spectral import ConjSums, RealSeries, series

AMPLITUDE_CHECK_POINTS = 20_001  # least grid of the finite-dim sup-norm check
# Largest frequency-pair count of a sobolev field: 64x the shipped 128. Its
# synthesis peaks near 40 MB at the cap, and the series tables its every
# evaluation reads grow as 9 x 32 x n_freqs doubles.
SOBOLEV_FREQS_MAX = 1 << 13

_TWO_PI = 2.0 * np.pi


def as_count(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """`value` as an int by the count rule of every public boundary: an int, a numpy
    integer or an integral float such as 500.0, never a bool, in the inclusive range
    [lo, hi] (no range without lo, no upper end without hi); else a ValueError naming
    `what` and the range."""
    if (type(value) is int or isinstance(value, np.integer)  # the common case first
            or isinstance(value, (float, np.floating)) and value.is_integer()):
        count = int(value)
        if lo is None or lo <= count and (hi is None or count <= hi):
            return count
    span = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ValueError(f"{what} must be an integer{span}, got {value!r}")


def as_grid(values, what: str, hi: int) -> tuple[int, ...]:
    """`values` as a nonempty, strictly increasing tuple of counts in [1, hi], each
    read by the count rule; else a ValueError naming `what` and the first entry it
    refuses, as `n_grid[1]: expected an integer above n_grid[0] = 20, got 10`."""
    grid = []
    for i, value in enumerate(values):
        try:
            grid.append(as_count(value, what, 1, hi))
        except ValueError:
            raise ValueError(f"{what}[{i}]: expected an integer in [1, {hi}], "
                             f"got {value!r}") from None
    if not grid:
        raise ValueError(f"{what}: expected at least one count, got none")
    falls = [b <= a for a, b in zip(grid, grid[1:])]
    if True in falls:
        i = falls.index(True) + 1
        raise ValueError(f"{what}[{i}]: expected an integer above {what}[{i - 1}] = "
                         f"{grid[i - 1]}, got {grid[i]}")
    return tuple(grid)


def as_real(value, what: str) -> float:
    """`value` as a float by the real rule of every public boundary: an int, a
    float or a numpy real that a float holds finitely, never a bool, NaN or
    infinity; else a ValueError naming `what`."""
    if (type(value) is int and abs(value) <= sys.float_info.max
            or isinstance(value, (float, np.integer, np.floating)) and math.isfinite(value)):
        return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierBasis:
    """Complex exponential system, interleaved by sign of the frequency
    (`frequencies`).

    phi_0 = 1; even j >= 2 carries frequency +j/2 cycles, odd j carries
    frequency -(j+1)/2, i.e. phi_j(x) = exp(+i*pi*j*x) for even j and
    exp(-i*pi*(j+1)*x) for odd j. Conjugate pairs are (odd j, j+1). Every
    |phi_j| is 1.
    """


def frequencies(count: int) -> np.ndarray:
    """The signed frequency of phi_j for j < count, as one integer array:
    0, -1, +1, -2, +2, ..."""
    freqs = (np.arange(count) + 1) // 2
    freqs[1::2] *= -1
    return freqs


class FourierSums(ConjSums):
    """Running sums sum_i w_i * conj(phi_j(x_i)), j < count, of rows of n
    points with real weights, fed tile by tile (`ConjSums`): one type-1
    accumulator over frequencies 0..count//2, since for real weights the
    odd-index (negative-frequency) sums are the conjugates of the
    even-index ones."""

    def __init__(self, count: int, lead: tuple, n: int):
        super().__init__(lead, n, count // 2)
        self.count = count

    def result(self) -> np.ndarray:
        s_pos = super().result()
        out = np.empty(s_pos.shape[:-1] + (self.count,), dtype=np.complex128)
        out[..., 0::2] = s_pos[..., :(self.count + 1) // 2]
        out[..., 1::2] = np.conj(s_pos[..., 1:self.K + 1])
        return out


# ---------------------------------------------------------------------------
# coefficient vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReconstructionCoefficients:
    """Leading expansion coefficients alpha_j, j < m, exact or estimated:
    `values` is one vector of length m, or a (trials, m) array holding one
    per row."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.complex128))

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class FieldSpec:
    """A bounded real test field on [0,1] with known expansion behaviour.

    Subclasses provide `eval`, exact `norm_sq`, `amplitude_bound`, the
    locations of discontinuities (`jump_points`, including periodic-wrap
    jumps at 0/1), and the closed-form `fourier_coefficients` behind the
    true coefficients.
    """

    kind: str = "abstract"
    amplitude_bound: float
    norm_sq: float
    jump_points: tuple[float, ...] = ()

    def eval(self, x) -> np.ndarray:
        raise NotImplementedError

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray:
        """<f, e^{2*pi*i*w*x}> for signed integer frequencies w."""
        raise NotImplementedError


def synthesize(values: np.ndarray, x) -> np.ndarray:
    """sum_j values[j] * phi_j(x), shaped like x (a scalar for a scalar x).

    With P_k and N_k the coefficients of frequencies +k and -k, the sum is
    S(A) + i S(B) for the halves A = (P + conj N) / 2 and
    B = (P - conj N) / 2i, where S(A) = Re v_0 + 2 Re sum_k A_k e^{2 pi i k x}
    is one `spectral.series` call (and S(B) likewise, with Im v_0): the one
    table path at any length of values, where a non-finite x reads NaN.
    """
    values = np.asarray(values, dtype=np.complex128)
    x = np.asarray(x, dtype=float)
    # v_0, then (N_k, P_k) for k = 1..K, zero-padded to 2K + 1 entries
    v = np.zeros(len(values) // 2 * 2 + 1, dtype=np.complex128)
    v[:len(values)] = values
    pos, neg = v[2::2], np.conj(v[1::2])
    return (series(v[0].real, (pos + neg) / 2, x)
            + 1j * series(v[0].imag, (pos - neg) / 2j, x))[()]


@dataclass(frozen=True, eq=False)
class FiniteDimField(FieldSpec):
    """Exact k-term combination of the leading basis functions, real by
    construction: its coefficients come in conjugate pairs. Its sup, bounded
    by the sum of |coefficients| and from a grid of max(AMPLITUDE_CHECK_POINTS,
    64 K + 1) points at top frequency K, must stay within its amplitude bound."""

    values: np.ndarray
    amplitude_bound: float

    kind: ClassVar[str] = "finite_dim"
    # read only by benchmarks/child.py; goes with EstimatorConfig (ROADMAP item 4)
    basis: ClassVar[FourierBasis] = FourierBasis()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("need at least one coefficient")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "amplitude_bound",
                           as_real(self.amplitude_bound, "amplitude_bound"))
        if self.amplitude_bound <= 0.0:
            raise ValueError(f"amplitude_bound must be positive, got {self.amplitude_bound!r}")
        if abs(vals[0].imag) > 1e-12:
            raise ValueError("coefficient of the constant function must be real")
        # odd j pairs with j + 1, so the synthesis is real; an unpaired
        # trailing odd j pairs with 0
        mates = np.zeros(len(vals) // 2, dtype=np.complex128)
        mates[:(len(vals) - 1) // 2] = vals[2::2]
        broken = np.abs(np.conj(vals[1::2]) - mates) > 1e-12
        if broken.any():
            j = 2 * int(np.argmax(broken)) + 1
            raise ValueError(f"coefficients {j} and {j + 1} are not conjugate partners")
        # conjugate pairs: the positive-frequency half gives the whole sum;
        # its synthesis tables are built here, once per field, and travel
        # with the field when it is pickled to a pool worker
        object.__setattr__(self, "_series", RealSeries(vals[0].real, vals[2::2]))
        object.__setattr__(self, "values", vals)
        # c = a + b covers |f + Z| only while sup|f| <= a. The sup is at most
        # sum |alpha_j|, and at top frequency K it lies within h/2 of a point
        # of a grid of spacing h; there f' = 0 and |f''| <= (2 pi K)^2 sup|f|
        # (Bernstein), so that point reads at most a (pi K h)^2 / 2 share of
        # the sup below it
        k = len(vals) // 2
        points = max(AMPLITUDE_CHECK_POINTS, 64 * k + 1)
        share = (np.pi * k / (points - 1)) ** 2 / 2
        grid_max = float(np.max(np.abs(self.eval(np.linspace(0.0, 1.0, points)))))
        with np.errstate(over="ignore"):  # the sum is inf where a nears the float max
            coeff_sum = float(np.sum(np.abs(vals)))
        worst = min(coeff_sum, grid_max / (1 - share))
        if worst > self.amplitude_bound * (1 + 1e-12):
            raise ValueError(
                f"field may exceed its amplitude bound: sup|f| is up to {worst:.6g} "
                f"> a = {self.amplitude_bound:.6g}")

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def eval(self, x) -> np.ndarray:
        return self._series(x)[()]

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray:
        by_freq = dict(zip(frequencies(len(self.values)).tolist(), self.values))
        return np.array([by_freq.get(int(w), 0.0) for w in freqs], dtype=np.complex128)


@dataclass(frozen=True)
class SawtoothField(FieldSpec):
    """f(x) = x - 1/2, the bounded-variation field: continuous on [0,1], a
    jump under periodic extension."""

    kind: ClassVar[str] = "sawtooth"
    amplitude_bound: ClassVar[float] = 0.5
    norm_sq: ClassVar[float] = 1.0 / 12.0
    jump_points: ClassVar[tuple[float, ...]] = (0.0, 1.0)

    def eval(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) - 0.5

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray:
        w = np.asarray(freqs, dtype=float)
        out = np.zeros(w.shape, dtype=np.complex128)
        nz = w != 0
        out[nz] = 1j / (_TWO_PI * w[nz])
        return out


# ---------------------------------------------------------------------------
# constructors / factories
# ---------------------------------------------------------------------------

def make_finite_dim_field(coefficients: Sequence[complex],
                          amplitude_bound: float) -> FiniteDimField:
    """A `FiniteDimField`, built from the keyword names of its config section."""
    return FiniteDimField(values=coefficients, amplitude_bound=amplitude_bound)


SOBOLEV_DECAY_MARGIN = 0.05   # excess decay keeping the smoothness energy finite
SOBOLEV_SUP_HEADROOM = 0.98   # rescale target, guards grid-resolution undershoot


def make_sobolev_field(s: float, seed: int, amplitude_bound: float = 1.0,
                       n_freqs: int = 128) -> FiniteDimField:
    """Random real Fourier field with |alpha| ~ (1+|w|)^-(s+1/2+0.05) per
    frequency pair: a `FiniteDimField` of 2 * n_freqs + 1 coefficients.

    The magnitude law is applied to the positive-frequency (even) indices;
    negative-frequency partners are their conjugates, which keeps the
    synthesis real. Deterministic in `seed`; rescaled so sup|f| stays
    just under the amplitude bound.
    """
    s, amplitude_bound = as_real(s, "s"), as_real(amplitude_bound, "amplitude_bound")
    if s <= 0.5:
        raise ValueError(f"smoothness order s must exceed 1/2, got {s!r}")
    n_freqs = as_count(n_freqs, "n_freqs", 1, SOBOLEV_FREQS_MAX)
    seed = as_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    decay = s + 0.5 + SOBOLEV_DECAY_MARGIN
    mags = (1.0 + np.arange(1, n_freqs + 1)) ** (-decay)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_freqs)
    sign0 = 1.0 if rng.random() < 0.5 else -1.0

    values = np.empty(2 * n_freqs + 1, dtype=np.complex128)
    values[0] = sign0  # |alpha_0| = c0 * (1+0)^-decay with c0 = 1 pre-scale
    pos = mags * np.exp(1j * phases)
    values[2::2] = pos            # even j >= 2: frequency +j/2
    values[1::2] = np.conj(pos)   # odd j: frequency -(j+1)/2

    probe = np.linspace(0.0, 1.0, (1 << 16) + 1)
    sup = float(np.max(np.abs(series(values[0].real, pos, probe))))
    values *= amplitude_bound * SOBOLEV_SUP_HEADROOM / sup
    return FiniteDimField(values=values, amplitude_bound=amplitude_bound)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def true_coefficients(field: FieldSpec, count: int) -> ReconstructionCoefficients:
    """<f, phi_j> for j < count, in closed form: the field's Fourier
    coefficients."""
    count = as_count(count, "count", 1)
    values = field.fourier_coefficients(frequencies(count))
    return ReconstructionCoefficients(values=values)


def m_term_error(coeffs: ReconstructionCoefficients, field: FieldSpec, m: int) -> float:
    """Energy past the first m coefficients, via Parseval; clamped at 0."""
    m = as_count(m, "m", 0)
    head = float(np.sum(np.abs(coeffs.values[:m]) ** 2))
    return max(field.norm_sq - head, 0.0)

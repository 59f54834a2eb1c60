"""Sensor layer: random deployment, bounded noise, 1-bit dithered quantization.

One master seed per realization, split into three labeled counter-based
substreams (locations, noise, thresholds) so the mutual-independence
assumptions hold and results are bit-reproducible under any scheduling.
Every sampler consumes exactly one uniform draw per sensor, which makes
sample paths prefix-stable: simulating n' > n sensors from the same seed
reproduces the first n draws exactly (nested paths for the almost-sure
convergence experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import ndtr, ndtri

from .fields import FieldSpec

STREAM_LOCATIONS = 0
STREAM_NOISE = 1
STREAM_THRESHOLDS = 2


def substream(seed, label: int) -> np.random.Generator:
    """Labeled counter-based stream; identical (seed, label) -> identical output."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    child = np.random.SeedSequence(entropy=ss.entropy,
                                   spawn_key=tuple(ss.spawn_key) + (label,))
    return np.random.Generator(np.random.Philox(child))


def trial_seed(master_seed: int, *indices: int) -> np.random.SeedSequence:
    """Per-trial seed derived from the experiment seed and trial coordinates."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(indices))


# ---------------------------------------------------------------------------
# deployment densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformDeployment:
    kind: ClassVar[str] = "uniform"
    infimum: ClassVar[float] = 1.0

    def pdf(self, x) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))

    def cdf(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random(n)

    def inverse_integral(self, lo: float, hi: float) -> float:
        return hi - lo


@dataclass(frozen=True)
class Linear2xDeployment:
    """p(x) = 2x: vanishes at the left edge, so inverse-density weights blow up."""

    kind: ClassVar[str] = "linear_2x"
    infimum: ClassVar[float] = 0.0

    def pdf(self, x) -> np.ndarray:
        return 2.0 * np.asarray(x, dtype=float)

    def cdf(self, x) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return x * x

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.sqrt(rng.random(n))

    def inverse_integral(self, lo: float, hi: float) -> float:
        """Integral of 1/p over [lo, hi]: (1/2) log(hi/lo), divergent from 0."""
        return math.inf if lo <= 0.0 else 0.5 * math.log(hi / lo)


@dataclass(frozen=True)
class AffineFloorDeployment:
    """p(x) = nu + 2(1-nu)x: strictly positive infimum nu at the left edge."""

    nu: float = 0.5

    kind: ClassVar[str] = "affine_floor"

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("floor must lie in (0, 1]")

    @property
    def infimum(self) -> float:
        return self.nu

    def pdf(self, x) -> np.ndarray:
        return self.nu + 2.0 * (1.0 - self.nu) * np.asarray(x, dtype=float)

    def cdf(self, x) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return self.nu * x + (1.0 - self.nu) * x * x

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        if self.nu == 1.0:
            return u
        a = 1.0 - self.nu
        return (-self.nu + np.sqrt(self.nu * self.nu + 4.0 * a * u)) / (2.0 * a)

    def inverse_integral(self, lo: float, hi: float) -> float:
        """Integral of 1/p over [lo, hi]: log(p(hi)/p(lo)) / slope."""
        slope = 2.0 * (1.0 - self.nu)
        if slope == 0.0:
            return (hi - lo) / self.nu
        p_lo, rise = self.nu + slope * lo, slope * (hi - lo)
        if rise / p_lo == math.inf:  # subnormal p(lo): log1p(r) is log(r) there
            return (math.log(rise) - math.log(p_lo)) / slope
        return math.log1p(rise / p_lo) / slope


@dataclass(frozen=True, eq=False)
class TabulatedDeployment:
    """Density given by values on a uniform node grid, linearly interpolated.

    Sampling inverts the piecewise-linear CDF of the tabulated density by
    monotone linear interpolation; `cdf` returns exactly the CDF being
    sampled, so distribution tests close.
    """

    pdf_values: np.ndarray

    kind: ClassVar[str] = "tabulated"

    def __post_init__(self):
        vals = np.asarray(self.pdf_values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("need densities on at least two nodes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        if np.any(vals < 0):
            raise ValueError("density values must be nonnegative")
        nodes = np.linspace(0.0, 1.0, len(vals))
        raw_cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(nodes))])
        if raw_cdf[-1] <= 0:
            raise ValueError("density integrates to zero")
        vals = vals / raw_cdf[-1]
        object.__setattr__(self, "pdf_values", vals)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_cdf_values", raw_cdf / raw_cdf[-1])

    @property
    def infimum(self) -> float:
        return float(np.min(self.pdf_values))

    def pdf(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self._nodes, self.pdf_values)

    def cdf(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self._nodes, self._cdf_values)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.interp(rng.random(n), self._cdf_values, self._nodes)

    def inverse_integral(self, lo: float, hi: float) -> float:
        """Integral of 1/p over [lo, hi], exact on each linear piece:
        h log(p1/p0) / (p1 - p0) = h log1p(d) / (d p0) with d = p1/p0 - 1.
        A flat piece (d = 0) gives h / p0; a zero of p at any breakpoint
        makes 1/p unintegrable (+inf)."""
        inner = self._nodes[np.searchsorted(self._nodes, lo, side="right"):
                            np.searchsorted(self._nodes, hi, side="left")]
        x = np.concatenate([[lo], inner, [hi]])
        p = self.pdf(x)
        if np.any(p <= 0.0):
            return math.inf
        p0 = p[:-1]
        d = p[1:] / p0 - 1.0
        ratio = np.divide(np.log1p(d), d, out=np.ones_like(d), where=d != 0.0)
        return float(np.sum(np.diff(x) * ratio / p0))


Deployment = UniformDeployment | Linear2xDeployment | AffineFloorDeployment | TabulatedDeployment


def make_deployment(kind: str, **params) -> Deployment:
    if kind == "uniform":
        return UniformDeployment()
    if kind == "linear_2x":
        return Linear2xDeployment()
    if kind == "affine_floor":
        return AffineFloorDeployment(**params)
    if kind == "tabulated":
        return TabulatedDeployment(np.asarray(params["pdf_values"], dtype=float))
    raise ValueError(f"unknown deployment kind {kind!r}")


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroNoise:
    kind: ClassVar[str] = "zero"
    b: ClassVar[float] = 0.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        rng.random(n)  # keep stream consumption uniform across noise models
        return np.zeros(n)


@dataclass(frozen=True)
class UniformSymNoise:
    b: float = 1.0

    kind: ClassVar[str] = "uniform_sym"

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError("amplitude bound must be positive and finite")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return (2.0 * rng.random(n) - 1.0) * self.b


@dataclass(frozen=True)
class TruncGaussNoise:
    """Gaussian truncated to [-b, +b]; symmetric, hence zero-mean."""

    sigma: float = 0.5
    b: float = 1.0

    kind: ClassVar[str] = "trunc_gauss"

    def __post_init__(self):
        if not (0.0 < self.sigma < math.inf and 0.0 < self.b < math.inf):
            raise ValueError("sigma and amplitude bound must be positive and finite")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo = ndtr(-self.b / self.sigma)
        hi = ndtr(self.b / self.sigma)
        z = self.sigma * ndtri(lo + (hi - lo) * rng.random(n))
        return np.clip(z, -self.b, self.b)


@dataclass(frozen=True)
class TwoPointNoise:
    b: float = 1.0

    kind: ClassVar[str] = "two_point"

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError("amplitude bound must be positive and finite")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.where(rng.random(n) < 0.5, -self.b, self.b)


Noise = ZeroNoise | UniformSymNoise | TruncGaussNoise | TwoPointNoise


def make_noise(kind: str, **params) -> Noise:
    if kind == "zero":
        return ZeroNoise()
    if kind == "uniform_sym":
        return UniformSymNoise(**params)
    if kind == "trunc_gauss":
        return TruncGaussNoise(**params)
    if kind == "two_point":
        return TwoPointNoise(**params)
    raise ValueError(f"unknown noise kind {kind!r}")


# ---------------------------------------------------------------------------
# quantization and batch simulation
# ---------------------------------------------------------------------------

def _quantize(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sign of y - t with ties going to -1."""
    return np.where(y > t, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class SensorBatch:
    """Arrays (X_i, Y_i, T_i, B_i) for one realization of n sensors."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    bits: np.ndarray
    c: float

    @property
    def n(self) -> int:
        return len(self.x)

    def prefix(self, n: int) -> "SensorBatch":
        """First n sensors of this realization (a nested sample path)."""
        if not 1 <= n <= self.n:
            raise ValueError(f"prefix length must be in [1, {self.n}]")
        return SensorBatch(x=self.x[:n], y=self.y[:n], t=self.t[:n],
                           bits=self.bits[:n], c=self.c)


def simulate_batch(field: FieldSpec, deploy: Deployment, noise: Noise,
                   n: int, seed) -> SensorBatch:
    """Draw locations, noise, and thresholds from independent substreams,
    sample the field, and quantize against the dithered thresholds.

    Deterministic in `seed`; extending to n' > n with the same seed
    reproduces the first n sensors exactly.
    """
    if n < 1:
        raise ValueError("need at least one sensor")
    c = field.amplitude_bound + noise.b
    x = deploy.sample(substream(seed, STREAM_LOCATIONS), n)
    z = noise.sample(substream(seed, STREAM_NOISE), n)
    t = (2.0 * substream(seed, STREAM_THRESHOLDS).random(n) - 1.0) * c
    y = field.eval(x) + z
    return SensorBatch(x=x, y=y, t=t, bits=_quantize(y, t), c=c)

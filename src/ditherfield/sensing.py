"""Sensor layer: random deployment, bounded noise, 1-bit dithered quantization.

One master seed per realization, split into three labeled counter-based
streams (locations, noise, thresholds) so the mutual-independence
assumptions hold and results are bit-reproducible under any scheduling.
Stream `label` of the realization seeded by `SeedSequence(entropy,
spawn_key=key)` is the Philox stream keyed by `SeedSequence(entropy,
spawn_key=key + (label,))`. Every sampler maps exactly one uniform draw
per sensor, which makes sample paths prefix-stable: simulating n' > n
sensors from the same seed reproduces the first n draws exactly (nested
paths for the almost-sure convergence experiments).
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
STREAMS = 3

# SeedSequence's hash constants (numpy/random/bit_generator.pyx), kept as
# masked Python ints: numpy scalar uint32 arithmetic warns on overflow,
# uint32 array arithmetic wraps silently.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _entropy_words(value) -> list[int]:
    """SeedSequence's split of entropy into 32-bit words: little-endian
    words of a nonnegative int (0 is one word), concatenated over a sequence."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("entropy must be nonnegative")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [w for v in value for w in _entropy_words(v)]


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of `count` successive SeedSequence hash steps: step k
    XORs with h_k and multiplies by h_(k+1) = h_k * mult mod 2^32. Computed
    on masked Python ints; returned as (count, 1) uint32 columns."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """One SeedSequence hash step per row of `values`, with its own constants."""
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def seed_keys(entropy, spawn_keys) -> np.ndarray:
    """Philox key of `SeedSequence(entropy, spawn_key=row)` for every row of
    the (R, L) array `spawn_keys`, as an (R, 2) uint64 array: numpy's
    `generate_state(2, np.uint64)`, bit for bit, in one vectorized pass.

    SeedSequence hashes its first entropy words into a pool of 4, mixes
    each pool word into the other three, then mixes each further entropy
    word into all four, one hash constant per step. The steps of one source
    word are independent, so each runs over all its targets and all keys
    at once. Each spawn-key entry must lie in [0, 2^32), where it is one
    entropy word.
    """
    spawn = np.asarray(spawn_keys, dtype=np.int64)
    if spawn.ndim != 2:
        raise ValueError("spawn keys must be an (R, L) array")
    if spawn.size and not (spawn.min() >= 0 and spawn.max() <= _MASK32):
        raise ValueError("spawn-key entries must lie in [0, 2^32)")
    run = _entropy_words(entropy)
    if spawn.shape[1] and len(run) < _POOL_SIZE:
        run += [0] * (_POOL_SIZE - len(run))
    # one row per entropy word, one column per key; a short pool hashes zeros
    extra = max(len(run) + spawn.shape[1] - _POOL_SIZE, 0)
    words = np.zeros((_POOL_SIZE + extra, len(spawn)), dtype=np.uint32)
    words[:len(run)] = np.array(run, dtype=np.uint32)[:, None]
    words[len(run):len(run) + spawn.shape[1]] = spawn.T

    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = _hash(words[:_POOL_SIZE], xor[:_POOL_SIZE], mul[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + 3], mul[k:k + 3]))
        k += 3
    for word in words[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, xor[k:k + _POOL_SIZE], mul[k:k + _POOL_SIZE]))
        k += _POOL_SIZE

    state = _hash(pool, *_hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)).astype(np.uint64)
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def stream_keys(entropy, spawn_keys) -> np.ndarray:
    """Keys of the three labeled streams of every realization, as an
    (R, STREAMS, 2) uint64 array: row r, stream `label` is keyed by
    `SeedSequence(entropy, spawn_key=spawn_keys[r] + (label,))`."""
    spawn = np.asarray(spawn_keys, dtype=np.int64)
    if spawn.ndim != 2:
        raise ValueError("spawn keys must be an (R, L) array")
    labeled = np.empty((len(spawn), STREAMS, spawn.shape[1] + 1), dtype=np.int64)
    labeled[:, :, :-1] = spawn[:, None, :]
    labeled[:, :, -1] = np.arange(STREAMS)
    return seed_keys(entropy, labeled.reshape(-1, spawn.shape[1] + 1)).reshape(
        len(spawn), STREAMS, 2)


def trial_seed(master_seed: int, *indices: int) -> np.random.SeedSequence:
    """Per-trial seed derived from the experiment seed and trial coordinates."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(indices))


# ---------------------------------------------------------------------------
# deployment densities
# ---------------------------------------------------------------------------
# `sample(u)` maps uniform draws u in [0, 1) elementwise to locations
# (inverse CDF), shaped like u; so does a noise model's `sample(u)`.

@dataclass(frozen=True)
class UniformDeployment:
    kind: ClassVar[str] = "uniform"
    infimum: ClassVar[float] = 1.0

    def pdf(self, x) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))

    def cdf(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def sample(self, u: np.ndarray) -> np.ndarray:
        return u

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

    def sample(self, u: np.ndarray) -> np.ndarray:
        return np.sqrt(u)

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

    def sample(self, u: np.ndarray) -> np.ndarray:
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

    def sample(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self._cdf_values, self._nodes)

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

    def sample(self, u: np.ndarray) -> np.ndarray:
        return np.zeros_like(u)


@dataclass(frozen=True)
class UniformSymNoise:
    b: float = 1.0

    kind: ClassVar[str] = "uniform_sym"

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError("amplitude bound must be positive and finite")

    def sample(self, u: np.ndarray) -> np.ndarray:
        return (2.0 * u - 1.0) * self.b


@dataclass(frozen=True)
class TruncGaussNoise:
    """Gaussian truncated to [-b, +b]; symmetric, hence zero-mean."""

    sigma: float = 0.5
    b: float = 1.0

    kind: ClassVar[str] = "trunc_gauss"

    def __post_init__(self):
        if not (0.0 < self.sigma < math.inf and 0.0 < self.b < math.inf):
            raise ValueError("sigma and amplitude bound must be positive and finite")

    def sample(self, u: np.ndarray) -> np.ndarray:
        lo = ndtr(-self.b / self.sigma)
        hi = ndtr(self.b / self.sigma)
        z = self.sigma * ndtri(lo + (hi - lo) * u)
        return np.clip(z, -self.b, self.b)


@dataclass(frozen=True)
class TwoPointNoise:
    b: float = 1.0

    kind: ClassVar[str] = "two_point"

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError("amplitude bound must be positive and finite")

    def sample(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < 0.5, -self.b, self.b)


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
    """Sign of y - t with ties (and NaN) going to -1: 2 [y > t] - 1."""
    bits = np.greater(y, t).astype(float)
    bits *= 2.0
    bits -= 1.0
    return bits


@dataclass(frozen=True, eq=False)
class SensorBatch:
    """Arrays (X_i, Y_i, T_i, B_i) for one realization of n sensors, or
    (R, n) arrays holding one realization per row."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    bits: np.ndarray
    c: float

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    def prefix(self, n: int) -> "SensorBatch":
        """First n sensors of each realization (a nested sample path)."""
        if not 1 <= n <= self.n:
            raise ValueError(f"prefix length must be in [1, {self.n}]")
        return SensorBatch(x=self.x[..., :n], y=self.y[..., :n], t=self.t[..., :n],
                           bits=self.bits[..., :n], c=self.c)


def _fill_uniforms(gen: np.random.Generator, keys: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Row r of `out` gets the first uniform draws of the Philox stream keyed
    by keys[r]. The state setter puts `gen` exactly where a fresh
    `Philox(SeedSequence)` with that key starts (zero counter, empty
    buffer), at a fraction of the cost of building one."""
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key, row in zip(keys, out):
        state["state"]["key"] = key
        gen.bit_generator.state = state
        gen.random(out=row)
    return out


def simulate_batch(field: FieldSpec, deploy: Deployment, noise: Noise,
                   n: int, seed) -> SensorBatch:
    """Draw locations, noise, and thresholds from independent streams,
    sample the field, and quantize against the dithered thresholds.

    `seed` seeds one realization (an int or a SeedSequence; the batch holds
    1-D arrays), or is an (R, STREAMS, 2) uint64 array of `stream_keys`
    seeding a block of R realizations (the batch holds (R, n) arrays, row r
    drawn from keys[r]). Every step is elementwise or per row, so a block
    row equals, bit for bit, the batch of the realization alone.
    Deterministic in `seed`; extending to n' > n with the same seed
    reproduces the first n sensors exactly.
    """
    if n < 1:
        raise ValueError("need at least one sensor")
    block = isinstance(seed, np.ndarray)
    if block:
        keys = seed
        if keys.dtype != np.uint64 or keys.ndim != 3 or keys.shape[1:] != (STREAMS, 2):
            raise ValueError(f"stream keys must be an (R, {STREAMS}, 2) uint64 array")
    else:
        seq = (seed if isinstance(seed, np.random.SeedSequence)
               else np.random.SeedSequence(seed))
        keys = stream_keys(seq.entropy, [seq.spawn_key])
    c = field.amplitude_bound + noise.b
    gen = np.random.Generator(np.random.Philox(0))
    shape = (len(keys), n)
    x = deploy.sample(_fill_uniforms(gen, keys[:, STREAM_LOCATIONS], np.empty(shape)))
    if noise.b == 0.0:  # zero noise draws nothing from its stream
        y = field.eval(x) + 0.0  # the sum the noisy branch forms, bit for bit
    else:
        y = noise.sample(_fill_uniforms(gen, keys[:, STREAM_NOISE], np.empty(shape)))
        y += field.eval(x)
    t = _fill_uniforms(gen, keys[:, STREAM_THRESHOLDS], np.empty(shape))
    t *= 2.0  # (2u - 1) c, in place
    t -= 1.0
    t *= c
    bits = _quantize(y, t)
    if not block:
        x, y, t, bits = x[0], y[0], t[0], bits[0]
    return SensorBatch(x=x, y=y, t=t, bits=bits, c=c)

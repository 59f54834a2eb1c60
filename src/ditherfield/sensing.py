"""Sensor layer: random deployment, bounded noise, 1-bit dithered quantization.

One master seed per realization, split into three labeled counter-based
streams (locations, noise, thresholds) so the mutual-independence
assumptions hold and results are bit-reproducible under any scheduling.
Stream `label` of the realization with seed s and spawn key (i0, i1) is
the Philox stream with key (s, label) and counter (block, i0 + 1, i1 + 1,
0) (`stream_keys`): distinct counter ranges under a key are independent
streams by construction (Salmon et al., SC'11), so no seed is hashed.
Every sampler maps exactly one uniform draw
per sensor, which makes sample paths prefix-stable: simulating n' > n
sensors from the same seed reproduces the first n draws exactly (nested
paths for the almost-sure convergence experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fields import FieldSpec, as_count, as_real

STREAM_LOCATIONS = 0
STREAM_NOISE = 1
STREAM_THRESHOLDS = 2
STREAMS = 3

# a seed is one Philox key word; a spawn-key entry i is the counter word i + 1
SEED_MAX = (1 << 64) - 1
SPAWN_MAX = SEED_MAX - 1
# sensor i is draw i % 4 of counter word 0 = i // 4, four draws per 64-bit word;
# every sensor count is at most this, so a float holds its powers and reciprocal
SENSORS_MAX = 1 << 66


def stream_keys(seed, spawn_keys) -> np.ndarray:
    """Words of the three labeled streams of every realization, as an
    (R, STREAMS, 4) uint64 array: row r, stream `label` holds [seed, label,
    i0 + 1, i1 + 1] for spawn_keys[r] = (i0, i1), a missing entry giving
    the word 0, so a lone seed `()`, a key `(a,)` and a key `(a, b)` never
    share a stream. The first two words are the Philox key, the last two
    counter words 1 and 2. `seed` is one count (`as_count`) in [0, 2^64); a
    spawn key holds at most two, each in [0, 2^64 - 2] so that its word fits."""
    seed = as_count(seed, "seed", 0, SEED_MAX)
    spawn = np.asarray(spawn_keys, dtype=object)
    if spawn.ndim != 2:
        raise ValueError("spawn keys must be an (R, L) array")
    if spawn.shape[1] > 2:  # counter words 1 and 2
        raise ValueError(f"spawn keys may have at most 2 entries, got {spawn.shape[1]}")
    entries = [as_count(i, "each spawn-key entry") for i in spawn.flat]
    try:  # a negative entry, or one past 2^64 - 1, overflows the uint64 array
        spawn = np.array(entries, dtype=np.uint64).reshape(spawn.shape)
        fits = not (spawn > SPAWN_MAX).any()
    except OverflowError:
        fits = False
    if not fits:
        bad = next(i for i in entries if not 0 <= i <= SPAWN_MAX)
        raise ValueError("spawn-key entries must be nonnegative ints of at most "
                         f"2^64 - 2 (the stream word is entry + 1), got {bad!r}")
    words = np.zeros((len(spawn), STREAMS, 4), dtype=np.uint64)
    words[:, :, 0] = seed
    words[:, :, 1] = np.arange(STREAMS, dtype=np.uint64)
    words[:, :, 2:2 + spawn.shape[1]] = spawn[:, None] + 1
    return words


def trial_seed(master_seed: int, *indices: int) -> np.ndarray:
    """The (STREAMS, 4) uint64 words of one realization, the experiment
    seed's with spawn key `indices`: `stream_keys(master_seed,
    [indices])[0]`, which `simulate_batch` reads as one realization."""
    return stream_keys(master_seed, [indices])[0]


# ---------------------------------------------------------------------------
# deployment densities
# ---------------------------------------------------------------------------
# `sample(u)` maps uniform draws u in [0, 1) elementwise to locations
# (inverse CDF), shaped like u; so does a noise model's `sample(u)`.

@dataclass(frozen=True)
class AffineFloorDeployment:
    """p(x) = nu + 2(1-nu)x with infimum nu at the left edge: uniform at
    nu = 1, and p = 2x, which vanishes there, at nu = 0."""

    nu: float = 0.5

    kind: ClassVar[str] = "affine_floor"

    def __post_init__(self):
        object.__setattr__(self, "nu", as_real(self.nu, "nu"))
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"nu must lie in [0, 1], got {self.nu!r}")

    @property
    def integral(self) -> float:
        """Integral of 1/p over [0, 1]: log(p(1)/p(0)) / slope, divergent at nu = 0."""
        slope = 2.0 * (1.0 - self.nu)
        if slope == 0.0:
            return 1.0 / self.nu
        if self.nu == 0.0:
            return math.inf
        if slope / self.nu == math.inf:  # subnormal p(0): log1p(r) is log(r) there
            return (math.log(slope) - math.log(self.nu)) / slope
        return math.log1p(slope / self.nu) / slope

    def pdf(self, x) -> np.ndarray:
        return self.nu + 2.0 * (1.0 - self.nu) * np.asarray(x, dtype=float)

    def sample(self, u: np.ndarray) -> np.ndarray:
        if self.nu == 1.0:
            return u
        a = 1.0 - self.nu
        return (-self.nu + np.sqrt(self.nu * self.nu + 4.0 * a * u)) / (2.0 * a)


def UniformDeployment() -> AffineFloorDeployment:
    """The `uniform` deployment, p = 1: the affine density at nu = 1."""
    return AffineFloorDeployment(nu=1.0)


def Linear2xDeployment() -> AffineFloorDeployment:
    """The `linear_2x` deployment, p(x) = 2x: the affine density at nu = 0,
    whose inverse-density weights blow up at the left edge."""
    return AffineFloorDeployment(nu=0.0)


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
        object.__setattr__(self, "b", as_real(self.b, "b"))
        if self.b <= 0.0:
            raise ValueError(f"noise bound b must be positive, got {self.b!r}")

    def sample(self, u: np.ndarray) -> np.ndarray:
        return (2.0 * u - 1.0) * self.b


@dataclass(frozen=True)
class TwoPointNoise:
    b: float = 1.0

    kind: ClassVar[str] = "two_point"

    def __post_init__(self):
        object.__setattr__(self, "b", as_real(self.b, "b"))
        if self.b <= 0.0:
            raise ValueError(f"noise bound b must be positive, got {self.b!r}")

    def sample(self, u: np.ndarray) -> np.ndarray:
        # -b below 1/2 and +b from 1/2 on: u - 0.5 keeps the side of u,
        # and is +0 at the tie
        return np.copysign(self.b, u - 0.5)


Noise = ZeroNoise | UniformSymNoise | TwoPointNoise


def dynamic_range(field: FieldSpec, noise: Noise) -> float:
    """c = amplitude bound + noise b: |f + Z| stays within c, the range
    the thresholds are drawn from and the estimates are scaled by."""
    return field.amplitude_bound + noise.b


# ---------------------------------------------------------------------------
# quantization and batch simulation
# ---------------------------------------------------------------------------

def _quantize(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sign of y - t with ties (and NaN) going to -1: 2 [y > t] - 1."""
    # four passes, not np.where(y > t, 1.0, -1.0): ~21 against ~75 us a 16384-sensor tile
    bits = np.greater(y, t).astype(float)
    bits *= 2.0
    bits -= 1.0
    return bits


@dataclass(frozen=True, eq=False)
class SensorBatch:
    """Arrays (X_i, Y_i, T_i, B_i) for one realization of n sensors, or
    (R, n) arrays holding one realization per row: sensors
    [start, start + n) of each realization."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    bits: np.ndarray
    c: float
    start: int = 0

    @property
    def n(self) -> int:
        return self.x.shape[-1]


def _fill_uniforms(gen: np.random.Generator, words: np.ndarray,
                   out: np.ndarray, start: int) -> np.ndarray:
    """Row r of `out` gets uniform draws start, start + 1, ... of the
    Philox stream of the `stream_keys` words[r]: key (words[r, 0],
    words[r, 1]), counter (start // 4, words[r, 2], words[r, 3], 0).
    Philox draws four 64-bit words per counter value, so the state setter
    puts `gen` exactly where a fresh Philox with that key and counter
    word 0 at 0 stands after 4 * (start // 4) draws (empty buffer), at a
    fraction of the cost of building one and drawing up to there; the
    start % 4 draws left are discarded."""
    skip = start % 4
    # Python ints in lists: the setter reads them faster than numpy words
    counter, key = [int(start) // 4, 0, 0, 0], [0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for (key[0], key[1], counter[1], counter[2]), row in zip(words.tolist(), out):
        gen.bit_generator.state = state
        if skip:
            gen.bit_generator.random_raw(skip)
        gen.random(out=row)
    return out


def simulate_batch(field: FieldSpec, deploy: AffineFloorDeployment, noise: Noise,
                   n: int, seed, start: int = 0) -> SensorBatch:
    """Draw locations, noise, and thresholds from independent streams,
    sample the field, and quantize against the dithered thresholds.

    `seed` seeds one realization, as an int (read through `trial_seed`)
    or as its (STREAMS, 4) uint64 words, such as `trial_seed`'s (the batch
    holds 1-D arrays), or is an (R, STREAMS, 4) uint64 array of
    `stream_keys` seeding a block of R realizations (the batch holds
    (R, n) arrays, row r drawn from keys[r]). Every step is elementwise or
    per row, so a block row equals, bit for bit, the batch of the
    realization alone.
    Deterministic in `seed`; extending to n' > n with the same seed
    reproduces the first n sensors exactly.

    The batch holds sensors [start, start + n) of each realization, read
    from the streams through the Philox counter, so it equals that slice
    of the batch of start + n sensors, bit for bit; start + n is at most
    SENSORS_MAX = 2^66, the sensors one counter word holds.
    """
    n, start = as_count(n, "n", 1), as_count(start, "start", 0)
    if start + n > SENSORS_MAX:
        raise ValueError(f"start + n must be at most 2^66: sensor i is drawn at Philox "
                         f"counter word i // 4, which past 2^64 carries into the spawn-key "
                         f"word; got {start + n}")
    words = seed if isinstance(seed, np.ndarray) else trial_seed(seed)
    if words.dtype != np.uint64 or words.ndim not in (2, 3) or words.shape[-2:] != (STREAMS, 4):
        raise ValueError(f"stream keys must be a ({STREAMS}, 4) or (R, {STREAMS}, 4) "
                         "uint64 array")
    keys = words.reshape(-1, STREAMS, 4)
    c = dynamic_range(field, noise)
    gen = np.random.Generator(np.random.Philox(0))
    shape = (len(keys), n)
    x = deploy.sample(_fill_uniforms(gen, keys[:, STREAM_LOCATIONS], np.empty(shape), start))
    if noise.b == 0.0:  # zero noise draws nothing from its stream
        y = field.eval(x) + 0.0  # the sum the noisy branch forms, bit for bit
    else:
        y = noise.sample(_fill_uniforms(gen, keys[:, STREAM_NOISE], np.empty(shape), start))
        y += field.eval(x)
    t = _fill_uniforms(gen, keys[:, STREAM_THRESHOLDS], np.empty(shape), start)
    t *= 2.0  # (2u - 1) c, in place
    t -= 1.0
    t *= c
    bits = _quantize(y, t)
    if words.ndim == 2:
        x, y, t, bits = x[0], y[0], t[0], bits[0]
    return SensorBatch(x=x, y=y, t=t, bits=bits, c=c, start=start)

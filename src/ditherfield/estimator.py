"""Fusion-center reconstruction from (location, bit) pairs.

The coefficient estimate for basis function j is the importance-weighted
bit average  (c/n) * sum_i conj(phi_j(X_i)) * B_i / p_X(X_i).  It touches
only the sensor locations, the transmitted bits, and the known dynamic
range c — never the raw samples, the noise law, or the thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FourierBasis, FourierSums, ReconstructionCoefficients, as_count, as_real
from .sensing import SENSORS_MAX, AffineFloorDeployment, SensorBatch

class EstimationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# truncation schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationSchedule:
    """Rule m(n) mapping sensor count to reconstruction dimension: a
    constant `m`, or m = ceil(n^psi) for a growth exponent `psi` in (0, 1],
    exactly one of them. The named constructors are the schedules a config
    document names: fixed (m), finite_dim (m = k), bv (psi = 1/2), sobolev
    (psi = 1/(2s+1)) and power (psi)."""

    m: int | None = None
    psi: float | None = None

    def __post_init__(self):
        if (self.m is None) == (self.psi is None):
            raise ValueError(f"a truncation schedule holds exactly one of m and psi, "
                             f"got m={self.m!r}, psi={self.psi!r}")
        if self.psi is None:
            object.__setattr__(self, "m", as_count(self.m, "m", 1))
        else:
            object.__setattr__(self, "psi", as_real(self.psi, "psi"))
            if not 0.0 < self.psi <= 1.0:
                raise ValueError(f"psi must lie in (0, 1], got {self.psi!r}")

    @classmethod
    def fixed(cls, m: int) -> "TruncationSchedule":
        return cls(m=m)

    @classmethod
    def finite_dim(cls, k: int) -> "TruncationSchedule":
        return cls(m=as_count(k, "k", 1))

    @classmethod
    def bv(cls) -> "TruncationSchedule":
        return cls(psi=0.5)

    @classmethod
    def sobolev(cls, s: float) -> "TruncationSchedule":
        s = as_real(s, "s")
        if s <= 0.5:
            raise ValueError(f"smoothness order s must exceed 1/2, got {s!r}")
        return cls(psi=1.0 / (2.0 * s + 1.0))

    @classmethod
    def power(cls, psi: float) -> "TruncationSchedule":
        return cls(psi=psi)

    def resolve(self, n: int) -> int:
        n = as_count(n, "n", 1, SENSORS_MAX)
        if self.psi is None:
            return self.m
        # round before ceil: n**(1/3) can land at 3.0000000000000004
        return max(1, math.ceil(round(n ** self.psi, 9)))


# ---------------------------------------------------------------------------
# coefficient estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorConfig:
    """Everything the fusion center knows: basis, deployment density
    evaluator, dynamic range, and the truncation rule. `estimate_coefficients`
    reads the density and c, which must be the c of the batch it estimates."""

    basis: FourierBasis
    density: AffineFloorDeployment
    c: float
    schedule: TruncationSchedule

    def __post_init__(self):
        object.__setattr__(self, "c", as_real(self.c, "c"))
        if self.c <= 0.0:
            raise ValueError(f"dynamic range c must be positive, got {self.c!r}")


def _first(mask: np.ndarray) -> tuple:
    """Index of the first True entry of a 1-D or (R, n) mask."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))


def _subscript(batch: SensorBatch, index: tuple) -> str:
    """A sensor's subscript in its realization: its index in the batch,
    offset along the last axis by the batch's first sensor."""
    return ", ".join(map(str, index[:-1] + (index[-1] + batch.start,)))


def sensor_weights(batch: SensorBatch, density: AffineFloorDeployment) -> np.ndarray:
    """Importance weights B_i / p_X(X_i) of every sensor in the batch.

    Raises EstimationError, naming the first offending sensor by its index
    in its realization, for a location that is NaN or outside [0, 1], a bit
    other than -1 or +1, or a location where the deployment density
    vanishes.
    """
    if batch.n < 1:
        raise ValueError("empty batch")
    x, bits = batch.x, batch.bits
    if not (x.min() >= 0.0 and x.max() <= 1.0):  # NaN fails both
        i = _first(~((x >= 0.0) & (x <= 1.0)))
        raise EstimationError(
            f"sensor location x[{_subscript(batch, i)}]={float(x[i])!r} is not in [0, 1]")
    off = np.abs(bits) != 1.0
    if off.any():
        i = _first(off)
        raise EstimationError(
            f"sensor bit bits[{_subscript(batch, i)}]={float(bits[i])!r} is not -1 or +1")
    p = np.asarray(density.pdf(x), dtype=float)
    if np.any(p <= 0.0):
        raise EstimationError(f"deployment density vanishes at observed "
                              f"location x={float(x[_first(p <= 0.0)])!r}")
    return bits / p


def add_sensors(sums, batch: SensorBatch, density: AffineFloorDeployment) -> None:
    """Add one tile of sensors to running basis sums (`FourierSums`):
    their weights, from `sensor_weights`, which raises EstimationError on
    a bad sensor."""
    sums.add(batch.x, sensor_weights(batch, density))


def finish_estimates(sums: FourierSums, c: float) -> ReconstructionCoefficients:
    """The coefficient estimates (c/n) * sums from the running sums of
    sums.n sensors per realization, c the range their thresholds were
    drawn from."""
    return ReconstructionCoefficients(values=(c / sums.n) * sums.result())


def estimate_coefficients(batch: SensorBatch, cfg: EstimatorConfig,
                          m: int) -> ReconstructionCoefficients:
    """First m coefficient estimates from one sensor batch: a vector, or a
    (R, m) array for a batch of R realizations. One pass of the running
    sums that the trial engine feeds tile by tile. Raises ValueError when
    cfg.c is not the batch's c, and EstimationError where
    `sensor_weights` does."""
    m = as_count(m, "m", 1)
    if cfg.c != batch.c:
        raise ValueError(f"estimator c = {cfg.c!r} is not the batch's c = {batch.c!r}, "
                         f"the range its thresholds were drawn from")
    sums = FourierSums(m, batch.x.shape[:-1], batch.n)
    add_sensors(sums, batch, cfg.density)
    return finish_estimates(sums, batch.c)


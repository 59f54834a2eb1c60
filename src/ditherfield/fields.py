"""Orthonormal bases on [0,1], concrete test fields, and series truncation error.

Everything here is exact-by-construction where possible: the shipped field
shapes carry closed-form inner products against the complex exponential
system, so coefficient horizons of 10^4+ terms cost microseconds and the
truncation error can be evaluated through Parseval instead of quadrature.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np
from scipy.integrate import quad

from .spectral import conj_sums, series

# Coefficient horizon standing in for the infinite expansion of a
# non-synthesized field. Must keep the Parseval residual of every shipped
# shape under TAIL_REL_TOL * ||f||^2 (the sawtooth is the binding case).
J_TAIL = 16384
TAIL_REL_TOL = 1e-4
QUAD_ABS_TOL = 1e-10

_TWO_PI = 2.0 * np.pi


class QuadratureError(RuntimeError):
    """Adaptive quadrature stopped short of the requested tolerance."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierBasis:
    """Complex exponential system, interleaved by sign of the frequency.

    phi_0 = 1; even j >= 2 carries frequency +j/2 cycles, odd j carries
    frequency -(j+1)/2, i.e. phi_j(x) = exp(+i*pi*j*x) for even j and
    exp(-i*pi*(j+1)*x) for odd j. Conjugate pairs are (odd j, j+1).
    """

    kind: ClassVar[str] = "fourier"
    is_uniformly_bounded: ClassVar[bool] = True
    bound: ClassVar[float] = 1.0
    # |phi_j| == 1 everywhere, so deployment integrals do not depend on j.
    constant_modulus: ClassVar[bool] = True
    size: ClassVar[int | None] = None

    @staticmethod
    def frequency(j: int) -> int:
        return j // 2 if j % 2 == 0 else -(j + 1) // 2

    def eval(self, j: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(2j * np.pi * self.frequency(j) * x)

    def weighted_conj_sums(self, count: int, x: np.ndarray,
                           w: np.ndarray) -> np.ndarray:
        """sum_i w_i * conj(phi_j(x_i)) for j < count, from one type-1 sum
        over frequencies 0..count//2.

        For real weights the odd-index (negative-frequency) sums are the
        conjugates of the even-index ones, so only the positive-frequency
        sums are taken.
        """
        if np.iscomplexobj(w):
            return (self.weighted_conj_sums(count, x, np.real(w))
                    + 1j * self.weighted_conj_sums(count, x, np.imag(w)))
        k_max = count // 2
        s_pos = conj_sums(x, w, k_max)
        out = np.empty(count, dtype=np.complex128)
        out[0::2] = s_pos[:(count + 1) // 2]
        out[1::2] = np.conj(s_pos[1:k_max + 1])
        return out


@dataclass(frozen=True)
class StepBasis:
    """Normalized indicators of a uniform grid of `cells` intervals.

    An orthonormal system (not a full basis of L^2): only j < cells exists.
    Used for the finite-dimensional experiments.
    """

    cells: int = 64

    kind: ClassVar[str] = "step"
    is_uniformly_bounded: ClassVar[bool] = True
    constant_modulus: ClassVar[bool] = False

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError("cells must be >= 1")

    @property
    def bound(self) -> float:
        return math.sqrt(self.cells)

    @property
    def size(self) -> int:
        return self.cells

    def _cell_index(self, x: np.ndarray) -> np.ndarray:
        return np.minimum((x * self.cells).astype(np.int64), self.cells - 1)

    def eval(self, j: int, x) -> np.ndarray:
        if not 0 <= j < self.cells:
            raise IndexError(f"step basis has {self.cells} functions, got j={j}")
        x = np.asarray(x, dtype=float)
        return np.where(self._cell_index(x) == j, self.bound, 0.0).astype(np.complex128)

    def weighted_conj_sums(self, count: int, x: np.ndarray,
                           w: np.ndarray) -> np.ndarray:
        """Per-cell weight totals, scaled by the indicator height."""
        if count > self.cells:
            raise IndexError(f"step basis has {self.cells} functions, got count={count}")
        idx = self._cell_index(np.asarray(x, dtype=float))
        if np.iscomplexobj(w):
            sums = (np.bincount(idx, weights=np.real(w), minlength=self.cells)
                    + 1j * np.bincount(idx, weights=np.imag(w), minlength=self.cells))
        else:
            sums = np.bincount(idx, weights=w, minlength=self.cells)
        return self.bound * sums[:count].astype(np.complex128)


Basis = FourierBasis | StepBasis


def make_basis(kind: str, **params) -> Basis:
    if kind == "fourier":
        return FourierBasis()
    if kind == "step":
        return StepBasis(**params)
    raise ValueError(f"unknown basis kind {kind!r}")


# ---------------------------------------------------------------------------
# coefficient vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Leading expansion coefficients of a field in a given basis."""

    values: np.ndarray
    basis_kind: str

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
    jumps at 0/1), and closed-form coefficient routes where they exist.
    """

    kind: str = "abstract"
    amplitude_bound: float
    norm_sq: float
    jump_points: tuple[float, ...] = ()

    def eval(self, x) -> np.ndarray:
        raise NotImplementedError

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray | None:
        """<f, e^{2*pi*i*w*x}> for signed integer frequencies w, or None."""
        return None

    def integral(self, lo: float, hi: float) -> float | None:
        """Closed-form of the plain integral of f over [lo, hi], or None."""
        return None

    def to_json(self) -> dict:
        raise NotImplementedError


def synthesize(basis: Basis, values: np.ndarray, x) -> np.ndarray:
    """sum_j values[j] * phi_j(x), shaped like x (a scalar for a scalar x).

    Step basis: one table lookup per point. Fourier basis: with P_k and N_k
    the coefficients of frequencies +k and -k, the sum is  S(A) + i S(B)
    for the halves A = (P + conj N) / 2 and B = (P - conj N) / 2i, where
    S(A) = Re v_0 + 2 Re sum_k A_k e^{2 pi i k x} is one `spectral.series`
    call (and S(B) likewise, with Im v_0).
    """
    values = np.asarray(values, dtype=np.complex128)
    x = np.asarray(x, dtype=float)
    if isinstance(basis, StepBasis):
        if len(values) > basis.cells:
            raise IndexError(f"step basis has {basis.cells} functions, got {len(values)}")
        table = np.zeros(basis.cells, dtype=np.complex128)
        table[:len(values)] = basis.bound * values
        return table[basis._cell_index(x)][()]
    # v_0, then (N_k, P_k) for k = 1..K, zero-padded to 2K + 1 entries
    v = np.zeros(len(values) // 2 * 2 + 1, dtype=np.complex128)
    v[:len(values)] = values
    pos, neg = v[2::2], np.conj(v[1::2])
    return (series(v[0].real, (pos + neg) / 2, x)
            + 1j * series(v[0].imag, (pos - neg) / 2j, x))[()]


@dataclass(frozen=True, eq=False)
class FiniteDimField(FieldSpec):
    """Exact k-term combination of the leading basis functions, real by
    construction: Fourier coefficients come in conjugate pairs, step-basis
    ones are real."""

    basis: Basis
    values: np.ndarray
    amplitude_bound: float

    kind: ClassVar[str] = "finite_dim"

    @property
    def jump_points(self) -> tuple[float, ...]:
        if isinstance(self.basis, StepBasis):
            return tuple(k / self.basis.cells for k in range(1, self.basis.cells))
        return ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("need at least one coefficient")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        if self.amplitude_bound <= 0:
            raise ValueError("amplitude bound must be positive")
        if isinstance(self.basis, FourierBasis):
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
        else:
            if np.max(np.abs(vals.imag)) > 1e-12:
                raise ValueError("step-basis coefficients must be real")
            if len(vals) > self.basis.cells:
                raise ValueError("more coefficients than basis functions")
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def eval(self, x) -> np.ndarray:
        if isinstance(self.basis, StepBasis):
            return np.real(synthesize(self.basis, self.values, x))
        # conjugate pairs: the positive-frequency half gives the whole sum
        return series(self.values[0].real, self.values[2::2], x)[()]

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray | None:
        if not isinstance(self.basis, FourierBasis):
            return None
        by_freq = {FourierBasis.frequency(j): v for j, v in enumerate(self.values)}
        return np.array([by_freq.get(int(w), 0.0) for w in freqs], dtype=np.complex128)

    def to_json(self) -> dict:
        return {
            "class": "finite_dim",
            "basis": self.basis.kind if isinstance(self.basis, FourierBasis)
            else {"kind": "step", "cells": self.basis.cells},
            "coefficients": [[v.real, v.imag] for v in self.values],
            "amplitude_bound": self.amplitude_bound,
        }


@dataclass(frozen=True)
class SawtoothField(FieldSpec):
    """f(x) = x - 1/2: continuous on [0,1], a jump under periodic extension."""

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

    def integral(self, lo: float, hi: float) -> float:
        return 0.5 * (hi * hi - lo * lo) - 0.5 * (hi - lo)

    def to_json(self) -> dict:
        return {"class": "bv", "shape": "sawtooth"}


@dataclass(frozen=True, eq=False)
class PiecewiseConstantField(FieldSpec):
    """Levels on consecutive intervals; covers the step and staircase shapes."""

    edges: tuple[float, ...]
    levels: tuple[float, ...]
    shape: str = "piecewise"

    kind: ClassVar[str] = "piecewise"

    def __post_init__(self):
        if len(self.edges) != len(self.levels) + 1:
            raise ValueError("need len(edges) == len(levels) + 1")
        if self.edges[0] != 0.0 or self.edges[-1] != 1.0:
            raise ValueError("edges must span [0, 1]")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must be strictly increasing")

    @property
    def amplitude_bound(self) -> float:
        return max(abs(l) for l in self.levels)

    @property
    def norm_sq(self) -> float:
        return sum(l * l * (b - a)
                   for l, a, b in zip(self.levels, self.edges, self.edges[1:]))

    @property
    def jump_points(self) -> tuple[float, ...]:
        pts = [e for e, l0, l1 in zip(self.edges[1:-1], self.levels, self.levels[1:])
               if l0 != l1]
        if self.levels[0] != self.levels[-1]:  # periodic-wrap jump
            pts = [0.0] + pts + [1.0]
        return tuple(pts)

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                      0, len(self.levels) - 1)
        return np.asarray(self.levels, dtype=float)[idx]

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray:
        w = np.asarray(freqs, dtype=float)
        edges = np.asarray(self.edges)
        levels = np.asarray(self.levels)
        out = np.empty(w.shape, dtype=np.complex128)
        zero = w == 0
        out[zero] = np.sum(levels * np.diff(edges))
        wn = w[~zero]
        if wn.size:
            # sum_q l_q * (E(e_{q+1}) - E(e_q)) / (-2*pi*i*w), E(t) = e^{-2*pi*i*w*t}
            e = np.exp(-2j * np.pi * np.outer(wn, edges))
            out[~zero] = (np.diff(e, axis=1) @ levels) / (-2j * np.pi * wn)
        return out

    def integral(self, lo: float, hi: float) -> float:
        a = np.maximum(np.asarray(self.edges[:-1]), lo)
        b = np.minimum(np.asarray(self.edges[1:]), hi)
        return float(np.sum(np.asarray(self.levels) * np.clip(b - a, 0.0, None)))

    def to_json(self) -> dict:
        if self.shape in ("step", "staircase"):
            return {"class": "bv", "shape": self.shape,
                    "edges": list(self.edges), "levels": list(self.levels)}
        return {"class": "bv", "shape": "piecewise",
                "edges": list(self.edges), "levels": list(self.levels)}


@dataclass(frozen=True, eq=False)
class SobolevField(FiniteDimField):
    """Fourier-basis field with power-law coefficient decay, synthesized by
    `make_sobolev_field`."""

    s: float
    seed: int
    basis: Basis = dataclasses.field(default=FourierBasis(), init=False)

    kind: ClassVar[str] = "sobolev"

    def __post_init__(self):
        if self.s <= 0.5:
            raise ValueError("smoothness order must exceed 1/2")
        super().__post_init__()

    def to_json(self) -> dict:
        return {"class": "sobolev", "s": self.s, "seed": self.seed,
                "amplitude_bound": self.amplitude_bound,
                "n_freqs": len(self.values) // 2}


# ---------------------------------------------------------------------------
# constructors / factories
# ---------------------------------------------------------------------------

def _check_amplitude(field: FieldSpec, grid_size: int = 100_001) -> None:
    x = np.linspace(0.0, 1.0, grid_size)
    worst = float(np.max(np.abs(field.eval(x))))
    if worst > field.amplitude_bound * (1 + 1e-12):
        raise ValueError(
            f"field exceeds its amplitude bound: sup|f| = {worst:.6g} "
            f"> a = {field.amplitude_bound:.6g}")


def _check_tail_residual(field: FieldSpec) -> None:
    """Reject fields whose energy is not captured by the J_TAIL horizon."""
    freqs = np.array([FourierBasis.frequency(j) for j in range(J_TAIL)])
    coeffs = field.fourier_coefficients(freqs)
    if coeffs is None:
        return
    residual = field.norm_sq - float(np.sum(np.abs(coeffs) ** 2))
    if residual > TAIL_REL_TOL * field.norm_sq:
        raise ValueError(
            f"Parseval residual {residual:.3e} beyond {J_TAIL} coefficients "
            f"exceeds {TAIL_REL_TOL:g} * ||f||^2 = {TAIL_REL_TOL * field.norm_sq:.3e}")


def make_finite_dim_field(basis: Basis, coefficients: Sequence[complex],
                          amplitude_bound: float) -> FiniteDimField:
    """A `FiniteDimField` whose synthesis stays within its amplitude bound."""
    field = FiniteDimField(basis=basis, values=coefficients,
                           amplitude_bound=amplitude_bound)
    _check_amplitude(field, grid_size=20_001)
    return field


def zero_field(amplitude_bound: float = 1.0) -> FiniteDimField:
    return FiniteDimField(basis=FourierBasis(), values=np.zeros(1),
                          amplitude_bound=amplitude_bound)


_BV_SHAPES: dict[str, Callable[[], FieldSpec]] = {
    "sawtooth": SawtoothField,
    "step": lambda: PiecewiseConstantField(edges=(0.0, 0.5, 1.0),
                                           levels=(0.0, 1.0), shape="step"),
    "staircase": lambda: PiecewiseConstantField(
        edges=(0.0, 0.25, 0.5, 0.75, 1.0),
        levels=(-0.75, -0.25, 0.25, 0.75), shape="staircase"),
}


def make_bv_field(shape: str, edges: Sequence[float] | None = None,
                  levels: Sequence[float] | None = None) -> FieldSpec:
    """One of the shipped bounded-variation shapes, or a custom piecewise field."""
    if shape == "piecewise" or (edges is not None and shape not in _BV_SHAPES):
        field = PiecewiseConstantField(edges=tuple(edges), levels=tuple(levels),
                                       shape=shape)
    elif shape in _BV_SHAPES:
        field = _BV_SHAPES[shape]()
    else:
        raise ValueError(f"unknown bounded-variation shape {shape!r}")
    _check_tail_residual(field)
    return field


SOBOLEV_DECAY_MARGIN = 0.05   # excess decay keeping the smoothness energy finite
SOBOLEV_SUP_HEADROOM = 0.98   # rescale target, guards grid-resolution undershoot


def make_sobolev_field(s: float, seed: int, amplitude_bound: float = 1.0,
                       n_freqs: int = 128) -> SobolevField:
    """Random real field with |alpha| ~ (1+|w|)^-(s+1/2+0.05) per frequency pair.

    The magnitude law is applied to the positive-frequency (even) indices;
    negative-frequency partners are their conjugates, which keeps the
    synthesis real. Deterministic in `seed`; rescaled so sup|f| stays
    just under the amplitude bound.
    """
    if s <= 0.5:
        raise ValueError("smoothness order must exceed 1/2")
    if amplitude_bound <= 0:
        raise ValueError("amplitude bound must be positive")
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
    return SobolevField(s=s, seed=seed, amplitude_bound=amplitude_bound,
                        values=values)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _quad_complex(f, epsabs: float = QUAD_ABS_TOL,
                  points: Sequence[float] | None = None) -> complex:
    pts = None
    if points:
        pts = sorted({p for p in points if 0.0 < p < 1.0})
        pts = pts or None
    kw = dict(epsabs=epsabs, epsrel=0.0, limit=600, points=pts, full_output=1)
    re = quad(lambda x: f(x).real, 0.0, 1.0, **kw)
    im = quad(lambda x: f(x).imag, 0.0, 1.0, **kw)
    for r in (re, im):
        if len(r) > 3 or r[1] > 100 * epsabs:
            raise QuadratureError("inner-product quadrature did not converge",
                                  achieved_tol=max(re[1], im[1]))
    return complex(re[0], im[0])


def true_coefficients(field: FieldSpec, basis: Basis, count: int) -> CoefficientVector:
    """<f, phi_j> for j < count: closed form where available, else quadrature."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if basis.size is not None and count > basis.size:
        raise ValueError(f"basis has only {basis.size} functions")

    values: np.ndarray | None = None
    if isinstance(basis, FourierBasis):
        freqs = np.array([basis.frequency(j) for j in range(count)])
        values = field.fourier_coefficients(freqs)
    elif isinstance(basis, StepBasis):
        cell = 1.0 / basis.cells
        ints = [field.integral(j * cell, (j + 1) * cell) for j in range(count)]
        if all(v is not None for v in ints):
            values = basis.bound * np.asarray(ints, dtype=np.complex128)
        elif isinstance(field, FiniteDimField) and field.basis == basis:
            values = np.zeros(count, dtype=np.complex128)
            values[:len(field.values)] = field.values[:count]

    if values is None:
        pts = list(field.jump_points)
        if isinstance(basis, StepBasis):
            pts += [k / basis.cells for k in range(1, basis.cells)]
        values = np.array(
            [_quad_complex(lambda x, j=j: field.eval(x) * np.conj(basis.eval(j, x)),
                           points=pts)
             for j in range(count)], dtype=np.complex128)
    return CoefficientVector(values=values, basis_kind=basis.kind)


def m_term_error(coeffs: CoefficientVector, field: FieldSpec, m: int) -> float:
    """Energy past the first m coefficients, via Parseval; clamped at 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    head = float(np.sum(np.abs(coeffs.values[:m]) ** 2))
    return max(field.norm_sq - head, 0.0)


# ---------------------------------------------------------------------------
# JSON round trip (harness config documents)
# ---------------------------------------------------------------------------

def basis_from_json(doc) -> Basis:
    """A basis from its kind ("fourier") or its fields ({"kind": "step", "cells": 16})."""
    return make_basis(doc) if isinstance(doc, str) else make_basis(**doc)


def field_from_json(doc: dict) -> FieldSpec:
    cls = doc.get("class")
    if cls == "finite_dim":
        basis = basis_from_json(doc.get("basis", "fourier"))
        coeffs = [complex(re, im) for re, im in doc["coefficients"]]
        return make_finite_dim_field(basis, coeffs, doc["amplitude_bound"])
    if cls == "bv":
        return make_bv_field(doc["shape"], edges=doc.get("edges"),
                             levels=doc.get("levels"))
    if cls == "sobolev":
        return make_sobolev_field(doc["s"], doc["seed"],
                                  amplitude_bound=doc.get("amplitude_bound", 1.0),
                                  n_freqs=doc.get("n_freqs", 128))
    raise ValueError(f"unknown field class {cls!r}")

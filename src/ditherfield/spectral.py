"""Nonuniform Fourier sums on [0, 1]: one analysis/synthesis kernel pair.

`conj_sums` is the type-1 sum  S_k = sum_i w_i exp(-2 pi i k x_i),  k = 0..K,
which the estimator needs; `series` is the real type-2 sum
a0 + 2 Re sum_{k=1..K} pos_k exp(2 pi i k x),  which field synthesis needs.
Each has two paths:

- direct: one complex exponential per point, then one in-place multiply and
  one reduction per frequency; O(n K).
- gridded: spread the points onto (type 1) or interpolate them from
  (type 2) a periodic grid of M >= 2 (2K + 1) nodes, with one `numpy.fft`
  transform and a division by the kernel's Fourier transform
  (Greengard & Lee, SIAM Rev. 46, 2004); O(n W + M log M). The kernel is
  the exponential of semicircle  exp(beta sqrt(1 - z^2))  on W nodes of
  Barnett et al., FINUFFT, SIAM J. Sci. Comput. 41 (2019).

A fixed cost model picks the path: from (n, K) for type 1, and from K
alone for type 2, which goes gridded only where that wins at every n. So a
point's synthesized value never depends on the other points of the call,
and simulated sample paths stay prefix-stable to the bit. Both paths agree
to about 1e-12 relative to sum|w_i| (type 1) or |a0| + 2 sum|pos_k|
(type 2), above the range where gradual underflow takes bits.
"""

from __future__ import annotations

import functools

import numpy as np

W = 13                    # kernel width in grid nodes
BETA = 2.30 * W           # kernel shape for a 2x oversampled grid
_HALF = W / 2.0
_QUAD_NODES = 64          # Gauss-Legendre nodes for the kernel transform

_DIRECT_CHUNK = 1 << 16   # points per direct-path block
_GRID_CHUNK = 1 << 14     # points per spreading/interpolation block

# Cost model in ns, fitted on a 2-core Xeon (numpy 2.4, one thread). The
# direct path pays a complex exponential per point and, per frequency, a
# few numpy calls plus one multiply-reduce per point (type 2 also takes a
# real part); the gridded path pays a fixed overhead (W rounds of numpy
# calls per chunk, the FFT) plus W kernel terms per point.
_DIRECT_PER_POINT = 70.0
_DIRECT_PER_FREQ = 3000.0
_DIRECT_PER_TERM = {1: 2.2, 2: 4.9}
_GRID_FIXED = 160_000.0
_GRID_PER_POINT = 103.0


def _gridded(n: int, K: int, kind: int) -> bool:
    """Whether the gridded path is predicted to beat the direct one."""
    direct = n * _DIRECT_PER_POINT + K * (_DIRECT_PER_FREQ + n * _DIRECT_PER_TERM[kind])
    return _GRID_FIXED + n * _GRID_PER_POINT < direct


def _grid_size(K: int) -> int:
    """Smallest power of two >= 2W that holds frequencies -K..K twice over."""
    m = 32
    while m < 2 * (2 * K + 1):
        m *= 2
    return m


@functools.lru_cache(maxsize=None)
def _kernel_transform(m: int) -> np.ndarray:
    """M * psi_hat(k) for k = 0..M/2, psi the kernel at grid spacing 1/M.

    psi_hat(k) = (W / 2M) * integral_{-1}^{1} phi(z) cos(pi k W z / M) dz,
    by Gauss-Legendre quadrature. Read-only: the cache shares it."""
    z, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    phi = np.exp(BETA * np.sqrt(1.0 - z * z))
    k = np.arange(m // 2 + 1)
    out = _HALF * (np.cos(np.pi * W / m * np.outer(k, z)) @ (weights * phi))
    out.flags.writeable = False
    return out


def _unit_points(x: np.ndarray) -> np.ndarray | None:
    """x folded into [0, 1] (both sums are 1-periodic in x), or None when
    x holds a non-finite value, which only the direct path propagates."""
    lo, hi = x.min(), x.max()
    if not np.isfinite(lo + hi):
        return None
    if lo < 0.0 or hi > 1.0:
        return x - np.floor(x)
    return x


def _offsets(xs: np.ndarray, m: int):
    """Per point: the padded index of its first grid node, and the signed
    distance (in grid spacings) from the point to that node, in [-W/2, 1 - W/2)."""
    t = xs * m
    first = np.ceil(t - _HALF)
    return first.astype(np.intp) + W, first - t


def _rotate(cur: np.ndarray, step: np.ndarray) -> np.ndarray:
    """cur * step, in place where that rounds like the vector loop: numpy
    runs an in-place complex product of a single element through its
    scalar reduce loop, which rounds differently. So a point's terms never
    depend on how many points share the call."""
    if cur.size == 1:
        return cur * step
    cur *= step
    return cur


def _kernel(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """phi at grid distance s, |s| <= W/2: exp(beta sqrt(1 - (s / (W/2))^2)).

    That is e^beta times the kernel exp(beta (sqrt(1 - z^2) - 1)); the
    factor cancels against `_kernel_transform`, which uses the same phi.
    Written as sqrt(h^2 - s^2) with h = W/2: s^2 never rounds above h^2,
    so the root never sees a negative argument."""
    np.multiply(s, s, out=out)
    np.subtract(_HALF * _HALF, out, out=out)
    np.sqrt(out, out=out)
    out *= BETA / _HALF
    return np.exp(out, out=out)


# ---------------------------------------------------------------------------
# type 1: S_k = sum_i w_i exp(-2 pi i k x_i)
# ---------------------------------------------------------------------------

def conj_sums(x: np.ndarray, w: np.ndarray, K: int) -> np.ndarray:
    """S_k = sum_i w_i exp(-2 pi i k x_i) for k = 0..K (K + 1 values), over
    the last axis: an (R, n) input gives one row of sums per row.

    Real or complex weights; complex ones are split into their real and
    imaginary parts (the sum is linear in w). The direct path takes every
    row at once; the gridded one runs row by row. The path is picked from
    (n, K), so it is the same for every row, and a row's sums equal, bit
    for bit, those of the row alone."""
    x = np.asarray(x, dtype=float)
    if np.iscomplexobj(w):
        return conj_sums(x, np.real(w), K) + 1j * conj_sums(x, np.imag(w), K)
    w = np.asarray(w, dtype=float)
    if not (x.shape[-1] and _gridded(x.shape[-1], K, 1)):
        return _direct_sums(x, w, K)
    out = np.empty(x.shape[:-1] + (K + 1,), dtype=np.complex128)
    for row in np.ndindex(x.shape[:-1]):
        xu = _unit_points(x[row])
        out[row] = (_spread_sums(xu, w[row], K) if xu is not None
                    else _direct_sums(x[row], w[row], K))
    return out


def _direct_sums(x: np.ndarray, w: np.ndarray, K: int) -> np.ndarray:
    out = np.zeros(x.shape[:-1] + (K + 1,), dtype=np.complex128)
    for lo in range(0, x.shape[-1], _DIRECT_CHUNK):
        xs, ws = x[..., lo:lo + _DIRECT_CHUNK], w[..., lo:lo + _DIRECT_CHUNK]
        out[..., 0] += np.sum(ws, axis=-1)
        if K:
            step = np.exp(-2j * np.pi * xs)
            cur = ws * step
            out[..., 1] += cur.sum(axis=-1)
            for k in range(2, K + 1):
                cur = _rotate(cur, step)
                out[..., k] += cur.sum(axis=-1)
    return out


def _spread_sums(x: np.ndarray, w: np.ndarray, K: int) -> np.ndarray:
    m = _grid_size(K)
    padded = np.zeros(m + 2 * W)
    buf = np.empty(min(len(x), _GRID_CHUNK))
    for lo in range(0, len(x), _GRID_CHUNK):
        idx, s = _offsets(x[lo:lo + _GRID_CHUNK], m)
        ws = w[lo:lo + _GRID_CHUNK]
        ker = buf[:len(ws)]
        for _ in range(W):
            _kernel(s, ker)
            ker *= ws
            padded += np.bincount(idx, weights=ker, minlength=m + 2 * W)
            idx += 1
            s += 1.0
    grid = padded[W:W + m]
    grid[m - W:] += padded[:W]       # fold the periodic overhang back
    grid[:W] += padded[m + W:]
    return np.fft.rfft(grid)[:K + 1] / _kernel_transform(m)[:K + 1]


# ---------------------------------------------------------------------------
# type 2: a0 + 2 Re sum_k pos_k exp(2 pi i k x)
# ---------------------------------------------------------------------------

def series(a0: float, pos: np.ndarray, x) -> np.ndarray:
    """a0 + 2 Re sum_{k=1..K} pos[k-1] exp(2 pi i k x), shaped like x.

    The real synthesis of a conjugate-symmetric Fourier expansion: a0 is
    the constant coefficient and pos the positive-frequency ones."""
    pos = np.asarray(pos, dtype=np.complex128)
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    K = len(pos)
    # gridded when it wins even for one point, hence for any count: the
    # direct cost per point grows with K, the gridded one does not
    if flat.size and K and _gridded(1, K, 2):
        xu = _unit_points(flat)
        if xu is not None:
            return _interpolate_series(float(a0), pos, xu).reshape(x.shape)
    return _direct_series(float(a0), pos, flat).reshape(x.shape)


def _direct_series(a0: float, pos: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape)
    for lo in range(0, x.size, _DIRECT_CHUNK):
        seg = x[lo:lo + _DIRECT_CHUNK]
        acc = np.full(seg.shape, a0)
        if len(pos):
            rot = np.exp(2j * np.pi * seg)
            cur = rot.copy()
            acc += 2.0 * (pos[0] * cur).real
            for a in pos[1:]:
                cur = _rotate(cur, rot)
                acc += 2.0 * (a * cur).real
        out[lo:lo + seg.size] = acc
    return out


def _interpolate_series(a0: float, pos: np.ndarray, x: np.ndarray) -> np.ndarray:
    K = len(pos)
    m = _grid_size(K)
    khat = _kernel_transform(m)
    spectrum = np.zeros(m // 2 + 1, dtype=np.complex128)
    spectrum[0] = a0 / khat[0]
    spectrum[1:K + 1] = pos / khat[1:K + 1]
    grid = np.fft.irfft(spectrum, m) * m
    padded = np.concatenate([grid[m - W:], grid, grid[:W]])
    out = np.empty(x.shape)
    buf = np.empty(min(len(x), _GRID_CHUNK))
    for lo in range(0, len(x), _GRID_CHUNK):
        idx, s = _offsets(x[lo:lo + _GRID_CHUNK], m)
        acc = out[lo:lo + _GRID_CHUNK]
        acc[:] = 0.0
        ker = buf[:len(acc)]
        for _ in range(W):
            _kernel(s, ker)
            ker *= padded[idx]
            acc += ker
            idx += 1
            s += 1.0
    return out

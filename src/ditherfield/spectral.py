"""Nonuniform Fourier sums on [0, 1]: one analysis/synthesis kernel pair.

`conj_sums` is the type-1 sum  S_k = sum_i w_i exp(-2 pi i k x_i),  k = 0..K,
which the estimator needs; `series` is the real type-2 sum
a0 + 2 Re sum_{k=1..K} pos_k exp(2 pi i k x),  which field synthesis needs.
Each has two paths:

- direct: one unit phase z = exp(+-2 pi i x) per point, then per frequency
  one in-place complex multiply and one reduction (type 1), or one scalar
  add and one multiply of the Horner form
  z (pos_1 + z (pos_2 + ... + z pos_K))  (type 2); O(n K). The phase does
  not call numpy's complex exponential (a scalar libm loop, 40-60 ns a
  point): it takes exp(2 pi i j / N) from a table of N = 4096 roots of
  unity and rotates it by the residual angle with a short Taylor series,
  in real arithmetic (Tang, ACM TOMS 15(2), 1989), within 2e-16 of the
  exact value.
- gridded: spread the points onto (type 1) or interpolate them from
  (type 2) a periodic grid of M >= 2 (2K + 1) nodes, with one `numpy.fft`
  transform and a division by the kernel's Fourier transform
  (Greengard & Lee, SIAM Rev. 46, 2004); O(n W + M log M). The kernel is
  the exponential of semicircle  exp(beta sqrt(1 - z^2))  on W nodes of
  Barnett et al., FINUFFT, SIAM J. Sci. Comput. 41 (2019).

Both paths work on blocks of 16384 points. A fixed cost model picks the
path: from (n, K) for type 1, and from K alone for type 2, which goes
gridded only where that wins at every n. The direct path works point by
point (type 1 then reduces each row), so a point's synthesized value never
depends on the other points of the call, and simulated sample paths stay
prefix-stable to the bit. Both paths agree to about 1e-12 relative to sum|w_i| (type 1) or
|a0| + 2 sum|pos_k| (type 2), above the range where gradual underflow
takes bits.
"""

from __future__ import annotations

import functools

import numpy as np

W = 13                    # kernel width in grid nodes
BETA = 2.30 * W           # kernel shape for a 2x oversampled grid
_HALF = W / 2.0
_QUAD_NODES = 64          # Gauss-Legendre nodes for the kernel transform

_CHUNK = 1 << 14          # points per block, on either path

_PHASE_N = 1 << 12        # roots of unity in the phase table
# f + _ROUND rounds |f| <= 1 to a multiple of 1/_PHASE_N (its ulp) and
# holds the multiple in the low mantissa bits. The constants are arrays:
# numpy converts a Python float operand anew on every call.
_ROUND = np.array(1.5 * 2.0 ** 40)
# Taylor coefficients in r of cos 2 pi r - 1 = r^2 (_ROT_LO[0] + r^2 _ROT_HI[0])
# and of sin 2 pi r = r (_ROT_LO[1] + r^2 _ROT_HI[1])
_ROT_LO = np.array([[-2.0 * np.pi ** 2], [2.0 * np.pi]])
_ROT_HI = np.array([[2.0 * np.pi ** 4 / 3.0], [-4.0 * np.pi ** 3 / 3.0]])

# Cost model in ns, fitted on a 2-core Xeon (numpy 2.4, one thread) when
# the direct path still took numpy's complex exponential, and kept so that
# every (n, K) takes the path it took then. The direct path pays a phase
# per point and, per frequency, a few numpy calls plus one multiply-reduce
# per point; the gridded path pays a fixed overhead (W rounds of numpy
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


def _phase_table() -> np.ndarray:
    """Rows -sin, cos, sin of 2 pi j / _PHASE_N, j < _PHASE_N: 96 KB,
    read-only. Evaluated in long double where the platform has one, so
    each entry is the correctly rounded value or within one ulp of it."""
    turn = 8 * np.arctan(np.longdouble(1))
    angle = turn * np.arange(_PHASE_N, dtype=np.longdouble) / _PHASE_N
    sin = np.sin(angle)
    table = np.stack([-sin, np.cos(angle), sin]).astype(float)
    table.flags.writeable = False
    return table


_TABLE = _phase_table()


def _unit_phase(x: np.ndarray, sign: int) -> np.ndarray:
    """exp(sign 2 pi i x) for sign = +1 or -1, shaped like x.

    The fraction f = x - rint(x) (exact, so any finite x works) is a table
    node j / N plus a residual r, |r| <= 1 / 2N, both exact. exp(2 pi i f)
    is the entry c + i s times the rotation 1 + (cos 2 pi r - 1) + i sin 2 pi r,
    with cos - 1 to r^4 and sin to r^3 (truncation below 1e-17):
    (c, s) + (c, s) (cos - 1) + (-s, c) sin, in real arithmetic and
    elementwise, so a point rounds alike whatever else shares the call.
    A non-finite x gives NaN."""
    # All temporaries share one block, rows f, node, u, r, -s, c, s and
    # two spare: as separate arrays they made the allocator hand the heap
    # back and fault it in again on every call.
    ws = np.empty((9, x.size))
    f, node, ur, t = ws[0], ws[1], ws[2:4], ws[4:7]
    fx = f.reshape(x.shape)
    np.rint(x, out=fx)
    with np.errstate(invalid="ignore"):  # x = +-inf: inf - inf is NaN
        np.subtract(x, fx, out=fx) if sign > 0 else np.subtract(fx, x, out=fx)
    np.add(f, _ROUND, out=node)         # f rounded to a multiple j / N
    np.subtract(node, _ROUND, out=ur[1])
    np.subtract(f, ur[1], out=ur[1])    # r = f - j / N, exact
    idx = node.view(np.int64)
    idx &= _PHASE_N - 1                 # j mod N, negative j too
    _TABLE.take(idx, axis=1, out=t, mode="clip")  # in range; "raise" copies
    np.multiply(ur[1], ur[1], out=ur[0])
    rot = np.multiply(ur[0], _ROT_HI, out=ws[7:])
    rot += _ROT_LO
    ur *= rot                           # rows: cos 2 pi r - 1, sin 2 pi r
    re_im = np.multiply(t[1:], ur[0], out=ws[:2])   # (c, s) (cos - 1)
    re_im += np.multiply(t[:2], ur[1], out=ws[7:])  # (-s, c) sin
    out = np.empty(x.shape, dtype=np.complex128)
    np.add(re_im, t[1:], out=out.view(float).reshape(-1, 2).T)
    return out


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
    for lo in range(0, x.shape[-1], _CHUNK):
        xs, ws = x[..., lo:lo + _CHUNK], w[..., lo:lo + _CHUNK]
        part = np.empty_like(out) if lo else out  # block sums, added to out
        part[..., 0] = np.add.reduce(ws, axis=-1)
        if K:
            step = _unit_phase(xs, -1)
            cur = ws * step
            np.add.reduce(cur, axis=-1, out=part[..., 1])
            for k in range(2, K + 1):
                cur = _rotate(cur, step)
                np.add.reduce(cur, axis=-1, out=part[..., k])
        if lo:
            out += part
    return out


def _spread_sums(x: np.ndarray, w: np.ndarray, K: int) -> np.ndarray:
    m = _grid_size(K)
    padded = np.zeros(m + 2 * W)
    buf = np.empty(min(len(x), _CHUNK))
    for lo in range(0, len(x), _CHUNK):
        idx, s = _offsets(x[lo:lo + _CHUNK], m)
        ws = w[lo:lo + _CHUNK]
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
    """Horner form: 2 Re z (pos_1 + z (pos_2 + ... + z pos_K)) + a0, z = e^{2 pi i x}."""
    out = np.full(x.shape, a0)
    if not len(pos):
        return out
    for lo in range(0, x.size, _CHUNK):
        z = _unit_phase(x[lo:lo + _CHUNK], 1)
        acc = pos[-1] * z
        for a in pos[-2::-1]:
            acc += a
            acc = _rotate(acc, z)
        seg = out[lo:lo + _CHUNK]
        np.multiply(acc.real, 2.0, out=seg)
        seg += a0
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
    buf = np.empty(min(len(x), _CHUNK))
    for lo in range(0, len(x), _CHUNK):
        idx, s = _offsets(x[lo:lo + _CHUNK], m)
        acc = out[lo:lo + _CHUNK]
        acc[:] = 0.0
        ker = buf[:len(acc)]
        for _ in range(W):
            _kernel(s, ker)
            ker *= padded[idx]
            acc += ker
            idx += 1
            s += 1.0
    return out

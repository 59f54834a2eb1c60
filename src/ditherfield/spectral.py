"""Nonuniform Fourier sums on [0, 1]: one analysis/synthesis kernel pair.

`ConjSums` accumulates the type-1 sum  S_k = sum_i w_i exp(-2 pi i k x_i),
k = 0..K, which the estimator needs; `series` is the real type-2 sum
a0 + 2 Re sum_{k=1..K} pos_k exp(2 pi i k x),  which field synthesis needs.

Both rest on one cell expansion: a point x lies in cell c = rint(x M) mod M
of M cells, the smallest power of two >= max(64, 32 K), at the exact
offset u = x M - rint(x M) in [-1/2, 1/2] from the cell's node c / M, and
exp(2 pi i k x) = exp(2 pi i k c / M) sum_q (2 pi i k u / M)^q / q!
(Anderson & Dahleh, SIAM J. Sci. Comput. 17(4), 1996). With
|k u / M| <= 1/64 the terms q = 0..8 leave at most (pi / 32)^9 / 9!
= 2.3e-15 of the l1 norm.

- type 2 has this one path. A `RealSeries` builds the tables
  T_q[c] = M irfft(pos_k (2 pi i k / M)^q / q!) with one batched `irfft`
  once, when it is made, for any K >= 0 (at K = 0 they hold a0), and per
  point takes a Horner sum over q of T_q[c] in u: O(9 n + 9 M log M).
  A field that keeps one pays the O(9 M log M) once per field; `series`
  makes a fresh one per call. The sum is pointwise, so a point's value
  never depends on the other points of its call, and simulated sample
  paths stay prefix-stable to the bit; a non-finite point reads NaN.
- type 1 has two paths. The gridded one takes the power moments
  sum_{i in c} w_i u_i^q of each cell, for every row of a tile at once
  (one `bincount` per q, row r's cells offset by r M), one batched `rfft`
  over them, and per frequency a Horner sum over q. The direct one, for
  short rows and small K (the estimator's battery rows), takes one unit
  phase z = exp(-2 pi i x) per point, then per frequency one in-place
  complex multiply and one reduction; O(n K). The phase does not call
  numpy's complex exponential (a scalar libm loop, 40-60 ns a point): it
  takes exp(2 pi i j / N) from a table of N = 4096 roots of unity and
  rotates it by the residual angle with a short Taylor series, in real
  arithmetic (Tang, ACM TOMS 15(2), 1989), within 2e-16 of the exact
  value. A cost model fitted to both paths picks one from (n, K).
  Either path is one additive accumulator, `ConjSums`, which holds the
  direct sums or the cell moments, takes the points in tiles of whole
  blocks and is finished once. The gridded path takes finite points
  only, any of them by periodicity.

Both sums work on blocks of 16384 points. The table and moment sums are
within about 1e-16 of |a0| + 2 sum|pos_k| (type 2) or sum|w_i| (type 1)
of the exact sums, the direct type-1 sum, whose rounding grows with K,
within 2e-15 at K = 256; all above the range where gradual underflow
takes bits.
"""

from __future__ import annotations

import numpy as np

_TERMS = 9                # Taylor terms q = 0..8 of the cell expansion

BLOCK_POINTS = 1 << 14    # points per block, on every path

_PHASE_N = 1 << 12        # roots of unity in the phase table
# f + _ROUND rounds |f| <= 1 to a multiple of 1/_PHASE_N (its ulp) and
# holds the multiple in the low mantissa bits. The constants are arrays:
# numpy converts a Python float operand anew on every call.
_ROUND = np.array(1.5 * 2.0 ** 40)
# Taylor coefficients in r of cos 2 pi r - 1 = r^2 (_ROT_LO[0] + r^2 _ROT_HI[0])
# and of sin 2 pi r = r (_ROT_LO[1] + r^2 _ROT_HI[1])
_ROT_LO = np.array([[-2.0 * np.pi ** 2], [2.0 * np.pi]])
_ROT_HI = np.array([[2.0 * np.pi ** 4 / 3.0], [-4.0 * np.pi ** 3 / 3.0]])

# Type-1 cost model in ns: direct (per call, point, frequency, term) and
# gridded (per call, point, cell), least-squares fits to best-of-9 timings
# of both paths on a 2-core Xeon (numpy 2.4, one thread; n = 1-65536,
# K = 1-256), timed as the block engine calls them, max(1, 16384 // n) rows
# of n points at once: the direct path shares its per-call and
# per-frequency costs among the rows (they fit to 0). The gridded fit is
# of the path when it ran row by row; it is kept, so every (n, K) keeps
# its path and every sum its bits, which a refit would move.
_DIRECT = (0.0, 18.4, 0.0, 1.47)
_GRIDDED = (41_000.0, 21.2, 57.0)


def _gridded(n: int, K: int) -> bool:
    """Whether the gridded type-1 path is predicted to beat the direct one."""
    call, point, freq, term = _DIRECT
    direct = call + n * point + K * (freq + n * term)
    call, point, cell = _GRIDDED
    return call + n * point + _cells(K) * cell < direct


def _cells(K: int) -> int:
    """M, the smallest power of two >= max(64, 32 K)."""
    return 1 << max(6, (32 * K - 1).bit_length())


def _cell_offsets(x: np.ndarray, m: int):
    """Per point of x: its cell rint(x m) mod m, and its offset
    x m - rint(x m) in [-1/2, 1/2] from the cell's node; both exact, since
    m is a power of two, for any finite x with |x m| < 2^52, so a point
    outside [0, 1] lands where periodicity puts it."""
    u = x * m
    node = np.rint(u)
    u -= node
    cell = node.astype(np.intp)
    cell &= m - 1
    return cell, u


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


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """exp(-2 pi i x), shaped like x.

    The fraction f = rint(x) - x (exact, so any finite x works) is a table
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
        np.subtract(fx, x, out=fx)
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


# ---------------------------------------------------------------------------
# type 1: S_k = sum_i w_i exp(-2 pi i k x_i)
# ---------------------------------------------------------------------------

class ConjSums:
    """Running type-1 sums S_k, k = 0..K, of rows of n points each, fed
    in tiles of points [start, start + len) of every row, in order.

    Additive on either path: the direct one holds the sums themselves, the
    gridded one the (_TERMS, M) cell moments of each row, transformed once,
    by `result`. Either path takes every row of a tile at once. Every tile
    but the last must hold whole blocks of BLOCK_POINTS points, so the
    blocks, and with them every bit of the result, are those of one pass
    over whole rows, however the rows are cut. The path is picked from
    (n, K), so it is the same for every row, and a row's sums equal, bit
    for bit, those of the row alone. Real weights and finite points only."""

    def __init__(self, lead: tuple, n: int, K: int):
        lead = tuple(lead)
        self.n, self.K, self.fed = n, K, 0
        self.gridded = _gridded(n, K)
        if self.gridded:
            self.moments = np.zeros(lead + (_TERMS, _cells(K)))
        else:
            self.sums = np.zeros(lead + (K + 1,), dtype=np.complex128)

    def add(self, x: np.ndarray, w: np.ndarray) -> None:
        """Feed the next x.shape[-1] points of every row."""
        if self.fed % BLOCK_POINTS:
            raise ValueError(f"only the last tile may hold a partial block "
                             f"of {BLOCK_POINTS} points")
        if self.fed + x.shape[-1] > self.n:
            raise ValueError(f"more than the declared {self.n} points per row")
        for lo in range(0, x.shape[-1], BLOCK_POINTS):
            xs, ws = x[..., lo:lo + BLOCK_POINTS], w[..., lo:lo + BLOCK_POINTS]
            if self.gridded:
                _add_moments(self.moments, xs, ws)
            else:
                # block sums, added to the running ones after the first block
                part = np.empty_like(self.sums) if self.fed else self.sums
                part[..., 0] = np.add.reduce(ws, axis=-1)
                if self.K:
                    step = _unit_phase(xs)
                    cur = ws * step
                    np.add.reduce(cur, axis=-1, out=part[..., 1])
                    for k in range(2, self.K + 1):
                        cur = _rotate(cur, step)
                        np.add.reduce(cur, axis=-1, out=part[..., k])
                if self.fed:
                    self.sums += part
            self.fed += xs.shape[-1]

    def result(self) -> np.ndarray:
        """The K + 1 sums of every row, once all n points are fed."""
        if self.fed != self.n:
            raise ValueError(f"fed {self.fed} of {self.n} points per row")
        return _moment_sums(self.moments, self.K) if self.gridded else self.sums


def _add_moments(moments: np.ndarray, x: np.ndarray, w: np.ndarray) -> None:
    """Add sum_{i in c} w_i u_i^q of a block of points x of every row to
    the (..., _TERMS, M) moments of their cells c: one `bincount` per q
    over all rows, with row r's cells offset by r M. No two rows share a
    bin, and `bincount` adds a bin's weights in input order, so a row's
    moments are, bit for bit, those of the row alone."""
    m = moments.shape[-1]
    rows = moments.reshape(-1, _TERMS, m)
    bins = len(rows) * m
    cell, u = _cell_offsets(x.reshape(-1, x.shape[-1]), m)
    cell += np.arange(0, bins, m)[:, None]
    cell, u = cell.ravel(), u.ravel()
    wu = w.flatten()
    for q in range(_TERMS):
        rows[:, q] += np.bincount(cell, weights=wu, minlength=bins).reshape(-1, m)
        wu *= u


def _moment_sums(moments: np.ndarray, K: int) -> np.ndarray:
    """S_k = sum_q (-2 pi i k / M)^q / q! F_q[k] of every row, F_q the DFT
    of the moments sum_{i in c} w_i u_i^q over the cells c."""
    m = moments.shape[-1]
    f = np.fft.rfft(moments)[..., :K + 1]
    a = np.arange(K + 1) * (-2j * np.pi / m)
    acc = f[..., -1, :]
    for q in range(_TERMS - 1, 0, -1):
        acc = f[..., q - 1, :] + acc * (a / q)
    return acc


# ---------------------------------------------------------------------------
# type 2: a0 + 2 Re sum_k pos_k exp(2 pi i k x)
# ---------------------------------------------------------------------------

class RealSeries:
    """x -> a0 + 2 Re sum_{k=1..K} pos[k-1] exp(2 pi i k x), shaped like x.

    The real synthesis of a conjugate-symmetric Fourier expansion: a0 is
    the constant coefficient and pos the positive-frequency ones. Its
    tables are built here, once, for any K, and every call reads them.
    Each point is summed on its own, so its value never depends on the
    other points of its call; a non-finite point reads NaN."""

    def __init__(self, a0: float, pos: np.ndarray):
        self.a0 = float(a0)
        self.pos = np.asarray(pos, dtype=np.complex128)
        self.tables = _series_tables(self.a0, self.pos)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        with np.errstate(invalid="ignore"):  # non-finite points give NaN
            # fold into [0, 1] only when some point lies outside (NaN fails
            # both tests): x - floor(x) is x itself on [0, 1)
            if flat.size and not (flat.min() >= 0.0 and flat.max() <= 1.0):
                flat = flat - np.floor(flat)
            return _table_series(self.tables, flat).reshape(x.shape)


def series(a0: float, pos: np.ndarray, x) -> np.ndarray:
    """a0 + 2 Re sum_{k=1..K} pos[k-1] exp(2 pi i k x), shaped like x: one
    `RealSeries` call, for coefficients that are synthesized once."""
    return RealSeries(a0, pos)(x)


def _series_tables(a0: float, pos: np.ndarray) -> np.ndarray:
    """T_q[c] = M irfft(pos_k (2 pi i k / M)^q / q!), q < _TERMS, with a0
    in T_0: a read-only (_TERMS, M) array."""
    K = len(pos)
    m = _cells(K)
    spectrum = np.zeros((_TERMS, m // 2 + 1), dtype=np.complex128)
    spectrum[0, 0] = a0
    spectrum[0, 1:K + 1] = pos
    b = np.arange(1, K + 1) * (2j * np.pi / m)
    for q in range(1, _TERMS):
        spectrum[q, 1:K + 1] = spectrum[q - 1, 1:K + 1] * (b / q)
    tables = np.fft.irfft(spectrum, m, norm="forward")
    tables.flags.writeable = False
    return tables


def _table_series(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_q T_q[c] u^q per point, by Horner in u."""
    m = tables.shape[1]
    out = np.empty(x.shape)
    buf = np.empty(min(len(x), BLOCK_POINTS))
    for lo in range(0, len(x), BLOCK_POINTS):
        cell, u = _cell_offsets(x[lo:lo + BLOCK_POINTS], m)
        acc = out[lo:lo + BLOCK_POINTS]
        tables[-1].take(cell, out=acc, mode="clip")  # in range; "raise" copies
        term = buf[:len(acc)]
        for table in tables[-2::-1]:
            acc *= u
            acc += table.take(cell, out=term, mode="clip")
    return out

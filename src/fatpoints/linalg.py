"""Exact rank computation over a prime field, tuned for wide dense matrices.

The reducer keeps a growing row-reduced basis (RREF: unit pivots, pivot
columns cleared everywhere) and absorbs incoming rows in blocks (256 rows by
default) by recursive rank-profile elimination, after FFPACK's PLUQ: reduce
the block against the basis with one modular matrix product, take the
block's own RREF by halving it (the top half's RREF, then the bottom half
absorbed into that) down to 16-row base cases, then clear the new pivot
columns from the old basis with a second product and append the new rows.
Pivot columns of an RREF are unit vectors, so the basis is stored as
[I | R], keeping only R on the still-free columns, and both products run on
those columns only.  A b-row base case wider than 2 * 64 columns is
eliminated row by row on [its first 64 columns | I_b] only: when that window
holds b pivots, the block's column rank profile lies in it, and the
transform accumulated in I_b reduces the other columns with one product;
otherwise the same row loop runs on the full width.  All products are
exact and run in BLAS, after FFLAS's delayed reduction: with balanced
residues (absolute value at most p // 2 < 2^30) and the smaller operand
split into 15-bit halves, two float64 products per 256-wide chunk of the
inner dimension stay below 2^53; the chunks are summed in int64, reduced
every 512 chunks to stay below 2^63, and combined with one final
reduction.  After a product is subtracted from residues, one sign fix
``x += (x >> 63) & p`` brings the difference back to [0, p).  Every other
array reduction goes through ``_mod``: the floor division
``x -= (x // p) * p``, as numpy divides int64 by a scalar fast and on arrays
of a few thousand entries this is up to four times faster than int64 ``%``,
but ``%`` itself below 256 entries, where its one call costs less.  Entries
must live in [0, p) with p < 2^31.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 2**31 - 1
_BASE_ROWS = 16  # blocks this small are eliminated row by row
_WINDOW = 64  # base cases wider than twice this eliminate these leading columns first
_SMALL = 256  # _mod takes np.remainder below this many entries
_CHUNK = 256  # inner width of one exact float64 product (2^30 * 2^15 * 256 = 2^53)
_FLUSH = 512  # chunks summed in int64 between reductions (512 * 2^53 = 2^62)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce int64 ``x`` mod p in place (floor semantics, like ``%``) and return it.

    Below a few hundred entries one ``np.remainder`` costs less than the
    three ufunc calls of the floor division (1 µs against 2 µs on 16)."""
    if x.size < _SMALL:
        return np.remainder(x, p, out=x)
    q = x // p
    q *= p
    x -= q
    return x


def _balanced(x: np.ndarray, p: int) -> np.ndarray:
    """float64 copy of ``x`` (entries in [0, p)) with each entry above p // 2
    moved down by p, so every entry is at most p // 2 in absolute value."""
    f = x.astype(np.float64)
    f -= (f > p // 2) * float(p)
    return f


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p, exact, for int64 operands reduced mod p < 2^31.

    Both operands are taken to balanced residues, of absolute value at most
    p // 2 < 2^30.  The one with fewer entries, s, is split as
    s = 2^15 s_hi + s_lo with |s_hi| <= 2^15 and 0 <= s_lo < 2^15; the other
    one, u, stays whole.  The inner dimension is walked in chunks of 256:
    there the two float64 products of u with s_hi and with s_lo have every
    partial sum below 2^30 2^15 256 = 2^53, so they are exact.  Each chunk's
    products are added into int64 accumulators hi and lo, which are reduced
    every 512 chunks (512 2^53 = 2^62, so int64 never overflows); the result
    is (hi mod p) 2^15 + lo, reduced once.  The contract is exactness below
    inner dimension 2^19; a wider product raises ``ValueError``.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    k = a.shape[1]
    if k >= 1 << 19:
        raise ValueError("inner dimension too large for exact float64 products")
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    split_a = a.size <= b.size
    u = _balanced(b if split_a else a, p)
    s = _balanced(a if split_a else b, p)
    s_hi = np.floor(s * 2.0**-15)
    s_lo = s - s_hi * 2.0**15
    buf = np.empty((a.shape[0], b.shape[1]))
    hi = np.empty(buf.shape, dtype=np.int64)
    lo = np.empty(buf.shape, dtype=np.int64)
    for c, start in enumerate(range(0, k, _CHUNK)):
        cols = slice(start, start + _CHUNK)
        for part, acc in ((s_hi, hi), (s_lo, lo)):
            if split_a:
                np.matmul(part[:, cols], u[cols], out=buf)
            else:
                np.matmul(u[:, cols], part[cols], out=buf)
            if c:
                np.add(acc, buf, out=acc, dtype=np.int64, casting="unsafe")
            else:
                np.copyto(acc, buf, casting="unsafe")
        if c % _FLUSH == _FLUSH - 1:
            _mod(hi, p)
            _mod(lo, p)
    _mod(hi, p)
    hi <<= 15
    hi += lo
    return _mod(hi, p)


class RowReducer:
    """Incremental RREF basis over F_p; feed row blocks, read off the rank.

    The basis is stored compactly as ``(pivots, free, rest)``: row i is the
    unit vector at column ``pivots[i]`` plus ``rest[i]`` on ``free``, the
    sorted non-pivot columns.  Pivot columns of an RREF are unit vectors, so
    they are never stored, and rows stay in the order they were found.
    Incoming rows are copied into one ``(block, ncols)`` buffer, which is
    eliminated each time it fills, so feeding many small row groups stays
    cheap.  Reading :attr:`rank` flushes the buffer.
    """

    def __init__(self, ncols: int, p: int, block: int = 256):
        if not (2 <= p <= MAX_PRIME):
            raise ValueError(f"prime must be in [2, 2^31 - 1], got {p}")
        if ncols < 1:
            raise ValueError("need at least one column")
        self.ncols = ncols
        self.p = p
        self.block = block
        self._pivots = np.zeros(0, dtype=np.intp)
        self._free = np.arange(ncols)
        self._rest = np.zeros((0, ncols), dtype=np.int64)
        self._buf = np.empty((block, ncols), dtype=np.int64)
        self._fill = 0

    @property
    def rank(self) -> int:
        self.flush()
        return len(self._pivots)

    def saturated(self) -> bool:
        return len(self._pivots) == self.ncols

    def add_rows(self, rows: np.ndarray) -> int:
        """Queue a block of rows and return the exact rank so far (flushes
        the queue).  Once the rank reaches the column count further rows are
        discarded."""
        self.queue_rows(rows)
        return self.rank

    def queue_rows(self, rows: np.ndarray) -> None:
        """Queue rows without forcing a flush (cheap for tiny groups);
        elimination happens in blocks of ``self.block`` rows."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.ncols:
            raise ValueError(f"expected (k, {self.ncols}) rows, got {rows.shape}")
        start = 0
        while start < rows.shape[0] and not self.saturated():
            take = min(self.block - self._fill, rows.shape[0] - start)
            end = self._fill + take
            dst = self._buf[self._fill : end]
            dst[...] = rows[start : start + take]
            _mod(dst, self.p)
            self._fill, start = end, start + take
            if self._fill == self.block:
                self.flush()

    def flush(self) -> None:
        if self._fill and not self.saturated():
            self._absorb(self._buf[: self._fill])
        self._fill = 0

    def _absorb(self, blk: np.ndarray) -> None:
        # _extend copies what it keeps of blk, so the buffer can be refilled
        self._pivots, self._free, self._rest = _extend(
            self._pivots, self._free, self._rest, blk, self.p
        )


def _extend(
    pivots: np.ndarray, free: np.ndarray, rest: np.ndarray, blk: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact RREF ``(pivots, free, rest)`` of rowspace(basis) +
    rowspace(blk), given the basis in that form; new rows go below the old."""
    red = blk[:, free]
    if len(pivots):
        red -= matmul_mod(blk[:, pivots], rest, p)
        red += (red >> 63) & p
    new_piv, keep, new = _rref(red, p)
    if not new_piv.size:
        return pivots, free, rest
    k = len(pivots)
    out = np.empty((k + new.shape[0], keep.size), dtype=np.int64)
    out[k:] = new
    if k:
        old = out[:k]
        np.take(rest, keep, axis=1, out=old)
        old -= matmul_mod(rest[:, new_piv], new, p)
        old += (old >> 63) & p
    return np.concatenate([pivots, free[new_piv]]), free[keep], out


def _rref(red: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact RREF of ``red``, which it overwrites: the top half's RREF, the
    bottom half absorbed into it, down to row-by-row base cases."""
    b, n = red.shape
    if b > _BASE_ROWS:
        return _extend(*_rref(red[: b // 2], p), red[b // 2 :], p)
    if n > 2 * _WINDOW:
        # Eliminate [first _WINDOW columns | I_b] only.  If the window holds b
        # pivots, the transform accumulated in its identity part reduces the
        # remaining columns with one product.
        win = np.hstack([red[:, :_WINDOW], np.eye(b, dtype=np.int64)])
        _, cols = _row_loop(win, _WINDOW, p)
        if len(cols) == b:
            keep = np.delete(np.arange(n), cols)
            rest = matmul_mod(win[:, _WINDOW:], red[:, _WINDOW:], p)
            rest = np.hstack([win[:, keep[: _WINDOW - b]], rest])
            return np.array(cols, dtype=np.intp), keep, rest
    rows, cols = _row_loop(red, n, p)
    keep = np.delete(np.arange(n), cols)
    return np.array(cols, dtype=np.intp), keep, red[np.ix_(rows, keep)]


def _row_loop(a: np.ndarray, width: int, p: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan on ``a`` in place, pivots sought in its first ``width``
    columns; returns the rows that got a pivot and their pivot columns."""
    rows: list[int] = []
    cols: list[int] = []
    for i in range(a.shape[0]):
        nz = np.flatnonzero(a[i, :width])
        if nz.size:
            j = int(nz[0])
            row = a[i]
            row *= pow(int(row[j]), -1, p)
            _mod(row, p)
            factors = a[:, j].copy()
            factors[i] = 0
            a -= factors[:, None] * row
            _mod(a, p)
            rows.append(i)
            cols.append(j)
    return rows, cols


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Exact rank of an integer matrix over F_p."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    if matrix.size == 0:
        return 0
    red = RowReducer(matrix.shape[1], p)
    return red.add_rows(matrix)


def rank_mod_p_naive(matrix: np.ndarray, p: int) -> int:
    """Straightforward row elimination; reference oracle for the fast path."""
    a = [[int(x) % p for x in row] for row in np.atleast_2d(matrix)]
    if not a or not a[0]:
        return 0
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank

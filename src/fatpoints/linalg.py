"""Exact rank computation over a prime field, tuned for wide dense matrices.

The reducer keeps a growing RREF basis as [I | R], storing R on the free
columns, and absorbs rows in blocks (256 by default) by recursive
rank-profile elimination, after FFPACK's PLUQ: reduce the block against the
basis, take its RREF, then clear the new pivot columns from the basis, each
step by modular products.  A block of b rows on n > 2 w columns,
w = max(b, 64), first takes the RREF of [its first w columns | I_b]; if that
window holds b pivots, the transform in I_b reduces the other columns in
place.  Otherwise a block of over 16 rows is halved, and a smaller one is
eliminated row by row in int64 (exact).

A trial's working set is the basis store, the queue buffer and one block.
R lives in one flat store of (n // 2) ((n + 1) // 2) floats, which
k (n - k) never exceeds; each block rewrites it in place, ``_TILE`` (128)
old rows at a time, each tile gathered before it is overwritten at the
narrower new stride, then the block's new rows below.

Basis and blocks are integer-valued float64 balanced residues, at most
(p + 1) // 2 <= 2^30 in absolute value, converted once when queued.  Every
product runs one kernel, c -= a b by FFLAS's delayed reduction, over tiles
of ``_TILE`` rows of a and chunks of 256 of the inner dimension: the smaller
operand is split, a piece at a time, as 2^15 s_hi + s_lo (|s_hi| <= 2^15,
|s_lo| <= 2^14), so both float64 products of a chunk are exact
(2^30 2^15 256 = 2^53), and ``_reduce`` leaves |c| <= (p + 1) // 2 before
the next chunk, so no inner width is too wide.  A thread's reused scratch
holds at most 2 * 128 * n floats.  Column gathers use ``np.take(..., axis=1)``,
which returns C order where ``x[:, idx]`` returns F order.
"""

from __future__ import annotations

import threading

import numpy as np

MAX_PRIME = 2**31 - 1
_BASE_ROWS = 16  # blocks this small are eliminated row by row
_WINDOW = 64  # least window width; blocks wider than twice the window try it first
_SMALL = 256  # _mod takes np.remainder below this many entries
_CHUNK = 256  # inner width of one exact float64 product (2^30 * 2^15 * 256 = 2^53)
_TILE = 128  # rows of one product step, and of one step of the basis rewrite
_SPAN = 512  # columns of red that the window's transform updates per product
_local = threading.local()  # per-thread scratch of the product kernel


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce int64 ``x`` mod p in place (floor semantics, like ``%``) and return
    it; below ``_SMALL`` entries one ``np.remainder`` costs less (1 µs against
    2 µs on 16) than the three ufunc calls of the floor division."""
    if x.size < _SMALL:
        return np.remainder(x, p, out=x)
    q = x // p
    q *= p
    x -= q
    return x


def _reduce(x: np.ndarray, p: int, t: np.ndarray | None = None) -> np.ndarray:
    """``x -= rint(x (1/p)) p`` in place on integer-valued float64 ``x``, scratch
    ``t``.  For |x| <= 2^53, q is off x/p by at most 2/p: |x| <= p/2 + 2 after,
    exact while |q p| <= 2^53, as for a chunk's s_hi product (|x| <= 2^22 (p + 1),
    so |q| <= 2^22 if p > 2^23).  For |x| <= 2^52 + 2^47, the chunk's final
    -2^15 x - (s_lo product) + c, q is off by 1.04/p: |x| <= (p + 1) // 2 after."""
    t = np.multiply(x, 1 / p, out=t)
    np.rint(t, out=t)
    x -= np.multiply(t, p, out=t)
    return x


def _scratch(shape: tuple[int, int]) -> np.ndarray:
    """A (2, *shape) float64 array, which this thread's next call reuses."""
    size = 2 * shape[0] * shape[1]
    if getattr(_local, "pool", np.empty(0)).size < size:
        _local.pool = np.empty(size)
    return _local.pool[:size].reshape(2, *shape)


def _split(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s_hi, s_lo)`` with s = 2^15 s_hi + s_lo, s_hi = rint(s 2^-15), in two arrays."""
    hi = np.multiply(s, 2.0**-15)
    np.rint(hi, out=hi)
    lo = np.multiply(hi, -(2.0**15))
    lo += s
    return hi, lo


def _subtract_product(a: np.ndarray, b: np.ndarray, p: int, c: np.ndarray) -> np.ndarray:
    """c -= a b in place on float64 balanced residues, all three at most
    (p + 1) // 2 in absolute value, as c is again after each chunk; the
    operand with fewer entries is split per tile and chunk (a) or chunk (b)."""
    if a.size == 0 or b.size == 0:
        return c
    x, t = _scratch((min(_TILE, a.shape[0]), b.shape[1]))
    split_a = a.size <= b.size
    for s in range(0, a.shape[1], _CHUNK):
        right = b[s : s + _CHUNK]
        parts = None if split_a else _split(right)
        for i in range(0, a.shape[0], _TILE):
            left, ct = a[i : i + _TILE, s : s + _CHUNK], c[i : i + _TILE]
            xt, tt = x[: len(ct)], t[: len(ct)]
            terms = zip(_split(left), (right, right)) if split_a else zip((left, left), parts)
            (hi_a, hi_b), (lo_a, lo_b) = terms
            _reduce(np.matmul(hi_a, hi_b, out=xt), p, tt)
            np.matmul(lo_a, lo_b, out=tt)
            xt *= -(2.0**15)
            xt -= tt
            ct += xt
            _reduce(ct, p, xt)
    return c


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int, *, c: np.ndarray | None = None) -> np.ndarray:
    """(a @ b) % p for int64 ``a``, ``b`` in [0, p); or, given ``c``, c -= a @ b
    in place on float64 balanced residues (all three at most (p + 1) // 2 in
    absolute value), returning c.  Both run one kernel, at any inner width."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if c is not None:
        return _subtract_product(a, b, p, c)
    fa, fb = (_reduce(x.astype(np.float64), p) for x in (a, b))
    x = np.negative(_subtract_product(fa, fb, p, np.zeros((len(a), b.shape[1])))).astype(np.int64)
    x += (x >> 63) & p
    return x


class RowReducer:
    """Incremental RREF basis over F_p; feed row blocks, read off the rank.

    The basis is ``(pivots, free, rest)``: row i, in the order found, is the
    unit vector at column ``pivots[i]`` plus ``rest[i]`` on ``free``, the
    sorted non-pivot columns; ``rest`` is a view of the one store that every
    block rewrites in place.  Rows are queued, as balanced residues, in one
    ``(block, ncols)`` buffer, eliminated each time it fills, so feeding many
    small row groups stays cheap.  Reading :attr:`rank` flushes the buffer.
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
        # k (ncols - k) entries, never more than (ncols // 2) ((ncols + 1) // 2)
        self._store = np.empty((ncols // 2) * ((ncols + 1) // 2))
        self._rest = self._store[:0].reshape(0, ncols)
        self._buf = np.empty((block, ncols))
        self._fill = 0

    @property
    def rank(self) -> int:
        self.flush()
        return len(self._pivots)

    def saturated(self) -> bool:
        return len(self._pivots) == self.ncols

    def add_rows(self, rows: np.ndarray) -> int:
        """Queue rows and return the exact rank so far (flushes the queue);
        once the rank reaches the column count, further rows are discarded."""
        self.queue_rows(rows)
        return self.rank

    def queue_rows(self, rows: np.ndarray) -> None:
        """Queue integer rows; elimination runs in blocks of ``self.block`` rows."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.ncols:
            raise ValueError(f"expected (k, {self.ncols}) rows, got {rows.shape}")
        if rows.size and not (-(2**52) <= rows.min() and rows.max() <= 2**52):
            rows = _mod(rows.copy(), self.p)
        start = 0
        while start < rows.shape[0] and not self.saturated():
            take = min(self.block - self._fill, rows.shape[0] - start)
            end = self._fill + take
            np.copyto(self._buf[self._fill : end], rows[start : start + take], casting="unsafe")
            _reduce(self._buf[self._fill : end], self.p)
            self._fill, start = end, start + take
            if self._fill == self.block:
                self.flush()

    def flush(self) -> None:
        if self._fill and not self.saturated():
            self._absorb(self._buf[: self._fill])
        self._fill = 0

    def _absorb(self, blk: np.ndarray) -> None:
        # _extend copies what it keeps of blk into the store; it may overwrite blk
        self._pivots, self._free, self._rest = _extend(
            self._pivots, self._free, self._rest, blk, self.p, self._store
        )


def _extend(
    pivots: np.ndarray,
    free: np.ndarray,
    rest: np.ndarray,
    blk: np.ndarray,
    p: int,
    store: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact RREF ``(pivots, free, rest)`` of rowspace(basis) +
    rowspace(blk), given the basis in that form; new rows go below the old.
    ``blk`` is reduced against the basis in its own rows, ``_TILE`` at a
    time, and ``_rref`` may overwrite it, so callers pass rows they never
    read again.  The new ``rest`` is written into the flat ``store`` (a fresh
    one if None), which may hold the old ``rest``: each tile of ``_TILE`` old
    rows is read before it is rewritten, at the new stride |keep| < |free|,
    so no write reaches a row not yet read."""
    red = blk[:, : free.size]
    if len(pivots):
        for i in range(0, len(blk), _TILE):
            tile, left = red[i : i + _TILE], np.take(blk[i : i + _TILE], pivots, axis=1)
            tile[:] = np.take(blk[i : i + _TILE], free, axis=1)
            matmul_mod(left, rest, p, c=tile)
    new_piv, keep, new = _rref(red, p)
    if not new_piv.size:
        return pivots, free, rest
    k = len(pivots)
    shape = (k + len(new_piv), keep.size)
    if store is None:
        store = np.empty(shape[0] * shape[1])
    out = store[: shape[0] * shape[1]].reshape(shape)
    for i in range(0, k, _TILE):
        tile = rest[i : i + _TILE]
        out[i : i + len(tile)] = matmul_mod(
            np.take(tile, new_piv, axis=1), new, p, c=np.take(tile, keep, axis=1)
        )
    out[k:] = new
    return np.concatenate([pivots, free[new_piv]]), free[keep], out


def _rref(red: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact RREF of ``red``: the window, else the top half's RREF with the
    bottom half absorbed into it, down to row-by-row base cases.  ``red`` may
    be overwritten, and the returned rows may be a view of it: callers pass
    the queue buffer, dead once ``_extend`` has copied the new rows into the
    store, or rows they never read again (the halving's bottom half)."""
    b, n = red.shape
    w = max(b, _WINDOW)
    if n > 2 * w:
        # RREF of [red[:, :w] | I_b].  If its b pivots lie in the window, I_b became
        # the transform T; red[:, w:] -= (I - T) red[:, w:] in place gives T red[:, w:].
        cols, keep, t = _rref(np.hstack([red[:, :w], np.eye(b)]), p)
        if (cols < w).all():
            red[:, b:w] = t[:, : w - b]
            t = _reduce(np.eye(b) - t[:, w - b :], p)
            for s in range(w, n, _SPAN):
                part = red[:, s : s + _SPAN]
                matmul_mod(t, part.copy(), p, c=part)
            return cols, np.concatenate([keep[: w - b], np.arange(w, n)]), red[:, b:]
    if b > _BASE_ROWS:
        return _extend(*_rref(red[: b // 2], p), red[b // 2 :], p)
    a = red.astype(np.int64)
    rows, cols = _row_loop(a, p)
    keep = np.delete(np.arange(n), cols)
    return np.array(cols, dtype=np.intp), keep, _reduce(a[np.ix_(rows, keep)].astype(np.float64), p)


def _row_loop(a: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan on int64 ``a`` in place (residues, balanced or not, in
    [0, p) after); returns the rows that got a pivot and their pivot columns.
    Each pivot is one rank-one update: a -= f a[i] with f = a[:, j] / a[i, j]
    and f[i] = 1 - 1 / a[i, j] normalizes row i and clears column j."""
    rows: list[int] = []
    cols: list[int] = []
    q = np.empty_like(a)
    for i in range(a.shape[0]):
        nz = a[i].nonzero()[0]
        if nz.size:
            j = int(nz[0])
            inv = pow(int(a[i, j]), -1, p)
            f = np.remainder(a[:, j] * inv, p)
            f[i] = (1 - inv) % p
            np.multiply(f[:, None], a[i], out=q)
            a -= q
            np.floor_divide(a, p, out=q)
            q *= p
            a -= q
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


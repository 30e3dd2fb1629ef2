import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatpoints import linalg, oracle
from fatpoints.linalg import (
    _SMALL,
    _TILE,
    _WINDOW,
    RowReducer,
    _mod,
    _reduce,
    matmul_mod,
    rank_mod_p,
)

# 2097143 is the largest prime below 2^21; 2147483629 is the largest prime
# below 2^31 - 1 and not a Mersenne prime, so no 2^31 - 1 shortcut passes.
PRIMES = [2, 97, 1000003, 2097143, 2147483629, 2**31 - 1]


def rank_mod_p_naive(matrix: np.ndarray, p: int) -> int:
    """Gauss-Jordan elimination with Python ints: the reference for ``RowReducer``."""
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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rank_matches_naive(data):
    p = data.draw(st.sampled_from(PRIMES))
    m = data.draw(st.integers(1, 30))
    n = data.draw(st.integers(1, 30))
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, n), dtype=np.int64)
    if data.draw(st.booleans()):
        a[: m // 2] = 0
    if data.draw(st.booleans()):
        a = np.vstack([a, a])
    assert rank_mod_p(a, p) == rank_mod_p_naive(a, p)


def _check_basis(red: RowReducer, a: np.ndarray, want: int, p: int) -> None:
    """Rebuild the k x n RREF that the reducer's compact (pivots, free, rest)
    stands for: ``want`` rows, identity on the pivot columns, spanning ``a``;
    its stored entries are integer-valued float64 balanced residues, of
    absolute value at most (p + 1) // 2, as the products require."""
    pivots, free = red._pivots, red._free
    assert red._rest.dtype == np.float64
    assert (red._rest == np.rint(red._rest)).all()
    assert (np.abs(red._rest) <= (p + 1) // 2).all()
    assert (np.sort(np.concatenate([pivots, free])) == np.arange(red.ncols)).all()
    assert (np.diff(free) > 0).all()
    basis = np.zeros((len(pivots), red.ncols), dtype=np.int64)
    basis[np.arange(len(pivots)), pivots] = 1
    basis[:, free] = red._rest
    assert basis.shape[0] == want
    assert (basis[:, pivots] == np.eye(want, dtype=np.int64)).all()
    assert rank_mod_p_naive(np.vstack([basis, a]), p) == want


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_multi_block_elimination_matches_naive(data):
    """Blocks of 4 to 64 rows over up to 70 columns, so a trial spans many
    blocks and the in-block recursion halves down to its base case; wide,
    tall, rank-deficient and duplicated-row inputs, tiny and large primes."""
    p = data.draw(st.sampled_from([2, 3, 97, 2097143, 2147483629, 2**31 - 1]))
    block = data.draw(st.sampled_from([4, 16, 64]))
    m = data.draw(st.integers(1, 70))
    n = data.draw(st.integers(1, 70))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    if data.draw(st.booleans()):  # rank at most k: a product of thin factors
        k = data.draw(st.integers(0, min(m, n)))
        a = matmul_mod(rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n)), p)
    else:
        a = rng.integers(0, p, (m, n), dtype=np.int64)
    if data.draw(st.booleans()):
        a = np.vstack([a, a[rng.integers(0, m, size=data.draw(st.integers(1, m)))]])
    want = rank_mod_p_naive(a, p)
    red = RowReducer(n, p, block=block)
    assert red.add_rows(a) == want
    _check_basis(red, a, want, p)
    grouped = RowReducer(n, p, block=block)
    start = 0
    while start < a.shape[0]:
        size = data.draw(st.integers(1, 2 * block))
        grouped.queue_rows(a[start : start + size])
        start += size
    assert grouped.rank == rank_mod_p(a, p) == want


def _window_rows(kind: str, m: int, n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.integers(0, p, (m, n), dtype=np.int64)
    if kind == "zero_window":  # the window holds no pivot: the fallback runs
        a[:, :_WINDOW] = 0
    elif kind == "unit":  # subspace_filter_rows-style unit rows, then random rows
        units = np.sort(rng.choice(n, size=(m + 1) // 2, replace=False))
        a[: units.size] = 0
        a[np.arange(units.size), units] = 1
    elif kind == "duplicated":
        a = a[rng.integers(0, m, size=2 * m)]
    return a


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_windowed_base_case_matches_naive(data):
    """Widths 129 to 260, where a base case with more than 2 * _WINDOW free
    columns eliminates its window only, or falls back to the full width."""
    p = data.draw(st.sampled_from([2, 3, 97, 2**31 - 1]))
    kind = data.draw(st.sampled_from(["random", "zero_window", "unit", "duplicated"]))
    m = data.draw(st.integers(1, 48))
    n = data.draw(st.integers(2 * _WINDOW + 1, 260))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    a = _window_rows(kind, m, n, p, rng)
    want = rank_mod_p_naive(a, p)
    red = RowReducer(n, p, block=data.draw(st.sampled_from([16, 48])))
    assert red.add_rows(a) == want
    _check_basis(red, a, want, p)


@pytest.mark.parametrize(
    "kind, loops",
    [
        ("random", [_WINDOW + 16]),
        ("zero_window", [_WINDOW + 16, 200]),
        ("unit", [_WINDOW + 16, 200]),
    ],
)
def test_base_case_path(monkeypatch, kind, loops):
    """One 16-row block on 200 columns: full-rank random rows finish in the
    window [first _WINDOW columns | I_16]; rows with fewer than 16 pivots
    there take the full-width loop."""
    widths = []
    row_loop = linalg._row_loop

    def spy(a, p):
        widths.append(a.shape[1])
        return row_loop(a, p)

    monkeypatch.setattr(linalg, "_row_loop", spy)
    p = 97
    a = _window_rows(kind, 16, 200, p, np.random.default_rng(5))
    assert rank_mod_p(a, p) == rank_mod_p_naive(a, p)
    assert widths == loops


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_matmul_mod_exact(data):
    """Inner dimensions up to 600, across the 256-wide product chunks; either
    operand may be the smaller one, the one that is split."""
    p = data.draw(st.sampled_from(PRIMES))
    m, n = (data.draw(st.integers(1, 25)) for _ in range(2))
    k = data.draw(st.integers(1, 600))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    a = rng.integers(0, p, size=(m, k), dtype=np.int64)
    b = rng.integers(0, p, size=(k, n), dtype=np.int64)
    exact = (a.astype(object) @ b.astype(object)) % p
    assert (matmul_mod(a, b, p) == exact.astype(np.int64)).all()


@pytest.mark.parametrize("p", [2**31 - 1, 2147483629])
@pytest.mark.parametrize("k", [256, 257, 256 * 512 + 1, 2**19 - 1])
@pytest.mark.parametrize("m, n", [(2, 3), (3, 2)])
def test_matmul_mod_exact_at_balanced_extremes(p, k, m, n):
    """Entries p // 2 and p // 2 + 1, the balanced residues (p - 1)/2 and
    -(p - 1)/2, which give the largest chunk products of either sign.  k = 256
    is one full chunk, 257 starts a second, 256 * 512 + 1 is the first inner
    dimension past an int64 reduction, and at 2^19 - 1 the unreduced chunk
    sums would pass 2^63; (2, 3) splits a, (3, 2) splits b."""
    h = p // 2
    a = np.full((m, k), h, dtype=np.int64)
    a[1] = h + 1
    a[2:, ::3] = h + 1
    b = np.full((k, n), h, dtype=np.int64)
    b[:, 1] = h + 1
    b[::3, 2:] = h + 1
    exact = (a.astype(object) @ b.astype(object)) % p
    assert (matmul_mod(a, b, p) == exact.astype(np.int64)).all()


@pytest.mark.parametrize("p", [2**31 - 1, 2147483629])
def test_matmul_mod_exact_at_largest_entries(p):
    """Every entry p - 1, the balanced residue -1, at inner dimension 2048:
    eight chunks summed in int64, with one column unlike the others.  The
    largest chunk products come from the balanced extremes, tested above."""
    a = np.full((3, 2048), p - 1, dtype=np.int64)
    b = np.full((2048, 5), p - 1, dtype=np.int64)
    b[::7, 1] = 0  # one column unlike the others
    exact = (a.astype(object) @ b.astype(object)) % p
    assert (matmul_mod(a, b, p) == exact.astype(np.int64)).all()


KERNEL_PRIMES = [2, 97, 2147483629, 2**31 - 1]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_reduce_next_to_half_multiples(p):
    """Integers next to (q + 1/2) p, where rint(x (1/p)) may round either
    way, and next to multiples of p.  Up to 2^52 + 2^47 (the kernel's last
    reduction) the result is congruent to x and at most (p + 1) // 2 in
    absolute value; up to 2^22 (p + 1) (a chunk's s_hi product) at most
    p / 2 + 2."""
    for top, bound in ((2**52 + 2**47, (p + 1) // 2), (2**22 * (p + 1), p // 2 + 2)):
        qs = {0, 1, 2, 7, top // p // 3, top // p - 1, top // p}
        xs = {q * p + p // 2 + d for q in qs for d in range(-3, 5)}
        xs |= {q * p + d for q in qs for d in (-1, 0, 1)}
        xs = sorted(x for x in xs | {top} if 0 <= x <= top)
        x = np.array(xs + [-v for v in xs], dtype=np.float64)
        assert [int(v) for v in x] == xs + [-v for v in xs]  # all exact in float64
        got = _reduce(x.copy(), p)
        assert all(int(g) == g and (int(g) - int(v)) % p == 0 for g, v in zip(got, x))
        assert np.abs(got).max() <= bound


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("k", [255, 256, 257, 511, 512, 513])
@pytest.mark.parametrize("m, n", [(3, 4), (4, 3)])
def test_matmul_mod_exact_next_to_chunk_widths(p, k, m, n):
    """Inner widths on both sides of one 256-wide chunk and of two.  The
    int64 contract at p // 2, p // 2 + 1 and p - 1; in place on balanced
    residues at +-(p // 2) and +-((p + 1) // 2), the bound of the stored
    entries.  A row of a and a column of b all at the bound make one
    chunk's s_hi product 256 2^30 2^15 = 2^53 at p = 2^31 - 1; a row and a
    column at 2^30 - 2^15 - 1 (s_hi = 2^15 - 1) give odd sums that one more
    column in a chunk would push past 2^53.  (3, 4) splits a, (4, 3) b."""
    rng = np.random.default_rng([p % 1000, k, m])
    h, top = p // 2, (p + 1) // 2

    def exact(a, b, c=0):
        return (c - a.astype(object) @ b.astype(object)) % p

    a = rng.choice([h, h + 1, p - 1], (m, k)) % p
    b = rng.choice([h, h + 1, p - 1], (k, n)) % p
    assert (matmul_mod(a, b, p) == -exact(a, b) % p).all()
    values = np.array([h, -h, top, -top], dtype=np.float64)
    a, b, c = (rng.choice(values, shape) for shape in ((m, k), (k, n), (m, n)))
    odd = 2**30 - 2**15 - 1 if p > 2**30 else h
    a[0], a[1], b[:, 0], b[:, 1], b[:, 2] = top, odd, top, -top, odd
    want = exact(a.astype(np.int64), b.astype(np.int64), c.astype(np.int64))
    got = matmul_mod(a, b, p, c=c)
    assert got is c and (np.rint(got) == got).all() and np.abs(got).max() <= top
    assert ((got.astype(np.int64) - want) % p == 0).all()


@pytest.mark.parametrize("p", [97, 2147483629, 2**31 - 1])
@pytest.mark.parametrize("k", [255, 256, 257, 513])
@pytest.mark.parametrize("m", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1])
def test_in_place_product_tiles_match_int64_path(p, k, m):
    """c -= a b in row tiles of _TILE, on either side of one tile and of two,
    one 256-wide chunk and more: congruent to the public int64 product and
    stored as balanced residues.  n = m + 1 splits a, tile by tile; n = 5
    splits b, once."""
    rng = np.random.default_rng([p % 1000, k, m])
    top = (p + 1) // 2
    for n in (m + 1, 5):
        a, b, c = (rng.integers(0, p, shape) for shape in ((m, k), (k, n), (m, n)))
        a[0], b[:, 0] = p // 2 + 1, p // 2 + 1  # balanced -(p - 1)/2, the largest products
        want = (c - matmul_mod(a, b, p)) % p
        fa, fb, fc = (_reduce(x.astype(np.float64), p) for x in (a, b, c))
        got = matmul_mod(fa, fb, p, c=fc)
        assert got is fc and (np.rint(got) == got).all() and np.abs(got).max() <= top
        assert (got.astype(np.int64) % p == want).all()


def _planted_groups(data, n: int, block: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Groups of ``block`` rows, each adding no new pivot (combinations of the
    rows so far), one, or up to ``block`` (random rows); random groups are
    drawn until the rows span all n columns, if the draw asks for it."""
    rows = np.zeros((0, n), dtype=np.int64)
    kinds = data.draw(st.lists(st.sampled_from(["none", "one", "all"]), min_size=1, max_size=12))
    if data.draw(st.booleans()):
        kinds += ["all"] * (n // block + 2)
    for kind in kinds:
        fresh = {"none": 0, "one": 1, "all": block}[kind]
        group = rng.integers(0, p, (fresh, n))
        span = np.vstack([rows, group])
        mix = rng.integers(0, p, (block - fresh, len(span)))
        rows = np.vstack([rows, group, matmul_mod(mix, span, p)])
    return rows


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tiled_basis_rewrite_matches_naive(data):
    """Blocks that add no pivot, one, or all of theirs, on a basis that
    crosses several tile heights (shrunk to 2 to 5 rows here) and saturates
    when the rows span every column, emptying the free columns.  The basis is
    rewritten in place in the reducer's one store of
    (n // 2) ((n + 1) // 2) entries."""
    p = data.draw(st.sampled_from([2, 97, 2147483629, 2**31 - 1]))
    n = data.draw(st.integers(1, 40))
    block = data.draw(st.sampled_from([2, 3, 4, 8]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    a = _planted_groups(data, n, block, p, rng)
    want = rank_mod_p_naive(a, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_TILE", data.draw(st.integers(2, 5)))
        red = RowReducer(n, p, block=block)
        for start in range(0, len(a), block):
            red.queue_rows(a[start : start + block])
        assert red.rank == want
    assert red._store.size == (n // 2) * ((n + 1) // 2)
    assert red._rest.size == 0 or np.shares_memory(red._rest, red._store)
    _check_basis(red, a, want, p)


def test_tiled_basis_rewrite_matches_one_tile():
    """At the real tile height: a basis of 300 rows on 400 columns, past two
    tile heights, rewritten in tiles of _TILE rows is the RREF found with the
    whole basis as one tile, after a block that adds no pivot and one that
    adds some; then the last free columns go."""
    p = 2**31 - 1
    rng = np.random.default_rng(22)
    indep = rng.integers(0, p, (400, 400))
    dep = matmul_mod(rng.integers(0, p, (64, 300)), indep[:300], p)
    feeds = [indep[:300], dep, np.vstack([dep[:32], indep[300:340]]), indep[340:]]
    rrefs = []
    for tile in (_TILE, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_TILE", tile)
            red = RowReducer(400, p)
            assert [red.add_rows(rows) for rows in feeds[:3]] == [300, 300, 340]
            rrefs.append((red._pivots.copy(), red._free.copy(), red._rest % p))
            assert red.add_rows(feeds[3]) == 400 and red._rest.shape == (400, 0)
    assert all((x == y).all() for x, y in zip(*rrefs))


def test_trial_memory_is_one_basis_and_a_few_blocks():
    """A generic 924-column trial (132 double points on P^6, degree 6, fed
    point by point as in the benchmark's reducer probe) peaks below one basis
    store of (n // 2) ((n + 1) // 2) floats plus 4.5 block-by-n arrays: the
    queue buffer, one block and its transients.  It leaves its thread, new
    so that its scratch starts empty, at most 2 _TILE n floats of product
    scratch."""
    n, block, p = 924, 256, oracle.DEFAULT_PRIME
    points = np.random.default_rng(924).integers(1, p, size=(132, 7), dtype=np.int64)
    rows = [oracle.rows_for_point(6, 6, pt, 2, p) for pt in points]

    def trial():
        tracemalloc.start()
        try:
            red = RowReducer(n, p)
            for group in rows:
                red.queue_rows(group)
            rank = red.rank
            return rank, tracemalloc.get_traced_memory()[1], linalg._local.pool.size
        finally:
            tracemalloc.stop()

    with ThreadPoolExecutor(max_workers=1) as pool:
        rank, peak, scratch = pool.submit(trial).result(timeout=120)
    assert rank == n
    assert peak < ((n // 2) * ((n + 1) // 2) + 4.5 * block * n) * 8
    assert scratch <= 2 * _TILE * n


def test_window_at_every_level_matches_base_case_windows():
    """A 256-row block on 600 columns tries its 256-column window at every
    halving level; blocks of 16 try only base-case windows.  The RREF of a
    row space is unique, so both must store the same rows, whether the
    windows hold all their pivots, some or none."""
    p = 2**31 - 1
    rng = np.random.default_rng(18)
    full = rng.integers(0, p, (300, 600))
    thin = matmul_mod(rng.integers(0, p, (300, 200)), rng.integers(0, p, (200, 600)), p)
    some = np.hstack([thin[:, :256], full[:, 256:]])
    none = full * (np.arange(600) >= 300)
    for a, want in ((full, 300), (thin, 200), (some, 300), (none, 300)):
        rrefs = []
        for block in (256, 16):
            red = RowReducer(600, p, block=block)
            assert red.add_rows(a) == want
            order = np.argsort(red._pivots)
            rrefs.append((red._pivots[order], red._free, red._rest[order] % p))
        assert all((x == y).all() for x, y in zip(*rrefs))


def test_window_transform_in_place_across_column_spans():
    """On 1300 columns a 256-row block's window transform updates red[:, 256:]
    in place, in spans of 512 columns, the last one short; the RREF is the
    one that 16-row blocks with no window find, whether the windows hold all
    their pivots or only some, and with a basis already there."""
    p = 2147483629
    rng = np.random.default_rng(1300)
    full = rng.integers(0, p, (600, 1300))
    thin = matmul_mod(rng.integers(0, p, (600, 500)), rng.integers(0, p, (500, 1300)), p)
    for a, want in ((full, 600), (thin, 500)):
        rrefs = []
        for block, window in ((256, _WINDOW), (16, 10**6)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "_WINDOW", window)
                red = RowReducer(1300, p, block=block)
                assert red.add_rows(a) == want
            order = np.argsort(red._pivots)
            rrefs.append((red._pivots[order], red._free, red._rest[order] % p))
        assert all((x == y).all() for x, y in zip(*rrefs))


def test_absorbed_block_does_not_alias_the_queue_buffer():
    """A first block, on an empty basis, is eliminated in the queue buffer
    itself; the rows it keeps are copied into the store, so refilling the
    buffer cannot change the basis."""
    p = 97
    a = np.random.default_rng(4).integers(0, p, (256, 700))
    red = RowReducer(700, p)
    assert red.add_rows(a) == 256
    before = red._rest.copy()
    assert not np.shares_memory(red._rest, red._buf)
    red._buf[:] = np.nan
    assert (red._rest == before).all()
    _check_basis(red, a, 256, p)


def test_matmul_mod_exact_at_inner_dimension_bound():
    """Inner dimension 2^19 - 1, where int64 sums of unreduced chunks would
    pass 2^63, and 2^19 + 1, past the old limit: each 256-wide chunk is
    reduced before the next, so no inner width is too wide."""
    p = 2**31 - 1
    for k in (2**19 - 1, 2**19 + 1):
        a = np.full((1, k), p - 1, dtype=np.int64)
        assert matmul_mod(a, a.T.copy(), p)[0, 0] == k * (p - 1) ** 2 % p


def _kernel_values(p: int) -> st.SearchStrategy[int]:
    """Values ``_mod`` reduces: differences in (-p, p), multiples of p and
    the row loop's products up to (p - 1)^2 either sign; derivative rows and
    queued rows of any int64 size, past 2^62 too."""
    top = 2**62 + 2**47
    return st.one_of(
        st.integers(-(p - 1), p - 1),
        st.integers(-4, 4).map(lambda q: q * p),
        st.integers(-((p - 1) ** 2), (p - 1) ** 2),
        st.integers(-top, top),
        st.sampled_from([0, p - 1, 1 - p, (p - 1) ** 2, -((p - 1) ** 2), top, -top]),
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_mod_matches_remainder(data):
    p = data.draw(st.sampled_from(PRIMES))
    values = data.draw(st.lists(_kernel_values(p), min_size=1, max_size=40))
    x = np.array(values, dtype=np.int64)
    want = np.remainder(x, p)
    assert _mod(x, p) is x
    assert (x == want).all()
    strided = np.array(values * 2, dtype=np.int64).reshape(2, -1).T  # a non-contiguous view
    _mod(strided, p)
    assert (strided == want[:, None]).all()
    reps = _SMALL // len(values) + 1  # at least _SMALL entries: the floor-division path
    wide = np.tile(np.array(values, dtype=np.int64), (2, reps)).T  # also a strided view
    assert _mod(wide, p) is wide
    assert (wide == np.tile(want, reps)[:, None]).all()


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_queued_rows_become_balanced_residues(p):
    """Rows are converted once, when queued: int64 entries of any size, past
    2^52 too, become float64 residues of absolute value at most (p + 1) // 2."""
    big = [2**52, 2**52 + 1, 2**63 - 1, -(2**63)]
    rows = np.array([[0, 1, p - 1, p // 2, p // 2 + 1, -1, -p, *big]])
    red = RowReducer(rows.shape[1], p, block=4)
    red.queue_rows(rows)
    got = red._buf[: red._fill]
    assert red._fill == 1 and got.dtype == np.float64 and np.abs(got).max() <= (p + 1) // 2
    assert ((got.astype(np.int64).astype(object) - rows.astype(object)) % p == 0).all()
    assert red.rank == rank_mod_p_naive(rows, p)


def test_threads_keep_their_own_scratch():
    """The in-place products reuse per-thread scratch: reducers running in
    more threads than cores, with a short switch interval, must each find
    the serial RREF, and each thread's scratch stays within 2 _TILE n floats."""
    p = 2**31 - 1
    rng = np.random.default_rng(7)
    mats = [rng.integers(0, p, (300, 600)) for _ in range(4)]
    scratch = {}

    def rref(a):
        red = RowReducer(600, p)
        red.add_rows(a)
        scratch[threading.get_ident()] = linalg._local.pool.size
        return red._pivots, red._rest % p

    want = [rref(a) for a in mats]
    scratch.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(rref, mats * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all((g[0] == w[0]).all() and (g[1] == w[1]).all() for g, w in zip(got, want * 2))
    assert len(scratch) >= 2 and max(scratch.values()) <= 2 * _TILE * 600


def test_identity_block_rank():
    assert rank_mod_p(np.eye(7, dtype=np.int64), 101) == 7


def test_duplicated_row_rank_unchanged():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 101, size=(5, 9), dtype=np.int64)
    assert rank_mod_p(np.vstack([a, a[2]]), 101) == rank_mod_p(a, 101)


def test_incremental_feeding_matches_batch():
    p = 2**31 - 1
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, size=(200, 90), dtype=np.int64)
    red = RowReducer(90, p, block=32)
    for i in range(0, 200, 7):
        red.queue_rows(a[i : i + 7])
    assert red.rank == rank_mod_p(a, p)


def test_saturation_stops_early():
    p = 97
    red = RowReducer(4, p)
    red.add_rows(np.eye(4, dtype=np.int64))
    assert red.saturated()
    red.add_rows(np.ones((3, 4), dtype=np.int64))
    assert red.rank == 4


def test_rejects_bad_prime():
    with pytest.raises(ValueError):
        RowReducer(4, 2**31)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatpoints import linalg
from fatpoints.linalg import (
    _SMALL,
    _WINDOW,
    RowReducer,
    _mod,
    matmul_mod,
    rank_mod_p,
    rank_mod_p_naive,
)

# 2097143 is the largest prime below 2^21; 2147483629 is the largest prime
# below 2^31 - 1 and not a Mersenne prime, so no 2^31 - 1 shortcut passes.
PRIMES = [2, 97, 1000003, 2097143, 2147483629, 2**31 - 1]


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
    its stored entries are residues in [0, p), as the products require."""
    pivots, free = red._pivots, red._free
    assert ((red._rest >= 0) & (red._rest < p)).all()
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
    [("random", [_WINDOW]), ("zero_window", [_WINDOW, 200]), ("unit", [_WINDOW, 200])],
)
def test_base_case_path(monkeypatch, kind, loops):
    """One 16-row block on 200 columns: full-rank random rows finish in the
    window; rows with fewer than 16 pivots there take the full-width loop."""
    widths = []
    row_loop = linalg._row_loop

    def spy(a, width, p):
        widths.append(width)
        return row_loop(a, width, p)

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
    """Every entry p - 1 with inner dimension 2048: the largest partial
    products a prime below 2^31 can give at that width."""
    a = np.full((3, 2048), p - 1, dtype=np.int64)
    b = np.full((2048, 5), p - 1, dtype=np.int64)
    b[::7, 1] = 0  # one column unlike the others
    exact = (a.astype(object) @ b.astype(object)) % p
    assert (matmul_mod(a, b, p) == exact.astype(np.int64)).all()


def test_matmul_mod_exact_at_inner_dimension_bound():
    """Inner dimension 2^19 - 1, the widest the float64 products allow."""
    p = 2**31 - 1
    k = 2**19 - 1
    a = np.full((1, k), p - 1, dtype=np.int64)
    assert matmul_mod(a, a.T.copy(), p)[0, 0] == k * (p - 1) ** 2 % p


def test_matmul_mod_rejects_inner_dimension_2_pow_19():
    a = np.zeros((1, 2**19), dtype=np.int64)
    with pytest.raises(ValueError, match="inner dimension"):
        matmul_mod(a, a.T.copy(), 97)


def _kernel_values(p: int) -> st.SearchStrategy[int]:
    """Values the kernel reduces: differences in (-p, p), multiples of p,
    base-case products up to (p - 1)^2 either sign, and matmul_mod's int64
    sums: up to 512 chunks below 2^53 each, either sign, plus 2^15 times a
    residue."""
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

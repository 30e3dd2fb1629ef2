import pytest
from hypothesis import given, strategies as st

from fatpoints import (
    b0_decompose,
    binom,
    expected_dim,
    gamma_r,
    h_planar,
    k0,
    k_general,
    k_quartic,
    n_bounds,
    virtual_dim,
)


def test_binom_examples():
    assert binom(7, 3) == 35
    assert binom(8, 4) == 70
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(1, 60), st.integers(0, 60))
def test_binom_pascal(a, b):
    assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


def test_virtual_dim_examples():
    assert virtual_dim(4, 3, [2] * 7) == -1
    assert virtual_dim(3, 4, [2] * 8) == 2
    assert virtual_dim(5, 4, []) == binom(9, 4) - 1
    with pytest.raises(ValueError):
        virtual_dim(3, 3, [0])


def test_expected_dim():
    assert expected_dim(-5) == -1
    assert expected_dim(2) == 2
    assert expected_dim(virtual_dim(4, 4, [2] * 14)) == -1


def test_n_bounds_examples():
    assert n_bounds(3, 4) == (8, 9)
    assert n_bounds(3, 5) == (14, 14)
    assert n_bounds(4, 4) == (14, 14)
    assert n_bounds(5, 3) == (9, 10)


@given(st.integers(2, 40), st.integers(2, 40))
def test_n_bounds_sandwich(r, d):
    lo, hi = n_bounds(r, d)
    assert hi - lo in (0, 1)
    assert lo * (r + 1) <= binom(r + d, r) <= hi * (r + 1)


def test_lf_bounds_examples():
    assert k_quartic(3) == 5
    assert k_quartic(2) == 2
    for d in range(4, 13):
        assert k_general(3, d) == k0(d) == (d + 1) ** 2 // 4 - 1
    assert (k_quartic(3), k0(5), h_planar(5), k_general(3, 5)) == (5, 8, 3, 8)


def test_lf_inequalities_exhaustive():
    # the step inequalities the hyperplane induction relies on
    for d in range(4, 31):
        assert k0(d) - h_planar(d) <= k0(d - 1)
    for r in range(4, 31):
        for d in range(5, 31):
            assert k_general(r, d) - k_general(r - 1, d) <= k_general(r, d - 1)


def test_b0_decompose_examples():
    assert b0_decompose(3, 5) == (7, 0)
    b0, beta = b0_decompose(3, 6)
    assert (b0, beta) == (9, 1) and b0 * 3 + beta == binom(8, 2)
    assert b0_decompose(5, 5) == (25, 1)


@given(st.integers(3, 40), st.integers(5, 40))
def test_b0_roundtrip(r, d):
    b0, beta = b0_decompose(r, d)
    assert 0 <= beta <= r - 1
    assert b0 * r + beta == binom(r + d - 1, r - 1)


def test_gamma_examples():
    assert gamma_r(3) == 0
    assert gamma_r(6) == 0
    assert gamma_r(5) == 2
    assert gamma_r(8) == 3


def test_gamma_forces_virtual_dim_minus_one():
    for r in range(5, 31):
        n = n_bounds(r, 3)[0]
        assert virtual_dim(r, 3, [2] * n + [1] * gamma_r(r)) == -1


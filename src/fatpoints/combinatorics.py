"""Integer arithmetic for interpolation problems with fat points.

Everything here is exact (Python big ints) and pure: binomials, virtual and
expected dimensions of linear systems ``L_{r,d}(m_1,...,m_n)``, and the
numeric thresholds that drive the degeneration induction (node splits
``n^-/n^+``, the bounds ``k(r)``, ``k_0(d)``, ``h(d)``, ``k(r,d)`` for systems
with a point of multiplicity d-1, the ``b_0``/``beta`` decomposition used by
the two degenerations, and the cubic correction ``gamma(r)``).
"""

from __future__ import annotations

import math
from typing import Iterable


def binom(a: int, b: int) -> int:
    """C(a, b) with the convention that out-of-range b gives 0."""
    if a < 0:
        raise ValueError(f"binom: a must be nonnegative, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def virtual_dim(r: int, d: int, mults: Iterable[int]) -> int:
    """Virtual dimension C(r+d,r) - 1 - sum of C(r+m_i-1, r).

    May be any integer, in particular < -1 when the naive condition count
    exceeds the number of degree-d monomials.
    """
    if r < 1:
        raise ValueError(f"virtual_dim: r must be >= 1, got {r}")
    if d < 0:
        raise ValueError(f"virtual_dim: d must be >= 0, got {d}")
    v = binom(r + d, r) - 1
    for m in mults:
        if m <= 0:
            raise ValueError(f"virtual_dim: multiplicities must be >= 1, got {m}")
        v -= binom(r + m - 1, r)
    return v


def expected_dim(v: int) -> int:
    """Expected dimension: the virtual dimension clamped at -1."""
    return max(v, -1)


def n_bounds(r: int, d: int) -> tuple[int, int]:
    """(n^-, n^+) = floor/ceil of C(r+d,r) / (r+1).

    n^- is the largest node count whose conditions fit in degree d, n^+ the
    smallest that (virtually) overfills; they differ by at most one.
    """
    if r < 2 or d < 2:
        raise ValueError(f"n_bounds: need r >= 2 and d >= 2, got ({r}, {d})")
    c = binom(r + d, r)
    return c // (r + 1), -((-c) // (r + 1))


def k_quartic(r: int) -> int:
    """k(r) = ceil(C(r+4,4)/(r+1)) - r - 1, the quartic bound: L_{r,4}(3,2^k)
    is non-special for k <= k(r)."""
    if r < 2:
        raise ValueError(f"k_quartic: need r >= 2, got {r}")
    c = binom(r + 4, 4)
    return -((-c) // (r + 1)) - r - 1


def k0(d: int) -> int:
    """k_0(d) = floor((d^2+2d-3)/4); bound for L_{3,d}(d-1, 2^k)."""
    if d < 3:
        raise ValueError(f"k0: need d >= 3, got {d}")
    return (d * d + 2 * d - 3) // 4


def h_planar(d: int) -> int:
    """h(d) = floor((2d+1)/3); node count for the planar system L_{2,d}(d-1, 2^h)."""
    if d < 3:
        raise ValueError(f"h_planar: need d >= 3, got {d}")
    return (2 * d + 1) // 3


def k_general(r: int, d: int) -> int:
    """k(r,d) = floor((C(r+d,r) - C(r+d-2,r))/(r+1)) - (r-2).

    L_{r,d}(d-1, 2^k) is non-special for k <= k(r,d).  Satisfies
    k(3,d) = k_0(d) and the step inequality k(r,d) - k(r-1,d) <= k(r,d-1).
    """
    if r < 3 or d < 4:
        raise ValueError(f"k_general: need r >= 3 and d >= 4, got ({r}, {d})")
    return (binom(r + d, r) - binom(r + d - 2, r)) // (r + 1) - (r - 2)


def b0_decompose(r: int, d: int) -> tuple[int, int]:
    """Euclidean split C(r+d-1, r-1) = b0_floor * r + beta with 0 <= beta < r.

    b0_floor is the largest node count b with L_{r-1,d}(2^b) virtually
    nonempty after a cone reduction; beta = 0 is the case where the first
    degeneration alone settles (r, d).
    """
    if r < 3 or d < 3:
        raise ValueError(f"b0_decompose: need r >= 3 and d >= 3, got ({r}, {d})")
    c = binom(r + d - 1, r - 1)
    return c // r, c % r


def gamma_r(r: int) -> int:
    """Auxiliary simple-point count gamma(r) for the cubic induction.

    Defined as the unique gamma >= 0 with
    v(L_{r,3}(2^{n^-(r,3)}, 1^gamma)) = -1: zero when r = 0, 1 (mod 3)
    because C(r+3,3)/(r+1) is then an integer, and (r+1)/3 when
    r = 2 (mod 3).  The closed form follows from
    C(r+3,3) - (r+1)*n^-(r,3) = (r+1)*frac((r+2)(r+3)/6) with fractional
    part 1/3 exactly in the r = 2 (mod 3) case.
    """
    if r < 2:
        raise ValueError(f"gamma_r: need r >= 2, got {r}")
    if r % 3 != 2:
        return 0
    return (r + 1) // 3


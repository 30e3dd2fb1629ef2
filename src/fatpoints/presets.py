"""Named auxiliary systems of the cubic induction.

The cubic argument degenerates P^r by blowing up a codimension-3 subspace
(codimension 4 in the special P^7 round) and tracks three families of
auxiliary systems: the target systems of virtual dimension -1, the matching
systems constrained along the subspace, and the kernel systems K1/K2 with
nodes on two or three general subspaces.  The cubic rule checker's track
table (:mod:`fatpoints.certificates`) is the one place that builds them into
the induction; the certificate generator proves the children it derives.
"""

from __future__ import annotations

from .combinatorics import gamma_r, n_bounds
from .systems import FatPoint, FatSubspace, LinearSystem, PointOnSubspace


def ah3_system(r: int) -> LinearSystem:
    """L_{r,3}(2^{n^-(r,3)}, 1^{gamma(r)}): virtual dimension exactly -1."""
    n_minus = n_bounds(r, 3)[0]
    return LinearSystem.nodes(r, 3, n_minus, simple=gamma_r(r))


def matching_system(r: int) -> LinearSystem:
    """Cubics containing a codim-3 subspace with n^-(r-3,3) nodes on it,
    r+1 general nodes, and gamma(r) - gamma(r-3) general simple points."""
    if r < 5:
        raise ValueError(f"matching system needs r >= 5, got {r}")
    t = n_bounds(r - 3, 3)[0]
    dgamma = gamma_r(r) - gamma_r(r - 3)
    conds = [FatSubspace("L1", 3), PointOnSubspace("L1", 2, t), FatPoint(2, r + 1)]
    if dgamma:
        conds.append(FatPoint(1, dgamma))
    return LinearSystem(r, 3, tuple(conds))


def k1_system(r: int) -> LinearSystem:
    """Cubics with r-2 nodes on each of two general codim-3 subspaces plus
    three general nodes; for r = 3 the subspaces are points and the system
    collapses to L_{3,3}(2^5)."""
    if r == 3:
        return LinearSystem.nodes(3, 3, 5)
    if r < 5:
        raise ValueError(f"K1 needs r >= 5 or r = 3, got {r}")
    return LinearSystem(
        r,
        3,
        (
            FatSubspace("L1", 3),
            PointOnSubspace("L1", 2, r - 2),
            FatSubspace("L2", 3),
            PointOnSubspace("L2", 2, r - 2),
            FatPoint(2, 3),
        ),
    )


def k2_system(r: int) -> LinearSystem:
    """Cubics with three nodes on each of three general codim-3 subspaces."""
    if r < 6:
        raise ValueError(f"K2 needs r >= 6, got {r}")
    conds = []
    for i in (1, 2, 3):
        conds.append(FatSubspace(f"L{i}", 3))
        conds.append(PointOnSubspace(f"L{i}", 2, 3))
    return LinearSystem(r, 3, tuple(conds))


def quadric_three_subspaces(r: int) -> LinearSystem:
    """Quadrics containing three general codim-3 subspaces (always empty)."""
    if r < 6:
        raise ValueError(f"needs r >= 6, got {r}")
    return LinearSystem(r, 2, tuple(FatSubspace(f"L{i}", 3) for i in (1, 2, 3)))


def p7_matching_system() -> LinearSystem:
    """The P^7 round blows up a codim-4 subspace: cubics containing it with
    five nodes on it and ten general nodes; virtual dimension -1."""
    return LinearSystem(
        7, 3, (FatSubspace("L1", 4), PointOnSubspace("L1", 2, 5), FatPoint(2, 10))
    )


def p7_k1_system() -> LinearSystem:
    return LinearSystem(
        7,
        3,
        (
            FatSubspace("L1", 4),
            PointOnSubspace("L1", 2, 5),
            FatSubspace("L2", 4),
            PointOnSubspace("L2", 2, 5),
            FatPoint(2, 5),
        ),
    )


def p7_k2_system() -> LinearSystem:
    conds = []
    for i in (1, 2, 3):
        conds.append(FatSubspace(f"L{i}", 4))
        conds.append(PointOnSubspace(f"L{i}", 2, 5))
    return LinearSystem(7, 3, tuple(conds))

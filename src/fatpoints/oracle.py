"""Exact randomized dimension oracle for linear systems with fat base loci.

A system L_{r,d}(...) is the kernel of the interpolation matrix whose columns
are the degree-d monomials in r+1 variables and whose rows are the linear
functionals imposed by the base conditions (partial derivatives at points,
monomial filters or sampled derivative rows along subspaces).  We evaluate
the rows at random positions over a large prime field and compute the exact
rank.  By semicontinuity every random placement gives a dimension >= the
general-position dimension, so the minimum over independent trials is a
sound upper bound that equals the true value except on a vanishing fraction
of draws (see README for the failure-probability estimate).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .combinatorics import binom, expected_dim
from .errors import BudgetError
from .linalg import MAX_PRIME, RowReducer, matmul_mod, rank_mod_p_naive
from .systems import LinearSystem

DEFAULT_PRIME = 2**31 - 1


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond 2^64
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldConfig:
    """Knobs of the randomized oracle; every probabilistic choice is pinned
    by (prime, seed, trials)."""

    prime: int = DEFAULT_PRIME
    trials: int = 3
    seed: int = 0
    max_columns: int = 5000
    subspace_mode: str = "auto"  # auto | axis | sampled

    def __post_init__(self) -> None:
        if not (2 < self.prime <= MAX_PRIME) or not _is_prime(self.prime):
            raise ValueError(f"prime must be a prime <= 2^31 - 1, got {self.prime}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.max_columns < 1:
            raise ValueError("max_columns must be positive")
        if self.subspace_mode not in ("auto", "axis", "sampled"):
            raise ValueError(f"bad subspace_mode {self.subspace_mode!r}")


@dataclass(frozen=True)
class DimensionReport:
    system: LinearSystem
    prime: int
    seed: int
    trials: int
    per_trial_rank: tuple[int, ...]
    dim: int
    virtual: int
    expected: int
    special: bool

    def to_dict(self) -> dict:
        return {
            "system": str(self.system),
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials,
            "per_trial_rank": list(self.per_trial_rank),
            "dim": self.dim,
            "virtual": self.virtual,
            "expected": self.expected,
            "special": self.special,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# monomials and row blocks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def monomial_exponents(r: int, d: int) -> np.ndarray:
    """Exponent matrix, one row per degree-d monomial in r+1 variables,
    in a fixed lexicographic order."""
    rows = []
    for head in itertools.combinations_with_replacement(range(r + 1), d):
        e = [0] * (r + 1)
        for i in head:
            e[i] += 1
        rows.append(e)
    if not rows:
        rows = [[0] * (r + 1)]
    out = np.array(sorted(rows, reverse=True), dtype=np.int64)
    out.setflags(write=False)
    return out


def _falling(e: np.ndarray, a: int, p: int) -> np.ndarray:
    out = np.ones_like(e)
    for j in range(a):
        out = out * ((e - j) % p) % p
    return out


def rows_for_point(r: int, d: int, point: np.ndarray, m: int, p: int) -> np.ndarray:
    """Derivative rows of order <= m-1 at a projective point over F_p.

    The affine chart is taken at the point's largest coordinate, so the
    block is deterministic in the point.  Exactly C(r+m-1, r) rows.
    """
    point = np.asarray(point, dtype=np.int64) % p
    if point.shape != (r + 1,) or not point.any():
        raise ValueError("point must be a nonzero vector of length r+1")
    chart = int(np.argmax(point))
    point = point * pow(int(point[chart]), -1, p) % p
    exps = monomial_exponents(r, d)
    ncols = exps.shape[0]
    others = [i for i in range(r + 1) if i != chart]
    # per-variable power tables p_i^e for e = 0..d
    powtab = {}
    for i in others:
        t = np.ones(d + 1, dtype=np.int64)
        for e in range(1, d + 1):
            t[e] = t[e - 1] * int(point[i]) % p
        powtab[i] = t
    rows = np.empty((binom(r + m - 1, r), ncols), dtype=np.int64)
    k = 0
    for total in range(m):
        for alpha in _compositions(total, len(others)):
            row = np.ones(ncols, dtype=np.int64)
            for i, a in zip(others, alpha):
                ei = exps[:, i]
                if a == 0:
                    row = row * powtab[i][ei] % p
                else:
                    ok = ei >= a
                    row = row * np.where(ok, _falling(ei, a, p) * powtab[i][np.maximum(ei - a, 0)] % p, 0) % p
            rows[k] = row
            k += 1
    return rows


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of ``total`` into ``parts`` parts, fixed order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def subspace_filter_rows(r: int, d: int, codim: int, m: int) -> np.ndarray:
    """Axis-aligned fast path: unit rows killing every monomial of degree
    < m in the last ``codim`` coordinates (vanishing to order m along
    {x_{r-codim+1} = ... = x_r = 0})."""
    exps = monomial_exponents(r, d)
    normal_deg = exps[:, r - codim + 1 :].sum(axis=1)
    idx = np.nonzero(normal_deg < m)[0]
    rows = np.zeros((idx.size, exps.shape[0]), dtype=np.int64)
    rows[np.arange(idx.size), idx] = 1
    return rows


def subspace_sample_count(r: int, d: int, codim: int) -> int:
    """Points sampled on a codim-c subspace: h^0 of degree d on it."""
    s = r - codim
    return binom(s + d, s)


def rows_for_subspace(
    r: int,
    d: int,
    basis: np.ndarray,
    m: int,
    p: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """General-position path: derivative rows of order <= m-1 at
    C(s+d, s) points sampled uniformly on the subspace spanned by ``basis``."""
    basis = np.asarray(basis, dtype=np.int64) % p
    s = basis.shape[0] - 1
    n_samples = binom(s + d, s)
    pts = _sample_on_span(basis, n_samples, p, rng)
    return np.vstack([rows_for_point(r, d, pt, m, p) for pt in pts])


def _sample_nonzero(rng: np.random.Generator, shape: tuple[int, int], p: int) -> np.ndarray:
    for _ in range(8):
        a = rng.integers(0, p, size=shape, dtype=np.int64)
        bad = ~a.any(axis=1)
        if not bad.any():
            return a
    raise RuntimeError("degenerate sampling: could not draw nonzero vectors")


def _sample_on_span(basis: np.ndarray, k: int, p: int, rng: np.random.Generator) -> np.ndarray:
    coeffs = _sample_nonzero(rng, (k, basis.shape[0]), p)
    pts = matmul_mod(coeffs, basis, p)
    if not pts.any(axis=1).all():
        raise RuntimeError("degenerate sampling: zero point on subspace")
    return pts


def _random_subspace(r: int, codim: int, p: int, rng: np.random.Generator) -> np.ndarray:
    s = r - codim
    for _ in range(8):
        b = rng.integers(0, p, size=(s + 1, r + 1), dtype=np.int64)
        if rank_mod_p_naive(b, p) == s + 1:
            return b
    raise RuntimeError("degenerate sampling: could not draw a full-rank subspace basis")


def _axis_subspace(r: int, codim: int) -> np.ndarray:
    b = np.zeros((r - codim + 1, r + 1), dtype=np.int64)
    for i in range(r - codim + 1):
        b[i, i] = 1
    return b


# ---------------------------------------------------------------------------
# the condition matrix and the oracle proper
# ---------------------------------------------------------------------------


def _trial_seed(cfg: FieldConfig, sys_text: str, trial: int) -> np.random.SeedSequence:
    h = hashlib.blake2b(f"{sys_text}|{trial}".encode(), digest_size=8).digest()
    return np.random.SeedSequence([cfg.seed & (2**64 - 1), int.from_bytes(h, "little")])


def _use_axis(sys: LinearSystem, cfg: FieldConfig) -> bool:
    if cfg.subspace_mode == "axis":
        if len(sys.subspaces) > 1:
            raise ValueError("axis-aligned path supports a single subspace")
        return True
    if cfg.subspace_mode == "sampled":
        return False
    return len(sys.subspaces) == 1


def _row_blocks(
    sys: LinearSystem, cfg: FieldConfig, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Row blocks in canonical condition order, lazily."""
    r, d, p = sys.r, sys.d, cfg.prime
    axis = _use_axis(sys, cfg) if sys.subspaces else False
    bases: dict[str, np.ndarray] = {}
    for sub in sys.subspaces:
        if axis:
            bases[sub.subspace_id] = _axis_subspace(r, sub.codim)
            yield subspace_filter_rows(r, d, sub.codim, sub.multiplicity)
        else:
            bases[sub.subspace_id] = _random_subspace(r, sub.codim, p, rng)
            yield rows_for_subspace(r, d, bases[sub.subspace_id], sub.multiplicity, p, rng)
    for cond in sys.points_on_subspaces:
        pts = _sample_on_span(bases[cond.subspace_id], cond.count, p, rng)
        for pt in pts:
            yield rows_for_point(r, d, pt, cond.multiplicity, p)
    for cond in sys.fat_points:
        pts = _sample_nonzero(rng, (cond.count, r + 1), p)
        for pt in pts:
            yield rows_for_point(r, d, pt, cond.multiplicity, p)


def condition_matrix(
    sys: LinearSystem, cfg: FieldConfig | None = None, trial: int = 0
) -> np.ndarray:
    """Materialize the full interpolation matrix for one trial's placement,
    entries reduced mod ``cfg.prime``."""
    cfg = cfg or FieldConfig()
    _check_budget(sys, cfg)
    rng = np.random.default_rng(_trial_seed(cfg, str(sys), trial))
    blocks = list(_row_blocks(sys, cfg, rng))
    ncols = sys.monomial_count()
    return np.vstack(blocks) if blocks else np.zeros((0, ncols), dtype=np.int64)


def _check_budget(sys: LinearSystem, cfg: FieldConfig) -> None:
    ncols = sys.monomial_count()
    if ncols > cfg.max_columns:
        raise BudgetError(
            f"{sys} needs {ncols} columns, budget is {cfg.max_columns}"
        )
    max_mult = max(
        [c.multiplicity for c in sys.conditions] + [1],
    )
    if cfg.prime <= 2 * max(sys.d, 1) * max_mult:
        raise ValueError("prime too small for the derivative coefficients")


def _trial_rank(sys: LinearSystem, cfg: FieldConfig, trial: int) -> int:
    rng = np.random.default_rng(_trial_seed(cfg, str(sys), trial))
    ncols = sys.monomial_count()
    red = RowReducer(ncols, cfg.prime)
    for block in _row_blocks(sys, cfg, rng):
        red.queue_rows(block)
        if red.saturated():
            break
    return red.rank


def dimension(sys: LinearSystem, cfg: FieldConfig | None = None) -> DimensionReport:
    """Projective dimension of the system at general base points.

    Runs ``cfg.trials`` independent random placements and reports the
    minimum dimension (equivalently C(r+d,r) - 1 - max rank); each trial is
    an upper bound for the general-position dimension, so the minimum is the
    tightest sound bound.
    """
    cfg = cfg or FieldConfig()
    _check_budget(sys, cfg)
    ranks = tuple(_trial_rank(sys, cfg, t) for t in range(cfg.trials))
    dim = sys.monomial_count() - 1 - max(ranks)
    v = sys.virtual_dim()
    e = expected_dim(v)
    return DimensionReport(
        system=sys,
        prime=cfg.prime,
        seed=cfg.seed,
        trials=cfg.trials,
        per_trial_rank=ranks,
        dim=dim,
        virtual=v,
        expected=e,
        special=dim > e,
    )


def is_empty(sys: LinearSystem, cfg: FieldConfig | None = None) -> bool:
    """True iff the reported dimension is -1.

    Exits as soon as one trial's elimination reaches full column rank: any
    trial with h^0 = 0 already forces the general system empty.
    """
    cfg = cfg or FieldConfig()
    _check_budget(sys, cfg)
    ncols = sys.monomial_count()
    if sys.conditions_count() < ncols:
        return False  # virtual dimension >= 0: never empty
    for t in range(cfg.trials):
        if _trial_rank(sys, cfg, t) == ncols:
            return True
    return False


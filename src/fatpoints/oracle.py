"""Exact randomized dimension oracle for linear systems with fat base loci.

A system L_{r,d}(...) is the kernel of the interpolation matrix whose columns
are the degree-d monomials in r+1 variables and whose rows are the linear
functionals imposed by the base conditions: partial derivatives at points,
and along a subspace, its normal partial derivatives at points sampled on
it.  Each trial places the points at random over a large prime field and
each subspace at the row space of a random [I | R], then computes the
exact rank.  By semicontinuity every random placement gives a dimension >= the
general-position dimension, so the minimum over independent trials is a
sound upper bound that equals the true value except on a vanishing fraction
of draws (see README for the failure-probability estimate).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .combinatorics import binom, expected_dim
from .errors import BudgetError, FatpointsError
from .linalg import MAX_PRIME, RowReducer, _mod, matmul_mod
from .systems import LinearSystem

DEFAULT_PRIME = 2**31 - 1
#: most trials one run may ask for; bounds the verifier's re-runs of untrusted stamps
MAX_TRIALS = 64
_CHUNK_ROWS = 64  # rows per rows_for_point call in a trial: its peak memory is ~2x its output


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
    by (prime, seed, trials), and ``max_columns`` is only a budget."""

    prime: int = DEFAULT_PRIME
    trials: int = 3
    seed: int = 0
    max_columns: int = 5000

    def __post_init__(self) -> None:
        if not (2 < self.prime <= MAX_PRIME) or not _is_prime(self.prime):
            raise ValueError(f"prime must be a prime <= 2^31 - 1, got {self.prime}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {self.trials}")
        if self.max_columns < 1:
            raise ValueError("max_columns must be positive")


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
    out = np.array(sorted(rows, reverse=True), dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def _derivative_plan(
    r: int, d: int, m: int, p: int, normal: int | None = None
) -> tuple[np.ndarray, ...]:
    """Gather tables shared by every point of a derivative row block.

    With j = min(m-1, d), row alpha (|alpha| = j, in ``monomial_exponents(r,
    j)`` order; given ``normal``, only the alpha supported on the last
    ``normal`` coordinates) takes D^alpha x^e = falling(e, alpha) x^(e -
    alpha) on monomial e, that is coef[alpha, e] * V[idx[alpha, e]] for the
    point's degree-(d-j) monomial vector V.  Returns (exps_t, idx, coef): the
    degree-(d-j) exponents with one row per variable; the rank of e - alpha
    in ``monomial_exponents(r, d - j)``, summed one variable at a time (a
    degree-n exponent f has sum_{i=1..r} C(f_i + ... + f_r + r - i, r - i + 1)
    monomials before it); and falling(e, alpha) mod p, which is 0 where
    e - alpha has a negative part and, as p > d, nonzero elsewhere.
    """
    j = min(m - 1, d)
    n = d - j
    alphas = monomial_exponents(r, j)
    if normal is not None:
        alphas = alphas[alphas[:, : r + 1 - normal].sum(axis=1) == 0]
    exps_t = monomial_exponents(r, d).T
    falling = np.ones((j + 1, d + 1), dtype=np.int64)
    for a in range(1, j + 1):
        falling[a] = falling[a - 1] * np.maximum(np.arange(d + 1) - (a - 1), 0) % p
    shape = (alphas.shape[0], exps_t.shape[1])
    coef = np.ones(shape, dtype=np.int64)
    idx = np.zeros(shape, dtype=np.intp)
    suffix = np.zeros(shape, dtype=np.int64)
    for i in range(r, -1, -1):
        a = alphas[:, i, None]
        coef *= falling[a, exps_t[i]]
        _mod(coef, p)
        if i:
            suffix += exps_t[i] - a
            before = np.array([binom(t + r - i, r - i + 1) for t in range(n + 1)], dtype=np.intp)
            idx += before[np.clip(suffix, 0, n)]
    idx[coef == 0] = 0
    plan = (np.ascontiguousarray(monomial_exponents(r, n).T), idx, coef)
    for a in plan:
        a.setflags(write=False)
    return plan


def rows_for_point(
    r: int, d: int, point: np.ndarray, m: int, p: int, normal: int | None = None
) -> np.ndarray:
    """Derivative rows of order <= m-1 at projective points over F_p.

    ``point`` is one point of shape (r+1,) or k points of shape (k, r+1);
    the result stacks, in point order, the C(r+j, r) homogeneous partials of
    order j = min(m-1, d) at each point (see ``_derivative_plan``).  They span
    the conditions, the partials of order <= m-1, as p > d: for |beta| = i < d
    Euler's formula (d-i) D^beta f = sum_k x_k D_k D^beta f writes each one of
    order i at x through those of order i+1.  When m-1 > d the order-d
    partials are alpha! times the coefficients of f, so the point kills every
    form and its rows are a scaled identity.  Given ``normal`` = c, only the
    order-j partials along the last c coordinates are kept (the rows of
    ``_subspace_chunks``).
    """
    pts = np.atleast_2d(np.asarray(point, dtype=np.int64) % p)
    if pts.ndim != 2 or pts.shape[1] != r + 1 or not pts.any(axis=1).all():
        raise ValueError("points must be nonzero vectors of length r+1")
    exps_t, idx, coef = _derivative_plan(r, d, m, p, normal)
    k, n = pts.shape[0], d - min(m - 1, d)
    powers = np.ones((k, r + 1, n + 1), dtype=np.int64)
    for e in range(1, n + 1):
        np.multiply(powers[:, :, e - 1], pts, out=powers[:, :, e])
        _mod(powers[:, :, e], p)
    v = np.ones((k, exps_t.shape[1]), dtype=np.int64)
    for i in range(r + 1):
        v *= powers[:, i, exps_t[i]]
        _mod(v, p)
    out = np.take(v, idx, axis=1)
    out *= coef
    return _mod(out, p).reshape(-1, idx.shape[1])


def subspace_filter_rows(r: int, d: int, codim: int, m: int) -> np.ndarray:
    """Exact conditions of vanishing to order m along the coordinate subspace
    {x_{r-codim+1} = ... = x_r = 0}: unit rows killing every monomial of
    degree < m in the last ``codim`` coordinates.  A reference for the
    sampled rows of ``rows_for_subspace``; trials do not use it."""
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
    """Conditions of vanishing to order m along the row space of ``basis``,
    a full-rank [I | R] as ``_random_subspace`` draws, at C(s+d, s) points
    sampled uniformly on it (see ``_subspace_chunks``)."""
    basis = np.asarray(basis, dtype=np.int64) % p
    codim = r + 1 - basis.shape[0]
    pts = _sample_on_span(basis, subspace_sample_count(r, d, codim), p, rng)
    return np.vstack(list(_subspace_chunks(r, d, pts, codim, m, p)))


def _subspace_chunks(
    r: int, d: int, pts: np.ndarray, codim: int, m: int, p: int
) -> Iterator[np.ndarray]:
    """Rows of vanishing to order m along the row space L of [I | R], from
    points ``pts`` sampled on L, in ``_point_chunks``.

    The last ``codim`` coordinate directions complement L: with x = (y',
    y'R + y''), L is {y'' = 0} and d/dy'' is the partial along those
    directions.  So f vanishes to order m along L iff for each k < m every
    order-k partial D^beta f along them restricts to L as the zero form of
    degree d-k on P^s, which C(s+d-k, s) general points of L detect.  The
    rows are those partials at the first C(s+d-k, s) points, exactly as many
    as the subspace's conditions.
    """
    s = r - codim
    for k in range(min(m, d + 1)):
        yield from _point_chunks(r, d, pts[: binom(s + d - k, s)], k + 1, p, codim)


def _sample_nonzero(rng: np.random.Generator, shape: tuple[int, int], p: int) -> np.ndarray:
    for _ in range(8):
        a = rng.integers(0, p, size=shape, dtype=np.int64)
        if a.any(axis=1).all():
            return a
    raise FatpointsError("degenerate sampling: could not draw nonzero vectors")


def _sample_on_span(basis: np.ndarray, k: int, p: int, rng: np.random.Generator) -> np.ndarray:
    return matmul_mod(_sample_nonzero(rng, (k, basis.shape[0]), p), basis, p)


def _random_subspace(r: int, codim: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Basis [I_{s+1} | R], s = r - codim, R uniform over F_p: of full rank by
    construction, and uniform on a dense open chart of the Grassmannian."""
    s = r - codim
    free = rng.integers(0, p, size=(s + 1, codim), dtype=np.int64)
    return np.hstack([np.eye(s + 1, dtype=np.int64), free])


# ---------------------------------------------------------------------------
# the condition matrix and the oracle proper
# ---------------------------------------------------------------------------


def derive_seed(seed: int, *parts: object) -> int:
    """A seed below 2^63 for one sub-run, hashed from ``seed`` and the text
    of ``parts``; certificate leaves and sweep rows each draw their own."""
    text = "|".join(map(str, (seed, *parts)))
    h = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(h, "little") % 2**63


def _trial_seed(cfg: FieldConfig, sys_text: str, trial: int) -> np.random.SeedSequence:
    h = hashlib.blake2b(f"{sys_text}|{trial}".encode(), digest_size=8).digest()
    return np.random.SeedSequence([cfg.seed & (2**64 - 1), int.from_bytes(h, "little")])


def _row_blocks(sys: LinearSystem, cfg: FieldConfig, trial: int) -> Iterator[np.ndarray]:
    """Row blocks of one trial's placement in canonical condition order, lazily.

    Every subspace is drawn by ``_random_subspace`` and gets the rows of
    ``rows_for_subspace`` in chunks (``_subspace_chunks``).  Each such row
    is a condition implied by vanishing along the drawn subspace, so a trial
    still bounds the dimension from above, and a trial at the ceiling still
    proves it.  There are as many as the subspace's exact conditions
    (``subspace_filter_rows`` on coordinate axes); at multiplicity 1, the
    only kind the prover emits, they are the values at C(s+d, s) points.
    A point group draws at most C(r+d, r) points: once a group's next
    general point adds no rank, no later one does, so more points cannot
    raise the rank.
    """
    r, d, p = sys.r, sys.d, cfg.prime
    rng = np.random.default_rng(_trial_seed(cfg, str(sys), trial))
    cap = sys.monomial_count()
    bases: dict[str, np.ndarray] = {}
    for sub in sys.subspaces:
        basis = bases[sub.subspace_id] = _random_subspace(r, sub.codim, p, rng)
        pts = _sample_on_span(basis, subspace_sample_count(r, d, sub.codim), p, rng)
        yield from _subspace_chunks(r, d, pts, sub.codim, sub.multiplicity, p)
    for cond in sys.points_on_subspaces:
        pts = _sample_on_span(bases[cond.subspace_id], min(cond.count, cap), p, rng)
        yield from _point_chunks(r, d, pts, cond.multiplicity, p)
    for cond in sys.fat_points:
        pts = _sample_nonzero(rng, (min(cond.count, cap), r + 1), p)
        yield from _point_chunks(r, d, pts, cond.multiplicity, p)


def _point_chunks(
    r: int, d: int, pts: np.ndarray, m: int, p: int, normal: int | None = None
) -> Iterator[np.ndarray]:
    """Derivative rows of ``pts``, at most ``_CHUNK_ROWS`` rows (or one point) per call."""
    step = max(1, _CHUNK_ROWS // len(_derivative_plan(r, d, m, p, normal)[1]))
    for i in range(0, len(pts), step):
        yield rows_for_point(r, d, pts[i : i + step], m, p, normal)


def condition_matrix(
    sys: LinearSystem, cfg: FieldConfig | None = None, trial: int = 0
) -> np.ndarray:
    """Materialize the interpolation matrix for one trial's placement,
    entries reduced mod ``cfg.prime``.  Each point group contributes at most
    C(r+d, r) points, which carry the rank of any larger group."""
    cfg = cfg or FieldConfig()
    _check_budget(sys, cfg)
    blocks = list(_row_blocks(sys, cfg, trial))
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
    red = RowReducer(sys.monomial_count(), cfg.prime)
    for block in _row_blocks(sys, cfg, trial):
        red.queue_rows(block)
        if red.saturated():
            break
    return red.rank


def dimension(
    sys: LinearSystem, cfg: FieldConfig | None = None, *, stop_at_ceiling: bool = False
) -> DimensionReport:
    """Projective dimension of the system at general base points.

    Runs ``cfg.trials`` independent random placements and reports the
    minimum dimension (equivalently C(r+d,r) - 1 - max rank); each trial is
    an upper bound for the general-position dimension, so the minimum is the
    tightest sound bound.

    With ``stop_at_ceiling`` it stops at the first trial whose rank reaches
    min(conditions, columns): no rank exceeds that ceiling, so later trials
    cannot change ``dim``, and a trial at the ceiling proves the expected
    dimension by semicontinuity.  ``per_trial_rank`` then holds only the
    trials run; when no trial reaches the ceiling, every trial runs.
    Certificate leaves (prover and verifier) and ``sweep`` rows stop early;
    ``fatpoints dim`` runs every trial.
    """
    cfg = cfg or FieldConfig()
    _check_budget(sys, cfg)
    ncols = sys.monomial_count()
    ceiling = min(sys.conditions_count(), ncols)
    ranks: list[int] = []
    for t in range(cfg.trials):
        ranks.append(_trial_rank(sys, cfg, t))
        if stop_at_ceiling and ranks[-1] >= ceiling:
            break
    dim = ncols - 1 - max(ranks)
    v = sys.virtual_dim()
    e = expected_dim(v)
    return DimensionReport(
        system=sys,
        prime=cfg.prime,
        seed=cfg.seed,
        trials=cfg.trials,
        per_trial_rank=tuple(ranks),
        dim=dim,
        virtual=v,
        expected=e,
        special=dim > e,
    )


def is_empty(sys: LinearSystem, cfg: FieldConfig | None = None) -> bool:
    """True iff the reported dimension is -1.

    Never empty with fewer conditions than columns; otherwise runs
    ``dimension(..., stop_at_ceiling=True)``, which stops at the first trial
    of full column rank: any trial with h^0 = 0 already forces the general
    system empty.
    """
    cfg = cfg or FieldConfig()
    _check_budget(sys, cfg)
    return (
        sys.conditions_count() >= sys.monomial_count()
        and dimension(sys, cfg, stop_at_ceiling=True).dim == -1
    )

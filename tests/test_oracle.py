import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatpoints import (
    BudgetError,
    FieldConfig,
    LinearSystem,
    binom,
    condition_matrix,
    dimension,
    is_empty,
    parse_system,
    rank_mod_p,
)
from fatpoints.oracle import (
    _CHUNK_ROWS,
    MAX_TRIALS,
    _random_subspace,
    _row_blocks,
    monomial_exponents,
    rows_for_point,
    rows_for_subspace,
    subspace_filter_rows,
    subspace_sample_count,
)

P = 2**31 - 1


def rnd_point(r, seed=0):
    return np.random.default_rng(seed).integers(1, P, size=r + 1, dtype=np.int64)


def test_monomial_count():
    for r, d in [(2, 4), (3, 5), (1, 0), (4, 1)]:
        assert monomial_exponents(r, d).shape == (binom(r + d, r), r + 1)


def test_rows_for_point_counts():
    assert rows_for_point(2, 2, rnd_point(2), 2, P).shape == (3, 6)
    assert rows_for_point(3, 5, rnd_point(3), 1, P).shape == (1, binom(8, 3))
    assert rows_for_point(3, 6, rnd_point(3), 3, P).shape == (10, binom(9, 3))
    pts = np.stack([rnd_point(3, seed) for seed in range(4)])
    assert rows_for_point(3, 6, pts, 3, P).shape == (4 * 10, binom(9, 3))
    # m - 1 > d: the point kills every form, one row per monomial
    assert rows_for_point(2, 1, rnd_point(2), 3, P).shape == (3, 3)
    with pytest.raises(ValueError):
        rows_for_point(2, 2, np.zeros(3, dtype=np.int64), 2, P)
    pts[2] = 0
    with pytest.raises(ValueError):
        rows_for_point(3, 6, pts, 3, P)


def _rows_reference(r, d, point, m, p):
    """Derivative rows at one point with Python ints, in the affine chart: the
    row of alpha is prod_i falling(e_i, alpha_i) x_i^(e_i - alpha_i) over the
    non-chart variables, at the point scaled to 1 in its first largest
    coordinate.  The rows of ``rows_for_point`` must span the same space."""
    x = [int(c) % p for c in point]
    chart = x.index(max(x))
    inv = pow(x[chart], -1, p)
    x = [c * inv % p for c in x]
    others = [i for i in range(r + 1) if i != chart]
    alphas = sorted(
        (a for a in itertools.product(range(m), repeat=r) if sum(a) < m), key=sum
    )
    rows = []
    for alpha in alphas:
        row = []
        for e in monomial_exponents(r, d).tolist():
            v = 1
            for i, a in zip(others, alpha):
                v *= math.perm(e[i], a) * (x[i] ** (e[i] - a) if e[i] >= a else 0)
            row.append(v % p)
        rows.append(row)
    return rows


def _homogeneous_entry(e, alpha, x, p):
    """D^alpha x^e at the point x: prod_i falling(e_i, alpha_i) x_i^(e_i - alpha_i),
    where falling(e, a) = e (e-1) ... (e-a+1) = perm(e, a)."""
    v = 1
    for ei, ai, xi in zip(e, alpha, x):
        if ei < ai:
            return 0
        v *= math.perm(ei, ai) * pow(int(xi), ei - ai, p)
    return v % p


def _homogeneous_reference(r, d, point, m, p):
    """The rows of ``rows_for_point`` at one point with Python ints: every
    partial derivative of order min(m-1, d), in ``monomial_exponents`` order."""
    x = [int(c) % p for c in point]
    exps = monomial_exponents(r, d).tolist()
    return [
        [_homogeneous_entry(e, alpha, x, p) for e in exps]
        for alpha in monomial_exponents(r, min(m - 1, d)).tolist()
    ]


def _next_prime(n):
    n += 1
    while not all(n % q for q in range(2, int(n**0.5) + 1)):
        n += 1
    return n


# entries the Python references may compute per example: k points cost about
# k C(r+j, r) C(r+d, r), j = min(m-1, d), so k is capped where that is large
_REFERENCE_ENTRIES = 20_000


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_batched_rows_match_python_reference(data):
    r = data.draw(st.integers(1, 5), label="r")
    d = data.draw(st.integers(0, 8), label="d")
    m = data.draw(st.integers(1, 4), label="m")
    p = data.draw(st.sampled_from([_next_prime(2 * max(d, 1) * m), 97, P]), label="p")
    per_point = binom(r + min(m - 1, d), r) * binom(r + d, r)
    k = data.draw(st.integers(1, max(1, min(6, _REFERENCE_ENTRIES // per_point))), label="k")
    # small coordinates give zeros and ties for the largest one
    coord = st.integers(0, 3) | st.integers(0, p - 1)
    pts = data.draw(
        st.lists(st.lists(coord, min_size=r + 1, max_size=r + 1), min_size=k, max_size=k)
        .filter(lambda ps: all(any(c % p for c in pt) for pt in ps)),
        label="points",
    )
    pts = np.array(pts, dtype=np.int64)
    batched = rows_for_point(r, d, pts, m, p)
    stacked = np.vstack([rows_for_point(r, d, pt, m, p) for pt in pts])
    assert batched.dtype == np.int64 and np.array_equal(batched, stacked)
    want = [row for pt in pts for row in _homogeneous_reference(r, d, pt, m, p)]
    assert batched.tolist() == want
    # the same span as the chart rows, per point and per batch
    conditions = min(binom(r + m - 1, r), binom(r + d, r))
    chart = [np.array(_rows_reference(r, d, pt, m, p), dtype=np.int64) for pt in pts]
    for new, old in zip(np.split(batched, k), chart):
        assert rank_mod_p(new, p) == rank_mod_p(old, p) == conditions
        assert rank_mod_p(np.vstack([new, old]), p) == conditions
    chart = np.vstack(chart)
    rank = rank_mod_p(batched, p)
    assert rank == rank_mod_p(chart, p) == rank_mod_p(np.vstack([batched, chart]), p)


def test_evaluation_row_is_monomial_evaluation():
    # multiplicity 1: the single row is x^e at the point itself, unscaled
    pt = rnd_point(2, seed=5)
    row = rows_for_point(2, 3, pt, 1, P)[0]
    expect = [
        math.prod(pow(int(x), int(k), P) for x, k in zip(pt, e)) % P
        for e in monomial_exponents(2, 3)
    ]
    assert row.tolist() == expect


def test_wide_rows_match_python_reference():
    # the widest cubic under the default budget: 4960 columns, 30 rows a point
    r, d = 29, 3
    pts = np.stack([rnd_point(r, seed) for seed in range(2)])
    rows = rows_for_point(r, d, pts, 2, P).reshape(2, r + 1, -1)
    assert rows.shape[2] == binom(r + d, r) == 4960
    exps = monomial_exponents(r, d).tolist()
    alphas = monomial_exponents(r, 1).tolist()
    rng = np.random.default_rng(0)
    for i, a, c in zip(*rng.integers(0, rows.shape, size=(400, 3)).T):
        assert rows[i, a, c] == _homogeneous_entry(exps[c], alphas[a], pts[i].tolist(), P)


def test_subspace_filter_rows_point_case():
    # codim r, multiplicity 1: a single evaluation row at a coordinate point
    rows = subspace_filter_rows(3, 2, 3, 1)
    assert rows.shape[0] == 1
    assert rows.sum() == 1


def test_subspace_sample_count():
    assert subspace_sample_count(7, 3, 3) == binom(7, 4)


def test_subspace_conditions_count():
    # vanishing to order 2 along a codim-3 subspace of P^7 in degree 2
    s = parse_system("L(r=7,d=2; {L1:codim3:mult2})")
    assert s.conditions_count() == binom(6, 4) + 3 * binom(5, 4)
    # a node on a contained subspace adds codim extra conditions
    s = parse_system("L(r=7,d=3; {L1:codim3, 2^5 on L1})")
    assert s.conditions_count() == binom(7, 4) + 5 * 3


def test_rank_examples(cfg):
    cm = condition_matrix(LinearSystem.nodes(4, 3, 7), cfg)
    assert cm.shape == (35, 35)
    assert rank_mod_p(cm, cfg.prime) == 34  # h^0 = 1: the secant cubic


def test_dimension_examples(cfg):
    assert dimension(LinearSystem.nodes(2, 2, 2), cfg).dim == 0
    assert dimension(LinearSystem.nodes(3, 3, 5), cfg).dim == -1
    assert dimension(LinearSystem.nodes(2, 4, 5), cfg).dim == 0
    rep = dimension(LinearSystem.nodes(2, 3, 2), cfg)
    assert rep.dim == 3 and rep.per_trial_rank == (6, 6, 6)


def test_dimension_report_schema(cfg):
    rep = dimension(LinearSystem.nodes(2, 3, 2), cfg)
    assert set(rep.to_dict()) == {
        "system", "prime", "seed", "trials", "per_trial_rank",
        "dim", "virtual", "expected", "special",
    }
    assert rep.to_dict()["system"] == "L(r=2,d=3; 2^2)"


def test_soundness_per_trial(cfg):
    # every trial's dimension is >= the expected dimension
    for text in ["L(r=3,d=4; 2^9)", "L(r=4,d=4; 2^14)", "L(r=3,d=5; 2^10)"]:
        rep = dimension(parse_system(text), cfg)
        for rank in rep.per_trial_rank:
            assert rep.system.monomial_count() - 1 - rank >= rep.expected


def test_is_empty_examples(cfg):
    assert is_empty(LinearSystem.nodes(5, 3, 9, simple=2), cfg)
    assert is_empty(LinearSystem.nodes(7, 3, 15), cfg)
    assert not is_empty(LinearSystem.nodes(4, 6, 0), cfg)
    assert not is_empty(LinearSystem.nodes(2, 4, 5), cfg)  # special but nonempty


def test_stability_across_seeds():
    for text in ["L(r=3,d=4; 2^8)", "L(r=2,d=4; 2^5)", "L(r=4,d=3; 2^7)"]:
        sys = parse_system(text)
        d1 = dimension(sys, FieldConfig(seed=101)).dim
        d2 = dimension(sys, FieldConfig(seed=202)).dim
        assert d1 == d2


def test_second_prime_agrees(cfg):
    sys = LinearSystem.nodes(3, 4, 9)
    assert dimension(sys, cfg).dim == dimension(sys, FieldConfig(prime=2147483629)).dim


def test_cone_lemma_oracle(cfg):
    # dim L_{r,d}(d, 2^b) = dim L_{r-1,d}(2^b); the spec's sampled instance
    lhs = parse_system("L(r=3,d=5; 5, 2^7)")
    rhs = parse_system("L(r=2,d=5; 2^7)")
    assert dimension(lhs, cfg).dim == dimension(rhs, cfg).dim


def test_quadric_exceptions_at_larger_r(cfg):
    # the d = 2 family rows keep matching the closed form well beyond the
    # sporadic range
    from fatpoints import classify, quadric_dim

    for r, n in [(6, 4), (10, 5), (25, 2), (12, 12)]:
        rep = dimension(LinearSystem.nodes(r, 2, n), cfg)
        assert rep.dim == quadric_dim(r, n)
        assert rep.special == classify(r, 2, n).is_exception


def test_subspace_dimensions(cfg):
    assert dimension(parse_system("L(r=7,d=2; {L1:codim3, 2^3 on L1}, 2)"), cfg).dim == 6
    for r in range(4, 8):
        s = parse_system(f"L(r={r},d=2; {{L1:codim3:mult2}}, 2)")
        assert dimension(s, cfg).dim == 2


def test_axis_and_sampled_paths_agree():
    # the exact filter rows on coordinate axes and the sampled rows that every
    # trial uses are both one independent row per condition of the subspace
    rng = np.random.default_rng(0)
    for r in (5, 6, 7):
        for codim in (3, 4):
            for d in (2, 3):
                for mult in (1, 2, 3):
                    s = parse_system(f"L(r={r},d={d}; {{L1:codim{codim}:mult{mult}}})")
                    axis = rank_mod_p(subspace_filter_rows(r, d, codim, mult), P)
                    basis = _random_subspace(r, codim, P, rng)
                    rows = rows_for_subspace(r, d, basis, mult, P, rng)
                    count = s.conditions_count()
                    assert axis == rank_mod_p(rows, P) == len(rows) == count, (r, codim, d, mult)


@pytest.mark.parametrize("p", [3, 97, P])
def test_random_subspace_has_full_rank(p):
    rng = np.random.default_rng(0)
    for r in range(1, 9):
        for codim in range(1, r + 1):
            basis = _random_subspace(r, codim, p, rng)
            assert basis.shape == (r - codim + 1, r + 1)
            assert rank_mod_p(basis, p) == r - codim + 1, (r, codim)


# ``fatpoints dim --seed 3 --format json`` of systems with subspaces: every
# trial's rank is the generic one, so the bytes hold for any general placement
SUBSPACE_DIM_JSON = {
    "L(r=7,d=2; {L1:codim3, 2^3 on L1}, 2)":
        '{"dim": 6, "expected": 3, "per_trial_rank": [29, 29, 29], "prime": 2147483647, '
        '"seed": 3, "special": true, "system": "L(r=7,d=2; {L1:codim3, 2^3 on L1}, 2)", '
        '"trials": 3, "virtual": 3}',
    "L(r=4,d=2; {L1:codim3:mult2}, 2)":
        '{"dim": 2, "expected": 0, "per_trial_rank": [12, 12, 12], "prime": 2147483647, '
        '"seed": 3, "special": true, "system": "L(r=4,d=2; {L1:codim3:mult2}, 2)", '
        '"trials": 3, "virtual": 0}',
    "L(r=7,d=3; {L1:codim3, 2^5 on L1}, 2^10)":
        '{"dim": -1, "expected": -1, "per_trial_rank": [120, 120, 120], "prime": 2147483647, '
        '"seed": 3, "special": false, "system": "L(r=7,d=3; {L1:codim3, 2^5 on L1}, 2^10)", '
        '"trials": 3, "virtual": -11}',
    "L(r=6,d=3; {L1:codim3, 2^3 on L1}, {L2:codim3, 2^3 on L2}, 2^3)":
        '{"dim": 5, "expected": 4, "per_trial_rank": [78, 78, 78], "prime": 2147483647, '
        '"seed": 3, "special": true, '
        '"system": "L(r=6,d=3; {L1:codim3, 2^3 on L1}, {L2:codim3, 2^3 on L2}, 2^3)", '
        '"trials": 3, "virtual": 4}',
    "L(r=5,d=4; {L1:codim2:mult2}, 2^3)":
        '{"dim": 32, "expected": 32, "per_trial_rank": [93, 93, 93], "prime": 2147483647, '
        '"seed": 3, "special": false, "system": "L(r=5,d=4; {L1:codim2:mult2}, 2^3)", '
        '"trials": 3, "virtual": 32}',
}


@pytest.mark.parametrize("text", sorted(SUBSPACE_DIM_JSON))
def test_subspace_dim_reports_pinned(text):
    report = dimension(parse_system(text), FieldConfig(seed=3))
    assert json.dumps(report.to_dict(), sort_keys=True) == SUBSPACE_DIM_JSON[text]


def test_budget_error():
    with pytest.raises(BudgetError):
        dimension(LinearSystem.nodes(9, 9, 5), FieldConfig(max_columns=100))


def test_rejects_composite_prime():
    with pytest.raises(ValueError):
        FieldConfig(prime=2**31 - 3)


def test_trials_bounded():
    assert FieldConfig(trials=MAX_TRIALS).trials == MAX_TRIALS
    for trials in (0, MAX_TRIALS + 1, 10**7):
        with pytest.raises(ValueError, match="trials"):
            FieldConfig(trials=trials)


def test_rows_for_subspace_shape():
    # one row per condition: 15 values and 3 normal first partials at 5 points
    rng = np.random.default_rng(0)
    basis = np.eye(5, 8, dtype=np.int64)
    rows = rows_for_subspace(7, 2, basis, 2, P, rng)
    count = parse_system("L(r=7,d=2; {L1:codim3:mult2})").conditions_count()
    assert rows.shape == (count, binom(9, 2)) == (15 + 3 * 5, 36)
    assert rank_mod_p(rows, P) == count


def test_lone_subspace_rows_are_chunked_and_exact():
    # forms vanishing to order 4 along a hyperplane are h^4 times a quadric:
    # one row per condition, and no block larger than a chunk
    sys = parse_system("L(r=4,d=6; {L1:codim1:mult4})")
    blocks = list(_row_blocks(sys, FieldConfig(), 0))
    assert max(len(b) for b in blocks) <= _CHUNK_ROWS
    assert sum(len(b) for b in blocks) == sys.conditions_count() == binom(10, 4) - binom(6, 4)
    assert dimension(sys).dim == binom(6, 4) - 1


def test_point_group_draws_at_most_one_point_per_column():
    huge = 10**12
    sys = parse_system(f"L(r=3,d=2; {{L1:codim1, 2^{huge} on L1}}, 2^{huge})")
    matrix = condition_matrix(sys)
    # 6 subspace rows (values at 6 points), then 10 points of 4 rows in each point group
    assert matrix.shape == (6 + 2 * 10 * 4, 10)
    assert rank_mod_p(matrix, P) == 10


def _nodes(n):
    return f", 2^{n}" if n else ""


@st.composite
def _leaf_cases(draw):
    """(system, config) pairs a certificate leaf may stamp: points, one or two
    subspaces, special systems, 1..4 trials, primes just above 2*d*m."""
    kind = draw(st.sampled_from(["points", "subspace", "two_subspaces", "special"]))
    if kind == "points":
        r, d = draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (4, 4)]))
        ncols = binom(r + d, r)
        triple = draw(st.sampled_from(["", "3, "]))
        text = f"L(r={r},d={d}; {triple}2^{draw(st.integers(1, ncols // (r + 1) + 1))})"
    elif kind == "subspace":
        r, d = draw(st.sampled_from([(4, 2), (5, 2), (5, 3), (6, 2)]))
        codim = draw(st.integers(3, r - 1))
        mult = draw(st.integers(1, 2))
        on = draw(st.integers(0, 2))
        inner = f"L1:codim{codim}:mult{mult}" + (f", 2^{on} on L1" if on else "")
        text = f"L(r={r},d={d}; {{{inner}}}{_nodes(draw(st.integers(0, 4)))})"
    elif kind == "two_subspaces":
        r = draw(st.integers(5, 7))
        text = f"L(r={r},d=2; {{L1:codim3}}, {{L2:codim3}}{_nodes(draw(st.integers(0, 3)))})"
    else:
        text = draw(st.sampled_from(
            ["L(r=2,d=4; 2^5)", "L(r=4,d=4; 2^14)", "L(r=3,d=4; 2^9)", "L(r=4,d=3; 2^7)"]
        ))
    sys = parse_system(text)
    floor = 2 * sys.d * max(c.multiplicity for c in sys.conditions)
    prime = draw(st.sampled_from([_next_prime(floor), _next_prime(_next_prime(floor)), 97, P]))
    return sys, FieldConfig(
        prime=prime,
        seed=draw(st.integers(0, 2**32)),
        trials=draw(st.integers(1, 4)),
    )


def _early(sys, cfg):
    return dimension(sys, cfg, stop_at_ceiling=True)


@settings(max_examples=150, deadline=None)
@given(case=_leaf_cases())
def test_early_stop_matches_every_trial(case):
    sys, cfg = case
    full = dimension(sys, cfg)
    early = _early(sys, cfg)
    # the same report, with the ranks of the trials run: a prefix of all of them
    assert full.per_trial_rank[: len(early.per_trial_rank)] == early.per_trial_rank
    assert replace(early, per_trial_rank=full.per_trial_rank) == full
    assert is_empty(sys, cfg) == (full.dim == -1)


def test_early_stop_at_first_ceiling_trial(trial_calls):
    cfg = FieldConfig(trials=3)
    for text in ["L(r=3,d=5; 2^14)", "L(r=3,d=5; 2^15)", "L(r=3,d=5; 2^10)"]:  # non-special
        sys = parse_system(text)
        assert _early(sys, cfg).dim == sys.expected_dim()
        assert len(trial_calls) == 1
        trial_calls.clear()
    for text, trials in [("L(r=2,d=4; 2^5)", 3), ("L(r=4,d=4; 2^14)", 4)]:  # special
        sys = parse_system(text)
        assert _early(sys, FieldConfig(trials=trials)).dim == sys.expected_dim() + 1
        assert len(trial_calls) == trials
        trial_calls.clear()
    assert is_empty(parse_system("L(r=3,d=5; 2^14)"), cfg)
    assert not is_empty(parse_system("L(r=3,d=5; 2^13)"), cfg)  # fewer conditions than columns
    assert len(trial_calls) == 1
    trial_calls.clear()
    dimension(parse_system("L(r=3,d=5; 2^14)"), cfg)
    assert len(trial_calls) == 3  # without stop_at_ceiling every trial runs


def test_early_stop_runs_on_past_a_missed_trial(trial_calls):
    # mod 13 the first placement sometimes misses the rank ceiling
    sys = parse_system("L(r=3,d=3; 2^5)")
    for seed in range(40):
        cfg = FieldConfig(prime=13, seed=seed, trials=3)
        ranks = dimension(sys, cfg).per_trial_rank
        if ranks[0] < 20 == ranks[1]:
            break
    else:
        pytest.fail("no seed where only the second trial reaches the ceiling")
    trial_calls.clear()
    assert _early(sys, cfg).dim == -1
    assert [t for *_, t in trial_calls] == [0, 1]


def test_early_stop_takes_the_best_trial_below_the_ceiling():
    # mod 17 the special quartic's placements sometimes lose rank; no trial
    # reaches the ceiling, so the best of all trials counts
    sys = parse_system("L(r=2,d=4; 2^5)")
    for seed in range(40):
        cfg = FieldConfig(prime=17, seed=seed, trials=3)
        rep = dimension(sys, cfg)
        if rep.per_trial_rank[-1] < max(rep.per_trial_rank):
            break
    else:
        pytest.fail("no seed where the last trial loses rank")
    assert _early(sys, cfg) == rep

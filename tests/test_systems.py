import pytest
from hypothesis import given, settings, strategies as st

from fatpoints import (
    FatPoint,
    FatSubspace,
    LinearSystem,
    ParseError,
    PointOnSubspace,
    binom,
    castelnuovo_split,
    classify,
    classify_system,
    cone_reduce,
    dominates,
    limit_dim,
    parse_system,
    planar_dim,
    quadric_dim,
    transversal_intersection_dim,
)

CANONICAL = [
    "L(r=3,d=5; 2^14)",
    "L(r=7,d=3; {L1:codim3, 2^5 on L1}, 2^10)",
    "L(r=3,d=4; 3, 2^5)",
    "L(r=4,d=2; {L1:codim3:mult2}, 2)",
    "L(r=5,d=3; {L1:codim3, 2^3 on L1}, {L2:codim3, 2^3 on L2}, 2^3)",
    "L(r=2,d=0)",
    "L(r=6,d=3; 2^12, 1^2)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_roundtrip_canonical(text):
    assert str(parse_system(text)) == text


def test_parse_normalizes():
    assert str(parse_system("L(r=3, d=5;2^3,2^11)")) == "L(r=3,d=5; 2^14)"
    assert str(parse_system("L(r=3,d=4; 2^5, 3)")) == "L(r=3,d=4; 3, 2^5)"
    # on-subspace points may appear outside the braces
    same = parse_system("L(r=7,d=3; {L1:codim3}, 2^5 on L1, 2^10)")
    assert str(same) == "L(r=7,d=3; {L1:codim3, 2^5 on L1}, 2^10)"


@pytest.mark.parametrize(
    "bad",
    [
        "L(r=3,d=5; 2**14)",
        "L(3,5; 2^14)",
        "L(r=3,d=5; {L1:codim9})",      # codim > r
        "L(r=3,d=5; 2^5 on L1)",        # undeclared subspace
        "L(r=3,d=5; {L1:codim2}, {L1:codim2})",
        "L(r=3,d=5; 0^2)",
        "nonsense",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_system(bad)


@st.composite
def systems(draw):
    r = draw(st.integers(1, 8))
    d = draw(st.integers(0, 9))
    conds = []
    for m, c in draw(
        st.dictionaries(st.integers(1, 9), st.integers(1, 30), max_size=4)
    ).items():
        conds.append(FatPoint(m, c))
    if r >= 2 and draw(st.booleans()):
        codim = draw(st.integers(1, r))
        mult = draw(st.integers(1, 3))
        conds.append(FatSubspace("L1", codim, mult))
        if draw(st.booleans()):
            conds.append(PointOnSubspace("L1", draw(st.integers(1, 4)), draw(st.integers(1, 5))))
    return LinearSystem(r, d, tuple(conds))


@given(systems())
def test_roundtrip_random(sys):
    assert parse_system(str(sys)) == sys


def test_classify_examples():
    v = classify(2, 4, 5)
    assert v.is_exception and v.closed_form_dim == 0 and v.exception_tag == "Quartic2"
    v = classify(6, 2, 4)
    assert v.is_exception and v.closed_form_dim == binom(4, 2) - 1 == 5
    assert classify(3, 2, 2).closed_form_dim == 2
    assert classify(4, 3, 7).closed_form_dim == 0
    assert classify(3, 4, 9).closed_form_dim == 0
    assert not classify(3, 5, 14).is_exception
    # quadrics with n >= r+1 nodes are empty but not special
    assert not classify(3, 2, 4).is_exception


def test_classify_system_rejects_non_double():
    with pytest.raises(ValueError):
        classify_system(parse_system("L(r=3,d=4; 3, 2^5)"))
    assert classify_system(LinearSystem.nodes(3, 4, 9)).is_exception


def test_quadric_planar_closed_forms():
    assert quadric_dim(4, 5) == -1
    assert quadric_dim(4, 1) == binom(5, 2) - 1
    assert quadric_dim(4, 1, simple=5) == binom(5, 2) - 1 - 5
    assert planar_dim(4, 5) == 0
    assert planar_dim(4, 5, simple=1) == -1
    assert planar_dim(3, 3) == 0


def test_castelnuovo_examples():
    k, t = castelnuovo_split(LinearSystem.nodes(3, 4, 8), 4)
    assert str(k) == "L(r=3,d=3; 2^4, 1^4)"
    assert str(t) == "L(r=2,d=4; 2^4)"

    with pytest.raises(ValueError):
        castelnuovo_split(LinearSystem.nodes(3, 4, 3), 4)


@given(st.integers(2, 7), st.integers(2, 9), st.integers(0, 20), st.integers(0, 20))
def test_castelnuovo_conserves_conditions(r, d, n, h):
    if h > n:
        h = n
    sys = LinearSystem.nodes(r, d, n)
    k, t = castelnuovo_split(sys, h)
    assert k.conditions_count() + t.conditions_count() == sys.conditions_count()
    assert sys.virtual_dim() == k.virtual_dim() + t.virtual_dim() + 1


def test_cone_reduce_examples():
    assert str(cone_reduce(parse_system("L(r=3,d=4; 4, 2^4)"))) == "L(r=2,d=4; 2^4)"
    assert str(cone_reduce(parse_system("L(r=5,d=3; 3)"))) == "L(r=4,d=3)"
    assert str(cone_reduce(parse_system("L(r=3,d=6; 6, 2^9, 1)"))) == "L(r=2,d=6; 2^9, 1)"
    with pytest.raises(ValueError):
        cone_reduce(LinearSystem.nodes(3, 4, 4))


def test_limit_dim_examples():
    assert limit_dim(-1, -1, -1) == -1
    assert limit_dim(2, -1, -1) == 2
    assert limit_dim(0, 1, -1) == 2
    with pytest.raises(ValueError):
        limit_dim(-2, 0, 0)


@given(st.integers(-1, 30), st.integers(-1, 30), st.integers(-1, 30), st.integers(0, 5))
def test_limit_dim_monotone(a, b, c, bump):
    base = limit_dim(a, b, c)
    assert limit_dim(a + bump, b, c) >= base
    assert limit_dim(a, b + bump, c) >= base
    assert limit_dim(a, b, c + bump) >= base


def test_transversal_intersection_examples():
    assert transversal_intersection_dim(-1, 7, 10) == -1
    # complete series through b points: r_F = ambient - 1 - b gives r_P - b
    ambient, b, r_p = 15, 7, 6
    assert transversal_intersection_dim(r_p, ambient - 1 - b, ambient) == max(r_p - b, -1)


def test_dominates():
    a = LinearSystem.nodes(5, 3, 9, simple=2)
    b = LinearSystem.nodes(5, 3, 11)
    assert dominates(b, a)
    assert not dominates(a, b)
    assert dominates(a, a)
    assert not dominates(LinearSystem.nodes(4, 3, 11), a)  # different space


def _dominates_by_lists(stronger, weaker):
    """The entrywise test on the expanded, sorted multiplicity lists."""
    big, small = (
        sorted((c.multiplicity for c in s.fat_points for _ in range(c.count)), reverse=True)
        for s in (stronger, weaker)
    )
    return len(small) <= len(big) and all(a <= b for a, b in zip(small, big))


@settings(max_examples=300)
@given(
    st.lists(st.integers(1, 5), max_size=12),
    st.lists(st.integers(1, 5), max_size=12),
)
def test_dominates_matches_sorted_lists(a, b):
    stronger, weaker = LinearSystem.from_mults(3, 4, a), LinearSystem.from_mults(3, 4, b)
    assert dominates(stronger, weaker) == _dominates_by_lists(stronger, weaker)

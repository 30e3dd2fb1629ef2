"""Proof certificates: node model, rule semantics, verifier, narration.

A certificate is a tree of claims about linear systems.  Internal nodes
apply one of a fixed catalog of degeneration rules and record the integer
side conditions under which the rule is sound; leaves are classification
table rows, closed-form families, or finite-field oracle runs with their
(prime, seed, trials) pinned.

Every claim reduces to a known dimension: ``empty`` means dim = -1,
``dim`` pins a value, ``non_special`` means dim equals the expected
dimension (computable from the system alone).  A claim implying
"dim = v >= -1" also certifies that the imposed conditions are linearly
independent, which is what the restriction rules consume from their
premises.

The verifier is independent of the certificate generator: it re-derives
every side condition and every child system from the claim and the rule
parameters, evaluates the derived relations, compares them with the
recorded ones, and re-runs oracle leaves.
"""

from __future__ import annotations

import json
import marshal
import re
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable

from .combinatorics import (
    b0_decompose,
    binom,
    expected_dim,
    gamma_r,
    k_general,
    k_quartic,
    n_bounds,
)
from .errors import BudgetError, FatpointsError
from .oracle import FieldConfig, dimension
from .presets import (
    ah3_system,
    k1_system,
    k2_system,
    matching_system,
    p7_k1_system,
    p7_k2_system,
    p7_matching_system,
    quadric_three_subspaces,
)
from .systems import (
    LinearSystem,
    SPORADIC_EXCEPTIONS,
    castelnuovo_split,
    classify,
    dominates,
    limit_dim,
    planar_dim,
    quadric_dim,
    transversal_intersection_dim,
)

CERTIFICATE_VERSION = 1

ASSERTIONS = ("dim", "non_special", "empty")

LEAF_RULES = ("TABLE", "CLOSED_FORM", "ORACLE")

#: deepest certificate tree that is built or read; honest trees stay far below
MAX_DEPTH = 64


class RuleViolation(FatpointsError):
    """A node fails its rule's structural or arithmetic requirements."""


# ---------------------------------------------------------------------------
# node model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    system: LinearSystem
    assertion: str  # "dim" | "non_special" | "empty"
    value: int | None = None

    def __post_init__(self) -> None:
        if self.assertion not in ASSERTIONS:
            raise ValueError(f"unknown assertion {self.assertion!r}")
        if (self.assertion == "dim") != (self.value is not None):
            raise ValueError("a value is carried exactly by 'dim' claims")

    def known_dim(self) -> int:
        """The dimension this claim pins down."""
        if self.assertion == "empty":
            return -1
        if self.assertion == "dim":
            assert self.value is not None
            return self.value
        return self.system.expected_dim()

    def gives_h1_zero(self) -> bool:
        """True if the claim certifies independent conditions (h^1 = 0)."""
        v = self.system.virtual_dim()
        return v >= -1 and self.known_dim() == v

    def describe(self) -> str:
        if self.assertion == "empty":
            return f"{self.system} is empty"
        if self.assertion == "dim":
            return f"dim {self.system} = {self.value}"
        return f"{self.system} is non-special"


@dataclass(frozen=True)
class SideCondition:
    name: str
    value: int
    relation: str  # "<op> <int>" with op in ==, !=, <=, >=, <, >

    def holds(self) -> bool:
        return _relation_holds(self.value, self.relation)


@dataclass(frozen=True)
class OracleStamp:
    prime: int
    seed: int
    trials: int

    def run_config(self, cfg: FieldConfig) -> FieldConfig:
        """``cfg`` with this stamp's (prime, seed, trials)."""
        return replace(cfg, prime=self.prime, seed=self.seed, trials=self.trials)


@dataclass(frozen=True)
class ProofNode:
    claim: Claim
    rule: str
    params: dict = field(default_factory=dict)
    side_conditions: tuple[SideCondition, ...] = ()
    children: tuple["ProofNode", ...] = ()
    oracle: OracleStamp | None = None
    #: levels from this node down to its deepest leaf; children exist before
    #: their parent, so no walk is needed, however deep the tree
    height: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "height", 1 + max((c.height for c in self.children), default=0))


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None
    path: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.accepted


_REL_RE = re.compile(r"^(==|!=|<=|>=|<|>) (-?\d+)$")


def _relation_holds(value: int, relation: str) -> bool:
    m = _REL_RE.match(relation)
    if not m:
        raise ValueError(f"bad relation {relation!r}")
    op, bound = m.group(1), int(m.group(2))
    return {
        "==": value == bound,
        "!=": value != bound,
        "<=": value <= bound,
        ">=": value >= bound,
        "<": value < bound,
        ">": value > bound,
    }[op]


def _sc(name: str, value: int, relation: str) -> SideCondition:
    return SideCondition(name, int(value), relation)


# ---------------------------------------------------------------------------
# rule semantics
# ---------------------------------------------------------------------------

# child requirements
EMPTY = "empty"
H1_ZERO = "h1_zero"
NON_SPECIAL = "non_special"


def claim_implies(claim: Claim, requirement) -> bool:
    """Does the claim meet a child requirement or a rule's conclusion?"""
    if requirement == EMPTY:
        return claim.known_dim() == -1
    if requirement == H1_ZERO:
        return claim.gives_h1_zero()
    if requirement == NON_SPECIAL:
        return claim.known_dim() == claim.system.expected_dim()
    if isinstance(requirement, tuple) and requirement[0] == "dim":
        return claim.known_dim() == requirement[1]
    raise ValueError(f"unknown requirement {requirement!r}")


@dataclass(frozen=True)
class RuleApplication:
    """What a rule instance demands: side conditions, children (system +
    requirement), and the conclusion it supports for the node's own claim."""

    sides: tuple[SideCondition, ...]
    children: tuple[tuple[LinearSystem, object], ...]
    conclusion: object  # ("dim", k) | H1_ZERO | EMPTY


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RuleViolation(msg)


def _double_point_shape(s: LinearSystem) -> int:
    _require(s.is_points_only(), f"{s}: rule needs a points-only system")
    n = s.point_count(2)
    _require(
        all(fp.multiplicity == 2 for fp in s.fat_points),
        f"{s}: rule needs double points only",
    )
    return n


def _check_table(claim: Claim, params: dict) -> RuleApplication:
    s = claim.system
    n = _double_point_shape(s)
    verdict = classify(s.r, s.d, n)
    _require(verdict.is_exception, f"({s.r},{s.d},{n}) is not an exception row")
    assert verdict.closed_form_dim is not None
    return RuleApplication(
        sides=(_sc("is_exception", 1, "== 1"),),
        children=(),
        conclusion=("dim", verdict.closed_form_dim),
    )


def _closed_form_dim(family: str, s: LinearSystem) -> tuple[int, tuple[SideCondition, ...]]:
    if family == "complete":
        _require(not s.conditions, "complete family has no conditions")
        return binom(s.r + s.d, s.r) - 1, (_sc("condition_count", 0, "== 0"),)
    _require(s.is_points_only(), f"{s}: closed forms cover point conditions")
    maxm = max((c.multiplicity for c in s.fat_points), default=0)
    n2, n1 = s.point_count(2), s.point_count(1)
    _require(maxm <= 2, f"{family} family needs multiplicities <= 2")
    if family == "quadric":
        _require(s.d == 2, "quadric family needs d = 2")
        return quadric_dim(s.r, n2, n1), (_sc("d", s.d, "== 2"),)
    if family == "planar":
        _require(s.r == 2, "planar family needs r = 2")
        return planar_dim(s.d, n2, n1), (_sc("r", s.r, "== 2"),)
    raise RuleViolation(f"unknown closed-form family {family!r}")


def _check_closed_form(claim: Claim, params: dict) -> RuleApplication:
    family = params.get("family")
    dim, guards = _closed_form_dim(str(family), claim.system)
    sides = guards + (_sc("closed_dim", dim, ">= -1"),)
    return RuleApplication(sides=sides, children=(), conclusion=("dim", dim))


def _check_oracle(claim: Claim, params: dict) -> RuleApplication:
    # a rank reaching min(conditions, columns) proves the dimension; a rank
    # below it only bounds the dimension from above
    return RuleApplication(sides=(), children=(), conclusion=NON_SPECIAL)


def _check_monotone_down(claim: Claim, params: dict) -> RuleApplication:
    s = claim.system
    parent = LinearSystem.parse(str(params["parent"]))
    _require((parent.r, parent.d) == (s.r, s.d), "parent lives in another space")
    sides = (
        _sc("dominates", int(dominates(parent, s)), "== 1"),
        _sc("v_parent", parent.virtual_dim(), ">= -1"),
        _sc("v_target", s.virtual_dim(), ">= -1"),
    )
    return RuleApplication(sides=sides, children=((parent, H1_ZERO),), conclusion=H1_ZERO)


def _check_empty_up(claim: Claim, params: dict) -> RuleApplication:
    s = claim.system
    base = LinearSystem.parse(str(params["base"]))
    via = params.get("via", "dominance")
    if via == "dominance":
        _require((base.r, base.d) == (s.r, s.d), "base lives in another space")
        sides = (
            _sc("dominates", int(dominates(s, base)), "== 1"),
            _sc("v_target", s.virtual_dim(), "<= -1"),
        )
        return RuleApplication(sides=sides, children=((base, EMPTY),), conclusion=EMPTY)
    if via == "unique_divisor":
        n = _double_point_shape(s)
        m = _double_point_shape(base)
        _require((base.r, base.d) == (s.r, s.d), "base lives in another space")
        row = SPORADIC_EXCEPTIONS.get((base.r, base.d, m))
        _require(
            row is not None and row[1] == 0,
            f"({base.r},{base.d},{m}) is not a rigid exception row",
        )
        # the unique member is singular along a proper closed locus only,
        # so one further general node empties the system
        sides = (
            _sc("rigid_exception_row", 1, "== 1"),
            _sc("extra_nodes", n - m, ">= 1"),
        )
        return RuleApplication(sides=sides, children=((base, ("dim", 0)),), conclusion=EMPTY)
    raise RuleViolation(f"unknown EMPTY_UP mode {via!r}")


def _check_castelnuovo(claim: Claim, params: dict) -> RuleApplication:
    s = claim.system
    h = int(params["h"])
    _require(not params.get("top", False), "CASTELNUOVO specializes double points only")
    kernel, trace = castelnuovo_split(s, h)
    vk, vt = kernel.virtual_dim(), trace.virtual_dim()
    sides = (
        _sc("v_kernel", vk, ">= -1"),
        _sc("v_trace", vt, ">= -1"),
        _sc("v_additivity", s.virtual_dim() - vk - vt - 1, "== 0"),
        _sc(
            "conditions_conserved",
            kernel.conditions_count() + trace.conditions_count() - s.conditions_count(),
            "== 0",
        ),
    )
    return RuleApplication(
        sides=sides,
        children=((kernel, H1_ZERO), (trace, H1_ZERO)),
        conclusion=H1_ZERO,
    )


def _check_deg1(claim: Claim, params: dict) -> RuleApplication:
    s = claim.system
    n = _double_point_shape(s)
    r, d = s.r, s.d
    _require(r >= 3 and d >= 5, "DEG1 needs r >= 3, d >= 5")
    b = int(params["b"])
    b0, beta = b0_decompose(r, d)
    # b nodes on the exceptional component F, n - b on P
    cone_kernel = LinearSystem.nodes(r - 1, d, b)
    l_p, hat_l_p = LinearSystem.nodes(r, d - 1, n - b), LinearSystem.nodes(r, d - 2, n - b)
    ambient = binom(d + r - 2, r - 1)
    v_p = l_p.virtual_dim()
    dim_r = transversal_intersection_dim(v_p, ambient - 1 - b, ambient)
    l0 = limit_dim(dim_r, -1, -1)
    sides = (
        _sc("beta", beta, "== 0"),
        _sc("b_matches_b0", b - b0, "== 0"),
        _sc("b_within_n", n - b, ">= 0"),
        _sc("b_within_lf_bound", k_general(r, d) - b, ">= 0"),
        _sc("e_cone_kernel", expected_dim(cone_kernel.virtual_dim()), "== -1"),
        _sc("v_p", v_p, ">= 0"),
        _sc("v_hat_p", hat_l_p.virtual_dim(), "<= -1"),
        _sc("l0_matches_expected", l0 - s.expected_dim(), "== 0"),
    )
    children = ((cone_kernel, H1_ZERO), (l_p, H1_ZERO), (hat_l_p, EMPTY))
    return RuleApplication(
        sides=sides, children=children, conclusion=("dim", s.expected_dim())
    )


def _check_deg2(claim: Claim, params: dict) -> RuleApplication:
    s = claim.system
    n = _double_point_shape(s)
    r, d = s.r, s.d
    _require(r >= 3 and d >= 5, "DEG2 needs r >= 3, d >= 5")
    b, beta = int(params["b"]), int(params["beta"])
    b0f, beta0 = b0_decompose(r, d)
    # b nodes on the exceptional F (beta of them in its intersection with P), n - b on P
    cone_kernel = LinearSystem.nodes(r - 1, d, b - beta)
    cone_kernel_full = LinearSystem.nodes(r - 1, d, b - beta, simple=beta)
    hat_l_p0 = LinearSystem.nodes(r, d - 2, n - b)
    bar_l_p0 = LinearSystem.nodes(r, d - 1, n - b + beta)
    v_p0 = LinearSystem.nodes(r, d - 1, n - b).virtual_dim()
    match_dim = max(v_p0 - r * beta - (b - beta), -1)
    sides = (
        _sc("beta_matches", beta - beta0, "== 0"),
        _sc("beta_positive", beta, ">= 1"),
        _sc("beta_below_r", r - beta, ">= 1"),
        _sc("b_matches_second", b - (b0f + beta), "== 0"),
        _sc("b_within_n", n - b, ">= 0"),
        _sc("b_within_lf_bound", k_general(r, d) - b, ">= 0"),
        _sc("v_cone_kernel", cone_kernel_full.virtual_dim(), "== -1"),
        _sc("v_bar_p", bar_l_p0.virtual_dim(), ">= -1"),
        _sc("v_hat_p", hat_l_p0.virtual_dim(), "<= -1"),
        _sc("match_dim_matches_expected", match_dim - s.expected_dim(), "== 0"),
    )
    children = ((cone_kernel, H1_ZERO), (bar_l_p0, H1_ZERO), (hat_l_p0, EMPTY))
    return RuleApplication(
        sides=sides, children=children, conclusion=("dim", s.expected_dim())
    )


def quartic_rule(r: int) -> str:
    """The quartic rule name at r: the (1,4) and (1,8) degenerations on P^3
    and P^4, the general one elsewhere."""
    return {3: "QUARTIC_R3", 4: "QUARTIC_R4"}.get(r, "QUARTIC_GEN")


def _check_quartic_small(claim: Claim, params: dict, rule: str) -> RuleApplication:
    s = claim.system
    n = _double_point_shape(s)
    r = s.r
    # the rule's name ends in the r it covers
    _require(s.d == 4 and quartic_rule(r) == rule, f"{rule} covers (r, d) = ({rule[-1]}, 4)")
    n_expected = {3: 8, 4: 13}[r]
    b = int(params["b"])
    hat_f = LinearSystem.nodes(r - 1, 4, b)
    l_p = LinearSystem.nodes(r, 3, n - b)
    hat_p = LinearSystem.nodes(r, 2, n - b)
    ambient = binom(4 + r - 2, r - 1)
    v_p = l_p.virtual_dim()
    v_hat_f = hat_f.virtual_dim()
    dim_r = transversal_intersection_dim(v_p, ambient - 1 - b, ambient)
    l0 = limit_dim(dim_r, -1, expected_dim(v_hat_f))
    sides = (
        _sc("node_count", n, f"== {n_expected}"),
        _sc("b_matches", b - (n - r - 1), "== 0"),
        _sc("b_within_quartic_bound", k_quartic(r) - b, ">= 0"),
        _sc("v_hat_f", v_hat_f, ">= -1"),
        _sc("quadric_kernel_nodes", (n - b) - (r + 1), ">= 0"),
        _sc("v_p", v_p, ">= 0"),
        _sc("l0_matches_expected", l0 - s.expected_dim(), "== 0"),
    )
    children = ((hat_f, H1_ZERO), (l_p, H1_ZERO), (hat_p, EMPTY))
    return RuleApplication(
        sides=sides, children=children, conclusion=("dim", s.expected_dim())
    )


def _check_quartic_gen(claim: Claim, params: dict) -> RuleApplication:
    s = claim.system
    n = _double_point_shape(s)
    r = s.r
    _require(s.d == 4 and r >= 5, "QUARTIC_GEN covers d = 4, r >= 5")
    b = int(params["b"])
    hat_f = LinearSystem.nodes(r - 1, 4, b)
    l_p = LinearSystem.nodes(r, 3, r + 1)
    hat_p = LinearSystem.nodes(r, 2, r + 1)
    base_pts = binom(r + 1, 2)
    l_f = LinearSystem.from_mults(r, 4, [3] + [2] * b)
    dim_r = max(expected_dim(l_f.virtual_dim()) - base_pts, -1)
    l0 = limit_dim(dim_r, -1, -1)
    sides = (
        _sc("b_matches", b - (n - r - 1), "== 0"),
        _sc("r_at_least_5", r, ">= 5"),
        _sc("b_within_quartic_bound", k_quartic(r) - b, ">= 0"),
        _sc("v_hat_f", hat_f.virtual_dim(), "<= -1"),
        _sc("p_nodes", n - b, f"== {r + 1}"),
        _sc("v_p", l_p.virtual_dim(), ">= 0"),
        _sc("trace_base_points", base_pts, ">= 1"),
        _sc("l0_matches_expected", l0 - s.expected_dim(), "== 0"),
    )
    children = ((hat_f, EMPTY), (l_p, H1_ZERO), (hat_p, EMPTY))
    return RuleApplication(
        sides=sides, children=children, conclusion=("dim", s.expected_dim())
    )


def cubic_rule(r: int) -> str:
    """The cubic rule name at r: every node on P^8 and up is an induction step."""
    return "CUBIC_STEP" if r >= 8 else "CUBIC_BASE"


def _main_sides(r: int) -> tuple[SideCondition, ...]:
    nlo, nlo3 = n_bounds(r, 3)[0], n_bounds(r - 3, 3)[0]
    dgamma = gamma_r(r) - gamma_r(r - 3)
    return (
        _sc("nodes_on_strict_transform", nlo - nlo3, f"== {r + 1}"),
        _sc("gamma_step", dgamma, ">= 0"),
        _sc("gamma_step_bound", 1 - dgamma, ">= 0"),
    )


@dataclass(frozen=True)
class _CubicTrack:
    covers: Callable[[int], bool]
    #: the claim system at r, then its two children (each required empty)
    systems: Callable[[int], tuple[LinearSystem, LinearSystem, LinearSystem]]
    v_target: str  # relation on the claim's virtual dimension
    extra_sides: Callable[[int], tuple[SideCondition, ...]] = lambda r: ()


# the whole cubic induction: every CUBIC_BASE (r <= 7) and CUBIC_STEP (r >= 8)
# node is one of these tracks at one r
_CUBIC_TRACKS: dict[str, _CubicTrack] = {
    "main": _CubicTrack(
        lambda r: r in (5, 6) or r >= 8,
        lambda r: (ah3_system(r), ah3_system(r - 3), matching_system(r)),
        "== -1",
        _main_sides,
    ),
    "matching": _CubicTrack(
        lambda r: r >= 8,
        lambda r: (matching_system(r), k1_system(r), matching_system(r - 3)),
        "== -1",
    ),
    "k1": _CubicTrack(
        lambda r: r == 6 or r >= 8,
        lambda r: (k1_system(r), k2_system(r), k1_system(r - 3)),
        "<= -1",
    ),
    "k2": _CubicTrack(
        lambda r: r >= 7,
        lambda r: (k2_system(r), quadric_three_subspaces(r), k2_system(r - 1)),
        "<= -1",
    ),
    # the P^7 round blows up a codimension-4 subspace
    "p7": _CubicTrack(
        lambda r: r == 7,
        lambda r: (ah3_system(7), ah3_system(3), p7_matching_system()),
        "== -1",
    ),
    "p7_matching": _CubicTrack(
        lambda r: r == 7,
        lambda r: (p7_matching_system(), p7_k1_system(), ah3_system(3)),
        "== -1",
    ),
    "p7_k1": _CubicTrack(
        lambda r: r == 7,
        lambda r: (p7_k1_system(), p7_k2_system(), ah3_system(3)),
        "<= -1",
    ),
}


def cubic_track(sys: LinearSystem) -> str | None:
    """The cubic track whose claim system at ``sys.r`` is ``sys``, if any."""
    for name, track in _CUBIC_TRACKS.items():
        # the range first: the presets refuse small r
        if track.covers(sys.r) and track.systems(sys.r)[0] == sys:
            return name
    return None


def _check_cubic(claim: Claim, params: dict, rule: str) -> RuleApplication:
    s, r = claim.system, claim.system.r
    _require("track" in params, f"{rule} needs a track")
    name = str(params["track"])
    track = _CUBIC_TRACKS.get(name)
    if track is None:
        raise RuleViolation(f"unknown cubic track {name!r}")
    _require(track.covers(r), f"the {name} track does not cover r = {r}")
    _require(rule == cubic_rule(r), f"r = {r} takes {cubic_rule(r)}, not {rule}")
    target, *children = track.systems(r)
    _require(s == target, f"claim is not the r = {r} {name} system")
    sides = (_sc("v_target", s.virtual_dim(), track.v_target),) + track.extra_sides(r)
    return RuleApplication(
        sides=sides, children=tuple((c, EMPTY) for c in children), conclusion=EMPTY
    )


_CHECKERS: dict[str, Callable[[Claim, dict], RuleApplication]] = {
    "TABLE": _check_table,
    "CLOSED_FORM": _check_closed_form,
    "ORACLE": _check_oracle,
    "MONOTONE_DOWN": _check_monotone_down,
    "EMPTY_UP": _check_empty_up,
    "CASTELNUOVO": _check_castelnuovo,
    "DEG1": _check_deg1,
    "DEG2": _check_deg2,
    "QUARTIC_R3": lambda c, p: _check_quartic_small(c, p, "QUARTIC_R3"),
    "QUARTIC_R4": lambda c, p: _check_quartic_small(c, p, "QUARTIC_R4"),
    "QUARTIC_GEN": _check_quartic_gen,
    "CUBIC_BASE": lambda c, p: _check_cubic(c, p, "CUBIC_BASE"),
    "CUBIC_STEP": lambda c, p: _check_cubic(c, p, "CUBIC_STEP"),
}


def derive_application(claim: Claim, rule: str, params: dict) -> RuleApplication:
    """Recompute a rule instance's side conditions, required children, and
    conclusion from the claim and parameters alone."""
    checker = _CHECKERS.get(rule)
    if checker is None:
        raise RuleViolation(f"unknown rule {rule!r}")
    return checker(claim, params)


def check_application(
    claim: Claim, rule: str, app: RuleApplication, children: tuple[ProofNode, ...]
) -> None:
    """Check a node against its derived rule instance: the side conditions
    hold, the conclusion supports the claim, and each child concerns the
    derived system and meets its requirement.  Children are judged by their
    claims only.  Raises :class:`RuleViolation` naming the first failure."""
    for sc in app.sides:
        if not sc.holds():
            raise RuleViolation(f"side condition {sc.name!r} fails: {sc.value} {sc.relation}")
    if not claim_implies(claim, app.conclusion):
        raise RuleViolation("claim not supported by the rule's conclusion")
    if rule in LEAF_RULES and children:
        raise RuleViolation("leaf rule with children")
    if len(children) != len(app.children):
        raise RuleViolation(f"expected {len(app.children)} children, found {len(children)}")
    for i, (child, (want_sys, requirement)) in enumerate(zip(children, app.children)):
        if child.claim.system != want_sys:
            raise RuleViolation(
                f"child {i} should concern {want_sys}, found {child.claim.system}"
            )
        if not claim_implies(child.claim, requirement):
            raise RuleViolation(
                f"child {i} claim {child.claim.describe()!r} does not imply "
                f"requirement {requirement!r}"
            )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class _Reject(Exception):
    def __init__(self, reason: str, path: tuple[int, ...]):
        super().__init__(reason)
        self.reason = reason
        self.path = path


def verify(root: ProofNode, cfg: FieldConfig | None = None) -> VerifyResult:
    """Independently re-check a certificate.

    Checks each node object once, in one walk, against the rule
    application derived from its claim and params alone: the derived side
    conditions hold and equal the recorded ones, the conclusion supports
    the claim, and each child concerns the derived system and meets its
    requirement.  Every ORACLE node is re-run under its stamp, stopping at
    the first trial whose rank reaches min(conditions, columns), as the
    generator does.  Never calls the generator.  A root taller than
    ``MAX_DEPTH`` levels is rejected before any node is checked.  Re-runs
    honor ``cfg.max_columns`` and may raise
    :class:`~fatpoints.errors.BudgetError`.
    """
    cfg = cfg or FieldConfig()
    if root.height > MAX_DEPTH:
        return VerifyResult(False, f"certificate deeper than {MAX_DEPTH} levels", ())
    try:
        _verify_node(root, (), cfg, set())
    except _Reject as rej:
        return VerifyResult(False, rej.reason, rej.path)
    return VerifyResult(True)


def _check_recorded_sides(recorded: tuple[SideCondition, ...], app: RuleApplication) -> None:
    for got, want in zip_longest(recorded, app.sides):
        if got != want:
            raise RuleViolation(
                f"side condition {(want or got).name!r} recorded as {got}, derived as {want}"
            )


def _rerun_oracle(node: ProofNode, cfg: FieldConfig) -> None:
    if node.oracle is None:
        raise RuleViolation("oracle leaf without a stamp")
    report = dimension(node.claim.system, node.oracle.run_config(cfg), stop_at_ceiling=True)
    if report.dim != node.claim.known_dim():
        raise RuleViolation(
            f"oracle re-run found dim {report.dim}, claim needs {node.claim.known_dim()}"
        )


def _verify_node(
    node: ProofNode,
    path: tuple[int, ...],
    cfg: FieldConfig,
    accepted: set[int],
) -> None:
    if id(node) in accepted:
        return
    try:
        # re-run first, so a claim the oracle refutes is rejected as refuted
        if node.rule == "ORACLE":
            _rerun_oracle(node, cfg)
        app = derive_application(node.claim, node.rule, dict(node.params))
        check_application(node.claim, node.rule, app, node.children)
        _check_recorded_sides(node.side_conditions, app)
    except BudgetError:
        raise
    except (FatpointsError, ValueError, KeyError, TypeError) as exc:
        where = f"node {'/'.join(map(str, path)) or 'root'} [{node.rule}] {node.claim.describe()}"
        raise _Reject(f"{where}: {exc}", path) from exc
    for i, child in enumerate(node.children):
        _verify_node(child, path + (i,), cfg, accepted)
    accepted.add(id(node))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _tail(node: ProofNode, version: int | None = None) -> str:
    """The node's text after its children: ``],`` then its own fields, which
    sort after ``"children"``, and the version on the root."""
    own = {
        "claim": {
            "system": str(node.claim.system),
            "assert": node.claim.assertion,
            "value": node.claim.value,
        },
        "rule": node.rule,
        "params": dict(node.params),
        "side_conditions": [
            {"name": sc.name, "value": sc.value, "relation": sc.relation}
            for sc in node.side_conditions
        ],
    }
    if node.oracle is not None:
        own["oracle"] = {
            "prime": node.oracle.prime,
            "seed": node.oracle.seed,
            "trials": node.oracle.trials,
        }
    if version is not None:
        own["version"] = version
    return "]," + json.dumps(own, sort_keys=True, separators=(",", ":"))[1:]


def _raw_fields(data: dict) -> tuple:
    """A node's own fields as read, hashable, such that equal raw fields
    convert to equal fields: each param keeps its JSON type, and the text
    fields are taken as the reader converts them."""
    claim = data["claim"]
    return (
        str(claim["system"]),
        claim["assert"],
        claim.get("value"),
        str(data["rule"]),
        tuple((k, type(v), v) for k, v in data.get("params", {}).items()),
        tuple(
            (str(sc["name"]), sc["value"], str(sc["relation"]))
            for sc in data.get("side_conditions", [])
        ),
        tuple(data["oracle"][k] for k in ("prime", "seed", "trials")) if "oracle" in data else None,
    )


def _node_sharer() -> Callable[[dict], dict]:
    """An ``object_hook`` for one ``json.loads``: a JSON object with a
    ``"children"`` list comes back as the first equal object already built.

    Objects are equal when their children are the same objects and their
    other fields, in order, marshal to the same bytes.  Marshal format 2
    writes each value with its type and each float in binary, which keeps
    ``1``, ``1.0``, ``true``, ``"1"``, ``-0.0`` and ``0.0`` apart, and it
    writes no back-references, so its bytes depend on the value alone; it
    is about twice as fast as ``repr``.  The hook is called on each object
    after the objects inside it, so a repeated subtree is shared from its
    leaves up and its copy is dropped as soon as it is built.  Every id in
    a key belongs to an object that the stored object holds, so no id is
    reused while the hook lives.  An object the hook cannot key comes back
    unshared, for the reader to judge; only the call itself can fail, when
    it tips the recursion limit (see :func:`certificate_from_json`)."""
    seen: dict[tuple, dict] = {}

    def share(obj: dict) -> dict:
        children = obj.get("children")
        if type(children) is not list:
            return obj
        try:
            own = marshal.dumps({k: v for k, v in obj.items() if k != "children"}, 2)
        except (ValueError, RecursionError):
            return obj
        return seen.setdefault((own, *map(id, children)), obj)

    return share


class _Reader:
    """One read.  Equal subtrees come back as one shared node, as the
    generator builds them; each distinct system text is parsed once, and
    each distinct raw spelling of a node's own fields is converted once.
    Each JSON object is read once: an object that occurs at many places in
    the parsed tree (see :func:`_node_sharer`) costs one conversion, then
    one depth check at each further place."""

    def __init__(self) -> None:
        self.systems: dict[str, LinearSystem] = {}
        # raw own fields -> (claim, rule, sides, stamp, own id)
        self.fields: dict[tuple, tuple] = {}
        # converted own fields -> own id; "3" and 3 as a claim value share one
        self.own_ids: dict[tuple, int] = {}
        self.nodes: dict[tuple, ProofNode] = {}
        # id of a JSON object read in full -> its node; the parsed tree holds every such object
        self.objects: dict[int, ProofNode] = {}

    def node(self, data: dict, depth: int) -> ProofNode:
        if depth > MAX_DEPTH:
            raise FatpointsError(f"certificate deeper than {MAX_DEPTH} levels")
        node = self.objects.get(id(data))
        if node is not None:
            # read without error before; only its deepest leaf may now lie too deep
            if depth + node.height - 1 > MAX_DEPTH:
                raise FatpointsError(f"certificate deeper than {MAX_DEPTH} levels")
            return node
        try:
            raw = _raw_fields(data)
            own = self.fields.get(raw)
        except Exception:
            # malformed or unhashable: converted below, which refuses it as it always has
            raw = own = None
        if own is None:
            converted = self._convert(data)
            own = (*converted[:4], self.own_ids.setdefault(converted, len(self.own_ids)))
            if raw is not None:
                self.fields[raw] = own
        claim, rule, sides, oracle, own_id = own
        children = tuple([self.node(c, depth + 1) for c in data.get("children", [])])
        key = (own_id, tuple(map(id, children)))
        node = self.nodes.get(key)
        if node is None:
            params = dict(data.get("params", {}))
            node = self.nodes[key] = ProofNode(claim, rule, params, sides, children, oracle)
        self.objects[id(data)] = node
        return node

    def _convert(self, data: dict) -> tuple:
        """(claim, rule, sides, stamp, typed params), validated in the order
        claim, stamp, params, rule, sides."""
        text = str(data["claim"]["system"])
        system = self.systems.get(text)
        if system is None:
            system = self.systems[text] = LinearSystem.parse(text)
        claim = Claim(
            system=system,
            assertion=data["claim"]["assert"],
            value=None if data["claim"].get("value") is None else int(data["claim"]["value"]),
        )
        oracle = None
        if "oracle" in data:
            oracle = OracleStamp(
                prime=int(data["oracle"]["prime"]),
                seed=int(data["oracle"]["seed"]),
                trials=int(data["oracle"]["trials"]),
            )
        params = dict(data.get("params", {}))
        if any(isinstance(v, (list, dict)) for v in params.values()):
            raise FatpointsError("rule parameters are scalars")
        rule = str(data["rule"])
        sides = tuple(
            SideCondition(str(sc["name"]), int(sc["value"]), str(sc["relation"]))
            for sc in data.get("side_conditions", [])
        )
        # the JSON type keeps 1, 1.0 and true apart: each reads and writes back differently
        typed_params = tuple(sorted((k, type(v), v) for k, v in params.items()))
        return claim, rule, sides, oracle, typed_params


def certificate_to_json(root: ProofNode) -> str:
    """Stable, byte-reproducible encoding (sorted keys, fixed separators).

    With sorted keys a node's text is ``{"children":[``, its children's
    texts joined by commas, then its tail (:func:`_tail`).  A shared
    subtree is written in full wherever it occurs, but its tail is encoded
    once per call."""
    # no node lies below itself, so the root's tail is the only one with the version
    tails = {id(root): _tail(root, CERTIFICATE_VERSION)}
    parts: list[str] = []

    def write(node: ProofNode) -> None:
        parts.append('{"children":[')
        for i, child in enumerate(node.children):
            if i:
                parts.append(",")
            write(child)
        tail = tails.get(id(node))
        if tail is None:
            tail = tails[id(node)] = _tail(node)
        parts.append(tail)

    write(root)
    parts.append("\n")  # joined once: a large file is not copied again
    return "".join(parts)


def certificate_from_json(text: str) -> ProofNode:
    """Read a certificate; see :class:`_Reader` for what is shared.

    Equal node objects are shared while ``json.loads`` builds them
    (:func:`_node_sharer`), and each is converted and checked once, so a
    read holds the text plus the distinct nodes, never the expanded tree
    that a v1 file spells out."""
    try:
        try:
            data = json.loads(text, object_hook=_node_sharer())
        except RecursionError:
            # the hook's own frame can tip a parse that just fits; the plain parse decides
            data = json.loads(text)
    except RecursionError as exc:
        raise FatpointsError("certificate nested too deeply to parse") from exc
    if not isinstance(data, dict):
        raise FatpointsError("a certificate is a JSON object")
    version = data.get("version")
    if version != CERTIFICATE_VERSION:
        raise FatpointsError(f"unsupported certificate version {version!r}")
    return _Reader().node(data, 1)


# ---------------------------------------------------------------------------
# narration
# ---------------------------------------------------------------------------

_RULE_NOTES = {
    "TABLE": "classification table row",
    "CLOSED_FORM": "closed form",
    "ORACLE": "finite-field rank oracle",
    "MONOTONE_DOWN": "conditions stay independent after removing some of them",
    "EMPTY_UP": "an empty system stays empty under extra conditions",
    "CASTELNUOVO": "restriction to a hyperplane through specialized points",
    "DEG1": "two-component degeneration, b nodes on the exceptional component",
    "DEG2": "second degeneration: beta of the b nodes slide into the intersection",
    "QUARTIC_R3": "(1,4)-degeneration of quartic surfaces",
    "QUARTIC_R4": "(1,8)-degeneration of quartic threefolds",
    "QUARTIC_GEN": "(1, n-r-1)-degeneration with complete restricted series on P",
    "CUBIC_BASE": "cubic base case over random general subspaces",
    "CUBIC_STEP": "cubic induction via a codimension-3 subspace degeneration",
}


def explain(root: ProofNode) -> str:
    """Human-readable narration of a certificate, one node per line."""
    lines: list[str] = []

    def walk(node: ProofNode, depth: int) -> None:
        indent = "  " * depth
        note = _RULE_NOTES.get(node.rule, "")
        if node.rule == "TABLE":
            s = node.claim.system
            verdict = classify(s.r, s.d, s.point_count(2))
            note += f" ({verdict.exception_tag})"
        params = ""
        if node.params:
            params = " (" + ", ".join(f"{k}={v}" for k, v in sorted(node.params.items())) + ")"
        lines.append(f"{indent}- {node.claim.describe()}  [{node.rule}{params}] {note}")
        if node.side_conditions:
            conds = "; ".join(
                f"{sc.name}={sc.value} ({sc.relation})" for sc in node.side_conditions
            )
            lines.append(f"{indent}    side conditions: {conds}")
        if node.oracle is not None:
            lines.append(
                f"{indent}    oracle: prime={node.oracle.prime} seed={node.oracle.seed} "
                f"trials={node.oracle.trials}"
            )
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines) + "\n"

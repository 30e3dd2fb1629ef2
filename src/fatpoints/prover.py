"""Certificate generator for the Alexander-Hirschowitz verdicts.

``prove(r, d, n)`` builds a proof tree for the dimension of the system of n
double points in degree d on P^r.  Dispatch order: classification table and
closed forms, then the degree-specific tracks (cubics via the codimension-3
subspace induction, quartics via (1, b)-degenerations, degree >= 5 via the
first or second point degeneration depending on whether r divides
C(r+d-1, r-1)), with node-count monotonicity bridging away from the critical
counts n^- and n^+.  Any goal whose rule chain fails falls back to a
finite-field oracle leaf when the column budget allows; otherwise proving
fails with the first unsatisfiable side condition named.

Side conditions and child shapes are derived, and each node is checked, by
the same rule semantics the independent verifier uses
(:func:`fatpoints.certificates.check_application`), and each rule instance
is derived once.  For the (1, b)-degenerations
(DEG1, DEG2 and the quartic rules) and the cubic rules (CUBIC_BASE,
CUBIC_STEP) the prover only chooses the rule and its parameters, or the
track that :func:`fatpoints.certificates.cubic_track` finds, then proves the
children that :func:`fatpoints.certificates.derive_application` names; past
a rigid exception row of the classification table it reads the row from
:data:`fatpoints.systems.SPORADIC_EXCEPTIONS`.
"""

from __future__ import annotations

from .certificates import (
    EMPTY,
    MAX_DEPTH,
    Claim,
    OracleStamp,
    ProofNode,
    RuleApplication,
    RuleViolation,
    check_application,
    cubic_rule,
    cubic_track,
    derive_application,
    quartic_rule,
)
from .combinatorics import b0_decompose, gamma_r, n_bounds
from .errors import FatpointsError
from .oracle import FieldConfig, derive_seed, dimension
from .presets import ah3_system
from .systems import SPORADIC_EXCEPTIONS, LinearSystem, classify


class ProveError(FatpointsError):
    """No certificate could be produced; the message names the obstruction."""


class Prover:
    def __init__(self, cfg: FieldConfig | None = None):
        self.cfg = cfg or FieldConfig()
        self._memo: dict[tuple[str, str], ProofNode] = {}

    # -- node assembly -------------------------------------------------------

    def _make(
        self,
        claim: Claim,
        rule: str,
        params: dict,
        children: tuple[ProofNode, ...] = (),
        oracle: OracleStamp | None = None,
        app: RuleApplication | None = None,
    ) -> ProofNode:
        """The checked node; ``app`` is the rule instance when the caller
        has derived it already."""
        try:
            if app is None:
                app = derive_application(claim, rule, params)
            check_application(claim, rule, app, children)
        except (RuleViolation, ValueError) as exc:
            raise ProveError(f"{rule} on {claim.describe()}: {exc}") from exc
        return ProofNode(claim, rule, dict(params), app.sides, children, oracle)

    def _with_assertion(self, node: ProofNode, assertion: str) -> ProofNode:
        claim = Claim(node.claim.system, assertion)
        if claim.known_dim() != node.claim.known_dim():
            raise ProveError("assertion change would alter the claimed dimension")
        return self._make(claim, node.rule, node.params, node.children, node.oracle)

    def _oracle_leaf(self, sys: LinearSystem, assertion: str) -> ProofNode:
        def build() -> ProofNode:
            stamp = OracleStamp(
                prime=self.cfg.prime, seed=derive_seed(self.cfg.seed, sys), trials=self.cfg.trials
            )
            # raises BudgetError when too wide
            report = dimension(sys, stamp.run_config(self.cfg), stop_at_ceiling=True)
            claim = Claim(sys, assertion)
            if report.dim != claim.known_dim():
                raise ProveError(
                    f"oracle found dim {report.dim} for {sys}, cannot certify "
                    f"{claim.describe()!r}"
                )
            return self._make(claim, "ORACLE", {}, (), stamp)

        return self._memoized((str(sys), f"oracle:{assertion}"), build)

    def _closed_form(
        self, sys: LinearSystem, family: str, assertion: str, value: int | None = None
    ) -> ProofNode:
        return self._make(Claim(sys, assertion, value), "CLOSED_FORM", {"family": family})

    def _memoized(self, key: tuple[str, str], build) -> ProofNode:
        if key in self._memo:
            return self._memo[key]
        node = build()
        self._memo[key] = node
        return node

    def _guard(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise ProveError("proof depth budget exhausted")
        return depth + 1

    # -- verdict goals -------------------------------------------------------

    def prove(self, r: int, d: int, n: int) -> ProofNode:
        if r < 2:
            raise ProveError(f"need r >= 2, got {r}")
        if d < 2:
            raise ProveError(f"degree {d} systems are fully classical; nothing to prove")
        if n < 0:
            raise ProveError(f"need n >= 0, got {n}")
        root = self._verdict(r, d, n, 0)
        # the memo reuses a subtree built near the root deeper down, past _guard
        if root.height > MAX_DEPTH:
            raise ProveError(f"certificate deeper than {MAX_DEPTH} levels, which verify refuses")
        return root

    def _verdict(self, r: int, d: int, n: int, depth: int) -> ProofNode:
        depth = self._guard(depth)
        sys = LinearSystem.nodes(r, d, n)
        return self._memoized((str(sys), "verdict"), lambda: self._verdict_build(r, d, n, sys, depth))

    def _verdict_build(self, r: int, d: int, n: int, sys: LinearSystem, depth: int) -> ProofNode:
        verdict = classify(r, d, n)
        if verdict.is_exception:
            return self._make(
                Claim(sys, "dim", verdict.closed_form_dim), "TABLE", {}
            )
        try:
            return self._verdict_rules(r, d, n, sys, depth)
        except ProveError:
            if sys.monomial_count() <= self.cfg.max_columns:
                return self._oracle_leaf(sys, "non_special")
            raise

    def _verdict_rules(self, r: int, d: int, n: int, sys: LinearSystem, depth: int) -> ProofNode:
        if n == 0:
            return self._closed_form(sys, "complete", "non_special")
        if r == 2:
            return self._closed_form(sys, "planar", "non_special")
        if d == 2:
            return self._closed_form(sys, "quadric", "non_special")

        nlo, nhi = n_bounds(r, d)
        if n < nlo:
            anchor = self._h1_anchor(r, d, depth)
            anchor_n = anchor.claim.system.point_count(2)
            if n == anchor_n:
                return anchor
            return self._monotone_down(sys, anchor)
        if n > nhi:
            return self._with_assertion(self._empty(r, d, n, depth), "non_special")
        if d == 3:
            return self._cubic_verdict(r, n, sys, depth)
        if d == 4:
            return self._quartic_verdict(r, n, sys, depth)
        return self._deg(r, d, n, depth)

    def _h1_anchor(self, r: int, d: int, depth: int) -> ProofNode:
        """Largest node count below n^- carrying an independent-conditions
        claim; n^- itself except where n^- is an exception row."""
        nlo = n_bounds(r, d)[0]
        if (r, d) == (4, 3):
            return self._castelnuovo_p4_cubics(depth)
        if (r, d) == (4, 4):
            return self._quartic_verdict(4, 13, LinearSystem.nodes(4, 4, 13), depth)
        return self._verdict(r, d, nlo, depth)

    def _castelnuovo_p4_cubics(self, depth: int) -> ProofNode:
        """L_{4,3}(2^6) via hyperplane restriction: quadric kernel plus the
        empty trace L_{3,3}(2^5)."""
        depth = self._guard(depth)
        sys = LinearSystem.nodes(4, 3, 6)

        def build() -> ProofNode:
            claim, params = Claim(sys, "non_special"), {"h": 5, "top": False}
            app = derive_application(claim, "CASTELNUOVO", params)
            (kernel, _), (trace, _) = app.children
            k_node = self._closed_form(kernel, "quadric", "dim", kernel.virtual_dim())
            children = (k_node, self._induction(trace, depth))
            return self._make(claim, "CASTELNUOVO", params, children, app=app)

        return self._memoized((str(sys), "verdict"), build)

    # -- degree >= 5: the two degenerations -----------------------------------

    def _deg(self, r: int, d: int, n: int, depth: int) -> ProofNode:
        depth = self._guard(depth)
        sys = LinearSystem.nodes(r, d, n)
        b0, beta = b0_decompose(r, d)
        if beta == 0:
            return self._degenerate(sys, "DEG1", {"b": b0}, depth)
        return self._degenerate(sys, "DEG2", {"b": b0 + beta, "beta": beta}, depth)

    def _degenerate(self, sys: LinearSystem, rule: str, params: dict, depth: int) -> ProofNode:
        """Apply a (1, b)-degeneration: prove the children its rule checker
        derives, emptiness goals as such and the rest as verdicts."""
        claim = Claim(sys, "non_special")
        try:
            app = derive_application(claim, rule, params)
        except (RuleViolation, ValueError) as exc:
            raise ProveError(f"{rule} on {claim.describe()}: {exc}") from exc
        children = tuple(
            (self._empty if req == EMPTY else self._verdict)(s.r, s.d, s.point_count(2), depth)
            for s, req in app.children
        )
        return self._make(claim, rule, params, children, app=app)

    # -- quartics -------------------------------------------------------------

    def _quartic_verdict(self, r: int, n: int, sys: LinearSystem, depth: int) -> ProofNode:
        depth = self._guard(depth)
        return self._memoized(
            (str(sys), "verdict"),
            lambda: self._degenerate(sys, quartic_rule(r), {"b": n - r - 1}, depth),
        )

    # -- cubics ---------------------------------------------------------------

    def _cubic_verdict(self, r: int, n: int, sys: LinearSystem, depth: int) -> ProofNode:
        depth = self._guard(depth)
        gamma = gamma_r(r)
        nlo, nhi = n_bounds(r, 3)
        if gamma == 0:
            return self._with_assertion(self._induction(ah3_system(r), depth), "non_special")
        if n == nlo:
            return self._monotone_down(sys, self._induction(ah3_system(r), depth))
        # n = n^+ = n^- + 1 < n^- + gamma: the only verdicts the subspace
        # induction does not reach; settled by the oracle at desk scale
        return self._oracle_leaf(sys, "non_special")

    def _induction(self, sys: LinearSystem, depth: int) -> ProofNode:
        """An emptiness goal of the cubic induction: a track node over the
        children its rule checker derives, else a planar closed form or an
        oracle leaf."""
        depth = self._guard(depth)

        def build() -> ProofNode:
            track = cubic_track(sys)
            if track is not None:
                claim = Claim(sys, "empty")
                rule = cubic_rule(sys.r)
                app = derive_application(claim, rule, {"track": track})
                children = tuple(self._induction(s, depth) for s, _req in app.children)
                return self._make(claim, rule, {"track": track}, children, app=app)
            if sys.r == 2:
                return self._closed_form(sys, "planar", "empty")
            return self._oracle_leaf(sys, "empty")

        return self._memoized((str(sys), "empty"), build)

    # -- emptiness goals ------------------------------------------------------

    def _empty(self, r: int, d: int, n: int, depth: int) -> ProofNode:
        depth = self._guard(depth)
        sys = LinearSystem.nodes(r, d, n)
        return self._memoized((str(sys), "empty"), lambda: self._empty_build(r, d, n, sys, depth))

    def _empty_build(self, r: int, d: int, n: int, sys: LinearSystem, depth: int) -> ProofNode:
        if sys.virtual_dim() > -1:
            raise ProveError(f"{sys} has virtual dimension > -1; not empty")
        try:
            return self._empty_rules(r, d, n, sys, depth)
        except ProveError:
            if sys.monomial_count() <= self.cfg.max_columns:
                return self._oracle_leaf(sys, "empty")
            raise

    def _empty_rules(self, r: int, d: int, n: int, sys: LinearSystem, depth: int) -> ProofNode:
        # every caller has r >= 3: planar goals end in a closed form in _verdict_rules
        if d == 2:
            return self._closed_form(sys, "quadric", "empty")
        # past a rigid (dim 0) exception row, one more node empties the system
        rigid = [
            m
            for (kr, kd, m), (_tag, dim) in SPORADIC_EXCEPTIONS.items()
            if (kr, kd, dim) == (r, d, 0)
        ]
        if rigid:
            return self._rigid_empty_up(sys, rigid[0])
        if d == 3:
            return self._cubic_empty(r, n, sys, depth)
        nlo, nhi = n_bounds(r, d)
        if n == nhi:
            return self._verdict(r, d, nhi, depth)
        if n > nhi:
            base = self._empty(r, d, nhi, depth)
            return self._empty_up(sys, base)
        raise ProveError(f"{sys}: node count below n^+; emptiness does not hold")

    def _monotone_down(self, sys: LinearSystem, parent: ProofNode) -> ProofNode:
        return self._make(
            Claim(sys, "non_special"),
            "MONOTONE_DOWN",
            {"parent": str(parent.claim.system)},
            (parent,),
        )

    def _empty_up(self, sys: LinearSystem, base: ProofNode) -> ProofNode:
        return self._make(
            Claim(sys, "empty"),
            "EMPTY_UP",
            {"via": "dominance", "base": str(base.claim.system)},
            (base,),
        )

    def _rigid_empty_up(self, sys: LinearSystem, m: int) -> ProofNode:
        if sys.point_count(2) <= m:
            raise ProveError(f"{sys}: not empty ({m} nodes give a rigid exception row)")
        base_sys = LinearSystem.nodes(sys.r, sys.d, m)
        base = self._make(Claim(base_sys, "dim", 0), "TABLE", {})
        return self._make(
            Claim(sys, "empty"),
            "EMPTY_UP",
            {"via": "unique_divisor", "base": str(base_sys)},
            (base,),
        )

    def _cubic_empty(self, r: int, n: int, sys: LinearSystem, depth: int) -> ProofNode:
        gamma = gamma_r(r)
        nlo, nhi = n_bounds(r, 3)
        if gamma == 0:
            if n < nlo:
                raise ProveError(f"{sys}: not empty")
            node = self._induction(ah3_system(r), depth)
            return node if n == nlo else self._empty_up(sys, node)
        if n >= nlo + gamma:
            return self._empty_up(sys, self._induction(ah3_system(r), depth))
        if n == nhi:
            return self._oracle_leaf(sys, "empty")
        if n > nhi:
            return self._empty_up(sys, self._oracle_leaf(LinearSystem.nodes(r, 3, nhi), "empty"))
        raise ProveError(f"{sys}: node count below n^+; emptiness does not hold")


def prove(r: int, d: int, n: int, cfg: FieldConfig | None = None) -> ProofNode:
    """Certificate for the dimension of n double points in degree d on P^r."""
    return Prover(cfg).prove(r, d, n)

from dataclasses import replace

import pytest

import fatpoints.certificates as certs_mod
import fatpoints.prover as prover_mod
from fatpoints import (
    Claim,
    FieldConfig,
    LinearSystem,
    ProofNode,
    ProveError,
    Prover,
    SideCondition,
    dimension,
    n_bounds,
    planar_dim,
    prove,
    quadric_dim,
    verify,
)


def collect(node, acc=None):
    acc = acc if acc is not None else []
    acc.append(node)
    for c in node.children:
        collect(c, acc)
    return acc


def test_prove_3_5_14_structure(prover):
    cert = prover.prove(3, 5, 14)
    assert cert.rule == "DEG1" and cert.params == {"b": 7}
    systems = [str(c.claim.system) for c in cert.children]
    assert systems == ["L(r=2,d=5; 2^7)", "L(r=3,d=4; 2^7)", "L(r=3,d=3; 2^7)"]
    # the quartic child reaches the (3,4,8) degeneration; the cubic child
    # climbs from the five-node base
    quartic = cert.children[1]
    assert quartic.rule == "MONOTONE_DOWN"
    assert quartic.children[0].rule == "QUARTIC_R3"
    cubic = cert.children[2]
    assert cubic.rule == "EMPTY_UP"
    assert str(cubic.children[0].claim.system) == "L(r=3,d=3; 2^5)"
    assert verify(cert).accepted


def test_prove_table_leaves(prover):
    for (r, d, n), dim in [((2, 4, 5), 0), ((4, 3, 7), 0), ((4, 4, 14), 0), ((3, 2, 2), 2)]:
        cert = prover.prove(r, d, n)
        assert cert.rule == "TABLE"
        assert cert.claim.assertion == "dim" and cert.claim.value == dim


def test_prove_cubic_chain(prover):
    cert = prover.prove(5, 3, 9)
    assert cert.rule == "MONOTONE_DOWN"
    base = cert.children[0]
    assert base.rule == "CUBIC_BASE" and base.params["track"] == "main"
    leaf_rules = {n.rule for n in collect(base)}
    assert "ORACLE" in leaf_rules
    assert verify(cert).accepted


def test_prove_p7_track(prover):
    cert = prover.prove(7, 3, 15)
    nodes = collect(cert)
    tracks = {n.params.get("track") for n in nodes if n.rule == "CUBIC_BASE"}
    assert {"p7", "p7_matching", "p7_k1"} <= tracks
    assert verify(cert).accepted


def test_cubic_step_only_from_r8(prover):
    for r in (8, 9, 10, 11):
        n = n_bounds(r, 3)[0]
        cert = prover.prove(r, 3, n)
        for node in collect(cert):
            if node.rule == "CUBIC_STEP" and node.params.get("track") == "main":
                assert node.claim.system.r >= 8
            if node.params.get("track") == "p7":
                assert node.claim.system.r == 7


def test_deg2_on_beta_one(prover):
    cert = prover.prove(3, 6, 21)
    assert cert.rule == "DEG2" and cert.params == {"b": 10, "beta": 1}
    assert [str(c.claim.system) for c in cert.children] == [
        "L(r=2,d=6; 2^9)",
        "L(r=3,d=5; 2^12)",
        "L(r=3,d=4; 2^11)",
    ]
    assert verify(cert).accepted


def test_quartic_gen(prover):
    cert = prover.prove(5, 4, 21)
    assert cert.rule == "QUARTIC_GEN" and cert.params == {"b": 15}
    assert verify(cert).accepted


def test_p4_cubics_below_exception(prover):
    cert = prover.prove(4, 3, 6)
    assert cert.rule == "CASTELNUOVO" and cert.params["h"] == 5
    assert verify(cert).accepted
    lower = prover.prove(4, 3, 5)
    assert lower.rule == "MONOTONE_DOWN"
    assert verify(lower).accepted


def test_monotone_and_empty_bridges(prover):
    low = prover.prove(3, 5, 3)
    assert low.rule == "MONOTONE_DOWN"
    high = prover.prove(3, 5, 30)
    assert high.rule == "EMPTY_UP" and high.claim.assertion == "non_special"
    assert verify(low).accepted and verify(high).accepted


def test_memoization_shares_subgoals():
    prover = Prover(FieldConfig())
    a = prover.prove(3, 5, 14)
    b = prover.prove(3, 5, 14)
    assert a is b
    c = prover.prove(3, 5, 13)
    assert c.children[0] is not None
    # the cubic base leaf is shared across different goals
    base1 = [n for n in collect(a) if str(n.claim.system) == "L(r=3,d=3; 2^5)"]
    base2 = [n for n in collect(prover.prove(3, 3, 5)) if str(n.claim.system) == "L(r=3,d=3; 2^5)"]
    assert any(x is y for x in base1 for y in base2)


def test_prove_rejects_degenerate_inputs():
    with pytest.raises(ProveError):
        prove(1, 5, 3)
    with pytest.raises(ProveError):
        prove(3, 1, 3)


def test_prove_d2_closed_forms(prover):
    cert = prover.prove(5, 2, 7)
    assert cert.rule == "CLOSED_FORM" and cert.params["family"] == "quadric"
    assert verify(cert).accepted
    # n >= r + 3 nodes, where C(r - n + 2, 2) has a negative top: still dim -1
    assert quadric_dim(2, 5) == quadric_dim(3, 9, simple=2) == planar_dim(2, 5) == -1
    for (r, n), cfg in [((2, 9), FieldConfig()), ((80, 83), FieldConfig(max_columns=3000))]:
        cert = Prover(cfg).prove(r, 2, n)
        assert cert.rule == "CLOSED_FORM" and cert.claim.known_dim() == -1, (r, n)
        assert verify(cert, cfg).accepted, (r, n)


def test_prover_emits_only_catalog_variants(prover):
    used = set()
    for r in range(2, 6):
        for d in range(2, 7):
            for n in range(n_bounds(r, d)[1] + 2):
                for node in collect(prover.prove(r, d, n)):
                    if node.rule in ("CLOSED_FORM", "CASTELNUOVO"):
                        used.add((node.rule, node.params.get("family"), node.params.get("top")))
    assert used == {
        ("CLOSED_FORM", "complete", None),
        ("CLOSED_FORM", "planar", None),
        ("CLOSED_FORM", "quadric", None),
        ("CASTELNUOVO", None, False),
    }

    complete = prover.prove(3, 5, 0)
    assert complete.rule == "CLOSED_FORM" and complete.params == {"family": "complete"}
    assert verify(complete).accepted

    # variants the prover never emits are refused, even when otherwise sound
    simple = LinearSystem.parse("L(r=3,d=5; 1^4)")
    leaf = ProofNode(
        claim=Claim(simple, "dim", simple.virtual_dim()),
        rule="CLOSED_FORM",
        params={"family": "simple_points"},
        side_conditions=(
            SideCondition("max_multiplicity", 1, "<= 1"),
            SideCondition("closed_dim", simple.virtual_dim(), ">= -1"),
        ),
    )
    res = verify(leaf)
    assert not res.accepted and "unknown closed-form family" in res.reason
    split = prover.prove(4, 3, 6)
    assert split.rule == "CASTELNUOVO" and verify(split).accepted
    res = verify(replace(split, params={**split.params, "top": True}))
    assert not res.accepted and "double points only" in res.reason


def test_quartic_nodes_take_the_catalog_rule(prover):
    seen = set()
    for r in range(3, 8):
        for n in range(n_bounds(r, 4)[1] + 2):
            for node in collect(prover.prove(r, 4, n)):
                if node.rule.startswith("QUARTIC"):
                    assert node.rule == certs_mod.quartic_rule(node.claim.system.r), node
                    seen.add(node.rule)
    assert seen == {"QUARTIC_R3", "QUARTIC_R4", "QUARTIC_GEN"}


def test_certified_verdict_matches_oracle_sample(prover, cfg):
    # certificate vs oracle double-check on a small sample across tracks
    for (r, d, n) in [(3, 5, 14), (3, 6, 21), (4, 4, 14), (4, 4, 13), (5, 4, 21),
                      (5, 3, 9), (5, 3, 10), (6, 3, 12), (4, 5, 25), (4, 5, 26)]:
        cert = prover.prove(r, d, n)
        rep = dimension(LinearSystem.nodes(r, d, n), cfg)
        assert cert.claim.known_dim() == rep.dim, (r, d, n)


def test_failure_on_budget():
    from fatpoints.errors import BudgetError

    prover = Prover(FieldConfig(max_columns=30))
    with pytest.raises(BudgetError):
        # budget forbids the oracle leaf the cubic gap verdict needs
        prover.prove(5, 3, 10)


def test_failure_names_obstruction():
    # asking for emptiness of a virtually nonempty system fails loudly
    prover = Prover(FieldConfig())
    with pytest.raises(ProveError, match="virtual dimension"):
        prover._empty(3, 5, 10, 0)


def test_prove_refuses_tree_deeper_than_verifier_reads(monkeypatch):
    # the memo reuses shallow subtrees deeper down, past the recursion guard
    monkeypatch.setattr(certs_mod, "MAX_DEPTH", 16)
    monkeypatch.setattr(prover_mod, "MAX_DEPTH", 16)
    with pytest.raises(ProveError, match="deeper than 16 levels"):
        Prover().prove(13, 5, 612)


def test_prover_derives_each_rule_application_once(monkeypatch):
    rules = []
    real = certs_mod.derive_application

    def spy(claim, rule, params):
        rules.append(rule)
        return real(claim, rule, params)

    monkeypatch.setattr(certs_mod, "derive_application", spy)
    monkeypatch.setattr(prover_mod, "derive_application", spy)
    root = Prover().prove(10, 3, 26)
    assert len({id(node) for node in collect(root)}) == 19
    assert len(rules) == 20

import hashlib
import inspect
import json
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import fatpoints.certificates as certs_mod
from fatpoints import (
    Claim,
    FieldConfig,
    LinearSystem,
    ProofNode,
    Prover,
    SideCondition,
    binom,
    certificate_from_json,
    certificate_to_json,
    explain,
    limit_dim,
    prove,
    transversal_intersection_dim,
    verify,
)
from fatpoints.certificates import (
    EMPTY,
    H1_ZERO,
    OracleStamp,
    RuleViolation,
    VerifyResult,
    claim_implies,
    derive_application,
)
from fatpoints.errors import BudgetError, FatpointsError


def test_claim_dim_semantics():
    s = LinearSystem.nodes(3, 3, 5)  # v = -1
    assert Claim(s, "empty").known_dim() == -1
    assert Claim(s, "non_special").known_dim() == -1
    assert Claim(s, "dim", 2).known_dim() == 2
    assert Claim(s, "empty").gives_h1_zero()  # v = -1 and dim = -1
    big = LinearSystem.nodes(3, 3, 9)  # v < -1
    assert not Claim(big, "empty").gives_h1_zero()
    with pytest.raises(ValueError):
        Claim(s, "dim")  # missing value
    with pytest.raises(ValueError):
        Claim(s, "empty", 3)


def test_claim_implies():
    s = LinearSystem.nodes(3, 4, 8)  # v = 2
    c = Claim(s, "non_special")
    assert claim_implies(c, "h1_zero")
    assert claim_implies(c, ("dim", 2))
    assert not claim_implies(c, "empty")
    empty9 = Claim(LinearSystem.nodes(3, 3, 9), "empty")
    assert claim_implies(empty9, "empty")
    assert not claim_implies(empty9, "h1_zero")  # v < -1: h^1 > 0


def test_roundtrip_and_schema(prover):
    cert = prover.prove(3, 5, 14)
    text = certificate_to_json(cert)
    data = json.loads(text)
    assert data["version"] == 1
    assert set(data) == {"version", "claim", "rule", "params", "side_conditions", "children"}
    assert set(data["claim"]) == {"system", "assert", "value"}
    oracle_nodes = []

    def walk(nd):
        if "oracle" in nd:
            oracle_nodes.append(nd)
            assert set(nd["oracle"]) == {"prime", "seed", "trials"}
        for ch in nd.get("children", []):
            walk(ch)

    walk(data)
    assert oracle_nodes, "expected at least one oracle leaf"
    back = certificate_from_json(text)
    assert back == cert
    assert certificate_to_json(back) == text


def test_version_gate(prover):
    data = json.loads(certificate_to_json(prover.prove(2, 4, 5)))
    data["version"] = 99
    with pytest.raises(FatpointsError):
        certificate_from_json(json.dumps(data))


def test_tampered_side_condition_named(prover):
    cert = prover.prove(3, 5, 14)
    data = json.loads(certificate_to_json(cert))
    name = data["side_conditions"][1]["name"]
    data["side_conditions"][1]["value"] += 1
    res = verify(certificate_from_json(json.dumps(data)))
    assert not res.accepted
    assert name in res.reason


def _drop(sides):
    return sides.pop(1)["name"]


def _add(sides):
    sides.append({"name": "spare", "value": 0, "relation": "== 0"})
    return "spare"


def _rename(sides):
    name, sides[1]["name"] = sides[1]["name"], "renamed"
    return name


def _relate(sides):
    sides[1]["relation"] = "!= " + sides[1]["relation"].split()[1]
    return sides[1]["name"]


# a changed value is test_tampered_side_condition_named
@pytest.mark.parametrize("tamper", [_drop, _add, _rename, _relate])
def test_tampered_side_conditions_rejected_by_name(prover, tamper):
    data = json.loads(certificate_to_json(prover.prove(3, 5, 14)))
    name = tamper(data["side_conditions"])
    res = verify(certificate_from_json(json.dumps(data)))
    assert not res.accepted
    assert res.path == () and f"side condition {name!r}" in res.reason


def _derived_node(claim, rule, params, children=()):
    """A node that records the side conditions its rule derives."""
    return ProofNode(claim, rule, params, derive_application(claim, rule, params).sides, children)


def test_sound_child_that_misses_the_requirement_rejected():
    # the special plane quartic is soundly dim 0, but its five double points
    # impose dependent conditions, so removing one proves nothing
    special = _derived_node(Claim(LinearSystem.nodes(2, 4, 5), "dim", 0), "TABLE", {})
    assert verify(special).accepted
    down = _derived_node(Claim(LinearSystem.nodes(2, 4, 4), "non_special"), "MONOTONE_DOWN",
                         {"parent": str(special.claim.system)}, (special,))
    res = verify(down)
    assert not res.accepted and "does not imply requirement 'h1_zero'" in res.reason


def test_tampered_child_system_rejected(prover):
    cert = prover.prove(3, 5, 14)
    data = json.loads(certificate_to_json(cert))
    data["children"][0]["claim"]["system"] = "L(r=2,d=5; 2^6)"
    res = verify(certificate_from_json(json.dumps(data)))
    assert not res.accepted and "child 0" in res.reason


def test_oracle_leaf_claiming_nonempty_rejected():
    # an oracle leaf asserting dim 0 for the empty quintic-point system
    node = ProofNode(
        claim=Claim(LinearSystem.nodes(3, 3, 5), "dim", 0),
        rule="ORACLE",
        oracle=OracleStamp(prime=2**31 - 1, seed=12, trials=3),
    )
    res = verify(node)
    assert not res.accepted and "oracle re-run" in res.reason


def test_unknown_rule_rejected():
    node = ProofNode(claim=Claim(LinearSystem.nodes(3, 3, 5), "empty"), rule="MAGIC")
    res = verify(node)
    assert not res.accepted and "unknown rule" in res.reason


def test_leaf_rule_with_children_rejected(prover):
    inner = prover.prove(2, 4, 5)
    node = ProofNode(
        claim=Claim(LinearSystem.nodes(2, 4, 5), "dim", 0),
        rule="TABLE",
        side_conditions=(SideCondition("is_exception", 1, "== 1"),),
        children=(inner,),
    )
    res = verify(node)
    assert not res.accepted and "leaf rule" in res.reason


def test_rigid_empty_up_requires_dim_zero_row(prover):
    cert = prover.prove(3, 4, 11)  # EMPTY_UP over the nine-node quartic row
    assert verify(cert).accepted
    data = json.loads(certificate_to_json(cert))

    def find(nd):
        if nd["rule"] == "EMPTY_UP" and nd["params"].get("via") == "unique_divisor":
            return nd
        for ch in nd.get("children", []):
            got = find(ch)
            if got:
                return got

    nd = find(data)
    assert nd is not None
    nd["params"]["base"] = "L(r=3,d=4; 2^8)"  # not an exception row
    res = verify(certificate_from_json(json.dumps(data)))
    assert not res.accepted


def test_verifier_does_not_import_prover():
    src = inspect.getsource(certs_mod)
    assert "prover" not in src


def test_verifier_never_calls_prove(prover, monkeypatch):
    cert = prover.prove(5, 3, 9)
    import fatpoints.prover as prover_mod

    def boom(*a, **k):
        raise AssertionError("verify must not call prove")

    monkeypatch.setattr(prover_mod, "prove", boom)
    monkeypatch.setattr(prover_mod.Prover, "prove", boom)
    assert verify(cert).accepted


def test_explain_examples(prover):
    text = explain(prover.prove(3, 5, 14))
    assert "[DEG1 (b=7)]" in text
    assert "exceptional component" in text
    table = explain(prover.prove(4, 3, 7))
    assert "Cubic4" in table  # names the exception row
    cubic = explain(prover.prove(5, 3, 9))
    assert "CUBIC_BASE" in cubic and "oracle:" in cubic


def test_table_verifies_only_exception_rows():
    node = ProofNode(
        claim=Claim(LinearSystem.nodes(3, 5, 14), "dim", 0),
        rule="TABLE",
        side_conditions=(SideCondition("is_exception", 1, "== 1"),),
    )
    res = verify(node)
    assert not res.accepted and "not an exception row" in res.reason


def test_budget_propagates(prover):
    cert = prover.prove(5, 3, 10)  # contains an oracle leaf on 56 columns
    from fatpoints.errors import BudgetError

    with pytest.raises(BudgetError):
        verify(cert, FieldConfig(max_columns=10))


# together these certificates use every rule of the catalog
PINNED_KEYS = [
    (2, 4, 5), (3, 4, 8), (3, 4, 11), (4, 3, 6), (4, 4, 14), (3, 5, 14),
    (3, 6, 20), (5, 4, 21), (5, 3, 9), (8, 3, 18), (4, 6, 42),
]
PINNED_SHA256 = "8ebfef69ac20d2d0d8541a0d43e3ef6bb24dd2142fe25ff0a2a9865979193166"
EMITTED_RULES = {
    "TABLE", "CLOSED_FORM", "ORACLE", "MONOTONE_DOWN", "EMPTY_UP", "CASTELNUOVO",
    "DEG1", "DEG2", "QUARTIC_R3", "QUARTIC_R4", "QUARTIC_GEN", "CUBIC_BASE", "CUBIC_STEP",
}


def _rules(node, acc):
    acc.add(node.rule)
    for child in node.children:
        _rules(child, acc)
    return acc


def test_certificate_bytes_pinned():
    certs = [prove(*key) for key in PINNED_KEYS]
    text = "".join(certificate_to_json(c) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256
    used = set()
    for cert in certs:
        _rules(cert, used)
    assert used == EMITTED_RULES


# the cubic r = 3 emptiness, the three rigid rows, the quartic general tail,
# the cubic-gap EMPTY_UP over an oracle leaf and K1(3)
BRANCH_KEYS = [(3, 3, 6), (4, 3, 8), (4, 4, 15), (5, 4, 22), (8, 3, 20), (9, 3, 22)]
BRANCH_SHA256 = "cc8f112378a9488197390bfcc1a6bffea71260e0bfe8ff30d5df3690c3e80d42"


def test_rewritten_branch_bytes_pinned():
    text = "".join(certificate_to_json(prove(*key)) for key in BRANCH_KEYS)
    assert hashlib.sha256(text.encode()).hexdigest() == BRANCH_SHA256


# the P^7 round, and K1/K2 at r = 6, 7 below the r = 10 main track
CUBIC_TRACK_KEYS = [(7, 3, 15), (10, 3, 26)]
CUBIC_TRACK_SHA256 = "1dbe253ee4b22cef298151bae3964cb0d9b08d29430c2e20f5bba5c62d12cd74"
CUBIC_RULE_TRACKS = {
    ("CUBIC_BASE", "main"), ("CUBIC_STEP", "main"), ("CUBIC_STEP", "matching"),
    ("CUBIC_BASE", "k1"), ("CUBIC_STEP", "k1"), ("CUBIC_BASE", "k2"), ("CUBIC_STEP", "k2"),
    ("CUBIC_BASE", "p7"), ("CUBIC_BASE", "p7_matching"), ("CUBIC_BASE", "p7_k1"),
}


def _rule_tracks(node, acc):
    if node.rule.startswith("CUBIC_"):
        acc.add((node.rule, node.params["track"]))
    for child in node.children:
        _rule_tracks(child, acc)
    return acc


def test_cubic_track_bytes_pinned():
    certs = [prove(*key) for key in CUBIC_TRACK_KEYS]
    text = "".join(certificate_to_json(c) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == CUBIC_TRACK_SHA256
    used = set()
    for cert in certs + [prove(*key) for key in PINNED_KEYS + BRANCH_KEYS]:
        _rule_tracks(cert, used)
    assert used == CUBIC_RULE_TRACKS


def _edit_cubic_nodes(data, r, track, edit):
    """Apply ``edit`` to every CUBIC node of the JSON tree on P^r with this track."""
    if data["rule"].startswith("CUBIC_") and data["params"].get("track") == track:
        if LinearSystem.parse(data["claim"]["system"]).r == r:
            edit(data)
    for child in data["children"]:
        _edit_cubic_nodes(child, r, track, edit)


@pytest.mark.parametrize(
    "r, track, edit, reason",
    [
        (10, "k1", lambda n: n.update(rule="CUBIC_BASE"), "r = 10 takes CUBIC_STEP"),
        (7, "k2", lambda n: n.update(rule="CUBIC_STEP"), "r = 7 takes CUBIC_BASE"),
        (10, "main", lambda n: n["params"].pop("track"), "CUBIC_STEP needs a track"),
    ],
    ids=["k1_step_as_base", "k2_base_as_step", "main_without_track"],
)
def test_cubic_rule_name_follows_r(prover, r, track, edit, reason):
    data = json.loads(certificate_to_json(prover.prove(10, 3, 26)))
    before = json.dumps(data)
    _edit_cubic_nodes(data, r, track, edit)
    assert json.dumps(data) != before
    res = verify(certificate_from_json(json.dumps(data)))
    assert not res.accepted and reason in res.reason


def _sides(app):
    return {sc.name: sc.value for sc in app.sides}


def test_deg_children_derived_by_checker():
    # b nodes on the exceptional component F, n - b on P
    claim = Claim(LinearSystem.parse("L(r=3,d=5; 2^14)"), "non_special")
    app = derive_application(claim, "DEG1", {"b": 7})
    assert [(str(s), req) for s, req in app.children] == [
        ("L(r=2,d=5; 2^7)", H1_ZERO),
        ("L(r=3,d=4; 2^7)", H1_ZERO),
        ("L(r=3,d=3; 2^7)", EMPTY),
    ]
    sides = _sides(app)
    # degree-4 forms on the intersection P^2 of the two components
    ambient = binom(6, 2)
    assert ambient == 15
    dim_r = transversal_intersection_dim(sides["v_p"], ambient - 1 - 7, ambient)
    assert limit_dim(dim_r, -1, -1) - claim.system.expected_dim() == sides["l0_matches_expected"]
    assert sides["l0_matches_expected"] == 0 and sides["b_within_n"] == 14 - 7

    app2 = derive_application(
        Claim(LinearSystem.parse("L(r=3,d=6; 2^21)"), "non_special"), "DEG2", {"b": 10, "beta": 1}
    )
    assert [(str(s), req) for s, req in app2.children] == [
        ("L(r=2,d=6; 2^9)", H1_ZERO),
        ("L(r=3,d=5; 2^12)", H1_ZERO),
        ("L(r=3,d=4; 2^11)", EMPTY),
    ]
    # beta = 0 collapses onto the first degeneration's children
    app0 = derive_application(claim, "DEG2", {"b": 7, "beta": 0})
    assert app0.children == app.children


@pytest.mark.parametrize(
    "key, rule, params, reason",
    [
        ((3, 5, 14), "DEG1", {"b": 15}, "bad fat point"),  # b > n
        ((3, 6, 21), "DEG2", {"b": 22, "beta": 1}, "bad fat point"),  # b > n
        ((3, 6, 21), "DEG2", {"b": 10, "beta": 3}, "'beta_matches' fails"),  # beta >= r
    ],
    ids=["deg1_b_above_n", "deg2_b_above_n", "deg2_beta_at_r"],
)
def test_deg_params_out_of_range_rejected(prover, key, rule, params, reason):
    data = json.loads(certificate_to_json(prover.prove(*key)))
    assert data["rule"] == rule
    data["params"] = params
    res = verify(certificate_from_json(json.dumps(data)))
    assert not res.accepted and res.path == () and reason in res.reason


def test_rule_catalog_holds_only_emitted_rules():
    claim = Claim(LinearSystem.parse("L(r=3,d=5; 4, 2^3)"), "non_special")
    for rule in ("CONE", "LF_P2", "LF_P3", "LF_QUARTIC", "LF_GENERAL"):
        with pytest.raises(RuleViolation, match="unknown rule"):
            derive_application(claim, rule, {})
    for rule in EMITTED_RULES:
        try:
            derive_application(claim, rule, {})
        except (RuleViolation, ValueError, KeyError) as exc:
            assert "unknown rule" not in str(exc), rule
    # the childless lemma node that used to pass as an axiom
    res = verify(ProofNode(claim=claim, rule="LF_GENERAL"))
    assert not res.accepted and "unknown rule" in res.reason


@pytest.mark.parametrize(
    "system, value, seed",
    [("L(r=2,d=10; 2^21)", 3, 1)]
    + [("L(r=4,d=6; 2^42)", 0, seed) for seed in (8, 11, 37, 56, 74, 80)],
)
def test_oracle_leaf_proves_only_expected_dim(system, value, seed):
    # one trial mod 41 misses the rank ceiling at these seeds: the re-run
    # agrees with the false claim, which only the rule itself can refuse
    node = ProofNode(
        claim=Claim(LinearSystem.parse(system), "dim", value),
        rule="ORACLE",
        oracle=OracleStamp(prime=41, seed=seed, trials=1),
    )
    res = verify(node)
    assert not res.accepted and "claim not supported" in res.reason


def test_oracle_rerun_refutes_expected_dim_claim():
    # the special quartic system: claiming its expected dimension passes the
    # rule, and only the re-run finds the extra section
    node = ProofNode(
        claim=Claim(LinearSystem.parse("L(r=2,d=4; 2^5)"), "empty"),
        rule="ORACLE",
        oracle=OracleStamp(prime=2**31 - 1, seed=12, trials=3),
    )
    res = verify(node)
    assert not res.accepted and "oracle re-run found dim 0" in res.reason


def test_deep_certificate_rejected_when_read():
    leaf = {"claim": {"system": "L(r=2,d=2)", "assert": "non_special", "value": None},
            "rule": "CLOSED_FORM", "params": {"family": "complete"},
            "side_conditions": [{"name": "condition_count", "value": 0, "relation": "== 0"}]}
    node = dict(leaf, children=[])
    for _ in range(70):
        node = dict(leaf, children=[node])
    with pytest.raises(FatpointsError, match="deeper than"):
        certificate_from_json(json.dumps({"version": 1, **node}))


def test_oracle_stamp_with_unbounded_trials_rejected():
    # a stamp may not ask the verifier for more than MAX_TRIALS re-runs
    node = ProofNode(
        claim=Claim(LinearSystem.parse("L(r=3,d=5; 2^14)"), "non_special"),
        rule="ORACLE",
        oracle=OracleStamp(prime=2**31 - 1, seed=0, trials=10**7),
    )
    t0 = time.perf_counter()
    res = verify(node)
    assert time.perf_counter() - t0 < 1.0
    assert not res.accepted and "trials must be in" in res.reason


def test_deep_in_memory_tree_rejected():
    leaf = ProofNode(
        claim=Claim(LinearSystem.parse("L(r=2,d=2)"), "non_special"),
        rule="CLOSED_FORM",
        params={"family": "complete"},
    )
    node = leaf
    for _ in range(2000):
        node = ProofNode(claim=leaf.claim, rule="CLOSED_FORM", children=(node,))
    assert verify(node) == VerifyResult(False, "certificate deeper than 64 levels", ())


def _planar_chain(levels):
    """A sound tree of ``levels`` levels: L(r=2,d=19; 2^k) is non-special for
    k = 1..levels, each by MONOTONE_DOWN from k + 1, the last by its closed
    form (3 * 65 conditions still fit in the 210 sections)."""

    def claim(k):
        return Claim(LinearSystem.nodes(2, 19, k), "non_special")

    top = _derived_node(claim(levels), "CLOSED_FORM", {"family": "planar"})
    for k in range(levels - 1, 0, -1):
        top = _derived_node(claim(k), "MONOTONE_DOWN", {"parent": str(top.claim.system)}, (top,))
    return top


def test_depth_limit_read_from_node_heights():
    assert _planar_chain(64).height == 64
    assert verify(_planar_chain(64)).accepted
    chain = _planar_chain(65)
    assert chain.height == 65
    assert verify(chain) == VerifyResult(False, "certificate deeper than 64 levels", ())


def _oracle_dicts(data, acc):
    if "oracle" in data:
        acc.append(data)
    for child in data["children"]:
        _oracle_dicts(child, acc)
    return acc


def _twin_leaf_certificate():
    # prove(3, 5, 14) holds one ORACLE leaf on L(r=3,d=3; 2^5) under two
    # assertions ("empty" and "non_special"), both with the same stamp
    data = json.loads(certificate_to_json(prove(3, 5, 14)))
    leaves = _oracle_dicts(data, [])
    assert len(leaves) == 2 and leaves[0]["oracle"] == leaves[1]["oracle"]
    assert {leaf["claim"]["assert"] for leaf in leaves} == {"empty", "non_special"}
    return data, leaves


def test_verify_stops_each_leaf_at_its_first_ceiling_trial(trial_calls):
    data, _ = _twin_leaf_certificate()
    cert = certificate_from_json(json.dumps(data))
    trial_calls.clear()
    assert verify(cert).accepted
    # one trial per twin leaf, not the stamped three
    assert [(s, t) for s, _, _, t in trial_calls] == [("L(r=3,d=3; 2^5)", 0)] * 2


def test_verify_reruns_each_system_and_stamp_once(trial_calls):
    """Each twin leaf is re-run under its own stamp, and both are checked."""
    data, leaves = _twin_leaf_certificate()
    leaves[1]["oracle"]["seed"] += 1
    trial_calls.clear()
    assert verify(certificate_from_json(json.dumps(data))).accepted
    assert sorted(seed for _, _, seed, _ in trial_calls) == sorted(
        leaf["oracle"]["seed"] for leaf in leaves
    )
    leaves[1]["oracle"]["trials"] = 0
    res = verify(certificate_from_json(json.dumps(data)))
    assert not res.accepted and "trials" in res.reason


@pytest.mark.parametrize("prime", [2**31 - 3, 7])  # composite; too small for d = 3
def test_refused_prime_rejected_before_any_trial(trial_calls, prime):
    data, leaves = _twin_leaf_certificate()
    leaves[0]["oracle"]["prime"] = prime
    cert = certificate_from_json(json.dumps(data))
    trial_calls.clear()
    res = verify(cert)
    assert not res.accepted and "prime" in res.reason
    assert trial_calls == []


@pytest.mark.parametrize(
    "cfg",
    [
        FieldConfig(max_columns=4000),
        FieldConfig(prime=1000003, trials=1, seed=12345, max_columns=4000),
    ],
)
def test_verify_reruns_each_leaf_under_its_stamp_alone(cfg, monkeypatch):
    # a stamp plus the verifier's column budget is the whole re-run
    cert = prove(8, 3, 18)
    leaves = [n for n in _preorder(cert, []) if n.rule == "ORACLE"]
    calls = []
    real = certs_mod.dimension

    def recording(sys, run_cfg, **kwargs):
        calls.append((sys, run_cfg))
        return real(sys, run_cfg, **kwargs)

    monkeypatch.setattr(certs_mod, "dimension", recording)
    assert verify(cert, cfg).accepted
    assert set(calls) == {
        (n.claim.system, FieldConfig(prime=n.oracle.prime, trials=n.oracle.trials,
                                     seed=n.oracle.seed, max_columns=4000))
        for n in leaves
    }
    # systems with one, two and three subspaces, each sampled
    assert {len(s.subspaces) for s, _ in calls} == {1, 2, 3}


HUGE = "L(r=2,d=3; 2^1000000000000)"


def test_huge_point_counts_checked_without_expanding_them():
    claim = Claim(LinearSystem.parse(HUGE), "empty")
    params = {"family": "planar"}
    sides = derive_application(claim, "CLOSED_FORM", params).sides
    closed = ProofNode(claim=claim, rule="CLOSED_FORM", params=params, side_conditions=sides)
    assert verify(closed).accepted
    down = ProofNode(
        claim=Claim(LinearSystem.parse("L(r=2,d=3; 2^2)"), "non_special"),
        rule="MONOTONE_DOWN",
        params={"parent": HUGE},
    )
    res = verify(down)
    assert not res.accepted and "'v_parent' fails" in res.reason


# ---------------------------------------------------------------------------
# shared subtrees: the reader shares equal subtrees, verify checks each
# node object once
# ---------------------------------------------------------------------------

# prove(7, 3, 15) holds the ORACLE leaf "L(r=3,d=3; 2^5) is empty" three times
P7_KEY = (7, 3, 15)
P7_LEAF = "L(r=3,d=3; 2^5)"


def _preorder(node, acc):
    """Every node of a tree, or of its JSON object, once per path."""
    acc.append(node)
    for child in node["children"] if isinstance(node, dict) else node.children:
        _preorder(child, acc)
    return acc


def _unshared(node):
    """A copy of the tree in which no node object has two parents."""
    return replace(node, children=tuple(_unshared(c) for c in node.children))


def test_reader_shares_equal_subtrees():
    leaf = {"claim": {"system": "L(r=2,d=2)", "assert": "non_special", "value": None},
            "rule": "CLOSED_FORM", "params": {"family": "complete"},
            "side_conditions": [], "children": []}
    root = certificate_from_json(json.dumps({"version": 1, **leaf, "children": [leaf, leaf]}))
    a, b = root.children
    assert a is b
    # every pair of equal subtrees of a prover file reads back as one object
    data = json.loads(certificate_to_json(prove(*P7_KEY)))
    texts = {}

    def walk(d, node):
        texts.setdefault(json.dumps(d, sort_keys=True), set()).add(id(node))
        for cd, cn in zip(d["children"], node.children):
            walk(cd, cn)

    walk(data, certificate_from_json(json.dumps(data)))
    assert all(len(ids) == 1 for ids in texts.values())
    assert len(texts) < len(_preorder(data, []))  # the file does repeat subtrees


def test_repeated_oracle_leaf_rerun_once_per_verify(trial_calls):
    text = certificate_to_json(prove(*P7_KEY))
    leaves = [d for d in _oracle_dicts(json.loads(text), []) if d["claim"]["system"] == P7_LEAF]
    assert len(leaves) == 3 and all(leaf == leaves[0] for leaf in leaves)
    cert = certificate_from_json(text)
    trial_calls.clear()
    assert verify(cert).accepted
    assert [s for s, _, _, _ in trial_calls].count(P7_LEAF) == 1
    assert verify(cert).accepted
    assert [s for s, _, _, _ in trial_calls].count(P7_LEAF) == 2


def test_param_json_types_keep_subtrees_apart():
    data = json.loads(certificate_to_json(prove(4, 3, 6)))
    del data["version"]
    castelnuovo = next(d for d in _preorder(data, []) if d["rule"] == "CASTELNUOVO")
    assert castelnuovo["params"]["top"] is False
    as_int = dict(castelnuovo, params=dict(castelnuovo["params"], top=0))
    payload = {"version": 1, **castelnuovo, "children": [castelnuovo, as_int]}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    root = certificate_from_json(text)
    a, b = root.children
    assert a is not b
    assert all(x is y for x, y in zip(a.children, b.children))
    assert certificate_to_json(root) == text


@pytest.mark.parametrize("tamper", [False, True])
def test_unshared_tree_gets_the_same_verdict(tamper):
    shared = prove(*P7_KEY)
    if tamper:  # the last copy of the repeated leaf only
        data = json.loads(certificate_to_json(shared))
        copies = [d for d in _oracle_dicts(data, []) if d["claim"]["system"] == P7_LEAF]
        copies[-1]["oracle"]["prime"] = 7
        shared = certificate_from_json(json.dumps(data))
    unshared = _unshared(shared)
    size = len(_preorder(shared, []))
    assert len({id(n) for n in _preorder(shared, [])}) < size
    assert len({id(n) for n in _preorder(unshared, [])}) == size
    res = verify(shared)
    assert res.accepted != tamper
    assert verify(unshared) == res


# ---------------------------------------------------------------------------
# mutation suite: one field of a valid certificate replaced at random
# ---------------------------------------------------------------------------

MUTATION_KEYS = [(3, 5, 14), (4, 4, 14), (5, 3, 9), (8, 3, 18)]


def _mutable_fields(data, path=()):
    """(path, value) of the claim value and assertion, the rule name, every
    param, every side-condition value and every stamp field."""
    yield path + ("claim", "value"), data["claim"]["value"]
    yield path + ("claim", "assert"), data["claim"]["assert"]
    yield path + ("rule",), data["rule"]
    for name, value in data["params"].items():
        yield path + ("params", name), value
    for i, sc in enumerate(data["side_conditions"]):
        yield path + ("side_conditions", i, "value"), sc["value"]
    for name, value in data.get("oracle", {}).items():
        yield path + ("oracle", name), value
    for i, child in enumerate(data["children"]):
        yield from _mutable_fields(child, path + ("children", i))


def _strings(data, acc):
    for value in (data["claim"]["system"], data["claim"]["assert"], data["rule"],
                  *data["params"].values()):
        if isinstance(value, str):
            acc.add(value)
    for child in data["children"]:
        _strings(child, acc)
    return acc


@pytest.fixture(scope="module")
def mutation_sources():
    return [(key, json.loads(certificate_to_json(prove(*key)))) for key in MUTATION_KEYS]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_certificate_accepted_only_with_the_original_claim(mutation_sources, data):
    _, source = data.draw(st.sampled_from(mutation_sources), label="key")
    fields = list(_mutable_fields(source))
    path, old = data.draw(st.sampled_from(fields), label="field")
    if isinstance(old, str):
        pool = sorted(_strings(source, set()) | set(certs_mod.ASSERTIONS) | EMITTED_RULES)
        new = data.draw(st.sampled_from(pool) | st.text(max_size=12), label="new")
    else:  # an int, or the null value of an "empty" / "non_special" claim
        base = old or 0
        new = data.draw(
            st.integers(-3, 3).map(lambda delta: base + delta) | st.integers(-2**63, 2**63),
            label="new",
        )
    mutated = json.loads(json.dumps(source))
    target = mutated
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = new
    original = certificate_from_json(json.dumps(source))
    try:
        cert = certificate_from_json(json.dumps(mutated))
    except (FatpointsError, ValueError, KeyError, TypeError):
        return  # refused when read: `fatpoints verify` reports a malformed certificate
    try:
        res = verify(cert)
    except BudgetError:
        return
    assert isinstance(res, VerifyResult)
    if res.accepted:
        # a claim is sound only if it pins the dimension the original pins
        assert cert.claim.system == original.claim.system
        assert cert.claim.known_dim() == original.claim.known_dim()
    else:
        assert res.reason


# ---------------------------------------------------------------------------
# serialization: the writer and the reader against the plain encoding
# ---------------------------------------------------------------------------


def _plain_to_json(root):
    """The certificate as one json.dumps over the whole tree, every node
    written as a full object wherever it occurs."""

    def node_to_dict(node):
        out = {
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
            "children": [node_to_dict(c) for c in node.children],
        }
        if node.oracle is not None:
            out["oracle"] = {
                "prime": node.oracle.prime,
                "seed": node.oracle.seed,
                "trials": node.oracle.trials,
            }
        return out

    payload = {"version": 1, **node_to_dict(root)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


_AWKWARD_TEXT = st.sampled_from(['"', "\\", 'a"b\\c', "é", "☃", "\U0001d53d", "\n\t", "\x00"])
_TEXT = st.text(max_size=6) | _AWKWARD_TEXT
_PARAM_VALUES = (
    st.sampled_from([True, False, 1, 1.0, 0, -0.0, None]) | st.integers() | st.floats() | _TEXT
)


@st.composite
def _claims(draw):
    system = LinearSystem.nodes(draw(st.integers(2, 4)), draw(st.integers(2, 6)),
                                draw(st.integers(0, 9)))
    assertion = draw(st.sampled_from(certs_mod.ASSERTIONS))
    value = draw(st.integers(-2**70, 2**70)) if assertion == "dim" else None
    return Claim(system, assertion, value)


@st.composite
def _proof_dags(draw):
    """A proof tree whose nodes take their children from the nodes built
    before them, so subtrees are shared."""
    built = []
    for _ in range(draw(st.integers(1, 8))):
        children = tuple(draw(st.lists(st.sampled_from(built), max_size=3))) if built else ()
        built.append(ProofNode(
            claim=draw(_claims()),
            rule=draw(_TEXT),
            params=draw(st.dictionaries(_TEXT, _PARAM_VALUES, max_size=3)),
            side_conditions=tuple(draw(st.lists(
                st.builds(SideCondition, _TEXT, st.integers(), _TEXT), max_size=3))),
            children=children,
            oracle=draw(st.none() | st.builds(OracleStamp, st.integers(), st.integers(),
                                              st.integers())),
        ))
    return built[-1]


@settings(max_examples=150, deadline=None)
@given(root=_proof_dags())
def test_writer_matches_the_plain_encoding(root):
    assert certificate_to_json(root) == _plain_to_json(root)


def _height(node):
    return 1 + max((_height(c) for c in node.children), default=0)


@settings(max_examples=100, deadline=None)
@given(root=_proof_dags(), data=st.data())
def test_height_matches_the_recursive_height(root, data):
    nodes = _preorder(root, [])
    assert all(node.height == _height(node) for node in nodes)
    node = data.draw(st.sampled_from(nodes), label="node")
    children = tuple(data.draw(st.lists(st.sampled_from(nodes), max_size=3), label="children"))
    moved = replace(node, children=children)
    assert moved.height == _height(moved)
    assert replace(node, rule="other").height == node.height
    # a fact of the children, not a field of the node: not compared, shown or set
    assert moved == replace(moved)
    assert "height" not in repr(replace(moved, rule="ORACLE", params={}, side_conditions=()))
    with pytest.raises(TypeError):
        ProofNode(claim=node.claim, rule=node.rule, height=1)


def _stamped_leaf(value=0):
    return {"claim": {"system": "L(r=2,d=4; 2^5)", "assert": "dim", "value": value},
            "rule": "ORACLE", "params": {"family": "none"},
            "side_conditions": [{"name": "spare", "value": 1, "relation": "== 1"}],
            "oracle": {"prime": 2147483647, "seed": 5, "trials": 3},
            "children": []}


def _read_children(*children):
    return certificate_from_json(json.dumps({"version": 1, **_stamped_leaf(), "children": list(children)}))


def test_reader_shares_subtrees_spelled_differently():
    a, b = _read_children(_stamped_leaf("3"), _stamped_leaf(3)).children
    assert a is b and a.claim.value == 3


@pytest.mark.parametrize("path, bad", [
    (("claim", "value"), [3]),
    (("oracle", "prime"), {"p": 7}),
    (("side_conditions", 0, "value"), [1]),
])
def test_reader_refuses_unhashable_fields_as_int_does(path, bad):
    node = _stamped_leaf()
    target = node
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = bad
    with pytest.raises(TypeError) as want:
        int(bad)
    # the same node spelled correctly comes first
    with pytest.raises(TypeError) as got:
        _read_children(_stamped_leaf(), node)
    assert str(got.value) == str(want.value)


def test_reader_reports_a_nodes_own_field_before_its_childrens():
    bad_child = dict(_stamped_leaf(), claim={"system": "L(r=2,d=2)", "assert": "huge"})
    node = dict(_stamped_leaf(), children=[bad_child])
    node["oracle"] = dict(node["oracle"], seed="five")
    with pytest.raises(ValueError, match="unknown assertion 'huge'"):
        _read_children(bad_child)
    with pytest.raises(ValueError, match="invalid literal for int"):
        _read_children(_stamped_leaf(), node)


def _respellings(old):
    """Fixed replacements for one field: bumped, spelled as another JSON
    type, wrapped in a list and wrapped in an object."""
    bumped = old + "_" if isinstance(old, str) else (old or 0) + 1
    return [bumped, 1 if isinstance(old, str) else str(old), [old], {"v": old}]


def test_single_field_mutations_read_back_as_pinned(mutation_sources):
    digest = hashlib.sha256()
    for key, source in mutation_sources:
        for path, old in _mutable_fields(source):
            for new in _respellings(old):
                mutated = json.loads(json.dumps(source))
                target = mutated
                for step in path[:-1]:
                    target = target[step]
                target[path[-1]] = new
                try:
                    out = certificate_to_json(certificate_from_json(json.dumps(mutated)))
                except (FatpointsError, ValueError, KeyError, TypeError) as exc:
                    # the wording of int()'s TypeError varies across Python versions
                    out = type(exc).__name__ + ("" if isinstance(exc, TypeError) else f": {exc}")
                digest.update(f"{key} {path} {new!r}\n{out}\n".encode())
    assert digest.hexdigest() == "bf9e70e5bc2b5d4cf989bbaa813f64345243a058c361bb4e33943e4159e619d6"


# ---------------------------------------------------------------------------
# the shared read against the plain read: json.loads without a hook, then
# one _Reader over the expanded tree
# ---------------------------------------------------------------------------


def _plain_read(text):
    """certificate_from_json without the object hook that shares nodes."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise FatpointsError("certificate nested too deeply to parse") from exc
    if not isinstance(data, dict):
        raise FatpointsError("a certificate is a JSON object")
    if data.get("version") != 1:
        raise FatpointsError(f"unsupported certificate version {data.get('version')!r}")
    return certs_mod._Reader().node(data, 1)


def _outcome(read, text):
    """What a read gives: the certificate written back and its verdict, or
    the exception's type and message."""
    try:
        root = read(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    try:
        verdict = verify(root)
    except BudgetError as exc:
        verdict = str(exc)
    return certificate_to_json(root), verdict, len({id(n) for n in _preorder(root, [])})


def _assert_reads_alike(text):
    shared, plain = _outcome(certificate_from_json, text), _outcome(_plain_read, text)
    assert shared[:-1] == plain[:-1]
    # the shared read never holds more node objects than the plain one
    assert shared[-1] <= plain[-1]


@settings(max_examples=100, deadline=None)
@given(root=_proof_dags())
def test_shared_read_matches_the_plain_read(root):
    _assert_reads_alike(certificate_to_json(root))


def _node_text(*children, **own):
    """A complete-family node's JSON text over the ``children`` texts, with
    ``own`` fields replaced; a field given as "P" is there for the caller
    to replace with raw JSON."""
    node = {"children": "C", "claim": {"system": "L(r=2,d=2)", "assert": "non_special", "value": None},
            "rule": "CLOSED_FORM", "params": {"family": "complete"},
            "side_conditions": [{"name": "condition_count", "value": 0, "relation": "== 0"}]}
    return json.dumps({**node, **own}).replace('"C"', f"[{', '.join(children)}]")


def test_param_spellings_read_as_the_plain_read():
    # a param spelled as each JSON type, both zeros and NaN, then three repeats
    spellings = ["1", "1.0", "true", '"1"', "-0.0", "0.0", "NaN", "1", "-0.0", "NaN"]
    text = _node_text(*(_node_text(params="P").replace('"P"', '{"family": "complete", "x": %s}' % s)
                        for s in spellings), version=1)
    _assert_reads_alike(text)
    # the hook shares only equal spellings: 1, 1.0, true and "1" stay apart, and so do the zeros
    kids = json.loads(text, object_hook=certs_mod._node_sharer())["children"]
    assert len({id(kid) for kid in kids}) == 7
    assert kids[7] is kids[0] and kids[8] is kids[4] and kids[9] is kids[6]
    assert [repr(kid["params"]["x"]) for kid in kids[:7]] == ["1", "1.0", "True", "'1'", "-0.0", "0.0", "nan"]


def test_claim_value_key_order_and_duplicate_keys_read_as_the_plain_read():
    dim = {"system": "L(r=2,d=2)", "assert": "dim"}
    as_text = _node_text(claim={**dim, "value": "5"})
    as_int = _node_text(claim={**dim, "value": 5})
    reordered = json.dumps(dict(reversed(json.loads(as_int).items())))
    duplicate = as_int[:-1] + ', "rule": "TABLE", "rule": "CLOSED_FORM"}'
    text = _node_text(as_text, as_int, reordered, duplicate, as_int, version=1)
    _assert_reads_alike(text)
    root = certificate_from_json(text)
    # "5" and 5 convert to one claim, so all five children are one node
    assert len({id(c) for c in root.children}) == 1 and root.children[0].claim.value == 5


def _wrapped(text, levels):
    """``text`` under a chain of ``levels`` complete-family nodes."""
    for _ in range(levels):
        text = _node_text(text)
    return text


@pytest.mark.parametrize("leaf_level", [64, 65])
def test_depth_counted_through_a_shared_subtree(leaf_level):
    # a 10-level subtree read first at level 2, then again under a chain
    shared = _wrapped(_node_text(), 9)
    chain = leaf_level - 11
    text = _node_text(shared, _wrapped(shared, chain), version=1)
    if leaf_level > certs_mod.MAX_DEPTH:
        with pytest.raises(FatpointsError, match="certificate deeper than 64 levels"):
            certificate_from_json(text)
    else:
        root = certificate_from_json(text)
        assert root.height == leaf_level
        first, under_chain = root.children
        for _ in range(chain):
            (under_chain,) = under_chain.children
        assert under_chain is first
    assert _outcome(certificate_from_json, text)[:2] == _outcome(_plain_read, text)[:2]


def _nested(kind, n):
    return '{"a": ' * n + "1" + "}" * n if kind == "object" else "[" * n + "]" * n


def _deepest_parse(kind):
    """The deepest nesting of ``kind`` that json.loads parses here."""
    lo, hi = 1, 2
    while True:
        try:
            json.loads(_nested(kind, hi))
        except RecursionError:
            break
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            json.loads(_nested(kind, mid))
            lo = mid
        except RecursionError:
            hi = mid
    return lo


def test_hostile_children_read_as_the_plain_read():
    leaf = _node_text()
    for children in (["1", "2"], ["true"], [f"[{leaf}]"], [leaf, f"[[{leaf}]]"],
                     ['"x"'], ["null"], ["{}"], ['{"children": [1], "rule": "ORACLE"}']):
        text = _node_text(*children, version=1)
        got = _outcome(certificate_from_json, text)
        assert got == _outcome(_plain_read, text)
        assert len(got) == 2  # refused
    for value in ('"abc"', "{}", '{"a": 1}', "7", "null"):
        _assert_reads_alike(_node_text(version=1, children="P").replace('"P"', value))
    # nodes over 1, true and 1.0 are never one object
    kids = json.loads(_node_text(*(_node_text(c) for c in ("1", "true", "1.0")), version=1),
                      object_hook=certs_mod._node_sharer())["children"]
    assert len({id(kid) for kid in kids}) == 3


@pytest.mark.parametrize("kind", ["object", "array"])
def test_own_fields_nested_near_the_parser_limit_read_as_the_plain_read(kind):
    deepest = _deepest_parse(kind)
    outcomes = set()
    for n in range(deepest - 8, deepest + 3):
        for own in ({"params": "P"}, {"claim": "P"}):
            text = _node_text(version=1, **own).replace('"P"', _nested(kind, n))
            got = _outcome(certificate_from_json, text)
            assert got == _outcome(_plain_read, text)
            outcomes.add(got)
    # the range reaches both sides of the parser's limit
    assert ("FatpointsError", "certificate nested too deeply to parse") in outcomes
    assert len(outcomes) > 1


def test_read_memory_follows_the_distinct_nodes():
    text = certificate_to_json(Prover(FieldConfig(seed=1)).prove(20, 5, 2530))
    tracemalloc.start()
    try:
        root = certificate_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert root.height == 37
    # the expanded tree alone took 14 MB as dicts
    assert peak < len(text)
    assert certificate_to_json(root) == text

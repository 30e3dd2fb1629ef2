import argparse
import gc
import hashlib
import json
from collections import Counter
from dataclasses import replace

import fatpoints.cli as cli_mod
import fatpoints.oracle as oracle_mod
from fatpoints import FieldConfig, LinearSystem, dimension
from fatpoints.cli import EXIT_BUDGET, EXIT_OK, EXIT_REJECT, EXIT_USAGE, SWEEP_CSV_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim_special_quartic(capsys):
    code, out, _ = run(capsys, "dim", "L(r=2,d=4; 2^5)")
    assert code == EXIT_OK
    assert "dim:      0" in out and "special:  yes" in out


def test_dim_empty_cubic(capsys):
    code, out, _ = run(capsys, "dim", "L(r=3,d=3; 2^5)")
    assert code == EXIT_OK and "dim:      -1" in out


def test_dim_subspace_system(capsys):
    code, out, _ = run(capsys, "dim", "L(r=7,d=2; {L1:codim3, 2^3 on L1}, 2)")
    assert code == EXIT_OK and "dim:      6" in out


def test_dim_json(capsys):
    code, out, _ = run(capsys, "dim", "--format", "json", "L(r=2,d=2; 2^2)")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["dim"] == 0 and data["special"] is True


def test_dim_parse_error(capsys):
    code, _, err = run(capsys, "dim", "L(r=2,d=2; zz)")
    assert code == EXIT_USAGE and "parse error" in err


def test_dim_budget_error(capsys):
    code, _, err = run(capsys, "dim", "--max-cols", "10", "L(r=3,d=4; 2^3)")
    assert code == EXIT_BUDGET and "budget" in err


def test_dim_cross_prime(capsys):
    code, out, _ = run(capsys, "dim", "--cross-prime", "2147483629", "L(r=3,d=4; 2^9)")
    assert code == EXIT_OK and out.count("dim:      0") == 2


def test_dim_huge_point_count(capsys):
    code, out, _ = run(capsys, "dim", "L(r=2,d=2; 2^1000000000000)")
    assert code == EXIT_OK and "dim:      -1" in out


def test_dim_trials_bounded(capsys):
    code, _, err = run(capsys, "dim", "--trials", "65", "L(r=3,d=4; 2^9)")
    assert code == EXIT_USAGE and "trials must be in [1, 64]" in err


def test_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys, "prove", "3")[0] == EXIT_USAGE


def test_prove_verify_roundtrip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "prove", "3", "5", "14", "-o", str(cert))
    assert code == EXIT_OK and cert.exists()
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == EXIT_OK and out.startswith("Accept")


def test_prove_table_row(capsys):
    code, out, _ = run(capsys, "prove", "4", "3", "7")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["rule"] == "TABLE" and data["claim"]["value"] == 0


def test_prove_explain(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "prove", "5", "3", "9", "-o", str(cert), "--explain")
    assert code == EXIT_OK and "CUBIC_BASE" in out


def test_verify_tampered_exit_one(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "prove", "3", "5", "14", "-o", str(cert))
    data = json.loads(cert.read_text())
    data["side_conditions"][0]["value"] = 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(tampered))
    assert code == EXIT_REJECT and "Reject" in err


# at p = 3 and this seed, each of the 8 draws of trial 0's two points of
# L(r=1,d=1; 1^2) holds a zero vector, so the trial cannot be placed
DEGENERATE = ("L(r=1,d=1; 1^2)", {"prime": 3, "seed": 107852, "trials": 1})


def test_dim_degenerate_sampling_exit_two(capsys):
    text, stamp = DEGENERATE
    code, _, err = run(capsys, "dim", "--prime", "3", "--trials", "1", "--seed",
                       str(stamp["seed"]), text)
    assert code == EXIT_USAGE and err.startswith("error: degenerate sampling")


def test_verify_degenerate_stamp_rejected(tmp_path, capsys):
    text, stamp = DEGENERATE
    leaf = {"version": 1, "claim": {"system": text, "assert": "empty", "value": None},
            "rule": "ORACLE", "params": {}, "side_conditions": [], "children": [],
            "oracle": stamp}
    cert = tmp_path / "hostile.json"
    cert.write_text(json.dumps(leaf))
    code, _, err = run(capsys, "verify", str(cert))
    assert code == EXIT_REJECT and "Reject" in err and "degenerate sampling" in err


def test_verify_malformed_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "rule": "TABLE"}')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == EXIT_REJECT and "malformed" in err


def test_sweep_flags_exceptions(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--r-max", "4", "--d-max", "6", "--out", str(out_file))
    assert code == EXIT_OK
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    rows = {}
    for line in lines[1:]:
        r, d, n, virtual, expected, dim, special, rule, ms = line.split(",")
        rows[(int(r), int(d), int(n))] = (dim, special, rule)
    # every Theorem row in range is present and flagged special
    for key in [(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7), (3, 2, 2), (4, 2, 4)]:
        dim, special, rule = rows[key]
        assert special == "true" and rule == "TABLE", key
    # and nothing else is special
    for key, (dim, special, rule) in rows.items():
        if special == "true":
            assert key[1] == 2 or key in {(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7)}


def test_sweep_planar_has_single_exception(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--r-max", "2", "--d-max", "8", "--out", str(out_file))
    assert code == EXIT_OK
    special = [
        line for line in out_file.read_text().strip().split("\n")[1:]
        if line.split(",")[6] == "true"
    ]
    assert len(special) == 2  # (2,2,2) and (2,4,5)


def test_sweep_empty_range(capsys):
    code, out, _ = run(capsys, "sweep", "--r-max", "2", "--d-max", "2", "--r-min", "3")
    assert code == EXIT_OK
    assert out.strip() == SWEEP_CSV_HEADER


def test_sweep_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "--r-max", "3", "--d-max", "4", "--seed", "5", "--out", str(a))
    run(capsys, "sweep", "--r-max", "3", "--d-max", "4", "--seed", "5", "--jobs", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# sha256 of `sweep --r-max 4 --d-max 6 --seed 0` (CSV on stdout), taken while
# every sweep row ran all of its trials: stopping at the ceiling keeps the bytes
SWEEP_R4_D6_SEED0_SHA256 = "313e9e3c68f81953005539b390681eb48aefefd95d890f82fc2d91062383e800"


def test_sweep_csv_bytes_pinned(capsys):
    code, out, _ = run(capsys, "sweep", "--r-max", "4", "--d-max", "6", "--seed", "0")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_R4_D6_SEED0_SHA256


def test_sweep_rows_match_all_trials(monkeypatch, capsys):
    """A sweep row stops at its first trial at min(conditions, columns) and
    still prints the all-trials ``oracle_dim`` and ``special``; a row whose
    certificate is an oracle leaf on its own system runs no trial of its
    own, as the leaf's run reached the ceiling."""
    calls = []
    trial_rank = oracle_mod._trial_rank

    def spy(sys, cfg, trial):
        calls.append((str(sys), cfg.seed))
        return trial_rank(sys, cfg, trial)

    monkeypatch.setattr(oracle_mod, "_trial_rank", spy)
    code, out, _ = run(
        capsys, "sweep", "--r-max", "4", "--d-max", "6", "--seed", "3", "--format", "json"
    )
    assert code == EXIT_OK
    ran = Counter(calls)
    cfg = FieldConfig()
    trials_run = set()
    for row in json.loads(out):
        r, d, n = row["r"], row["d"], row["n"]
        sys = LinearSystem.nodes(r, d, n)
        seed = oracle_mod.derive_seed(3, r, d, n)
        ref = dimension(sys, replace(cfg, seed=seed))
        assert (row["oracle_dim"], row["special"]) == (ref.dim, ref.special), (r, d, n)
        if row["rule"] == "ORACLE":
            assert ran[(str(sys), seed)] == 0, (r, d, n)
            assert ran[(str(sys), oracle_mod.derive_seed(3, sys))] >= 1, (r, d, n)
            continue
        ceiling = min(sys.conditions_count(), sys.monomial_count())
        at_ceiling = [t for t, rank in enumerate(ref.per_trial_rank) if rank >= ceiling]
        want = at_ceiling[0] + 1 if at_ceiling else cfg.trials
        assert ran[(str(sys), seed)] == want, (r, d, n)
        trials_run.add(want)
    # both kinds of row occur: special rows run every trial, the others stop
    assert {1, cfg.trials} <= trials_run


def test_sweep_budget_rows_skipped(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--r-max", "3", "--d-max", "4", "--max-cols", "20",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    body = out_file.read_text()
    assert "SKIPPED" in body
    # rows are marked, never dropped
    assert len(body.strip().split("\n")) > 1


def test_sweep_json_mirrors_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--r-max", "2", "--d-max", "3", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert all(
        set(row) == {"r", "d", "n", "virtual", "expected", "oracle_dim", "special", "rule", "ms"}
        for row in rows
    )


def test_verify_deeply_nested_exit_one(tmp_path, capsys):
    node = '{"claim":{"system":"L(r=2,d=2)","assert":"non_special","value":null},' \
        '"rule":"CLOSED_FORM","params":{"family":"complete"},"side_conditions":[],' \
        '"children":[%s]}'
    text = ""
    for _ in range(1000):
        text = node % text
    deep = tmp_path / "deep.json"
    deep.write_text('{"version":1,' + text[1:])
    code, _, err = run(capsys, "verify", str(deep))
    assert code == EXIT_REJECT and "Reject" in err


def test_verify_list_parameter_exit_one(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "prove", "3", "5", "14", "-o", str(cert))
    good = json.loads(cert.read_text())
    leaf = {"claim": {"system": "L(r=2,d=2)", "assert": "dim", "value": [0]},
            "rule": "CLOSED_FORM", "params": {"family": "complete"}}
    tampered = [
        dict(good, params=dict(good["params"], b=[7])),
        dict(good, claim=dict(good["claim"], value=[0])),
        dict(good, claim=dict(good["claim"], system=[0])),
        dict(good, side_conditions=[dict(sc, relation=[">= -1"])
                                    for sc in good["side_conditions"]]),
        dict(good, side_conditions=[dict(sc, name={}) for sc in good["side_conditions"]]),
        dict(good, children=[leaf]),
    ]
    for data in tampered:
        cert.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(cert))
        assert code == EXIT_REJECT and "Reject" in err


def test_no_parser_alive_while_a_command_runs(monkeypatch):
    alive = []

    def spy(args):
        gc.collect()
        alive.extend(o for o in gc.get_objects()
                     if isinstance(o, argparse.ArgumentParser) and o.prog == "fatpoints")
        return EXIT_OK

    monkeypatch.setattr(cli_mod, "cmd_dim", spy)
    assert main(["dim", "L(r=2,d=2)"]) == EXIT_OK
    assert alive == []

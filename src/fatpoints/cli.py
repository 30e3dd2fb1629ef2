"""Command-line front end.

Subcommands: ``dim`` (oracle dimension of one system), ``prove`` /
``verify`` (certificate generation and independent re-checking), ``sweep``
(bulk verdicts over a rectangle of (r, d) with CSV/JSON reports).

Exit codes: 0 success / Accept, 1 Reject or speciality mismatch or failed
proof, 2 usage or parse error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from .certificates import certificate_from_json, certificate_to_json, explain, verify
from .combinatorics import expected_dim, n_bounds, virtual_dim
from .errors import BudgetError, FatpointsError, ParseError
from .oracle import DEFAULT_PRIME, MAX_TRIALS, FieldConfig, derive_seed, dimension
from .prover import ProveError, Prover
from .systems import SPORADIC_EXCEPTIONS, LinearSystem, classify

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SWEEP_CSV_HEADER = "r,d,n,virtual,expected,oracle_dim,special,rule,ms"


def _add_field_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME, help="field characteristic")
    p.add_argument("--trials", type=int, default=3, help=f"independent random placements (at most {MAX_TRIALS})")
    p.add_argument("--seed", type=int, default=0, help="RNG seed; pins all randomness")
    p.add_argument("--max-cols", type=int, default=5000, help="monomial budget")


def _config(args: argparse.Namespace) -> FieldConfig:
    return FieldConfig(
        prime=args.prime, trials=args.trials, seed=args.seed, max_columns=args.max_cols
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# dim
# ---------------------------------------------------------------------------


def cmd_dim(args: argparse.Namespace) -> int:
    cfg = _config(args)
    sys_ = LinearSystem.parse(args.system)
    report = dimension(sys_, cfg)
    reports = [report]
    if args.cross_prime:
        reports.append(dimension(sys_, replace(cfg, prime=args.cross_prime)))
    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        text = json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True) + "\n"
    else:
        lines = []
        for r in reports:
            lines += [
                f"system:   {r.system}",
                f"virtual:  {r.virtual}",
                f"expected: {r.expected}",
                f"dim:      {r.dim}",
                f"special:  {'yes' if r.special else 'no'}",
                f"oracle:   prime={r.prime} seed={r.seed} trials={r.trials} "
                f"ranks={','.join(map(str, r.per_trial_rank))}",
            ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if len(reports) == 2 and reports[0].dim != reports[1].dim:
        print(
            f"cross-check mismatch: dim {reports[0].dim} (p={reports[0].prime}) vs "
            f"{reports[1].dim} (p={reports[1].prime})",
            file=sys.stderr,
        )
        return EXIT_REJECT
    return EXIT_OK


# ---------------------------------------------------------------------------
# prove / verify
# ---------------------------------------------------------------------------


def cmd_prove(args: argparse.Namespace) -> int:
    cfg = _config(args)
    cert = Prover(cfg).prove(args.r, args.d, args.n)
    text = certificate_to_json(cert)
    _emit(text, args.out)
    if args.out:
        print(f"certificate written to {args.out}", file=sys.stderr)
    if args.explain:
        sys.stdout.write(explain(cert))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.certificate) as fh:
        payload = fh.read()
    try:
        cert = certificate_from_json(payload)
    except (FatpointsError, ValueError, KeyError, TypeError) as exc:
        print(f"Reject: malformed certificate: {exc}", file=sys.stderr)
        return EXIT_REJECT
    cfg = FieldConfig(max_columns=args.max_cols)
    result = verify(cert, cfg)
    if result.accepted:
        print(f"Accept: {cert.claim.describe()}")
        return EXIT_OK
    print(f"Reject: {result.reason}", file=sys.stderr)
    return EXIT_REJECT


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_rows(args: argparse.Namespace) -> list[tuple[int, int, int]]:
    keys: set[tuple[int, int, int]] = set()
    for r in range(args.r_min, args.r_max + 1):
        for d in range(args.d_min, args.d_max + 1):
            lo, hi = n_bounds(r, d)
            keys.add((r, d, lo))
            keys.add((r, d, hi))
            if d == 2:
                keys.update((r, 2, n) for n in range(2, r + 1))
            keys.update(key for key in SPORADIC_EXCEPTIONS if key[:2] == (r, d))
    return sorted(keys)


def _sweep_one(args: argparse.Namespace, prover: Prover, key: tuple[int, int, int]) -> dict:
    r, d, n = key
    t0 = time.monotonic()
    row: dict = {
        "r": r,
        "d": d,
        "n": n,
        "virtual": virtual_dim(r, d, [2] * n),
        "expected": expected_dim(virtual_dim(r, d, [2] * n)),
        "oracle_dim": None,
        "special": None,
        "rule": "-",
        "ms": 0,
    }
    system = LinearSystem.nodes(r, d, n)
    try:
        root = prover.prove(r, d, n)
        row["rule"] = root.rule
    except (ProveError, BudgetError):
        root = None
    if root is not None and root.rule == "ORACLE" and root.claim.system == system:
        # the leaf's own oracle run reached the ceiling on this system
        row["oracle_dim"] = root.claim.known_dim()
        row["special"] = row["oracle_dim"] > row["expected"]
    else:
        cfg = replace(_config(args), seed=derive_seed(args.seed, r, d, n))
        try:
            report = dimension(system, cfg, stop_at_ceiling=True)
            row["oracle_dim"] = report.dim
            row["special"] = report.special
        except BudgetError:
            row["oracle_dim"] = "SKIPPED"
            row["special"] = ""
    if args.timings:
        row["ms"] = int((time.monotonic() - t0) * 1000)
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    keys = _sweep_rows(args)
    prover = Prover(_config(args))
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(lambda k: _sweep_one(args, prover, k), keys))
    else:
        rows = [_sweep_one(args, prover, k) for k in keys]
    rows.sort(key=lambda row: (row["r"], row["d"], row["n"]))

    if args.format == "json":
        text = json.dumps(rows, sort_keys=True) + "\n"
    else:
        lines = [SWEEP_CSV_HEADER]
        for row in rows:
            special = row["special"]
            special_txt = "" if special in (None, "") else ("true" if special else "false")
            lines.append(
                f"{row['r']},{row['d']},{row['n']},{row['virtual']},{row['expected']},"
                f"{row['oracle_dim']},{special_txt},{row['rule']},{row['ms']}"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)

    mismatch = False
    for row in rows:
        if row["oracle_dim"] in ("SKIPPED", None):
            continue
        verdict = classify(row["r"], row["d"], row["n"])
        want = verdict.closed_form_dim if verdict.is_exception else row["expected"]
        if row["oracle_dim"] != want:
            mismatch = True
            print(
                f"speciality mismatch at (r={row['r']}, d={row['d']}, n={row['n']}): "
                f"oracle {row['oracle_dim']}, classification {want}",
                file=sys.stderr,
            )
    return EXIT_REJECT if mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatpoints",
        description="Dimensions of linear systems with fat base points: exact "
        "finite-field oracle, classification, and degeneration certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="oracle dimension of one system")
    p_dim.add_argument("system", help='e.g. "L(r=3,d=5; 2^14)"')
    _add_field_options(p_dim)
    p_dim.add_argument("--cross-prime", type=int, default=None, help="re-run under a second prime")
    p_dim.add_argument("--format", choices=("text", "json"), default="text")
    p_dim.add_argument("--out", default=None, help="write the report to a file")
    p_dim.set_defaults(func=cmd_dim)

    p_prove = sub.add_parser("prove", help="certificate for n double points in degree d on P^r")
    p_prove.add_argument("r", type=int)
    p_prove.add_argument("d", type=int)
    p_prove.add_argument("n", type=int)
    _add_field_options(p_prove)
    p_prove.add_argument("-o", "--out", default=None, help="certificate file (default: stdout)")
    p_prove.add_argument("--explain", action="store_true", help="print a narration")
    p_prove.set_defaults(func=cmd_prove)

    p_verify = sub.add_parser("verify", help="independently re-check a certificate")
    p_verify.add_argument("certificate", help="certificate JSON file")
    p_verify.add_argument("--max-cols", type=int, default=5000)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="bulk verdicts over a rectangle of (r, d)")
    p_sweep.add_argument("--r-max", type=int, required=True)
    p_sweep.add_argument("--d-max", type=int, required=True)
    p_sweep.add_argument("--r-min", type=int, default=2)
    p_sweep.add_argument("--d-min", type=int, default=2)
    _add_field_options(p_sweep)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None, help="write the table to a file")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker threads")
    p_sweep.add_argument(
        "--timings",
        action="store_true",
        help="fill the ms column with wall times (breaks byte-reproducibility)",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # the parser is a reference cycle: kept through the command, it would reach the
        # oldest gc generation and stay until a full collection, once per in-process call
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ProveError as exc:
        print(f"proof failed: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except (FatpointsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

"""Checks of the benchmark's tracer.  Run from the repository root:

    python3 -m pytest -q bench/test_trace.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fatpoints.cli  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

KEYS = [(3, 3, 4), (3, 4, 8), (4, 4, 14)]


def small_job(work: Path) -> list:
    """A few seconds of work that reaches every traced layer; what it printed and wrote."""
    ops = run.run_certify(7, work, KEYS)
    ops.append(run._cli("sweep", ["sweep", "--r-max", "3", "--d-max", "4", "--seed", "7"]))
    ops.append(run._cli("dim", ["dim", "L(r=3,d=4; 2^6)", "--seed", "7", "--format", "json"]))
    return [(op.name, op.code, op.text, op.data) for op in ops]


def traced_job(work: Path) -> tuple[Tracer, list, float]:
    with Tracer() as tracer:
        t0 = run.perf_counter()
        outputs = small_job(work)
        wall = run.perf_counter() - t0
    return tracer, outputs, wall


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    plain = small_job(work)
    first = traced_job(work)
    second = traced_job(work)
    return plain, first, second


def test_wraps_every_lookup_site_and_restores():
    originals = {
        (fatpoints.linalg, "matmul_mod"): fatpoints.linalg.matmul_mod,
        (fatpoints.oracle, "matmul_mod"): fatpoints.oracle.matmul_mod,
        **{(m, "dimension"): fatpoints.oracle.dimension
           for m in (fatpoints.oracle, fatpoints.prover, fatpoints.certificates, fatpoints.cli)},
        (fatpoints.linalg.RowReducer, "queue_rows"): fatpoints.linalg.RowReducer.__dict__["queue_rows"],
        (fatpoints.linalg.RowReducer, "rank"): fatpoints.linalg.RowReducer.__dict__["rank"],
        (fatpoints.systems.LinearSystem, "parse"): fatpoints.systems.LinearSystem.__dict__["parse"],
    }
    with Tracer():
        for (owner, name), original in originals.items():
            assert owner.__dict__[name] is not original, (owner, name)
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, (owner, name)


def test_traced_outputs_equal_untraced(runs):
    plain, (_, first, _), (_, second, _) = runs
    assert first == plain
    assert second == plain


def test_counts_repeat_exactly(runs):
    _, (a, _, _), (b, _, _) = runs
    counts = lambda t: {k: v for k, (v, unit) in t.metrics().items() if unit == "count"}  # noqa: E731
    assert counts(a) == counts(b)
    assert all(counts(a)[k] > 0 for k in ("oracle.rows.calls", "linalg.matmul.calls", "prover.calls",
                                          "certificates.verify.oracle_reruns", "oracle.trial.count"))


def test_self_times_nonnegative_and_within_wall(runs):
    for tracer, _, wall in runs[1:]:
        assert all(layer.self_s >= 0 for layer in tracer.layers.values()), tracer.layers
        assert tracer.self_total_s() <= wall

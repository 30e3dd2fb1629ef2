"""fatpoints benchmark: end-to-end workloads, per-layer trace, kernel probes.

Usage, from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

Every workload drives ``fatpoints.cli.main`` in this process, the way a
user's command line does, with no worker threads.  ``--trace 0`` runs
as many whole passes as fit in ``--seconds`` and reports end-to-end metrics;
``--trace 1`` runs one plain pass and one traced pass (see ``tracer.py``),
then the kernel probes (see ``probes.py``), and reports per-layer metrics.  Each line
``metric <workload> <name> <value> <unit>`` is one metric; the last line is
a JSON summary holding the metrics that BENCHMARK.json lists.  See README.md
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_RUNS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from fatpoints.cli import main; "
    "raise SystemExit(main(['dim', 'L(r=2,d=4; 2^4)', '--seed', sys.argv[2], '--format', 'json']))"
)
SETUP_DIM = 2

SWEEP_ARGS = ["sweep", "--r-max", "5", "--d-max", "7", "--jobs", "1"]
SWEEP_ROWS = 35
WIDE_DIM = (("L(r=6,d=7; 2^245)", 0), ("L(r=7,d=6; 2^215)", -1))


@dataclass
class Op:
    """One CLI call: its name within the pass, wall time, exit code, printed
    text and the bytes it wrote."""

    name: str
    seconds: float
    code: int
    text: str
    data: bytes = b""


Pass = list[Op]


@dataclass
class Checked:
    """Outcome of checking the passes of one run."""

    attempted: int = 0
    failed: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)

    def add(self, workload: str, p: Pass) -> None:
        """Check one pass; every pass of one seed must give identical bytes."""
        attempted, errors = WORKLOADS[workload][1](p)
        self.attempted += attempted
        self.failed += len(errors)
        self.errors += errors
        h = hashlib.sha256()
        for op in p:
            h.update(op.name.encode() + b"\0" + op.data)
        if self.digest and h.hexdigest() != self.digest:
            self.errors.append(f"outputs differ between passes of one seed: {self.digest}, {h.hexdigest()}")
        self.digest = self.digest or h.hexdigest()


def _cli(name: str, argv: list[str], out: Path | None = None) -> Op:
    """Run ``fatpoints.cli.main(argv)`` in process, timed, with its output captured."""
    import fatpoints.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = fatpoints.cli.main(argv)
        text = stdout.getvalue() or stderr.getvalue()
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        code, text = -1, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    data = out.read_bytes() if out is not None and out.exists() else text.encode()
    return Op(name, seconds, code, text, data)


# ---------------------------------------------------------------------------
# workloads: run(seed, work) -> Pass, check(Pass) -> (attempted, errors)
# ---------------------------------------------------------------------------


def certify_keys() -> list[tuple[int, int, int]]:
    """The criterion-6 grid: r, d in 3..8, n in {n^-, n^+}."""
    from fatpoints import n_bounds

    return [(r, d, n) for r in range(3, 9) for d in range(3, 9) for n in sorted(set(n_bounds(r, d)))]


def _want_dim(r: int, d: int, n: int) -> int:
    from fatpoints import classify, expected_dim, virtual_dim

    verdict = classify(r, d, n)
    return verdict.closed_form_dim if verdict.is_exception else expected_dim(virtual_dim(r, d, [2] * n))


def run_certify(seed: int, work: Path, keys=None) -> Pass:
    ops = []
    for r, d, n in keys or certify_keys():
        key, path = f"{r} {d} {n}", work / f"cert_{r}_{d}_{n}.json"
        argv = ["prove", str(r), str(d), str(n), "--seed", str(seed), "-o", str(path)]
        ops.append(_cli(f"prove {key}", argv, path))
        ops.append(_cli(f"verify {key}", ["verify", str(path)]))
    return ops


def check_certify(p: Pass) -> tuple[int, list[str]]:
    from fatpoints import FatpointsError, certificate_from_json

    errors = []
    for op in p:
        kind, *key = op.name.split()
        r, d, n = map(int, key)
        if op.code != 0:
            errors.append(f"{op.name}: exit {op.code}: {op.text.strip()}")
        elif kind == "verify" and not op.text.startswith("Accept:"):
            errors.append(f"{op.name}: {op.text.strip()}")
        elif kind == "prove":
            try:
                claim = certificate_from_json(op.data.decode()).claim
            except (FatpointsError, ValueError, KeyError, TypeError) as exc:
                errors.append(f"{op.name}: unreadable certificate: {exc}")
                continue
            if (claim.system.r, claim.system.d, claim.system.point_count(2)) != (r, d, n):
                errors.append(f"{op.name}: certificate is about {claim.system}")
            elif claim.known_dim() != _want_dim(r, d, n):
                errors.append(f"{op.name}: claims dim {claim.known_dim()}, want {_want_dim(r, d, n)}")
    return len(p), errors


def run_sweep(seed: int, work: Path) -> Pass:
    path = work / "sweep.csv"
    return [_cli("sweep", SWEEP_ARGS + ["--seed", str(seed), "--out", str(path)], path)]


def check_sweep(p: Pass) -> tuple[int, list[str]]:
    from fatpoints.cli import SWEEP_CSV_HEADER

    (op,) = p
    if op.code != 0:
        return SWEEP_ROWS, [f"sweep: exit {op.code}: {op.text.strip()}"] * SWEEP_ROWS
    lines = op.data.decode().splitlines()
    errors = [] if lines[:1] == [SWEEP_CSV_HEADER] else [f"sweep: header {lines[:1]}"]
    rows = list(csv.DictReader(lines))
    errors += [f"sweep: {len(rows)} rows, want {SWEEP_ROWS}"] * abs(SWEEP_ROWS - len(rows))
    for row in rows:
        r, d, n = int(row["r"]), int(row["d"]), int(row["n"])
        if row["oracle_dim"] != str(_want_dim(r, d, n)):
            errors.append(f"sweep row ({r}, {d}, {n}): dim {row['oracle_dim']}, want {_want_dim(r, d, n)}")
    return max(SWEEP_ROWS, len(rows)), errors


def run_wide_dim(seed: int, work: Path) -> Pass:
    return [_cli(f"dim {system}", ["dim", system, "--seed", str(seed), "--format", "json"]) for system, _ in WIDE_DIM]


def check_wide_dim(p: Pass) -> tuple[int, list[str]]:
    errors = []
    for op, (_, want) in zip(p, WIDE_DIM):
        if op.code != 0:
            errors.append(f"{op.name}: exit {op.code}: {op.text.strip()}")
            continue
        try:
            got = json.loads(op.text)["dim"]
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"{op.name}: unreadable report: {exc}")
            continue
        if got != want:
            errors.append(f"{op.name}: {got}, want {want}")
    return len(WIDE_DIM), errors


WORKLOADS = {
    "certify": (run_certify, check_certify),
    "sweep": (run_sweep, check_sweep),
    "wide-dim": (run_wide_dim, check_wide_dim),
}


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def setup_times(seed: int) -> tuple[list[float], list[str]]:
    """Wall time of a fresh interpreter importing fatpoints and running one tiny dim."""
    times, errors = [], []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append(perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["dim"] == SETUP_DIM
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            errors.append(f"setup dim: exit {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}")
    return times, errors


def measure(workload: str, seed: int, seconds: float, work: Path):
    """Set-up runs, then untraced passes within ``seconds``; end-to-end metrics."""
    run_pass, _ = WORKLOADS[workload]
    setup, setup_errors = setup_times(seed)
    checked = Checked(attempted=len(setup), failed=len(setup_errors), errors=setup_errors)
    passes: list[dict[str, float]] = []  # per pass: operation -> seconds; outputs are checked and dropped
    items: list[float] = []
    t_start = perf_counter()
    # whole passes only, and no pass that would end after ``seconds`` (at least one)
    while not passes or (perf_counter() - t_start) * (len(passes) + 1) / len(passes) <= seconds:
        p = run_pass(seed, work)
        checked.add(workload, p)
        passes.append({op.name: op.seconds for op in p})
        if workload == "certify":  # one item is one certificate, its prove plus its verify
            items += [(a.seconds + b.seconds) * 1e3 for a, b in zip(p[::2], p[1::2])]
    # each operation's median over the passes, so a slow spell in one pass is outvoted
    op_s = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s": (sum(op_s.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "passes": (len(passes), "count"),
        "fail_frac": (checked.failed / checked.attempted, "frac"),
    }
    if workload == "certify":
        for kind in ("prove", "verify"):
            m[f"{kind}_s"] = (sum(t for name, t in op_s.items() if name.startswith(kind)), "s")
        m["items"] = (len(items), "count")
        m["item_ms_p50"] = (statistics.median(items), "ms")
        m["item_ms_p75"] = (statistics.quantiles(items, n=4, method="inclusive")[2], "ms")
    print(f"note {workload} pass job_s {[sum(p.values()) for p in passes]}")
    return m, checked


def trace(workload: str, seed: int, work: Path):
    """One plain pass, one traced pass, then the kernel probes; per-layer metrics."""
    import probes
    from tracer import Tracer

    run_pass, _ = WORKLOADS[workload]
    checked = Checked()
    plain = run_pass(seed, work)
    checked.add(workload, plain)
    with Tracer() as tracer:
        t0 = perf_counter()
        traced = run_pass(seed, work)
        wall = perf_counter() - t0
    checked.add(workload, traced)
    if tracer.self_total_s() > wall:
        checked.errors.append(f"self times sum to {tracer.self_total_s()} s, above the wall time {wall} s")
    m = tracer.metrics()
    m["trace.overhead_frac"] = (sum(op.seconds for op in traced) / sum(op.seconds for op in plain) - 1, "frac")
    probe_metrics, probe_errors = probes.run(seed)
    m.update(probe_metrics)
    checked.attempted += len(probe_metrics)
    checked.failed += len(probe_errors)
    checked.errors += probe_errors
    if tracer.missing:
        print(f"note {workload} trace hooks not found: {', '.join(tracer.missing)}")
    return m, checked


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads.  The workloads run on one
    thread; a second BLAS thread gains under 5% on wide-dim here and makes
    every timing depend on what else holds the other core."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _blas_threads() -> int:
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def provenance(seed: int) -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.split()
        commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "cpu": cpu,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def baseline_digest(workload: str, seed: int) -> str | None:
    path = BENCH / "BASELINE.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["digests"].get(workload, {}).get(str(seed))


def listed_metrics(trace_on: bool) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    return [m["name"] for m in json.loads(path.read_text())["per_layer" if trace_on else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fatpoints" / "__init__.py").is_file():
        print(f"no fatpoints sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import fatpoints

    if Path(fatpoints.__file__).resolve().parent != SRC / "fatpoints":
        print(f"imported fatpoints from {fatpoints.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"provenance {json.dumps(provenance(args.seed), sort_keys=True)}")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    listed = listed_metrics(bool(args.trace))
    summary: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for workload in workloads:
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            if args.trace:
                metrics, checked = trace(workload, args.seed, Path(tmp))
            else:
                metrics, checked = measure(workload, args.seed, args.seconds, Path(tmp))
        base = baseline_digest(workload, args.seed)
        if base is None:
            vs = "no baseline for this seed"
        else:
            vs = "same as baseline" if base == checked.digest else "differs from baseline"
        print(f"digest {workload} sha256:{checked.digest} ({vs})")
        for err in checked.errors:
            print(f"error {workload} {err}")
        for name, (value, unit) in metrics.items():
            print(f"metric {workload} {name} {value} {unit}")
        attempted += checked.attempted
        failed += checked.failed
        correct = correct and not checked.errors
        for name in listed if listed is not None else metrics:
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            value, unit = metrics[name]
            summary[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

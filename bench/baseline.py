"""Measure a baseline: ten seeds per workload, untraced, plus one traced run.

    python3 bench/baseline.py            # writes bench/BASELINE.json

Each run is a separate ``bench/run.py`` process, as the harness's users run
it.  For every metric an untraced run prints (those BENCHMARK.json gates and
the printed-only ones) the file holds the median and quartiles over the
seeds and the spread (interquartile range over median); it also holds each
run's output digest, which ``run.py`` compares against on the same seed, and
every metric of one traced run per workload.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict[str, float], str, dict]:
    """Every metric the run printed, its output digest and its provenance."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, _, name, value, _ = line.split(" ")
            metrics[name] = float(value)
    digest = next(line.split()[2] for line in lines if line.startswith("digest "))
    provenance = json.loads(lines[0].split(" ", 1)[1])
    return metrics, digest.removeprefix("sha256:"), provenance


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out: dict = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "end_to_end": {},
                 "per_layer": {}, "digests": {}}
    for w in spec["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {}
        out["digests"][name] = {}
        for seed in SEEDS:
            metrics, digest, provenance = run(name, seed, 0, spec["run_seconds"])
            out["digests"][name][str(seed)] = digest
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
            print(name, seed, {k: round(v, 4) for k, v in metrics.items()}, flush=True)
        out["end_to_end"][name] = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            out["end_to_end"][name][k] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name} {k}: median {med:.4f} spread {spread:.4f}", flush=True)
        metrics, _, _ = run(name, SEEDS[0], 1, spec["run_seconds"])
        out["per_layer"][name] = metrics
    out["provenance"] = provenance
    (BENCH / "BASELINE.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

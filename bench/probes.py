"""Kernel probes: each layer's hot kernel timed alone on fixed-size inputs.

Every probe checks its own result, so a fast wrong kernel does not pass as a
speed-up; a wrong result is reported as an error beside the timing.  Inputs
come from the run's seed; sizes are the ones the workloads hit (1716 columns
is the widest desk-scale system, C(13, 6)).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from fatpoints import binom, linalg, oracle

P = oracle.DEFAULT_PRIME

# (r, d, points): n double points on P^r with n * (r + 1) ~ C(r + d, r) rows
TRIAL_SHAPES = {462: (5, 6, 77), 924: (6, 6, 132), 1716: (6, 7, 245)}


def _time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _check_matmul(a: np.ndarray, b: np.ndarray, got: np.ndarray, rng: np.random.Generator) -> list[str]:
    errors = []
    for i, j in rng.integers(0, [a.shape[0], b.shape[1]], size=(3, 2)):
        want = sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % P
        if int(got[i, j]) != want:
            errors.append(f"matmul_mod {a.shape[0]}: entry ({i}, {j}) is {got[i, j]}, want {want}")
    return errors


def _point_rows(r: int, d: int, npoints: int, rng: np.random.Generator) -> list[np.ndarray]:
    pts = rng.integers(1, P, size=(npoints, r + 1), dtype=np.int64)
    return [oracle.rows_for_point(r, d, pt, 2, P) for pt in pts]


def run(seed: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Probe metrics as name -> (value, unit), and any wrong results."""
    rng = np.random.default_rng([seed, 0xFA7])
    out: dict[str, tuple[float, str]] = {}
    errors: list[str] = []

    for tag, (r, d, m) in {"r6d7m2": (6, 7, 2), "r3d9m4": (3, 9, 4)}.items():
        pts = rng.integers(1, P, size=(51, r + 1), dtype=np.int64)
        times = []
        for pt in pts:
            t0 = perf_counter()
            rows = oracle.rows_for_point(r, d, pt, m, P)
            times.append(perf_counter() - t0)
            if rows.shape != (binom(r + m - 1, r), binom(r + d, r)):
                errors.append(f"rows_for_point {tag}: shape {rows.shape}")
        out[f"micro.rows_for_point.{tag}_ms"] = (statistics.median(times) * 1e3, "ms")

    for n, repeats in ((256, 9), (1024, 5), (1716, 3)):
        a = rng.integers(0, P, size=(n, n), dtype=np.int64)
        b = rng.integers(0, P, size=(n, n), dtype=np.int64)
        out[f"micro.matmul_mod.{n}_s"] = (_time(lambda: linalg.matmul_mod(a, b, P), repeats), "s")
        errors += _check_matmul(a, b, linalg.matmul_mod(a, b, P), rng)

    x = rng.random((1716, 1716))
    y = rng.random((1716, 1716))
    out["ref.f64_matmul_1716_s"] = (_time(lambda: x @ y, 5), "s")

    for ncols, repeats in ((462, 3), (924, 3), (1716, 1)):
        r, d, npoints = TRIAL_SHAPES[ncols]
        blocks = _point_rows(r, d, npoints, rng)
        want = min(ncols, sum(b.shape[0] for b in blocks))
        ranks = []

        def trial():
            red = linalg.RowReducer(ncols, P)
            for blk in blocks:
                red.queue_rows(blk)
            ranks.append(red.rank)

        out[f"micro.reducer_trial.{ncols}_s"] = (_time(trial, repeats), "s")
        if set(ranks) != {want}:
            errors.append(f"reducer trial on {ncols} columns: ranks {ranks}, want {want}")
        if ncols == 462:
            # the same matrix in one add_rows call runs as a single 462-row block
            matrix = np.vstack(blocks)
            oneshot = []
            out["micro.rank_mod_p_oneshot.462_s"] = (
                _time(lambda: oneshot.append(linalg.rank_mod_p(matrix, P)), 1),
                "s",
            )
            if set(oneshot) != {want}:
                errors.append(f"one-shot rank_mod_p: {oneshot}, want {want}")
    return out, errors

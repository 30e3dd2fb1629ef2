"""Per-layer spans for fatpoints, recorded from outside the package.

``Tracer`` replaces the public callables of each layer with timing wrappers,
at every place the callable is looked up: ``matmul_mod`` is imported by name
into ``fatpoints.oracle``, ``dimension`` into ``prover``, ``certificates`` and
``cli``, so a wrapper is installed in each of those module namespaces as well
as in the defining module.  Methods are wrapped on their class.  Everything is
restored when the ``with`` block ends.

A span covers one call.  A call into a layer made while the innermost open
span already belongs to that layer (``add_rows`` -> ``queue_rows``,
``rows_for_subspace`` -> ``rows_for_point``) is folded into the outer span,
so ``calls`` counts entries into the layer.  A layer's self time is its span
time minus the time of the spans opened inside it.

Counters ride on the same wrappers.  ``RowReducer._absorb`` is the one
private name used (rows that reached elimination, for ``rows_refused``); it
is optional, and a missing hook is reported instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import weakref
from dataclasses import dataclass
from time import perf_counter


@dataclass
class _Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    layer: str
    start: float
    child_s: float = 0.0


@dataclass
class _Trial:
    """One RowReducer lifetime."""

    ncols: int
    rows_in: int = 0
    absorbed: int = 0
    rank: int = 0


def _tree_size(node) -> int:
    return 1 + sum(_tree_size(c) for c in node.children)


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, _Layer] = {}
        self.rows = 0
        self.matmul_flop = 0.0
        self.oracle_leaves = 0
        self.verify_nodes = 0
        self.oracle_reruns: list[tuple] = []
        self.trials: list[_Trial] = []
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []
        self._trial_of: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _targets(self):
        """(layer, module, class or None, attribute, counter hook, required)."""
        reducer = ("fatpoints.linalg", "RowReducer")
        return [
            ("oracle.rows", "fatpoints.oracle", None, "rows_for_point", self._count_rows, True),
            ("oracle.rows", "fatpoints.oracle", None, "rows_for_subspace", None, True),
            ("oracle.rows", "fatpoints.oracle", None, "subspace_filter_rows", self._count_rows, True),
            ("linalg.matmul", "fatpoints.linalg", None, "matmul_mod", self._count_flop, True),
            ("linalg.reduce", *reducer, "__init__", self._new_trial, True),
            ("linalg.reduce", *reducer, "queue_rows", self._rows_in, True),
            ("linalg.reduce", *reducer, "flush", None, True),
            ("linalg.reduce", *reducer, "add_rows", None, True),
            ("linalg.reduce", *reducer, "rank", self._rank, True),
            ("linalg.reduce", *reducer, "_absorb", self._absorbed, False),
            ("oracle.dimension", "fatpoints.oracle", None, "dimension", self._dimension, True),
            ("prover", "fatpoints.prover", "Prover", "prove", None, True),
            ("certificates.verify", "fatpoints.certificates", None, "verify", self._verify_nodes, True),
            ("certificates.json", "fatpoints.certificates", None, "certificate_to_json", None, True),
            ("certificates.json", "fatpoints.certificates", None, "certificate_from_json", None, True),
            ("cli", "fatpoints.cli", None, "main", None, True),
            ("systems", "fatpoints.systems", "LinearSystem", "parse", None, True),
            ("systems", "fatpoints.systems", None, "parse_system", None, True),
            ("systems", "fatpoints.systems", None, "classify", None, True),
            ("systems", "fatpoints.systems", None, "classify_system", None, True),
        ]

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "fatpoints" or k.startswith("fatpoints.")]
        for layer, home, cls_name, name, hook, required in self._targets():
            if cls_name is None:
                original = getattr(sys.modules[home], name)
                for mod in modules:
                    if mod.__dict__.get(name) is original:
                        self._set(mod, name, self._wrap(layer, original, hook, mod.__name__))
                continue
            cls = getattr(sys.modules[home], cls_name)
            raw = cls.__dict__.get(name)
            if raw is None:
                if required:
                    raise AttributeError(f"{cls_name}.{name} not found")
                self.missing.append(f"{cls_name}.{name}")
            elif isinstance(raw, property):
                self._set(cls, name, property(self._wrap(layer, raw.fget, hook, cls_name)))
            elif isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(layer, raw.__func__, hook, cls_name)))
            else:
                self._set(cls, name, self._wrap(layer, raw, hook, cls_name))

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, fn, hook, site: str):
        stack = self._stack
        stats = self.layers.setdefault(layer, _Layer())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                result = fn(*args, **kwargs)
            else:
                frame = _Frame(layer, perf_counter())
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = perf_counter() - frame.start
                    stats.calls += 1
                    stats.total_s += dur
                    stats.self_s += dur - frame.child_s
                    if stack:
                        stack[-1].child_s += dur
            if hook:
                hook(site, args, result)
            return result

        return wrapper

    # -- counter hooks: (site, call arguments, result) ------------------------

    def _count_rows(self, site, args, rows) -> None:
        self.rows += rows.shape[0]

    def _count_flop(self, site, args, result) -> None:
        (m, k), n = args[0].shape, args[1].shape[1]
        self.matmul_flop += 3 * 2.0 * m * k * n  # three float64 products per call

    def _new_trial(self, site, args, result) -> None:
        self._trial_of[args[0]] = trial = _Trial(ncols=args[0].ncols)
        self.trials.append(trial)

    def _rows_in(self, site, args, result) -> None:
        if args[0] in self._trial_of:
            self._trial_of[args[0]].rows_in += len(args[1])

    def _absorbed(self, site, args, result) -> None:
        if args[0] in self._trial_of:
            self._trial_of[args[0]].absorbed += args[1].shape[0]

    def _rank(self, site, args, rank) -> None:
        if args[0] in self._trial_of:
            self._trial_of[args[0]].rank = rank

    def _dimension(self, site, args, result) -> None:
        if site == "fatpoints.prover":
            self.oracle_leaves += 1
        elif site == "fatpoints.certificates":
            self.oracle_reruns.append((str(args[0]), args[1]))

    def _verify_nodes(self, site, args, result) -> None:
        self.verify_nodes += _tree_size(args[0])

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        L = self.layers
        rows_in = sum(t.rows_in for t in self.trials)
        pivots = sum(t.rank for t in self.trials)
        absorbed = sum(t.absorbed for t in self.trials)
        refused = 0 if "RowReducer._absorb" in self.missing else rows_in - absorbed
        at_ceiling = sum(t.rank == min(t.rows_in, t.ncols) for t in self.trials)
        gflop = self.matmul_flop / 1e9
        mm_s = L["linalg.matmul"].total_s
        reruns = len(self.oracle_reruns)
        return {
            "oracle.rows.calls": (L["oracle.rows"].calls, "count"),
            "oracle.rows.rows": (self.rows, "count"),
            "oracle.rows.self_s": (L["oracle.rows"].self_s, "s"),
            "linalg.matmul.calls": (L["linalg.matmul"].calls, "count"),
            "linalg.matmul.s": (mm_s, "s"),
            "linalg.matmul.gflop": (gflop, "Gflop"),
            "linalg.matmul.gflops": (gflop / mm_s if mm_s else 0.0, "Gflop/s"),
            "linalg.reduce.self_s": (L["linalg.reduce"].self_s, "s"),
            "linalg.reduce.rows_in": (rows_in, "count"),
            "linalg.reduce.rows_refused": (refused, "count"),
            "linalg.reduce.pivots": (pivots, "count"),
            "linalg.reduce.useful_frac": (pivots / rows_in if rows_in else 0.0, "frac"),
            "oracle.trial.count": (len(self.trials), "count"),
            "oracle.trial.ceiling_frac": (at_ceiling / len(self.trials) if self.trials else 0.0, "frac"),
            "oracle.dimension.calls": (L["oracle.dimension"].calls, "count"),
            "oracle.dimension.self_s": (L["oracle.dimension"].self_s, "s"),
            "prover.calls": (L["prover"].calls, "count"),
            "prover.self_s": (L["prover"].self_s, "s"),
            "prover.oracle_leaves": (self.oracle_leaves, "count"),
            "certificates.verify.self_s": (L["certificates.verify"].self_s, "s"),
            "certificates.verify.nodes": (self.verify_nodes, "count"),
            "certificates.verify.oracle_reruns": (reruns, "count"),
            "certificates.verify.rerun_dup_frac": (
                1 - len(set(self.oracle_reruns)) / reruns if reruns else 0.0,
                "frac",
            ),
            "certificates.json.s": (L["certificates.json"].total_s, "s"),
            "cli.self_s": (L["cli"].self_s, "s"),
            "systems.s": (L["systems"].total_s, "s"),
        }

    def self_total_s(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())

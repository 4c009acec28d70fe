"""Per-layer tracing of specbound from outside the package.

Each layer is one module of the package. `Tracer` wraps every public
function of those modules (plus the certified order search in `series`)
and rebinds the wrapper in every module namespace that holds the
original, so calls across modules and within a module are both seen.
Each call becomes a span (id, parent, name, start, end) kept in memory;
counts and argument digests are taken at the same boundaries.

Self time of a span is its duration minus the time its child spans
cover, including the tracer's own work around each child, so the
tracer's cost lands in no layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import specbound

LAYERS = ("series", "matrices", "bounds", "harness", "cli")
# Private functions worth a span: the certified truncation-order search.
EXTRA = {"series": ("_order_and_tail",)}

GEN = ("harness.gen_matrix", "harness.gen_commuting_pair")
CHECKS = ("harness.run_identity_checks", "harness.run_limit_checks",
          "harness.run_pm_checks")
REPORTS = ("harness.write_trials_csv", "harness.summarize",
           "harness.write_summary_json")
# Functions whose arguments the hooks below read.
HOOKED = ("matrices.operator_norm", "series.eval_companion",
          "matrices.series_partial_sum", "harness.write_trials_csv",
          "harness.write_summary_json")

# name -> (unit, better). Counters first: they must repeat exactly.
COUNTERS = {
    "matrices.operator_norm.calls": ("count", "lower"),
    "matrices.operator_norm.distinct_frac": ("ratio", "higher"),
    "matrices.spectral_radius.calls": ("count", "lower"),
    "matrices.horner_matmuls": ("count", "lower"),
    "matrices.oracle_order_max": ("count", "lower"),
    "matrices.horner_gflop_computed": ("GFLOP", "lower"),
    "series.eval_companion.calls": ("count", "lower"),
    "series.eval_companion.distinct_frac": ("ratio", "higher"),
    "series.order_search.calls": ("count", "lower"),
    "series.order_max": ("count", "lower"),
    "bounds.best_bound.calls": ("count", "lower"),
    "bounds.svd_per_call": ("count", "lower"),
    "harness.report_bytes": ("bytes", "lower"),
    "trace.spans": ("count", "lower"),
}
TIMES = {
    name: ("s", "lower")
    for name in (
        "matrices.operator_norm.s", "matrices.spectral_radius.s",
        "matrices.series_partial_sum.s", "matrices.load_matrix.s",
        "series.eval_companion.self_s", "series.order_search.s",
        "bounds.best_bound.s", "bounds.best_bound.self_s",
        "harness.run_sweep.s", "harness.gen.s", "harness.checks.s",
        "harness.reports.s",
        *(f"{layer}.self_s" for layer in LAYERS),
        "trace.pass_s", "trace.overhead_s",
    )
}
METRICS = {**COUNTERS, **TIMES}


def _array_digest(T) -> bytes:
    a = np.ascontiguousarray(np.asarray(T, dtype=np.complex128))
    return hashlib.blake2b(
        repr(a.shape).encode() + a.tobytes(), digest_size=16
    ).digest()


class Tracer:
    """Context manager: wraps the package while active, restores on exit."""

    def __init__(self):
        self.package = specbound
        self.modules = {
            layer: importlib.import_module(f"specbound.{layer}")
            for layer in LAYERS
        }
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.horner_matmuls = 0
        self.horner_flop = 0
        self.oracle_order_max = 0
        self.order_max = 0
        self.report_bytes = 0
        self.svd_in_best_bound = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks run at call boundaries, outside the span's own interval ---
    # They see the call's arguments by parameter name, so positional and
    # keyword calls count alike.

    def _key(self, name: str, a: dict):
        if name == "matrices.operator_norm":
            return _array_digest(a["T"])
        if name == "series.eval_companion":
            return (a["f"].name, float(a["x"]), a["tol"], a["max_terms"])
        return None

    def _after(self, name: str, a: dict, result) -> None:
        if name == "matrices.series_partial_sum":
            n, m = np.asarray(a["T"]).shape[0], a["m"]
            self.horner_matmuls += m
            self.horner_flop += 8 * n**3 * m  # complex n x n matmul, m times
            self.oracle_order_max = max(self.oracle_order_max, m)
        elif name == "series._order_and_tail":
            self.order_max = max(self.order_max, result[0])
        elif name in ("harness.write_trials_csv", "harness.write_summary_json"):
            self.report_bytes += os.path.getsize(a["path"])
        elif name == "matrices.operator_norm" and self._depth["bounds.best_bound"]:
            self.svd_in_best_bound += 1

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack, depth = self._stack, self._depth
        params = inspect.signature(fn).parameters if name in HOOKED else {}
        names = list(params)
        defaults = {k: p.default for k, p in params.items()
                    if p.default is not inspect.Parameter.empty}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            a = {**defaults, **dict(zip(names, args)), **kwargs} if names else {}
            key = self._key(name, a)
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id in call order
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                self.spans[span_id] = (span_id, parent, name, start, end)
                self.calls[name] += 1
                if not depth[name]:
                    self.incl_ns[name] += end - start
                self.self_ns[name] += end - start - frame[1]
                if key is not None:
                    self.keys[name].add(key)
            self._after(name, a, result)
            if stack:
                stack[-1][1] += clock() - t0
            return result

        return traced

    # -- install / restore ---------------------------------------------

    def _targets(self):
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield f"{layer}.{attr}", obj

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._targets()}
        for ns in (self.package, *self.modules.values()):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        return False

    # -- results ---------------------------------------------------------

    def _s(self, *names: str) -> float:
        return sum(self.incl_ns[n] for n in names) / 1e9

    def _distinct(self, name: str) -> float:
        calls = self.calls[name]
        return len(self.keys[name]) / calls if calls else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (no trace.* times)."""
        layer_self = defaultdict(int)
        for name, ns in self.self_ns.items():
            layer_self[name.split(".", 1)[0]] += ns
        best_calls = self.calls["bounds.best_bound"]
        out = {
            "matrices.operator_norm.calls": self.calls["matrices.operator_norm"],
            "matrices.operator_norm.distinct_frac": self._distinct("matrices.operator_norm"),
            "matrices.spectral_radius.calls": self.calls["matrices.spectral_radius"],
            "matrices.horner_matmuls": self.horner_matmuls,
            "matrices.oracle_order_max": self.oracle_order_max,
            "matrices.horner_gflop_computed": self.horner_flop / 1e9,
            "series.eval_companion.calls": self.calls["series.eval_companion"],
            "series.eval_companion.distinct_frac": self._distinct("series.eval_companion"),
            "series.order_search.calls": self.calls["series._order_and_tail"],
            "series.order_max": self.order_max,
            "bounds.best_bound.calls": best_calls,
            "bounds.svd_per_call": (
                self.svd_in_best_bound / best_calls if best_calls else 0.0
            ),
            "harness.report_bytes": self.report_bytes,
            "trace.spans": len(self.spans),
            "matrices.operator_norm.s": self._s("matrices.operator_norm"),
            "matrices.spectral_radius.s": self._s("matrices.spectral_radius"),
            "matrices.series_partial_sum.s": self._s("matrices.series_partial_sum"),
            "matrices.load_matrix.s": self._s("matrices.load_matrix"),
            "series.eval_companion.self_s": self.self_ns["series.eval_companion"] / 1e9,
            "series.order_search.s": self._s("series._order_and_tail"),
            "bounds.best_bound.s": self._s("bounds.best_bound"),
            "bounds.best_bound.self_s": self.self_ns["bounds.best_bound"] / 1e9,
            "harness.run_sweep.s": self._s("harness.run_sweep"),
            "harness.gen.s": self._s(*GEN),
            "harness.checks.s": self._s(*CHECKS),
            "harness.reports.s": self._s(*REPORTS),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line; times in ns from the first span."""
        origin = self.spans[0][3] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start - origin, "end_ns": end - origin,
                }) + "\n")


def combine(passes: list[dict[str, float]], pass_s: list[float],
            untraced_s: list[float]) -> tuple[dict[str, float], list[str]]:
    """Fold per-pass tracer metrics into one set; counters must agree."""
    first = passes[0]
    problems = [
        f"work counter {name} differs between traced passes"
        for name in COUNTERS
        if any(p[name] != first[name] for p in passes[1:])
    ]
    out = {name: (first[name] if name in COUNTERS
                  else statistics.median(p[name] for p in passes))
           for name in first}
    out["trace.pass_s"] = statistics.median(pass_s)
    out["trace.overhead_s"] = out["trace.pass_s"] - statistics.median(untraced_s)
    return out, problems

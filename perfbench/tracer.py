"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``monothetic`` modules at run time:
every module-level name bound to a traced function is rebound to a wrapper,
and ``uninstall`` restores the originals.  Nothing under ``src/`` changes.

Each call of a traced function is a span: a name, a start, an end, the
enclosing span (its parent) and the benchmark operation it belongs to.  Spans
are kept in memory and written out when the run ends.  A span's self time is
its duration minus the part of it covered by its child spans.

``base_norm`` and ``enumerate_h`` run thousands of times per operation and
call no traced function, so they are "hot": their calls are aggregated into
counters and their time is charged to the enclosing span as covered time,
instead of being stored one span per call.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass

_PKG = "monothetic"

# Traced functions, by module path; the span name drops the package prefix.
SPAN_TARGETS = (
    "cli.main",
    "verification.verify_extension",
    "verification.verify_norm_axioms",
    "verification.verify_density",
    "verification.verify_truncation",
    "serialize.load_table",
    "serialize.save_table",
    "construction.build_anchor_table",
    "construction.k_sequence",
    "construction.check_table_consistency",
    "counterexample.counterexample_scan",
    "evaluator.evaluate",
    "evaluator.evaluate_truncated",
    "evaluator.density_witness",
    "evaluator.truncation_index",
    "evaluator.best_decomposition",
)
HOT_TARGETS = ("groups.base_norm", "groups.enumerate_h")

SUITE_SPANS = {
    "extension": "verification.verify_extension",
    "axioms": "verification.verify_norm_axioms",
    "density": "verification.verify_density",
    "truncation": "verification.verify_truncation",
}

# Per-layer metrics of the traced run: (name, unit, better).  BENCHMARK.json
# lists the same names; the self-tests check that the two agree.
PER_LAYER = (
    ("evaluator.best_decomposition.calls", "count", "lower"),
    ("evaluator.best_decomposition.self_s", "s", "lower"),
    ("evaluator.best_decomposition.found_ratio", "ratio", "higher"),
    ("evaluator.best_decomposition.mean_level", "level", "lower"),
    ("evaluator.truncation_index.calls", "count", "lower"),
    ("evaluator.truncation_index.self_s", "s", "lower"),
    ("evaluator.evaluate.calls", "count", "lower"),
    ("evaluator.evaluate.self_s", "s", "lower"),
    ("evaluator.evaluate.exact_ratio", "ratio", "higher"),
    ("evaluator.evaluate_truncated.calls", "count", "lower"),
    ("evaluator.evaluate_truncated.self_s", "s", "lower"),
    ("evaluator.density_witness.self_s", "s", "lower"),
    ("groups.base_norm.calls", "count", "lower"),
    ("groups.base_norm.self_s", "s", "lower"),
    ("groups.enumerate_h.calls", "count", "lower"),
    ("groups.enumerate_h.cold_s", "s", "lower"),
    ("groups.enumerate_h.warm_s", "s", "lower"),
    ("construction.k_sequence.s", "s", "lower"),
    ("construction.build_anchor_table.s", "s", "lower"),
    ("construction.check_table_consistency.s", "s", "lower"),
    ("serialize.load_table.s", "s", "lower"),
    ("serialize.load_table.bytes", "bytes", "lower"),
    ("serialize.json_parse_s", "s", "lower"),
    ("serialize.save_table.s", "s", "lower"),
    ("serialize.save_table.bytes", "bytes", "lower"),
    ("counterexample.counterexample_scan.s", "s", "lower"),
    ("counterexample.counterexample_scan.certificates", "count", "higher"),
    ("counterexample.jsonl_bytes", "bytes", "lower"),
    ("verification.extension.self_s", "s", "lower"),
    ("verification.axioms.self_s", "s", "lower"),
    ("verification.axioms.skipped_ratio", "ratio", "lower"),
    ("verification.density.self_s", "s", "lower"),
    ("verification.truncation.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
COUNT_METRICS = frozenset(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    hot_covered: float = 0.0


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: max(0.0, span.end - span.start - span.hot_covered
                     - covered_length(children.get(span.id, []), span.start, span.end))
        for span in spans
    }


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Records spans around the traced functions while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.op: int | None = None
        self.spans: list[Span] = []
        self.hot: dict[str, list[float]] = {name: [0, 0.0] for name in HOT_TARGETS}
        self.counters: dict[str, float] = {}
        self.load_paths: list[str] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == _PKG or n.startswith(_PKG + ".")]
        for target in SPAN_TARGETS + HOT_TARGETS:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{_PKG}.{module_name}"], func_name)
            wrapper = (self._hot_wrapper(target, original) if target in HOT_TARGETS
                       else self._span_wrapper(target, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, original):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack
            span = Span(len(tracer.spans), name, 0.0, 0.0,
                        stack[-1].id if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _hot_wrapper(self, name: str, original):
        tracer = self
        totals = self.hot[name]
        cache_info = getattr(original, "cache_info", None)

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            misses = cache_info().misses if cache_info else None
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if misses is not None and cache_info().misses == misses:
                    tracer.count(name + ".warm_s", elapsed)
                else:
                    tracer.count(name + ".cold_s", elapsed)
                if tracer._stack:
                    tracer._stack[-1].hot_covered += elapsed

        traced.__wrapped__ = original
        return traced

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- results ------------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        selves = self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += selves[span.id]
        for name, (calls, total) in self.hot.items():
            out[name] = {"calls": calls, "s": total, "self_s": total}
        return out

    def layer_metrics(self, json_parse_s: float, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never calls reads 0."""
        stats = self.by_name()
        c = self.counters

        def get(name: str, key: str) -> float:
            return stats.get(name, {}).get(key, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        bd = "evaluator.best_decomposition"
        out = {
            f"{bd}.calls": get(bd, "calls"),
            f"{bd}.self_s": get(bd, "self_s"),
            f"{bd}.found_ratio": ratio(c.get(bd + ".found", 0), get(bd, "calls")),
            f"{bd}.mean_level": ratio(c.get(bd + ".levels", 0), get(bd, "calls")),
            "evaluator.evaluate.exact_ratio": ratio(
                c.get("evaluator.evaluate.exact", 0), get("evaluator.evaluate", "calls")),
            "evaluator.density_witness.self_s": get("evaluator.density_witness", "self_s"),
            "groups.enumerate_h.cold_s": c.get("groups.enumerate_h.cold_s", 0.0),
            "groups.enumerate_h.warm_s": c.get("groups.enumerate_h.warm_s", 0.0),
            "serialize.load_table.bytes": c.get("serialize.load_table.bytes", 0),
            "serialize.json_parse_s": json_parse_s,
            "serialize.save_table.bytes": c.get("serialize.save_table.bytes", 0),
            "counterexample.counterexample_scan.certificates":
                c.get("counterexample.counterexample_scan.certificates", 0),
            "counterexample.jsonl_bytes": c.get("counterexample.jsonl_bytes", 0),
            "verification.axioms.skipped_ratio": ratio(
                c.get("verification.axioms.skipped", 0), c.get("verification.axioms.samples", 0)),
            "cli.main.self_s": get("cli.main", "self_s"),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in ("evaluator.truncation_index", "evaluator.evaluate",
                     "evaluator.evaluate_truncated", "groups.base_norm", "groups.enumerate_h"):
            out[f"{name}.calls"] = get(name, "calls")
        for name in ("evaluator.truncation_index", "evaluator.evaluate",
                     "evaluator.evaluate_truncated", "groups.base_norm"):
            out[f"{name}.self_s"] = get(name, "self_s")
        for name in ("construction.k_sequence", "construction.build_anchor_table",
                     "construction.check_table_consistency", "serialize.load_table",
                     "serialize.save_table", "counterexample.counterexample_scan"):
            out[f"{name}.s"] = get(name, "s")
        for suite, span_name in SUITE_SPANS.items():
            out[f"verification.{suite}.self_s"] = get(span_name, "self_s")
        return {name: out[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op,
                }) + "\n")


# -- counters recorded where the work happens ---------------------------------

def _on_best_decomposition(tracer, args, kwargs, result):
    tracer.count("evaluator.best_decomposition.levels", _arg(args, kwargs, 3, "index_cap"))
    if result is not None:
        tracer.count("evaluator.best_decomposition.found")


def _on_evaluate(tracer, args, kwargs, result):
    if getattr(result, "is_exact", False):
        tracer.count("evaluator.evaluate.exact")


def _on_load_table(tracer, args, kwargs, result):
    path = os.fspath(_arg(args, kwargs, 0, "path"))
    tracer.load_paths.append(path)
    tracer.count("serialize.load_table.bytes", os.path.getsize(path))


def _on_save_table(tracer, args, kwargs, result):
    tracer.count("serialize.save_table.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _on_counterexample_scan(tracer, args, kwargs, result):
    tracer.count("counterexample.counterexample_scan.certificates", result.certificate_count)


def _on_verify_norm_axioms(tracer, args, kwargs, result):
    tracer.count("verification.axioms.skipped", result.skipped)
    tracer.count("verification.axioms.samples", result.samples)


_HOOKS = {
    "evaluator.best_decomposition": _on_best_decomposition,
    "evaluator.evaluate": _on_evaluate,
    "serialize.load_table": _on_load_table,
    "serialize.save_table": _on_save_table,
    "counterexample.counterexample_scan": _on_counterexample_scan,
    "verification.verify_norm_axioms": _on_verify_norm_axioms,
}

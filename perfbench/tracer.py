"""Span tracing around the public functions of each consrep layer.

A ``Tracer`` replaces each traced function with a wrapper in every
consrep module namespace that binds it (``repsem`` and ``verifier`` hold
their own ``evaluate`` binding, for instance), records one span per call
(name, start, end, parent span) in memory, and restores the originals on
``uninstall``.  ``calculus_ast`` is not wrapped: its functions run
millions of times below ``evaluate`` and already show in its self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span per call.
TARGETS = (
    ("evaluation", "evaluate"),
    ("evaluation", "eval_steps"),
    ("consensus_model", "classify_component"),
    ("consensus_model", "build_system"),
    ("repsem", "sf"),
    ("repsem", "sfi"),
    ("repsem", "rep_successors"),
    ("repsem", "validate_rep"),
    ("lts", "successors"),
    ("lts", "calculus_raw_successors"),
    ("lts", "initial_reps"),
    ("verifier", "explore"),
    ("verifier", "check_correspondence"),
    ("verifier", "check_confluence"),
    ("verifier", "check_normal_forms"),
    ("verifier", "check_properties"),
    ("verifier", "weak_bisim"),
    ("cli", "main"),
)

# Counters read off the results of traced calls, per op.
EXTRA_METRICS = (
    ("consensus_model.defs_cache.entries", "count"),
    ("consensus_model.wait_cache.entries", "count"),
    ("verifier.explore.new_state_ratio", "ratio"),
    ("verifier.check_confluence.configurations", "count"),
    ("verifier.check_confluence.diamonds", "count"),
)

OP_SPAN = "bench.op"


def layer_metric_names() -> list:
    """Every per-layer metric a traced op reports, as (name, unit)."""
    names = []
    for module, func in TARGETS:
        names.append((f"{module}.{func}.calls", "count"))
        names.append((f"{module}.{func}.self_s", "s"))
    return names + list(EXTRA_METRICS)


class Tracer:
    def __init__(self):
        self.spans: list = []        # (parent id, name, start, end); id = index
        self._stack: list = []
        self._patches: list = []     # (module, attribute, original)
        self._systems: list = []     # every System built while tracing
        self._explored = [0, 0]      # states, transitions over explore calls
        self._confluence = [0, 0]    # configurations, diamonds

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "consrep" or name.startswith("consrep.")]
        for module_name, func in TARGETS:
            original = getattr(sys.modules[f"consrep.{module_name}"], func)
            wrapper = self._wrap(f"{module_name}.{func}", original)
            for module in modules:
                if vars(module).get(func) is original:
                    self._patches.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patches):
            setattr(module, func, original)
        self._patches.clear()

    def _wrap(self, name: str, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = {
            "consensus_model.build_system": self._systems.append,
            "verifier.explore": self._observe_graph,
            "verifier.check_confluence": self._observe_confluence,
        }.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if observe is not None and hasattr(exc, "graph"):
                    observe(exc.graph)
                raise
            finally:
                spans[sid] = (parent, name, start, clock())
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_graph(self, graph) -> None:
        self._explored[0] += len(graph.node_ids)
        self._explored[1] += len(graph.edges)

    def _observe_confluence(self, report) -> None:
        self._confluence[0] += report.details["configurations"]
        self._confluence[1] += report.details["diamonds"]

    # -- one op -----------------------------------------------------------

    def run_op(self, op, system=None):
        """Run ``op()`` under a root span and return (result, metrics).

        ``system`` is a System built outside the op whose caches the op
        fills; Systems the op builds itself are picked up from
        ``build_system``."""
        first = len(self.spans)
        self._systems.clear()
        self._explored[:] = [0, 0]
        self._confluence[:] = [0, 0]
        self.spans.append(None)
        self._stack.append(first)
        start = time.perf_counter()
        try:
            result = op()
        finally:
            self.spans[first] = (-1, OP_SPAN, start, time.perf_counter())
            self._stack.pop()
        systems = self._systems + ([system] if system is not None else [])
        metrics = self._aggregate(first)
        if first > 0:
            # Keep the spans of the first traced op only; later ops are
            # aggregated and dropped, so memory does not grow per op.
            del self.spans[first:]
        metrics["consensus_model.defs_cache.entries"] = sum(
            len(s.defs.cache) for s in systems)
        metrics["consensus_model.wait_cache.entries"] = sum(
            len(s._wait_cache) for s in systems)
        states, transitions = self._explored
        metrics["verifier.explore.new_state_ratio"] = (
            states / transitions if transitions else 0.0)
        metrics["verifier.check_confluence.configurations"] = self._confluence[0]
        metrics["verifier.check_confluence.diamonds"] = self._confluence[1]
        return result, metrics

    def _aggregate(self, first: int) -> dict:
        """Call counts and self times of the spans from ``first`` on.

        A span's self time is its duration minus the durations of its
        direct children."""
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        child_time: dict = defaultdict(float)
        for parent, name, start, end in self.spans[first:]:
            calls[name] += 1
            total[name] += end - start
            if parent >= first:
                child_time[self.spans[parent][1]] += end - start
        metrics = {}
        for module, func in TARGETS:
            name = f"{module}.{func}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = total[name] - child_time[name]
        return metrics

    def write(self, path) -> None:
        """Write the kept spans as tab-separated id, parent, name, start
        and end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

"""Span recording around datransport's public functions, from outside the package.

``install`` replaces each traced name with a wrapper that records a span
(name, start, end, parent) in memory.  Callers that imported a function by
name hold their own reference to it, so the wrapper is installed on the
name each caller holds.  Nothing under ``src/`` is changed; the untraced
benchmark runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

# (module, attribute path, span name).  ``cli`` and ``scenarios`` import
# ``extract_plan`` and ``aggregate_marginals`` by name, ``sinkhorn_engine``
# imports ``build_pair_kernel`` by name, and the package namespace re-exports
# the library functions library callers import, so each of those bindings is
# wrapped.
TARGETS = [
    ("datransport.sinkhorn_engine", "PathSystem.compute_messages", "engine.messages"),
    ("datransport.sinkhorn_engine", "PathSystem.sweep", "engine.sweep"),
    ("datransport.sinkhorn_engine", "PathSystem.dual_objective", "engine.objective"),
    ("datransport.sinkhorn_engine", "PathSystem.transport_cost", "engine.cost"),
    ("datransport.sinkhorn_engine", "aggregate_marginals", "engine.marginals"),
    ("datransport.cli", "aggregate_marginals", "engine.marginals"),
    ("datransport.scenarios", "aggregate_marginals", "engine.marginals"),
    ("datransport", "aggregate_marginals", "engine.marginals"),
    ("datransport.cli", "extract_plan", "engine.extract"),
    ("datransport.scenarios", "extract_plan", "engine.extract"),
    ("datransport", "extract_plan", "engine.extract"),
    ("datransport.sinkhorn_engine", "build_pair_kernel", "kernels.build"),
    ("datransport.cli", "check_property", "scenarios.check"),
    ("datransport", "check_property", "scenarios.check"),
    ("datransport.scenarios", "ScenarioSpec.load", "scenarios.load"),
    ("datransport.scenarios", "ScenarioSpec.build", "scenarios.build"),
    ("datransport.cli", "main", "cli.main"),
]


def _plan_cells(state, path_index, *args, **kwargs) -> int:
    """Cells of the dense plan tensor ``extract_plan`` materialises: n_t ** n_p."""
    system = state.system
    return system.n_t ** system.paths[path_index].n_p


def _residual(result) -> float:
    """E0 + ET + V of one sweep."""
    return float(sum(result))


# span name -> function of the call's arguments giving a work count
COUNTERS = {"engine.extract": _plan_cells}
# span name -> function of the call's result kept for the last call
LAST_RESULT = {"engine.sweep": _residual}


class Tracer:
    """In-memory span list for one operation; spans are [name, start, end, parent, count]."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self.last: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _timed(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        keep = LAST_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            count = counter(*args, **kwargs) if counter else 1
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, count])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if keep:
                self.last[name] = keep(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in TARGETS; names a later version removed are listed in ``missing``."""
        for module_name, attr_path, span in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self._timed(span, raw.__func__)))
            else:
                setattr(owner, attr, self._timed(span, raw))

    def dump(self) -> dict:
        return {"op_id": self.op_id, "spans": self.spans, "last": self.last,
                "missing": self.missing}


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed count, total time and self time.

    A span's self time is its duration minus the time of its direct
    children; calls run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, count), inner in zip(spans, child_time):
        row = out.setdefault(name, {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["count"] += count
        row["total_s"] += end - start
        row["self_s"] += end - start - inner
    return out


def outermost_time(spans: list[list], names: set[str]) -> float:
    """Time inside spans of ``names``, counting a nested span of ``names`` only once."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total

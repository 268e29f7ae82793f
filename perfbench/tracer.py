"""Outside-in tracer for the bmatch layers.

The tracer replaces public functions by timing wrappers at the module
attribute where their callers look them up (for example
`bmatch.uniform.ab_to_pm`, which `solve_uniform` reads from its own module
globals).  No file of the package changes.  Each call becomes one span with
a name, start, end, parent span and op id; spans live in flat arrays until
the run ends, and a layer's self time is its span time minus the time its
child spans cover.  For a generator function the wrapper times every
advance of the iterator, not the call that creates it.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable

Observe = Callable[["Tracer", object], None]


def _observe_gadget(tracer: "Tracer", result) -> None:
    graph = result[0]
    tracer.counts["gadget.nodes"] += graph.vertex_count
    tracer.counts["gadget.edges"] += len(graph.edges)
    tracer.counts["gadget.edges_max"] = max(
        tracer.counts["gadget.edges_max"], len(graph.edges)
    )


def _observe_none(name: str) -> Observe:
    def observe(tracer: "Tracer", result) -> None:
        if result is None:
            tracer.counts[f"{name}.none"] += 1

    return observe


def _observe_candidates(tracer: "Tracer", result) -> None:
    tracer.counts["candidates.count"] += len(result)


# (module, attribute, span name, result observer, is generator).  Each entry
# is the place a caller looks the function up, so one function may appear
# under several modules.
PATCHES: tuple[tuple[str, str, str, Observe | None, bool], ...] = (
    ("bmatch.neighbourhood", "find_feasible", "find_feasible", None, False),
    ("bmatch.neighbourhood", "improvement_step", "improvement_step", None, False),
    (
        "bmatch.neighbourhood",
        "enumerate_candidates",
        "enumerate_candidates",
        _observe_candidates,
        False,
    ),
    (
        "bmatch.neighbourhood",
        "solve_uniform",
        "solve_uniform",
        _observe_none("solve_uniform"),
        False,
    ),
    ("bmatch.uniform", "uniform_to_ab", "uniform_to_ab", None, False),
    ("bmatch.uniform", "ab_to_pm", "ab_to_pm", _observe_gadget, False),
    (
        "bmatch.uniform",
        "max_weight_perfect_matching",
        "blossom",
        _observe_none("blossom"),
        False,
    ),
    ("bmatch.uniform", "lift", "lift", None, False),
    (
        "bmatch.oracle",
        "verify_improvement_theorem",
        "verify_improvement_theorem",
        None,
        False,
    ),
    ("bmatch.oracle", "verify_exchange_lemma", "verify_exchange_lemma", None, False),
    (
        "bmatch.oracle",
        "verify_canonical_decomposition",
        "verify_canonical_decomposition",
        None,
        False,
    ),
    ("bmatch.oracle", "enumerate_b_matchings", "enumerate_b_matchings", None, True),
    ("bmatch.oracle", "canonical_structure", "canonical_structure", None, False),
    ("bmatch.structure", "canonical_structure", "canonical_structure", None, False),
    (
        "bmatch.oracle",
        "extract_canonical_sequence",
        "extract_canonical_sequence",
        None,
        False,
    ),
    ("bmatch.oracle", "is_neighbouring_type", "is_neighbouring_type", None, False),
    ("bmatch.structure", "is_neighbouring_type", "is_neighbouring_type", None, False),
)


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def _wrap(self, fn, name: str, observe: Observe | None):
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                self.close(span)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            inner = fn(*args, **kwargs)

            def advance():
                while True:
                    span = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(span)
                    yield item

            return advance()

        return traced

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for module_name, attr, name, observe, generator in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = (
                    self._wrap_generator(original, name)
                    if generator
                    else self._wrap(original, name, observe)
                )
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        count = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += duration[i]
        out: dict[str, float] = {}
        for i in range(count):
            name = self.names[self.span_name[i]]
            out[name] = out.get(name, 0.0) + duration[i] - covered[i]
        return out

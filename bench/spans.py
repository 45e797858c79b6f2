"""Span tracing from the benchmark's side of the program's public interfaces.

Nothing inside `src/` is edited. A traced run wraps the injected backend, aux
predictor and entity DB, and `instrumented()` rebinds, for its duration only,
the public names that `dialogic.simulator` (and, for text normalisation,
`dialogic.textnorm` and `dialogic.corpus`) look up at call time.

A span is (id, parent id, name, start, end). Each thread keeps its own
parent stack, so spans from `workers=2` nest correctly. Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from dialogic.backend import CompletionBackend
from dialogic.revision import AuxPredictor


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` with a span around each call."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end]) + "\n")


class TracedBackend(CompletionBackend):
    def __init__(self, inner: CompletionBackend, tracer: Tracer):
        self.context_budget = inner.context_budget
        self.complete = tracer.wrap("backend.complete", inner.complete)


class TracedAux(AuxPredictor):
    def __init__(self, inner: AuxPredictor, tracer: Tracer):
        self.predict_belief = tracer.wrap("revision.aux_belief", inner.predict_belief)
        self.predict_act = tracer.wrap("revision.aux_act", inner.predict_act)


class TracedDb:
    """Entity DB stand-in: `query` is traced, everything else is the wrapped DB's."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.query = tracer.wrap("database.query", inner.query)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# (module, public name, span name)
REBOUND: tuple[tuple[str, str, str], ...] = (
    ("dialogic.simulator", "generate_goal_random", "goals.generate"),
    ("dialogic.simulator", "generate_goal_substitution", "goals.generate"),
    ("dialogic.simulator", "generate_goal_combination", "goals.generate"),
    ("dialogic.simulator", "select_examples", "exemplar.select"),
    ("dialogic.simulator", "build_prompt", "exemplar.build_prompt"),
    ("dialogic.simulator", "parse_user_line", "exemplar.parse_user"),
    ("dialogic.simulator", "parse_system_line", "exemplar.parse_system"),
    ("dialogic.simulator", "revise_belief", "revision.revise_belief"),
    ("dialogic.simulator", "revise_act", "revision.revise_act"),
    ("dialogic.simulator", "slot_value_match_filter", "revision.match_filter"),
    ("dialogic.simulator", "accumulate_state", "simulator.accumulate_state"),
    ("dialogic.simulator", "simulate_dialogue", "simulator.dialogue"),
    ("dialogic.simulator", "generate_turn_belief", "simulator.dst.turn_belief"),
    ("dialogic.simulator", "build_dst_prompt", "simulator.dst.build_prompt"),
    ("dialogic.simulator", "augment_dst_turn", "simulator.dst.augment"),
    ("dialogic.textnorm", "normalize_text", "textnorm.normalize"),
    ("dialogic.simulator", "normalize_text", "textnorm.normalize"),
    ("dialogic.corpus", "normalize_text", "textnorm.normalize"),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind the names in REBOUND to traced versions; restore them on exit."""
    saved = []
    wrapped: dict[int, Callable] = {}
    try:
        for module_name, attr, span_name in REBOUND:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = tracer.wrap(span_name, original)
            saved.append((module, attr, original))
            setattr(module, attr, wrapped[id(original)])
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@dataclass
class SpanTotals:
    count: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def totals(spans: list[Span]) -> dict[str, SpanTotals]:
    """Per span name: calls, total time, and self time (total minus direct children)."""
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds
    out: dict[str, SpanTotals] = {}
    for s in spans:
        t = out.setdefault(s.name, SpanTotals())
        t.count += 1
        t.seconds += s.seconds
        t.self_seconds += s.seconds - child_seconds.get(s.id, 0.0)
    return out

"""Spans recorded from outside the program.

The traced pass replaces the names through which `udgcut.reduction` calls
the drawing, gadget and model layers with wrappers that record a span per
call, and restores them afterwards; the benchmark's own calls into the
public functions go through `Tracer.wrap` as well.  Spans stay in memory.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Names looked up in udgcut.reduction's globals at call time.
REDUCTION_CALLEES = ("mesh_draw", "standardize", "validate_drawing",
                     "validate_standard", "crossings", "construct_H_on",
                     "validate_reduction", "validate_model", "precision2")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """fn recording one span per call; count(result) gives its counters."""
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counters.update(count(result))
            return result
        return traced

    @contextmanager
    def patched(self, module, names, counters=None):
        """Wrap module.<name> for each name while the block runs."""
        counters = counters or {}
        originals = {name: getattr(module, name) for name in names}
        try:
            for name, fn in originals.items():
                setattr(module, name, self.wrap(name, fn, counters.get(name)))
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on one thread, so they never overlap
    and their durations add up to the part of the interval they cover.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out

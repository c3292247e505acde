"""Spans around the calls the benchmark makes into tricentre's layers.

A span records a name, its start and end on the ``perf_counter`` clock and
the index of the span that was open when it began.  The layer of a span is
the part of its name before the first dot (``arcs.arc_family`` belongs to
``arcs``).  Spans are kept in memory and written out when the run ends.

The untraced runs use :class:`NullTracer`, whose ``call`` adds one Python
call and nothing else, so the same workload code serves both modes.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Records no spans, only when each unit of a pass started and ended.

    A workload body marks its units (an arc family, a shooting segment, a
    CLI command) with :meth:`lap`; ``laps`` maps each unit to its
    ``(start, end)`` on the ``perf_counter`` clock.
    """

    def __init__(self):
        self.laps: dict[str, tuple[float, float]] = {}

    @contextlib.contextmanager
    def lap(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.laps[name] = (t0, time.perf_counter())

    def span(self, name: str):
        return contextlib.nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Records one span per call made through :meth:`call` or :meth:`span`."""

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_total[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, children in zip(self.spans, child_total):
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - children
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0) + 1
        return out

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{**asdict(s), "start": s.start - t0, "end": s.end - t0}
                for s in self.spans]



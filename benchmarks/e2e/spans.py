"""Benchmark-side span recorder.

The ledger attributes time to layers *from outside*: nothing in ``src/`` is
instrumented, the harness wraps its own calls into public functions in
spans.  A span is ``(id, name, start, end, parent, op, attrs, scale)``; spans
of one op share the op id, and ``scale`` is the host slowdown factor measured
around the span (durations are reported divided by it).  Everything stays in
memory until :meth:`Recorder.dump` is called at the end of the run, so
recording costs two ``perf_counter`` reads and one list append per span.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs", "scale")

    def __init__(self, id, name, start, parent, op, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = attrs
        #: host slowdown factor while the span ran (see ``calibration.py``)
        self.scale = 1.0

    @property
    def duration(self) -> float:
        """Calibrated seconds: raw ``end - start`` over the host slowdown."""
        return (self.end - self.start) / self.scale

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
            "scale": self.scale,
        }


class Recorder:
    """In-memory span store of one benchmark process (single-threaded use).

    ``begin``/``end`` exist next to the ``span`` context manager because a
    trajectory step starts in one callback and ends in another.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.op: Optional[int] = None

    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent, self.op, attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> float:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name!r} closed while {popped.name!r} is innermost"
            )
        return span.duration

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def calibrate(self, first: int, factor: float) -> None:
        """Set the host slowdown factor of every span recorded since ``first``
        (a ``len(recorder.spans)`` taken earlier)."""
        for span in self.spans[first:]:
            span.scale = factor

    def self_times(self, op: int) -> Dict[str, float]:
        """Self time per span name within one op.

        A span's self time is its duration minus the part of that interval
        its direct children cover; summing over names therefore never counts
        a second twice.
        """
        covered: Dict[int, float] = defaultdict(float)
        mine = [s for s in self.spans if s.op == op and s.end is not None]
        for span in mine:
            if span.parent is not None:
                covered[span.parent] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span in mine:
            totals[span.name] += span.duration - covered[span.id]
        return dict(totals)

    def dump(self, path, header: Optional[Dict[str, object]] = None) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        rows = []
        for span in self.spans:
            if span.end is None:
                continue
            row = span.as_dict()
            row["start"] -= origin
            row["end"] -= origin
            rows.append(row)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"header": header or {}, "spans": rows}, handle, default=float)

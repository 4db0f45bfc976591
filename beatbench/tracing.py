"""Host-time spans recorded around calls into beatstream's layers.

The benchmark never edits the package. A traced run swaps module and class
attributes for timing wrappers, records one span per call (name, start,
end, parent, operation id), and puts every original back when it ends,
also when a call raises. Spans stay in memory until the run writes them
out in the Chrome Trace Event Format that ui.perfetto.dev opens.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: int    # Tracer.clock(), in ns
    end: int
    parent: int   # index into Tracer.spans, -1 for a root
    op: int       # decode step or costed position; negative during set-up

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: owner.attr becomes a span named `name`.

    `name` may be a function of the call's positional arguments, which
    lets one wrapped function feed two metrics. `count`, when given, adds
    to the tracer's counters from the span name and the arguments, for
    calls made inside an operation (op >= 0).
    """

    owner: object
    attr: str
    name: str | Callable[[tuple], str]
    count: Callable[[Counter, str, tuple], None] | None = None


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append(Span(name, self.clock(), 0, parent, self.op))
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name, count = target.name, target.count

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if count is not None and self.op >= 0:
                count(self.counts, label, args)
            idx = self._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for t in targets:
                original = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, cursor = 0, s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def write_chrome_trace(spans: list[Span], path: Path, process: str) -> None:
    """All spans as complete ("X") events on one track, times in µs."""
    t0 = min((s.start for s in spans), default=0)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": process}}]
    events += [{"name": s.name, "cat": layer_of(s.name), "ph": "X", "pid": 1, "tid": 1,
                "ts": (s.start - t0) / 1e3, "dur": s.duration / 1e3,
                "args": {"op": s.op}}
               for s in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

"""In-memory spans with per-thread parent stacks.

A span covers one call into a layer.  Its parent is the innermost span
still open on the same thread, so a span's self time (its duration minus
the time its children cover) stays correct when suites run on a thread
pool: work on another thread never counts as a child.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu_s: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Collects finished spans; safe to use from several threads."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(id=next(self._ids), name=name,
                    parent=stack[-1].id if stack else None,
                    thread=threading.get_ident(), start=self.clock())
        span.cpu_s = -self.cpu_clock()
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        span.end = self.clock()
        span.cpu_s += self.cpu_clock()
        if stack:
            stack[-1].child_s += span.seconds
        with self._lock:
            self.spans.append(span)


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, s, self_s, cpu_s and the sum of each count."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        t = out[sp.name]
        t["calls"] += 1
        t["s"] += sp.seconds
        t["self_s"] += sp.self_s
        t["cpu_s"] += sp.cpu_s
        for k, v in sp.counts.items():
            t[k] += v
    return out

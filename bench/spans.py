"""In-memory spans recorded around the library functions the protocol calls.

The benchmark never edits the program. A traced run replaces names in the
namespaces of ``phtlink.stations`` and ``phtlink.network`` (and methods on
the actor and storage classes) with thin timing wrappers, records one span
per call, and restores the originals afterwards. Spans live in memory until
the benchmark writes them out at the end.

Per-row calls (``pseudonymize``, called once per extracted row) do not get a
span each: their count and summed time are kept on the span that was open
when they ran. Those calls run on their parent's thread between the parent's
other children, so their time is subtracted from the parent's self time as a
plain sum.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans; None for a run's root span
    run_id: str
    attrs: dict = field(default_factory=dict)
    #: per-row calls folded into this span: name -> [count, seconds]
    folded: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """A span's duration minus the union of its children's intervals (clipped
    to the span) minus the time of per-row calls folded into it."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    folded = sum(seconds for _, seconds in span.folded.values())
    return span.duration - union_length(clipped) - folded


class Tracer:
    """Records spans for one run at a time, from any number of threads.

    A span's parent is the innermost span open on the same thread; a span
    opened on a thread with nothing open (a TCP worker, say) is a child of
    the current run's root span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._run_id = ""
        self._restore: list[tuple[object, str, object | None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else self._root

    @contextmanager
    def run(self, name: str, run_id: str):
        """Root span of one run; every span until it closes belongs to it."""
        self._run_id = run_id
        with self._span(name) as index:
            self._root = index
            try:
                yield self.spans[index]
            finally:
                self._root = None

    @contextmanager
    def span(self, name: str):
        with self._span(name) as index:
            yield self.spans[index]

    @contextmanager
    def _span(self, name: str):
        span = Span(name, time.perf_counter(), 0.0, self._current(), self._run_id)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack = self._stack()
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            span.end = time.perf_counter()

    def fold(self, name: str, seconds: float) -> None:
        parent = self._current()
        if parent is None:
            return
        with self._lock:
            entry = self.spans[parent].folded.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None, per_row: bool = False) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``on_call(span, args, result)`` may add attributes to the span. A
        name the owner no longer has is recorded in ``missing``.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        own = attr in vars(owner)  # a class may only inherit the name
        if per_row:
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.fold(name, time.perf_counter() - started)
        else:
            def wrapper(*args, **kwargs):
                with self.span(name) as span:
                    result = original(*args, **kwargs)
                    if on_call is not None:
                        on_call(span, args, result)
                    return result
        self._restore.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

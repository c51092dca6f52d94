"""In-memory span recording around the public functions of ``trigap``.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark wraps the calls it makes itself, uses ``run_sweep``'s ``solver=``
hook around ``gap_with_error``, and swaps the module attributes of
``trigap.eigensolver`` through which ``gap_with_error`` reaches
``solve_triangle`` and ``solve_triangle`` reaches ``build_mesh``,
``assemble`` and ``smallest_eigenpairs``.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed call: name, interval, causing span and recorded attributes."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder; the parent of a span is the innermost open
    span of the same thread unless the caller names one explicitly."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = Span(next(self._ids), name, time.perf_counter(), parent=parent, attrs=attrs)
        stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, name: str, func: Callable, describe: Callable | None = None) -> Callable:
        """``func`` inside a span; ``describe(args, kwargs, result)`` adds attributes."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if describe is not None:
                    record.attrs.update(describe(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def patched(self, module, attrs: dict[str, tuple[str, Callable | None]]) -> Iterator[None]:
        """Swap ``module.<attr>`` for a traced wrapper while the block runs.

        ``attrs`` maps the attribute to its span name and an optional
        ``describe`` callable.
        """
        originals = {attr: getattr(module, attr) for attr in attrs}
        try:
            for attr, (span_name, describe) in attrs.items():
                setattr(module, attr, self.wrap(span_name, originals[attr], describe))
            yield
        finally:
            for attr, func in originals.items():
                setattr(module, attr, func)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, parent: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == parent.span_id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the interval its children cover."""
        return span.duration - union_length(
            (c.start, c.end) for c in self.children(span)
        )

    def dump(self, path) -> None:
        rows = [
            {
                "id": s.span_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "attrs": s.attrs,
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
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

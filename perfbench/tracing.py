"""Spans recorded from outside the program, around each layer's entry points.

Wrappers replace module and class attributes for the length of one traced
pass; the pipeline reaches every layer through those attributes, so the
wrappers see every call. Spans stay in memory until the benchmark writes them
out at the end.

Calls that return a generator (``read_corpus``, ``PairStream.__iter__``) are
lazy: their span runs from the call until the generator is exhausted or
closed, and its ``busy`` time counts only the time spent inside ``next()``.
A parent's self time subtracts each child's busy time, so parse time inside
``write_bag_files`` and stream reads inside ``sgns.train`` are charged to the
reader, not to the consumer.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    busy: float | None = None  # None: the whole interval
    items: int | None = None  # values yielded, for generator spans
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def covered(self) -> float:
        return self.end - self.start if self.busy is None else self.busy

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, "busy": self.covered,
            "items": self.items, **self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own steps."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _consume(self, span: Span, gen):
        try:
            while True:
                self._stack.append(span)
                t = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    span.busy += perf_counter() - t
                    self._stack.pop()
                span.items += 1
                yield item
        finally:
            gen.close()
            span.end = perf_counter()

    def wrap(self, name: str, fn, note=None):
        """``fn`` inside a span; ``note(args, result)`` adds attributes after it ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                self.close(span)
                raise
            if inspect.isgenerator(result):
                self._stack.pop()
                span.busy, span.items, span.end = 0.0, 0, span.start
                return self._consume(span, result)
            self.close(span)
            if note is not None:
                span.attrs.update(note(args, result))
            return result

        return wrapper

    def install(self, targets):
        """Wrap ``(owner, attribute, span name, note)`` targets; returns an undo.

        A target the program no longer defines is skipped, and its layer
        metrics read 0.
        """
        saved = []
        for owner, attr, name, note in targets:
            if attr not in owner.__dict__:
                continue
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note))

        def undo():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return undo

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def self_times(self) -> dict[int, float]:
        kids = self.children()
        return {
            s.id: s.covered - sum(c.covered for c in kids.get(s.id, ())) for s in self.spans
        }

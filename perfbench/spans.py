"""In-memory spans and counters, attached to a program from outside it.

A :class:`Tracer` times named spans that may nest.  Each span name
accumulates its call count, its total time and its self time, which is the
total minus the time covered by the spans opened directly inside it.
:meth:`Tracer.wrap` swaps a module or class attribute for a wrapper that runs
the original inside a span, so the program itself stays untouched; an
attribute that does not exist is left alone and reported to the caller.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects span statistics and counters until :meth:`restore` is called."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStat] = {}
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [start, time covered by child spans]
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            duration = self.clock() - frame[0]
            stat = self.stats.setdefault(name, SpanStat())
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def count(self, increments: dict) -> None:
        self.counters.update(increments)

    def _install(self, owner, attr: str, original, wrapper) -> None:
        wrapper.__wrapped__ = original
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name, count=None) -> bool:
        """Run ``owner.attr`` inside a span for as long as the tracer is installed.

        ``name`` is a span name, or a function of the call's ``(args, kwargs)``
        that returns one.  ``count(args, kwargs, result)`` returns counter
        increments for one call.  Returns False if ``owner`` has no ``attr``.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = original(*args, **kwargs)
            if count is not None:
                self.count(count(args, kwargs, result))
            return result

        self._install(owner, attr, original, wrapper)
        return True

    def wrap_generator(self, owner, attr: str, name: str, count=None) -> bool:
        """Like :meth:`wrap` for a generator function: one span per item.

        The span covers the generator's own work between two items, never the
        consumer's work while the generator is suspended.
        ``count(item)`` returns counter increments for one item.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False

        def wrapper(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                if count is not None:
                    self.count(count(item))
                yield item

        self._install(owner, attr, original, wrapper)
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

"""Span tracing from outside the program: wrappers, a span stack, restore.

The benchmark never edits ``src/``.  To attribute time to a layer it
replaces a callable with a timing wrapper for the duration of one traced
pass, in this process only, and restores the original afterwards:

* a bound method on a live instance (``core.tick``) is shadowed by an
  instance attribute of the same name, which attribute lookup finds
  before the class method; restoring deletes the attribute again;
* a module or class attribute (``repro.engine.queue.plan_shards``,
  ``Simulator._functional_warmup``) is swapped and swapped back;
* an iterator consumed with ``next()`` is replaced by a
  :class:`TracedIterator` proxy.

Every wrapper pushes onto one span stack, so a span's *self* time is its
duration minus the time its child spans covered; the self times of all
spans inside a root span therefore add up to the root's wall time.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable


class SpanTracer:
    """Per-name call counts and self time, from nested timing wrappers."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        #: Child time accumulated by each open span, innermost last.
        self._stack: list[float] = []

    def enter(self) -> float:
        self._stack.append(0.0)
        return self.clock()

    def exit(self, name: str, start: float) -> None:
        elapsed = self.clock() - start
        children = self._stack.pop()
        self.calls[name] += 1
        self.self_s[name] += elapsed - children
        self.total_s[name] += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable that runs ``fn`` inside span ``name``."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, start)

        traced.__wrapped__ = fn
        return traced

    def depth(self) -> int:
        return len(self._stack)


class TracedIterator:
    """Iterator proxy timing every ``next()`` under a (renamable) span."""

    def __init__(self, tracer: SpanTracer, name: str, inner) -> None:
        self.tracer = tracer
        self.name = name
        self.inner = inner

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self):
        start = self.tracer.enter()
        try:
            return next(self.inner)
        finally:
            self.tracer.exit(self.name, start)


class Patcher:
    """Installs timing wrappers and guarantees their removal."""

    _MISSING = object()

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, target: object, attr: str, value: object) -> None:
        """Set ``target.attr`` to ``value`` until :meth:`restore`."""
        previous = vars(target).get(attr, self._MISSING)
        self._undo.append((target, attr, previous))
        setattr(target, attr, value)

    def method(self, instance: object, attr: str, name: str) -> None:
        """Shadow ``instance.attr`` (a bound method) with a traced one.

        An object reachable twice (a shared policy, say) is wrapped once,
        so its calls are never double counted.
        """
        if any(target is instance and key == attr for target, key, _ in self._undo):
            return
        self.replace(instance, attr, self.tracer.wrap(name, getattr(instance, attr)))

    def attribute(self, owner: object, attr: str, name: str) -> None:
        """Swap a module or class attribute for a traced wrapper.

        Functions stored on a class are wrapped unbound, so the wrapper is
        itself a plain function and still binds ``self`` on lookup.
        """
        self.replace(owner, attr, self.tracer.wrap(name, vars(owner)[attr]))

    def restore(self) -> None:
        """Undo every patch, newest first; idempotent."""
        while self._undo:
            target, attr, previous = self._undo.pop()
            if previous is self._MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, previous)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

"""Context-local hierarchical tracing: spans and counters.

The tracer answers "where does the time go?" inside a tick: Q-scoring
vs LP solves vs vertex clipping.  Design constraints, in order:

1. **Free when off.**  No tracer is installed by default.  Hot paths
   fetch the active tracer once (:func:`active_tracer`, one
   ``ContextVar`` read) and skip all instrumentation when it is
   ``None``; the module-level :func:`span` helper returns a shared
   no-op singleton, so a disabled call allocates nothing and records
   nothing.  The engine's determinism and golden-session bit-identity
   guarantees are therefore untouched by this module.
2. **Context-local.**  Installation via :func:`use_tracer` uses a
   ``ContextVar``, exactly like the LP cache's
   :func:`repro.geometry.lp.use_cache`: two engines on different
   threads (or asyncio tasks) each see only their own tracer, and
   exiting one ``use_tracer`` block can never clobber a concurrent
   thread's installation.
3. **Cheap when on.**  Closing a span updates an incremental per-name
   aggregate (calls, total seconds, self seconds), so exporters never
   walk the span tree; the tree itself is bounded by ``max_spans``
   (aggregates keep counting after the cap).

Span names are dotted-and-slashed paths, e.g.
``lp.solve/chebyshev/hit``: the first dotted component names the
layer, the slash components split the aggregate (LP kind, cache
hit/miss) without exploding tag cardinality.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

class SpanNode:
    """One finished (or in-flight) span in the trace tree."""

    __slots__ = ("name", "tags", "start", "duration", "children")

    def __init__(self, name: str, tags: dict[str, Any] | None) -> None:
        self.name = name
        self.tags = tags
        #: Seconds since the tracer's origin (filled by the tracer).
        self.start = 0.0
        #: Wall seconds between enter and exit (0.0 while in flight).
        self.duration = 0.0
        self.children: list[SpanNode] = []

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name!r}, start={self.start:.6f}, "
            f"dur={self.duration:.6f}, children={len(self.children)})"
        )


class SpanAggregate:
    """Running totals for one span name."""

    __slots__ = ("calls", "total_seconds", "self_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.total_seconds = 0.0
        self.self_seconds = 0.0

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready representation (used by the exporters)."""
        return {
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "self_seconds": self.self_seconds,
        }


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: The one instance every disabled :func:`span` call returns — call
#: sites never allocate a fresh object when tracing is off.
NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager opening/closing one :class:`SpanNode`."""

    __slots__ = ("_tracer", "_name", "_tags", "_node", "_entered_at")

    def __init__(
        self, tracer: "Tracer", name: str, tags: dict[str, Any] | None
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._node: SpanNode | None = None
        self._entered_at = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._entered_at = time.perf_counter()
        self._node = self._tracer._open(
            self._name, self._tags, self._entered_at
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(
            self._name, self._node, self._entered_at, time.perf_counter()
        )
        return None


class _OpenFrames(threading.local):
    """Per-thread open-span bookkeeping for one :class:`Tracer`.

    Span nesting is a property of one thread's call stack: one thread's
    ``lp.solve`` span is not a child of whatever span another thread
    happens to have open.  Keeping the node stack and the
    accumulated-child-durations stack thread-local makes parent/child
    attribution (and therefore self-time accounting) correct when one
    tracer receives spans from several threads: every thread that
    installs the same :class:`Tracer` feeds it.
    """

    def __init__(self) -> None:
        #: Open nodes, innermost last (``None`` entries past the cap).
        self.stack: list[SpanNode | None] = []
        #: Parallel stack of child durations for self-time computation.
        self.child_seconds: list[float] = []


class Tracer:
    """In-memory span tree plus incremental aggregates and counters.

    Parameters
    ----------
    max_spans:
        Upper bound on :class:`SpanNode` objects kept in the tree.
        Opening a span past the cap still *times* it — aggregates and
        counters stay exact — but no node is recorded and
        ``dropped_spans`` is incremented, so a pathological
        tracing-enabled run degrades to aggregate-only instead of
        exhausting memory.

    Thread safety: span *nesting* is tracked per thread (a worker
    thread's spans root their own subtree rather than splicing into
    the driver's open span), and the shared structures — tree roots,
    aggregates, counters — are mutated under an internal lock, so the
    same tracer instance can be propagated to worker threads the way
    the serving layer propagates its LP cache.  The lock is uncontended
    (and the thread-local lookup is one dict probe) in the
    single-threaded case, keeping tracing-on overhead flat.
    """

    def __init__(self, max_spans: int = 1_000_000) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = int(max_spans)
        #: Top-level spans, in open order.
        self.roots: list[SpanNode] = []
        #: Named monotonically increasing counters.
        self.counters: dict[str, float] = {}
        #: Spans discarded from the tree after ``max_spans``.
        self.dropped_spans = 0
        self._origin = time.perf_counter()
        self._spans_recorded = 0
        self._frames = _OpenFrames()
        self._lock = threading.Lock()
        self._aggregates: dict[str, SpanAggregate] = {}

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **tags: Any) -> _SpanHandle:
        """A context manager timing ``name`` as a child of the open span."""
        return _SpanHandle(self, name, tags or None)

    def counter(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- views ---------------------------------------------------------------

    @property
    def spans_recorded(self) -> int:
        """Finished spans kept in the tree so far."""
        return self._spans_recorded

    def aggregate(self) -> dict[str, SpanAggregate]:
        """Per-name running totals, name-sorted (calls, total, self)."""
        return {
            name: self._aggregates[name] for name in sorted(self._aggregates)
        }

    # -- internals used by _SpanHandle ---------------------------------------

    def _open(
        self, name: str, tags: dict[str, Any] | None, now: float
    ) -> SpanNode | None:
        frames = self._frames
        node: SpanNode | None = None
        if self._spans_recorded + len(frames.stack) < self.max_spans:
            node = SpanNode(name, tags)
            node.start = now - self._origin
        else:
            with self._lock:
                self.dropped_spans += 1
        frames.stack.append(node)
        frames.child_seconds.append(0.0)
        return node

    def _close(
        self,
        name: str,
        node: SpanNode | None,
        entered_at: float,
        now: float,
    ) -> None:
        frames = self._frames
        duration = now - entered_at
        children = frames.child_seconds.pop()
        frames.stack.pop()
        if frames.child_seconds:
            frames.child_seconds[-1] += duration
        self_seconds = duration - children
        parent = frames.stack[-1] if frames.stack else None
        with self._lock:
            aggregate = self._aggregates.get(name)
            if aggregate is None:
                aggregate = self._aggregates[name] = SpanAggregate()
            aggregate.calls += 1
            aggregate.total_seconds += duration
            aggregate.self_seconds += self_seconds
            if node is not None:
                node.duration = duration
                if parent is not None:
                    parent.children.append(node)
                else:
                    self.roots.append(node)
                self._spans_recorded += 1

    def __repr__(self) -> str:
        return (
            f"Tracer(spans={self._spans_recorded}, "
            f"names={len(self._aggregates)}, "
            f"counters={len(self.counters)})"
        )


#: Installed tracer, context-local for the same reason the LP cache is:
#: concurrent engines on other threads/tasks must not see each other's
#: installations (see the module docstring).
_active_tracer: ContextVar[Tracer | None] = ContextVar(
    "repro_obs_active_tracer", default=None
)


def active_tracer() -> Tracer | None:
    """The tracer installed by :func:`use_tracer`, or ``None`` (off)."""
    return _active_tracer.get()


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the block (context-local, nestable).

    The innermost tracer wins and the previous one is restored on exit;
    concurrent threads or asyncio tasks are unaffected, mirroring
    :func:`repro.geometry.lp.use_cache`.
    """
    token = _active_tracer.set(tracer)
    try:
        yield tracer
    finally:
        _active_tracer.reset(token)


def span(name: str, **tags: Any) -> Any:
    """Time a block under the active tracer; no-op singleton when off.

    Hot loops that cannot afford even the disabled call should fetch
    :func:`active_tracer` once and branch on ``None`` instead.
    """
    tracer = _active_tracer.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **tags)


def counter(name: str, value: float = 1) -> None:
    """Bump a named counter on the active tracer; no-op when off."""
    tracer = _active_tracer.get()
    if tracer is not None:
        tracer.counter(name, value)

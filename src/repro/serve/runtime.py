"""The serving runtime seam: :class:`Runtime`.

A *runtime* is anything that accepts :class:`~repro.serve.spec.SessionSpec`
submissions and produces :class:`~repro.core.session.SessionResult`\\ s:
the in-process :class:`~repro.serve.scheduler.ContinuousEngine`, or the
multi-process :class:`~repro.serve.dispatch.ShardedDispatcher` that fans
work out to one engine per worker process.  The HTTP service
(:class:`~repro.server.app.SessionService`) and ``serve-bench``
(:func:`~repro.serve.bench.run_serve_bench`) depend only on this
protocol, so swapping single-process for sharded serving is a
constructor argument, not a rewrite.

The protocol is structural (:func:`typing.runtime_checkable`): any class
with the right methods conforms — ``ContinuousEngine`` predates this
module and satisfies it unchanged.

There is one road from asyncio to any runtime: the HTTP service submits
with :meth:`Runtime.submit` from its event loop, and one collector
thread iterates :meth:`Runtime.as_completed`, resolving each session's
future from ``result.metrics.session_id`` (the submission ticket) as
soon as that session finishes.  A runtime therefore has to accept
submissions from one thread while another iterates ``as_completed``.

Contract highlights every implementation honours:

* :meth:`Runtime.submit` returns a monotonically increasing ticket, and
  every produced result carries that ticket as
  ``result.metrics.session_id``.
* :meth:`Runtime.as_completed` yields results in completion order and
  *consumes* them; :meth:`Runtime.drain` returns the current epoch's
  unconsumed results in submission order.
* :meth:`Runtime.close` is idempotent; submitting to a closed runtime
  raises :class:`~repro.errors.InteractionError`.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import SessionResult
    from repro.persist import SessionSnapshot
    from repro.serve.metrics import EngineMetrics
    from repro.serve.spec import SessionSpec
    from repro.users.oracle import User


@runtime_checkable
class Runtime(Protocol):
    """Structural protocol for session-serving runtimes.

    Implemented by :class:`~repro.serve.scheduler.ContinuousEngine`
    (single process) and
    :class:`~repro.serve.dispatch.ShardedDispatcher` (one engine per
    worker process).  See the module docstring for the cross-
    implementation contract.
    """

    #: Aggregate metrics accumulated over the runtime's lifetime.
    metrics: "EngineMetrics"
    #: Metrics snapshot taken at the most recent drain (or close).
    last_metrics: "EngineMetrics | None"

    def submit(self, session: "SessionSpec", trace: bool = False) -> int:
        """Queue one session for service; return its ticket."""
        ...

    def as_completed(self) -> Iterator["SessionResult"]:
        """Yield-and-consume results as sessions finish (completion order)."""
        ...

    def drain(self) -> list["SessionResult"]:
        """Run until idle; return unconsumed results in submit order."""
        ...

    def checkpoint(
        self,
        ticket: int,
        *,
        session_id: str | None = None,
        agent_ref: str | None = None,
    ) -> "SessionSnapshot":
        """Snapshot a live session by ticket (persisting when stored)."""
        ...

    def resume(
        self,
        snapshot_or_id: "SessionSnapshot | str",
        user: "User",
        *,
        agent: Any | None = None,
        dataset: Any | None = None,
        trace: bool = False,
    ) -> int:
        """Admit a checkpointed session mid-flight; return its ticket."""
        ...

    def close(self) -> None:
        """Release resources; idempotent.  Further submits must raise
        :class:`~repro.errors.InteractionError`."""
        ...

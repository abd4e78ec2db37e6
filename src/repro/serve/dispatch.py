"""Multi-process session serving: :class:`ShardedDispatcher`.

One Python process cannot outrun the GIL: scheduler ticks, HiGHS
solves and result book-keeping all contend for the same interpreter.
The dispatcher implements the :class:`~repro.serve.runtime.Runtime`
protocol by sharding submitted :class:`~repro.serve.spec.SessionSpec`\\ s
across ``procs`` worker *processes*, each running its own
:class:`~repro.serve.scheduler.ContinuousEngine` with its own
:class:`~repro.geometry.lp.LPCache` and, optionally, its own
:class:`~repro.obs.tracer.Tracer` whose aggregate report rides home for
cross-process observability.  The engine options it forwards are
checked with :meth:`~repro.serve.scheduler.ContinuousEngine.check_options`
before anything forks, so a bad option fails in the caller rather than
killing every worker.

Design notes
------------

**Fork-at-wave.**  Session factories are closures (they capture trained
agents, datasets, per-session RNG streams) and users carry live RNG
state — neither survives a pickle.  So specs are never sent over a
pipe: workers are *forked* at the start of each wave (a
:meth:`drain`/:meth:`as_completed` call) with their assigned work as
``Process`` args, which the ``fork`` start method shares through
copy-on-write memory instead of serialising.  Only results, checkpoint
notices and worker summaries — all plain picklable values — cross the
one-way pipe back to the parent.  The dispatcher therefore requires a
platform with the ``fork`` start method (Linux; the CI matrix).

**Affinity.**  A session's shard is ``crc32(session_id) % procs`` over
its ``tags["session_id"]`` (falling back to its ticket), *not* builtin
``hash()``, which is salted per process and would scatter a session's
checkpoints across restarts.  The same id always lands on the same
worker, so its LP cache re-use and checkpoint files stay local to one
shard.

**Fault tolerance = crash-resume.**  With a ``store``, workers
checkpoint their in-flight sessions after every tick through the shared
:class:`~repro.persist.store.FileSessionStore`.  A worker that
disappears mid-wave (segfault, OOM-kill, SIGKILL) is detected by EOF on
its pipe without a final ``done`` message; the parent forks a
replacement that re-admits the lost sessions — from their latest
checkpoint when one exists (the resumed transcript is stitched
contiguously, exactly as PR 7's crash-resume does), from their original
spec otherwise.  After :data:`MAX_RESTARTS` replacement forks in one wave,
remaining lost sessions are returned as ``status == "failed"`` results
rather than looping forever.

**Determinism.**  Per-session transcripts are independent of scheduling
(the ``ContinuousEngine`` guarantee), and a forked worker sees
bit-identical copies of the dataset, agent weights and user RNG state,
so ``ShardedDispatcher(procs=N)`` results are bit-identical to a
single-process run — the golden equivalence test and the CI
``dispatch`` gate assert exactly this.
"""

from __future__ import annotations

import multiprocessing
import time
import threading
import zlib
from collections.abc import Iterator, Mapping
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.session import DEFAULT_MAX_ROUNDS, SessionResult
from repro.errors import ConfigurationError, InteractionError, PersistenceError
from repro.obs.export import aggregate_report
from repro.obs.tracer import Tracer, use_tracer
from repro.registry import agents_by_family
from repro.serve.metrics import EngineMetrics, SessionError, SessionMetrics
from repro.serve.scheduler import ContinuousEngine
from repro.serve.spec import SessionSpec, require_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persist import SessionSnapshot
    from repro.persist.store import SessionStore
    from repro.users.oracle import User

#: Replacement workers forked per wave before the sessions a dead worker
#: still held are failed instead of re-admitted.
MAX_RESTARTS = 2


@dataclass
class _WorkItem:
    """One unit of a worker's assignment (fork-shared, never pickled)."""

    ticket: int
    #: The spec to admit — ``None`` for a crash-resume directive, which
    #: re-admits ``resume_id`` from the shared store instead.
    spec: Any
    user: "User"
    trace: bool
    #: Stable checkpoint id for this session.
    session_id: str
    resume_id: str | None = None


@dataclass
class _WorkerOptions:
    """Engine configuration forked into every worker."""

    max_rounds: int
    max_in_flight: int
    recover: bool
    store: "SessionStore | None"
    collect_obs: bool
    agents: Mapping[str, Any]
    dataset: Any


@dataclass
class _WorkerState:
    """Parent-side view of one live worker process."""

    shard: int
    process: Any
    conn: Any
    items: dict[int, _WorkItem]
    unfinished: set[int] = field(default_factory=set)
    done: bool = False


def _flush_completed(
    engine: ContinuousEngine,
    by_local: dict[int, "_WorkItem"],
    conn: Any,
) -> None:
    """Send every newly finished session up the pipe, ticket-remapped."""
    for result in engine.poll_completed():
        item = by_local[result.metrics.session_id]
        result.metrics.session_id = item.ticket
        conn.send(("result", item.ticket, result))


def _worker_main(
    shard: int,
    items: list[_WorkItem],
    options: _WorkerOptions,
    conn: Any,
) -> None:
    """One worker: own engine, own LP state, stream results back.

    Runs in a forked child.  Messages sent up the pipe:

    * ``("result", ticket, SessionResult)`` — one per finished session,
      ``metrics.session_id`` already remapped to the *global* ticket;
    * ``("ckpt", ticket, session_id)`` — a checkpoint landed in the
      shared store (the parent's crash-resume ledger);
    * ``("done", shard, EngineMetrics, report | None)`` — clean
      shutdown summary.  A pipe that EOFs without this message is a
      dead worker.
    """
    from repro.persist import resumed_spec

    tracer = Tracer() if options.collect_obs else None
    tracer_ctx = use_tracer(tracer) if tracer is not None else nullcontext()
    engine = ContinuousEngine(
        max_rounds=options.max_rounds,
        recover=options.recover,
        max_in_flight=options.max_in_flight,
        store=options.store,
    )
    try:
        with tracer_ctx:
            by_local: dict[int, _WorkItem] = {}
            for item in items:
                if item.resume_id is not None:
                    assert options.store is not None
                    snapshot = options.store.get(item.resume_id)
                    spec = resumed_spec(
                        snapshot,
                        item.user,
                        agent=options.agents.get(snapshot.family),
                        dataset=options.dataset,
                    )
                else:
                    spec = item.spec
                by_local[engine.submit(spec, trace=item.trace)] = item
            while engine.has_work:
                engine.step()
                if options.store is not None:
                    for local in engine.in_flight_tickets:
                        item = by_local[local]
                        try:
                            engine.checkpoint(
                                local, session_id=item.session_id
                            )
                        except Exception:  # noqa: BLE001 -- best effort
                            continue
                        conn.send(("ckpt", item.ticket, item.session_id))
                _flush_completed(engine, by_local, conn)
        engine.close()
        metrics = engine.last_metrics or engine.metrics
        report = aggregate_report(tracer) if tracer is not None else None
        conn.send(("done", shard, metrics, report))
    finally:
        conn.close()


class ShardedDispatcher:
    """Serve sessions across ``procs`` worker processes (a `Runtime`).

    Parameters
    ----------
    procs:
        Worker process count (>= 1).  Each worker runs its own
        :class:`~repro.serve.scheduler.ContinuousEngine`.
    max_rounds / max_in_flight / recover:
        Forwarded to every worker's engine (``max_in_flight`` is the
        *per-worker* admission cap) and checked here, before any fork.
    store:
        Shared snapshot store; when set, every worker checkpoints its
        in-flight sessions into it after each tick.  Crash-resume across
        worker deaths needs a
        :class:`~repro.persist.store.FileSessionStore` — a memory store
        forked into a worker dies with it.
    agents / dataset:
        Context for rebuilding crash-resumed sessions
        (:func:`~repro.persist.restore_session` needs the trained agent
        for RL families and the dataset when snapshots omit points).
        ``agents`` is keyed by family name (display names accepted, as
        in :class:`~repro.server.app.SessionService`); an agent filed
        under another family's name raises
        :class:`~repro.errors.ConfigurationError` before any fork.
    collect_obs:
        Install a per-worker :class:`~repro.obs.tracer.Tracer` and
        aggregate the workers' span reports into
        :attr:`worker_reports` (merged view:
        :func:`repro.obs.export.merge_aggregate_reports`).

    Examples
    --------
    >>> from repro.serve import SessionSpec, ShardedDispatcher
    >>> with ShardedDispatcher(procs=4) as dispatcher:  # doctest: +SKIP
    ...     for seed, user in enumerate(users):
    ...         dispatcher.submit(SessionSpec(
    ...             factory=lambda s=seed: agent.new_session(rng=s),
    ...             user=user, seed=seed))
    ...     results = dispatcher.drain()
    """

    def __init__(
        self,
        procs: int = 2,
        *,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        max_in_flight: int = 64,
        recover: bool = False,
        store: "SessionStore | None" = None,
        agents: Mapping[str, Any] | None = None,
        dataset: Any | None = None,
        collect_obs: bool = False,
    ) -> None:
        if procs < 1:
            raise ConfigurationError(f"procs must be >= 1, got {procs}")
        ContinuousEngine.check_options(max_rounds, max_in_flight)
        agents = agents_by_family(agents)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "ShardedDispatcher needs the 'fork' start method (session "
                "factories are closures and cannot cross a spawn barrier); "
                "this platform does not provide it"
            )
        self._ctx = multiprocessing.get_context("fork")
        self.procs = int(procs)
        self.store = store
        self._options = _WorkerOptions(
            max_rounds=int(max_rounds),
            max_in_flight=int(max_in_flight),
            recover=bool(recover),
            store=store,
            collect_obs=bool(collect_obs),
            agents=agents,
            dataset=dataset,
        )
        self._lock = threading.RLock()
        self._closed = False
        self._next_ticket = 0
        #: Submitted-but-unfinished work, keyed by global ticket.
        self._backlog: dict[int, _WorkItem] = {}
        #: Tickets submitted since the last drain and not yet consumed,
        #: in submission order (a dict for O(1) removal).
        self._epoch: dict[int, None] = {}
        self._results: dict[int, SessionResult] = {}
        #: Latest checkpoint id per live ticket (the crash-resume ledger).
        self._ckpts: dict[int, str] = {}
        self._live: list[_WorkerState] = []
        self.metrics = EngineMetrics()
        self.metrics.in_flight_cap = self._options.max_in_flight
        self.last_metrics: EngineMetrics | None = None
        #: Per-worker tracer aggregate reports (``collect_obs=True``),
        #: newest wave last.
        self.worker_reports: list[dict[str, Any]] = []
        #: Results produced by the current wave, not yet yielded.
        self._finished: list[SessionResult] = []

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ShardedDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Terminate any live workers and refuse further submissions.

        Idempotent.  Backlogged and in-flight sessions are abandoned
        (their tickets never produce results), so :meth:`drain` first
        if you care.  A wave running on another thread stops without
        forking again: its :meth:`as_completed` or :meth:`drain` returns
        what finished before the close.  The wave owns its workers'
        pipes and closes them as it ends.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            live, self._live = self._live, []
            self.last_metrics = self.metrics
            self._backlog.clear()
        for state in live:
            if state.process.is_alive():
                state.process.terminate()
            state.process.join(timeout=5.0)

    def _check_open(self) -> None:
        if self._closed:
            raise InteractionError(
                "dispatcher is closed; create a new ShardedDispatcher"
            )

    # -- submission ----------------------------------------------------------

    def submit(self, session: SessionSpec, trace: bool = False) -> int:
        """Queue one session; return its dispatcher-wide ticket.

        Accepts only a :class:`~repro.serve.spec.SessionSpec`; anything
        else raises :class:`~repro.errors.ConfigurationError`.  Work is
        held in the parent until the next wave
        (:meth:`drain`/:meth:`as_completed`) forks workers for it.
        """
        with self._lock:
            self._check_open()
            spec = require_spec(session)
            ticket = self._next_ticket
            self._next_ticket += 1
            tagged = spec.tags.get("session_id")
            session_id = (
                str(tagged) if tagged is not None else f"ticket-{ticket}"
            )
            self._backlog[ticket] = _WorkItem(
                ticket=ticket,
                spec=spec,
                user=spec.user,
                trace=trace,
                session_id=session_id,
            )
            self._epoch[ticket] = None
            return ticket

    def checkpoint(
        self,
        ticket: int,
        *,
        session_id: str | None = None,
        agent_ref: str | None = None,
    ) -> "SessionSnapshot":
        """The latest worker-written snapshot for ``ticket``.

        Dispatcher sessions live in worker processes, so the parent
        cannot capture state on demand; checkpoints are taken *inside*
        workers after every tick when a ``store`` is set.  This returns the
        most recent one from the shared store (``session_id`` /
        ``agent_ref`` overrides do not apply — naming is fixed at
        submission).
        """
        del session_id, agent_ref
        with self._lock:
            stored = self._ckpts.get(ticket)
        if stored is None or self.store is None:
            raise PersistenceError(
                f"no checkpoint for ticket {ticket}: dispatcher sessions "
                "checkpoint inside their worker — construct the "
                "dispatcher with store="
            )
        return self.store.get(stored)

    def resume(
        self,
        snapshot_or_id: "SessionSnapshot | str",
        user: "User",
        *,
        agent: Any | None = None,
        dataset: Any | None = None,
        trace: bool = False,
    ) -> int:
        """Admit a checkpointed session; return its ticket.

        Mirrors :meth:`ContinuousEngine.resume
        <repro.serve.scheduler.ContinuousEngine.resume>`: accepts a
        snapshot or, when the dispatcher has a store, a bare id.  The
        resumed spec keeps its ``session_id`` tag, so it shards back to
        its original worker.
        """
        from repro.persist import resumed_spec

        if isinstance(snapshot_or_id, str):
            if self.store is None:
                raise PersistenceError(
                    "resume by id needs a store; pass store= to the "
                    "dispatcher or resume from a SessionSnapshot"
                )
            snapshot = self.store.get(snapshot_or_id)
        else:
            snapshot = snapshot_or_id
        spec = resumed_spec(
            snapshot,
            user,
            agent=agent if agent is not None
            else self._options.agents.get(snapshot.family),
            dataset=dataset if dataset is not None
            else self._options.dataset,
        )
        return self.submit(spec, trace=trace)

    # -- waves ---------------------------------------------------------------

    def _shard_of(self, item: _WorkItem) -> int:
        """Stable shard index (never builtin ``hash``, which is salted)."""
        return zlib.crc32(item.session_id.encode()) % self.procs

    def _fork(
        self, shard: int, items: list[_WorkItem]
    ) -> _WorkerState:
        """Fork one worker for ``items``; returns its parent-side state."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(shard, items, self._options, child_conn),
            name=f"repro-dispatch-{shard}",
            daemon=True,
        )
        process.start()
        # The parent's copy of the write end must go away, or EOF on a
        # dead worker is never observed.
        child_conn.close()
        return _WorkerState(
            shard=shard,
            process=process,
            conn=parent_conn,
            items={item.ticket: item for item in items},
            unfinished={item.ticket for item in items},
        )

    def _start_wave(self) -> list[_WorkerState]:
        """Partition the backlog by shard affinity and fork workers.

        Forks under the lock, so a concurrent :meth:`close` either
        prevents the wave or finds every worker in ``_live``.
        """
        with self._lock:
            if self._closed:
                return []
            backlog, self._backlog = self._backlog, {}
            shards: dict[int, list[_WorkItem]] = {}
            for ticket in sorted(backlog):
                item = backlog[ticket]
                shards.setdefault(self._shard_of(item), []).append(item)
            states = [
                self._fork(shard, items)
                for shard, items in sorted(shards.items())
            ]
            self._live.extend(states)
            return states

    def _fail_lost(self, state: _WorkerState, tickets: set[int]) -> None:
        """Synthesize failed results for sessions a dead worker took down."""
        message = (
            f"worker {state.shard} (pid {state.process.pid}) died with "
            f"exit code {state.process.exitcode} and restart budget "
            "exhausted"
        )
        for ticket in sorted(tickets):
            result = SessionResult(
                recommendation_index=-1,
                recommendation=np.empty(0),
                rounds=0,
                elapsed_seconds=0.0,
                truncated=False,
                trace=[],
                status="failed",
                error=f"WorkerDied: {message}",
            )
            result.metrics = SessionMetrics(session_id=ticket)
            self.metrics.sessions += 1
            self.metrics.failed += 1
            self.metrics.errors.append(
                SessionError(
                    session_id=ticket,
                    round=0,
                    error_type="WorkerDied",
                    message=message,
                )
            )
            self._results[ticket] = result
            self._finished.append(result)

    def _on_death(
        self, state: _WorkerState, restarts: list[int]
    ) -> list[_WorkerState]:
        """Handle a worker that EOF'd without ``done``: refork or fail.

        Lost sessions with a checkpoint in the shared store become
        resume directives (the replacement stitches their transcript
        across the gap); the rest are re-admitted from their original
        spec.  Returns replacement states (empty when the restart
        budget is spent or the dispatcher was closed: a worker the close
        terminated is not a death).
        """
        state.process.join(timeout=5.0)
        lost = set(state.unfinished)
        if not lost or self._closed:
            return []
        if restarts[0] >= MAX_RESTARTS:
            self._fail_lost(state, lost)
            return []
        restarts[0] += 1
        replacements: list[_WorkItem] = []
        for ticket in sorted(lost):
            item = state.items[ticket]
            with self._lock:
                ckpt = self._ckpts.get(ticket)
            if ckpt is not None and self.store is not None:
                replacements.append(
                    _WorkItem(
                        ticket=ticket,
                        spec=None,
                        user=item.user,
                        trace=item.trace,
                        session_id=item.session_id,
                        resume_id=ckpt,
                    )
                )
            else:
                replacements.append(item)
        with self._lock:
            if self._closed:
                return []
            replacement = self._fork(state.shard, replacements)
            self._live.append(replacement)
        return [replacement]

    def _absorb_done(
        self, metrics: EngineMetrics, report: dict[str, Any] | None
    ) -> None:
        """Merge a clean worker's summary into dispatcher metrics."""
        # Worker wall time is per-process and concurrent; the
        # dispatcher reports its own end-to-end wave wall instead.
        metrics.wall_seconds = 0.0
        with self._lock:
            self.metrics.merge(metrics)
            if report is not None:
                self.worker_reports.append(report)

    def _pump(self) -> Iterator[SessionResult]:
        """Run one wave to completion, yielding results as they land."""
        states = self._start_wave()
        if not states:
            return
        started = time.perf_counter()
        self._finished = []
        restarts = [0]
        by_conn = {state.conn: state for state in states}
        try:
            while by_conn and not self._closed:
                ready = mp_connection.wait(list(by_conn), timeout=0.5)
                for conn in ready:
                    state = by_conn[conn]
                    try:
                        message = conn.recv()
                    except EOFError:
                        del by_conn[conn]
                        with self._lock:
                            if state in self._live:
                                self._live.remove(state)
                        if not state.done:
                            for repl in self._on_death(state, restarts):
                                by_conn[repl.conn] = repl
                        conn.close()
                        continue
                    kind = message[0]
                    if kind == "result":
                        _, ticket, result = message
                        state.unfinished.discard(ticket)
                        with self._lock:
                            self._results[ticket] = result
                            self._ckpts.pop(ticket, None)
                        self._finished.append(result)
                    elif kind == "ckpt":
                        _, ticket, session_id = message
                        with self._lock:
                            self._ckpts[ticket] = session_id
                    elif kind == "done":
                        _, _, metrics, report = message
                        state.done = True
                        self._absorb_done(metrics, report)
                while self._finished:
                    yield self._finished.pop(0)
        finally:
            with self._lock:
                self.metrics.wall_seconds += time.perf_counter() - started
            for conn in by_conn:
                conn.close()
            for state in states:
                if state.process.is_alive() and state.done:
                    state.process.join(timeout=5.0)

    def as_completed(self) -> Iterator[SessionResult]:
        """Yield-and-*consume* results as sessions finish (completion order).

        Each call runs waves until the backlog is empty; submissions
        made while iterating join the next wave.  Like
        :meth:`ContinuousEngine.as_completed
        <repro.serve.scheduler.ContinuousEngine.as_completed>`, yielded
        results are consumed: a later :meth:`drain` reports only results
        this never yielded.  After a :meth:`close` it returns.
        """
        with self._lock:
            self._check_open()
        while True:
            with self._lock:
                if self._closed or not self._backlog:
                    return
            for result in self._pump():
                assert result.metrics is not None  # set by worker and _fail_lost
                with self._lock:
                    del self._results[result.metrics.session_id]
                    del self._epoch[result.metrics.session_id]
                yield result

    def drain(self) -> list[SessionResult]:
        """Serve the backlog to completion; results in submit order.

        After a :meth:`close` it returns the results that finished
        before it; abandoned tickets have none.
        """
        with self._lock:
            self._check_open()
        while True:
            with self._lock:
                if self._closed or not self._backlog:
                    break
            for _ in self._pump():
                pass
        with self._lock:
            epoch, self._epoch = self._epoch, {}
            self.last_metrics = self.metrics
            return [
                self._results.pop(ticket)
                for ticket in epoch
                if ticket in self._results
            ]

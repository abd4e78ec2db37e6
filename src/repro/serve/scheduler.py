"""The serving engine: :class:`ContinuousEngine`.

Sessions are scheduled the way LLM inference servers schedule requests
— iteration-level ("continuous") batching:

* Sessions join and leave the in-flight set independently.  A bounded
  number (``max_in_flight``) run at once; the moment one finishes, the
  next pending submission is admitted, so every tick's stacked
  Q-scoring pass (:meth:`~repro.rl.dqn.DQNAgent.q_values_many`) stays
  near capacity even with thousands of queued sessions.
* Work arrives through a streaming lifecycle — :meth:`submit` hands in
  one :class:`~repro.serve.spec.SessionSpec` and returns a ticket,
  :meth:`as_completed` yields results as sessions finish, and
  :meth:`drain` blocks for everything, returning results in submission
  order.  The batch :meth:`run` facade submits a sequence and drains.
* Per-session agent work (candidate selection, ``observe``,
  per-round ``recommend``) runs on the thread that ticks the engine,
  one session after another: the GIL would serialise it anyway.  Work
  that batching amortises — stacked Q-scoring and the tick's stacked
  LP probes — runs once per tick on the same thread.
* Thread safety: one lock guards the scheduler state and is taken once
  per tick, so one thread (the HTTP service's collector) can tick the
  engine through :meth:`as_completed` while another (its event loop)
  keeps calling :meth:`submit`.

Determinism: per-session transcripts are independent of scheduling.
Each session's next question depends only on its own state, its own
answers, Q-scores that are bit-identical per candidate set (dense
layers are row-independent, so batch composition cannot perturb them)
and LP results that cache hits replay exactly.  A session therefore
produces the same recommendation, rounds, and trace under this engine
as under sequential :func:`~repro.core.session.run_session`, the
scalar reference — the property the equivalence gate in
``benchmarks/ci_gate.py`` asserts.

Fault isolation: a factory that raises, a stale (already-driven)
session, or any per-session interaction error (question selection,
``user.prefers``, ``observe``, ``recommend``) marks only that ticket
``"failed"`` — the scheduler keeps serving, and ``recover=True``
re-drives a session that raised
:class:`~repro.errors.EmptyRegionError` once under majority voting (the
rule in :mod:`repro.core.robust`).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.robust import (
    MAX_RETRIES,
    RETRY_ON,
    RETRY_REPEATS,
    MajorityVoteSession,
)
from repro.core.session import (
    DEFAULT_MAX_ROUNDS,
    CandidateBatch,
    InteractiveAlgorithm,
    Question,
    RoundRecord,
    SessionResult,
    TranscriptEntry,
    _failed_session_result,
    ask_user,
)
from repro.errors import ConfigurationError, InteractionError, PersistenceError
from repro.geometry.lp import LPCache, use_cache
from repro.geometry.range import UpdatePreview, prefetch_updates
from repro.obs.tracer import NULL_SPAN, Tracer, active_tracer
from repro.serve.metrics import EngineMetrics, SessionError, SessionMetrics
from repro.serve.spec import SessionSpec, require_spec
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persist import SessionSnapshot
    from repro.persist.store import SessionStore
    from repro.users.oracle import User


@dataclass
class _Task:
    """Book-keeping for one submitted session (one ticket)."""

    ticket: int
    spec: SessionSpec
    algorithm: InteractiveAlgorithm
    metrics: SessionMetrics
    trace: bool = False
    attempt: int = 0
    dead: bool = False
    watch: Stopwatch = field(default_factory=Stopwatch)
    shared_seconds: float = 0.0
    records: list[RoundRecord] = field(default_factory=list)
    question: Question | None = None
    answer: bool | None = None
    batch: CandidateBatch | None = None
    submitted_at: float = 0.0
    #: Answered rounds since admission (resumed sessions prepend their
    #: snapshot's history at checkpoint time).
    transcript: list[TranscriptEntry] = field(default_factory=list)

    @property
    def agent_seconds(self) -> float:
        """Own agent time plus this session's share of batched scoring."""
        return self.watch.elapsed + self.shared_seconds


def _preview_of(
    algorithm: InteractiveAlgorithm, answer: bool
) -> UpdatePreview | None:
    """One session's update preview, or ``None``.

    Previews are a pure optimisation hint; a hook that raises must
    never fail the session, so any error degrades to "no preview" and
    the session's own update surfaces it (or not) on its normal path.
    """
    try:
        return algorithm.probe_preview(answer)
    except Exception:  # noqa: BLE001 -- previews must never fail a session
        return None


class ContinuousEngine:
    """Serve sessions with continuous batching and bounded concurrency.

    Parameters
    ----------
    max_rounds:
        Per-session safety cap, as in ``run_session``.
    recover:
        ``False`` (default) returns failed sessions as ``"failed"``.
        ``True`` re-drives a session that raised
        :class:`~repro.errors.EmptyRegionError` once, from round zero,
        under a 3-vote :class:`~repro.core.robust.MajorityVoteSession`.
    max_in_flight:
        Admission cap: at most this many sessions are live per tick.
        This is the provisioned batch capacity the
        :attr:`EngineMetrics.occupancy` metric measures against.
    store:
        Optional :class:`~repro.persist.SessionStore`.  When set,
        :meth:`checkpoint` persists snapshots to it and :meth:`resume`
        accepts bare session ids.

    Examples
    --------
    >>> from repro.serve import ContinuousEngine, SessionSpec
    >>> with ContinuousEngine(max_in_flight=64) as engine:  # doctest: +SKIP
    ...     for seed, user in enumerate(users):
    ...         engine.submit(SessionSpec(
    ...             factory=lambda s=seed: agent.new_session(rng=s),
    ...             user=user, seed=seed))
    ...     results = engine.drain()
    """

    def __init__(
        self,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        recover: bool = False,
        max_in_flight: int = 64,
        store: "SessionStore | None" = None,
    ) -> None:
        self.check_options(max_rounds, max_in_flight)
        self.max_rounds = int(max_rounds)
        self.max_in_flight = int(max_in_flight)
        self.lp_cache = LPCache()
        self.recover = bool(recover)
        self._closed = False
        self._next_ticket = 0
        self._pending: list[_Task] = []
        self._in_flight: list[_Task] = []
        #: Results keyed by ticket, kept until consumed or drained.
        self._results: dict[int, SessionResult] = {}
        #: Tickets submitted since the last drain and not yet consumed,
        #: in submission order (a dict for O(1) removal).
        self._epoch: dict[int, None] = {}
        #: Finished results not yet consumed by a poll or a drain.
        self._completed: list[SessionResult] = []
        self.metrics = EngineMetrics()
        self.metrics.in_flight_cap = self.max_in_flight
        self.last_metrics: EngineMetrics | None = None
        self._tracer: Tracer | None = None
        self.store = store
        # One re-entrant lock serialises every scheduler mutation, held
        # for one tick at a time, so submissions from another thread
        # interleave with a thread that is ticking the engine.
        self._lock = threading.RLock()

    @staticmethod
    def check_options(max_rounds: int, max_in_flight: int) -> None:
        """Reject engine options the constructor would refuse.

        Raises :class:`~repro.errors.ConfigurationError`.  Runtimes that
        build engines elsewhere (the dispatcher's forked workers) call
        this up front, so a bad option fails in the caller, not in a
        child process.
        """
        if max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {max_rounds}"
            )
        if max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ContinuousEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Refuse further submissions (idempotent).

        Unfinished sessions are abandoned (their tickets never produce
        results), so :meth:`drain` first if you care.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.last_metrics = self.metrics
            self._pending.clear()
            self._in_flight.clear()

    def submit(self, session: SessionSpec, trace: bool = False) -> int:
        """Queue one session for service; return its ticket.

        Accepts only a :class:`~repro.serve.spec.SessionSpec`; anything
        else raises :class:`~repro.errors.ConfigurationError`.  The
        factory is *not* invoked here — construction happens at
        admission, inside the engine's LP-cache context, so start-up
        solves are memoised.  Never ticks, so it never blocks on
        session work beyond the tick in progress.
        """
        spec = require_spec(session)
        with self._lock:
            self._check_open()
            ticket = self._next_ticket
            self._next_ticket += 1
            task = _Task(
                ticket=ticket,
                spec=spec,
                # Placeholder until admission; never driven.
                algorithm=None,  # type: ignore[arg-type]
                metrics=SessionMetrics(session_id=ticket),
                trace=trace,
                submitted_at=time.perf_counter(),
            )
            self.metrics.sessions += 1
            self._epoch[ticket] = None
            self._pending.append(task)
            return ticket

    def as_completed(self) -> Iterator[SessionResult]:
        """Yield-and-*consume* results as sessions finish (completion order).

        :meth:`poll_completed` plus one locked tick per loop; returns
        when no work remains.  Yielded results are consumed, so a later
        :meth:`drain` reports only results this never yielded.  The lock
        is free between ticks, so sessions submitted meanwhile join the
        run.
        """
        while True:
            yield from self.poll_completed()
            with self._lock:
                if not (self._pending or self._in_flight or self._completed):
                    return
                self._tick()

    def drain(self) -> list[SessionResult]:
        """Run until idle; return all unconsumed results in submit order.

        Takes the lock once per tick, not for the whole run, so a
        concurrent :meth:`submit` never waits for the engine to go idle.
        """
        while True:
            with self._lock:
                self._check_open()
                if not (self._pending or self._in_flight):
                    self._completed.clear()
                    epoch, self._epoch = self._epoch, {}
                    self.last_metrics = self.metrics
                    return [self._results.pop(ticket) for ticket in epoch]
                self._tick()

    def step(self) -> None:
        """Run one scheduler tick (admission plus at most one round per
        in-flight session).  The manual-stepping front door service
        layers and tests use to advance work without draining."""
        with self._lock:
            self._check_open()
            self._tick()

    def poll_completed(self) -> list[SessionResult]:
        """Return-and-*consume* results finished since the last poll.

        Non-blocking and non-ticking: pair it with :meth:`step` to
        drive the engine manually, the loop the
        :class:`~repro.serve.dispatch.ShardedDispatcher` worker runs so
        it can stream results over its pipe between checkpoints.  Like
        :meth:`as_completed`, polled results are consumed — a later
        :meth:`drain` will not report them again.
        """
        with self._lock:
            completed, self._completed = self._completed, []
            for result in completed:
                ticket = result.metrics.session_id
                del self._results[ticket]
                del self._epoch[ticket]
        return completed

    @property
    def has_work(self) -> bool:
        """Whether any submitted session has not yet produced a result."""
        with self._lock:
            return bool(self._pending or self._in_flight)

    @property
    def in_flight_tickets(self) -> tuple[int, ...]:
        """Tickets of currently admitted (checkpointable) sessions."""
        with self._lock:
            return tuple(task.ticket for task in self._in_flight)

    # -- checkpoint / resume -------------------------------------------------

    def _find_task(self, ticket: int) -> _Task:
        for task in self._in_flight:
            if task.ticket == ticket:
                return task
        for task in self._pending:
            if task.ticket == ticket:
                raise PersistenceError(
                    f"ticket {ticket} has not been admitted yet; "
                    "run step() (or a drain) before checkpointing"
                )
        raise PersistenceError(f"no live session with ticket {ticket}")

    def checkpoint(
        self,
        ticket: int,
        *,
        session_id: str | None = None,
        agent_ref: str | None = None,
    ) -> "SessionSnapshot":
        """Snapshot a live (in-flight) session by ticket.

        ``session_id`` defaults to the spec's ``tags["session_id"]`` or
        ``"ticket-<n>"``.  The snapshot's transcript covers every round
        answered so far, including rounds from before a resume.  When
        the engine has a ``store``, the snapshot is persisted to it.
        """
        from repro.persist import capture_session

        with self._lock:
            task = self._find_task(ticket)
            if session_id is None:
                tagged = task.spec.tags.get("session_id")
                session_id = (
                    str(tagged) if tagged is not None else f"ticket-{ticket}"
                )
            prior = task.spec.tags.get("prior_transcript") or ()
            transcript = tuple(prior) + tuple(task.transcript)  # type: ignore[arg-type]
            snapshot = capture_session(
                task.algorithm,
                session_id=session_id,
                transcript=transcript,
                agent_ref=agent_ref,
                user=task.spec.user,
            )
            if self.store is not None:
                self.store.put(snapshot)
            return snapshot

    def resume(
        self,
        snapshot_or_id: "SessionSnapshot | str",
        user: "User",
        *,
        agent: Any | None = None,
        dataset: Any | None = None,
        trace: bool = False,
    ) -> int:
        """Admit a checkpointed session mid-flight; return its ticket.

        Accepts a :class:`~repro.persist.SessionSnapshot` or, when the
        engine has a ``store``, a bare session id.  The session resumes
        bit-identically — same remaining transcript, same
        recommendation — and a later :meth:`checkpoint` carries the full
        history across the gap.
        """
        from repro.persist import resumed_spec

        if isinstance(snapshot_or_id, str):
            if self.store is None:
                raise PersistenceError(
                    "resume by id needs a store; pass store= to the "
                    "engine or resume from a SessionSnapshot"
                )
            snapshot = self.store.get(snapshot_or_id)
        else:
            snapshot = snapshot_or_id
        spec = resumed_spec(snapshot, user, agent=agent, dataset=dataset)
        return self.submit(spec, trace=trace)

    def run(
        self,
        sessions: Sequence[SessionSpec],
        trace: bool = False,
    ) -> list[SessionResult]:
        """Submit ``sessions`` and drain: the batch facade.

        One result per input, in input order, with per-session fault
        isolation.  Aggregate metrics accumulate on ``self.metrics``
        across the engine's lifetime and are snapshotted to
        ``last_metrics`` at each drain.  With ``trace=True`` per-round
        records are collected into each result's ``trace`` exactly as
        ``run_session(..., trace=True)`` would.
        """
        for session in sessions:
            self.submit(session, trace=trace)
        return self.drain()

    # -- scheduler core ------------------------------------------------------

    def _check_open(self) -> None:
        # InteractionError, not ConfigurationError: submitting to a
        # closed engine is a lifecycle misuse at interaction time (the
        # dispatcher's worker-shutdown path depends on telling it apart
        # from construction-time misconfiguration).
        if self._closed:
            raise InteractionError(
                "engine is closed; create a new ContinuousEngine"
            )

    def _tick(self) -> None:
        """One scheduler iteration: admit, select, score, interact.

        Every in-flight session advances by at most one round; sessions
        that finish are replaced by pending submissions at the *next*
        tick's admission step, keeping the batch near ``max_in_flight``.
        """
        if not (self._pending or self._in_flight):
            return
        cache = self.lp_cache
        tracer = active_tracer()
        self._tracer = tracer
        started = time.perf_counter()
        self.metrics.ticks += 1
        tick_span = (
            nullcontext()
            if tracer is None
            else tracer.span(
                "engine.tick",
                tick=self.metrics.ticks,
                in_flight=len(self._in_flight),
                pending=len(self._pending),
            )
        )
        try:
            with use_cache(cache), tick_span:
                self._admit()
                self._in_flight = self._advance(self._in_flight)
        finally:
            self.metrics.wall_seconds += time.perf_counter() - started
            self.metrics.lp_cache_hits = cache.hits
            self.metrics.lp_solves = cache.hits + cache.misses
            self._tracer = None

    def _admit(self) -> None:
        """Fill free in-flight slots from the pending queue.

        Admission errors are contained: a factory that raises or hands
        over an already-driven session fails only its own ticket.
        """
        replacements: list[_Task] = []
        while self._pending and len(self._in_flight) < self.max_in_flight:
            task = self._pending.pop(0)
            try:
                task.algorithm = task.spec.build()
                # A resumed spec is *supposed* to arrive mid-session;
                # everything else with rounds != 0 is an accidentally
                # re-submitted live instance.
                if task.algorithm.rounds != 0 and not task.spec.resumed:
                    raise InteractionError(
                        "ContinuousEngine requires fresh algorithms; "
                        f"ticket {task.ticket} has already been driven"
                    )
            except Exception as error:  # noqa: BLE001 -- admission boundary
                self._fail(task, error, replacements)
                continue
            self._in_flight.append(task)
        self._in_flight.extend(replacements)

    def _advance(self, active: list[_Task]) -> list[_Task]:
        """Advance every in-flight session one round; return survivors."""
        replacements: list[_Task] = []
        advancing: list[_Task] = []
        batchable: list[_Task] = []
        selecting: list[_Task] = []
        for task in active:
            try:
                if task.algorithm.finished:
                    self._finalize(task, False)
                    continue
                if task.algorithm.rounds >= self.max_rounds:
                    self._finalize(task, True)
                    continue
            except Exception as error:  # noqa: BLE001 -- slot fault boundary
                self._fail(task, error, replacements)
                continue
            selecting.append(task)
        for task, error in zip(
            selecting, self._map(self._select, selecting), strict=True
        ):
            if error is not None:
                self._fail(task, error, replacements)
                continue
            if task.batch is not None:
                batchable.append(task)
            advancing.append(task)
        self._score(batchable, replacements)
        interacting = [task for task in advancing if not task.dead]
        answered: list[_Task] = []
        for task, error in zip(
            interacting, self._map(self._answer, interacting), strict=True
        ):
            if error is not None:
                self._fail(task, error, replacements)
                continue
            answered.append(task)
        self._prefetch(answered)
        survivors: list[_Task] = []
        for task, error in zip(
            answered, self._map(self._interact, answered), strict=True
        ):
            if error is not None:
                self._fail(task, error, replacements)
                continue
            self.metrics.rounds_total += 1
            try:
                if task.algorithm.finished:
                    # Same-tick completion: freeing the slot now lets
                    # admission refill it next tick instead of serving
                    # one wasted round of a finished session.
                    self._finalize(task, False)
                    continue
                if task.algorithm.rounds >= self.max_rounds:
                    self._finalize(task, True)
                    continue
            except Exception as tail_error:  # noqa: BLE001 -- slot boundary
                self._fail(task, tail_error, replacements)
                continue
            survivors.append(task)
        survivors.extend(replacements)
        return survivors

    # -- per-task operations ---------------------------------------------------

    @staticmethod
    def _map(
        op: Callable[..., None],
        tasks: list[_Task],
        *per_task: Sequence[Any],
    ) -> list[Exception | None]:
        """Apply ``op`` to every task, returning per-task exceptions.

        ``op(task, *args)`` takes each task's entries of ``per_task``
        (lists aligned with ``tasks``) as extra arguments.  A raising op
        fails only its own task; the returned list is in ``tasks``
        order, keeping failure accounting deterministic.
        """
        errors: list[Exception | None] = []
        for task, *args in zip(tasks, *per_task, strict=True):
            try:
                op(task, *args)
            except Exception as error:  # noqa: BLE001 -- slot fault boundary
                errors.append(error)
            else:
                errors.append(None)
        return errors

    def _task_op(self, task: _Task, op: str) -> Any:
        """An ``engine.slot`` span (session and operation tagged) around
        one slot interaction; the shared no-op span with tracing off."""
        tracer = self._tracer
        if tracer is None:
            return NULL_SPAN
        return tracer.span("engine.slot", session=task.ticket, op=op)

    def _select(self, task: _Task) -> None:
        """Pick the task's next question, or park a candidate batch."""
        algorithm = task.algorithm
        with self._task_op(task, "select"):
            task.watch.start()
            pending = algorithm.pending_question
            if pending is not None:
                # A resumed session checkpointed between ask and answer:
                # re-ask the open question rather than proposing a new
                # one, which would consume the RNG stream twice.
                task.question = pending
                task.watch.stop()
                return
            batch = algorithm.candidate_batch()
            if batch is None:
                task.question = algorithm.next_question()
                task.watch.stop()
            else:
                task.watch.stop()
                task.batch = batch

    def _answer(self, task: _Task) -> None:
        """Pose the selected question to the task's user.

        Split from :meth:`_interact` so the driver can batch-prime the
        whole tick's imminent updates (:meth:`_prefetch`) between the
        answers and the observes.  User time is off the agent stopwatch
        either way.
        """
        question = task.question
        if question is None:
            raise InteractionError(
                f"ticket {task.ticket} entered a tick without a "
                "selected question (scoring produced no choice)"
            )
        task.answer, abstained = ask_user(task.spec.user, question)
        if abstained:
            # Per-task only here; _advance folds it into the engine
            # totals.
            task.metrics.abstentions += abstained
            task.algorithm.abstentions += abstained

    def _prefetch(self, tasks: list[_Task]) -> None:
        """Batch-prime the tick's imminent range updates (best-effort).

        The answered tasks'
        :meth:`~repro.core.session.InteractiveAlgorithm.probe_preview`
        results feed :func:`repro.geometry.range.prefetch_updates` in
        one call — stacked ``solve_many`` LPs plus one NumPy clip pass
        — and each session's own ``observe`` replays the results from
        cache/memo bit-identically.  Runs once per tick (it is shared
        solver work, the thing batching amortises); the wall time is split evenly across the participating sessions like
        batched scoring.  Skipping this changes nothing but speed, so
        any failure is swallowed.
        """
        primed = [
            (task, preview)
            for task in tasks
            if task.answer is not None
            and (preview := _preview_of(task.algorithm, task.answer))
            is not None
        ]
        if not primed:
            return
        started = time.perf_counter()
        try:
            prefetch_updates([preview for _, preview in primed])
        except Exception:  # noqa: BLE001 -- a failed primer changes nothing
            return
        share = (time.perf_counter() - started) / len(primed)
        for task, _ in primed:
            task.shared_seconds += share

    def _interact(self, task: _Task) -> None:
        """Feed the stored answer back into the session."""
        question, answer = task.question, task.answer
        if question is None or answer is None:
            raise InteractionError(
                f"ticket {task.ticket} entered a tick without an "
                "answered question"
            )
        task.answer = None
        with self._task_op(task, "observe"):
            task.watch.start()
            task.algorithm.observe(answer)
            task.watch.stop()
        task.question = None
        task.transcript.append(
            TranscriptEntry(
                round_number=task.algorithm.rounds,
                index_i=question.index_i,
                index_j=question.index_j,
                prefers_first=answer,
            )
        )
        if task.trace:
            task.records.append(
                RoundRecord(
                    round_number=task.algorithm.rounds,
                    elapsed_seconds=task.agent_seconds,
                    recommendation_index=task.algorithm.recommend(),
                )
            )

    # -- scoring -------------------------------------------------------------

    def _score(
        self, batchable: list[_Task], replacements: list[_Task]
    ) -> None:
        """Resolve parked candidate batches, stacked per scorer.

        A candidate batch comes with a ``dqn`` exposing
        ``q_values_many`` (the RL policies); tasks are grouped by scorer
        identity and scored in one stacked pass.  A batch without such a
        scorer fails its own task, and a scorer that raises (or
        violates the one-score-row-per-session contract) fails every
        task in its group.  Scoring is one matmul chain per scorer, the
        thing batching exists to amortise; each task then resolves its
        own choice into a question.
        """
        groups: dict[int, tuple[Any, list[_Task]]] = {}
        for task in batchable:
            scorer = getattr(task.algorithm, "dqn", None)
            if not hasattr(scorer, "q_values_many"):
                self._fail(
                    task,
                    InteractionError(
                        f"ticket {task.ticket} exposed a candidate batch "
                        "without a dqn.q_values_many scorer"
                    ),
                    replacements,
                )
                continue
            groups.setdefault(id(scorer), (scorer, []))[1].append(task)
        tracer = self._tracer
        for scorer, group in groups.values():
            batch_started = time.perf_counter()
            try:
                score_span = (
                    nullcontext()
                    if tracer is None
                    else tracer.span("engine.score", sessions=len(group))
                )
                with score_span:
                    scores_per_task = scorer.q_values_many(
                        [
                            (task.batch.state, task.batch.actions)
                            for task in group
                            if task.batch is not None
                        ]
                    )
                if len(scores_per_task) != len(group):
                    raise InteractionError(
                        f"scorer {type(scorer).__name__} "
                        f"(id={id(scorer):#x}) returned "
                        f"{len(scores_per_task)} score rows for "
                        f"{len(group)} sessions"
                    )
            except Exception as error:  # noqa: BLE001 -- scorer boundary
                for task in group:
                    self._fail(task, error, replacements)
                continue
            share = (time.perf_counter() - batch_started) / len(group)
            self.metrics.batches += 1
            self.metrics.batched_rows += len(group)
            self.metrics.peak_batch = max(
                self.metrics.peak_batch, len(group)
            )
            choices: list[int] = []
            for task, scores in zip(group, scores_per_task, strict=True):
                task.shared_seconds += share
                choices.append(int(np.argmax(scores)))
            for task, error in zip(
                group, self._map(self._resolve, group, choices), strict=True
            ):
                if error is not None:
                    self._fail(task, error, replacements)
                    continue
                task.metrics.batched_rounds += 1
                task.batch = None

    def _resolve(self, task: _Task, choice: int) -> None:
        """Resolve ``task``'s batched choice into a question."""
        with self._task_op(task, "select"):
            task.watch.start()
            task.question = task.algorithm.next_question_from(choice)
            task.watch.stop()

    # -- outcomes ------------------------------------------------------------

    def _fail(
        self,
        task: _Task,
        error: Exception,
        replacements: list[_Task],
    ) -> None:
        """Mark ``task`` failed; schedule a recovery retry if ``recover``."""
        task.watch.stop()
        task.dead = True
        rounds = task.algorithm.rounds if task.algorithm is not None else 0
        retryable = (
            self.recover
            and task.attempt < MAX_RETRIES
            and isinstance(error, RETRY_ON)
            and task.algorithm is not None
        )
        self.metrics.errors.append(
            SessionError(
                session_id=task.ticket,
                round=rounds,
                error_type=type(error).__name__,
                message=str(error),
                attempt=task.attempt,
                retried=retryable,
            )
        )
        if retryable:
            self.metrics.retries += 1
            self._retry_task(task, replacements)
            return
        self.metrics.failed += 1
        task.metrics.wall_seconds = time.perf_counter() - task.submitted_at
        self._record_range(task)
        if task.algorithm is not None:
            result = _failed_session_result(
                task.algorithm, error, task.agent_seconds, trace=task.records
            )
        else:
            # Admission failure: the factory raised, so there is no
            # algorithm to take a best-effort recommendation from.
            result = SessionResult(
                recommendation_index=-1,
                recommendation=np.empty(0),
                rounds=0,
                elapsed_seconds=task.agent_seconds,
                truncated=False,
                trace=task.records,
                status="failed",
                error=f"{type(error).__name__}: {error}",
            )
        result.metrics = task.metrics
        self._deliver(task, result)

    def _retry_task(self, task: _Task, replacements: list[_Task]) -> None:
        """Queue a fresh task re-running ``task``'s session under majority
        voting.

        The retry calls the spec's factory again; a factory that raises
        now fails the retry the way it would fail an admission.
        """
        attempt = task.attempt + 1
        retry = _Task(
            ticket=task.ticket,
            spec=task.spec,
            # Placeholder until the factory below returns.
            algorithm=None,  # type: ignore[arg-type]
            # The failed attempt's abstentions carry over, so the result
            # counts every abstention the user made in this session.
            metrics=SessionMetrics(
                session_id=task.ticket,
                retries=attempt,
                abstentions=task.metrics.abstentions,
            ),
            trace=task.trace,
            attempt=attempt,
            submitted_at=task.submitted_at,
        )
        try:
            retry.algorithm = MajorityVoteSession(
                task.spec.build(), repeats=RETRY_REPEATS
            )
        except Exception as error:  # noqa: BLE001 -- admission boundary
            self._fail(retry, error, replacements)
            return
        replacements.append(retry)

    def _record_range(self, task: _Task) -> None:
        """Copy the task's utility-range counters into its metrics."""
        urange = getattr(task.algorithm, "utility_range", None)
        stats = getattr(urange, "stats", None)
        if stats is None:
            return
        task.metrics.range_updates = stats.updates
        task.metrics.range_clips = stats.clips
        task.metrics.range_rebuilds = stats.rebuilds
        self.metrics.range_updates += stats.updates
        self.metrics.range_clips += stats.clips
        self.metrics.range_rebuilds += stats.rebuilds

    def _finalize(self, task: _Task, truncated: bool) -> None:
        """Record the finished (or truncated) session's result."""
        with self._task_op(task, "recommend"):
            task.watch.start()
            index = task.algorithm.recommend()
            task.watch.stop()
        task.dead = True
        task.metrics.wall_seconds = time.perf_counter() - task.submitted_at
        self._record_range(task)
        if truncated:
            self.metrics.truncated += 1
            status = "truncated"
        else:
            self.metrics.completed += 1
            status = "completed"
        if task.attempt > 0 and not truncated:
            self.metrics.recovered += 1
            status = "recovered"
        self._deliver(
            task,
            SessionResult(
                recommendation_index=index,
                recommendation=task.algorithm.dataset.points[index].copy(),
                rounds=task.algorithm.rounds,
                elapsed_seconds=task.agent_seconds,
                truncated=truncated,
                trace=task.records,
                metrics=task.metrics,
                status=status,
            ),
        )

    def _deliver(self, task: _Task, result: SessionResult) -> None:
        """File a finished result for :meth:`as_completed` and :meth:`drain`."""
        self.metrics.abstentions += task.metrics.abstentions
        self._results[task.ticket] = result
        self._completed.append(result)

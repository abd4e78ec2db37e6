"""Lightweight metrics for the serving engine.

Two layers of measurement, both cheap enough to stay on by default:

* :class:`SessionMetrics` — one per served session, attached to the
  session's :class:`~repro.core.session.SessionResult` (``.metrics``)
  and kept nowhere else: completion latency, how many of the session's
  rounds were scored through a shared network batch, recovery retries,
  withheld answers and range-update counts.  Rounds and agent seconds
  live on the result itself (``rounds``, ``elapsed_seconds``).
* :class:`EngineMetrics` — one per
  :class:`~repro.serve.scheduler.ContinuousEngine` (accumulated over
  its lifetime) or :class:`~repro.serve.dispatch.ShardedDispatcher`
  (merged across workers): tick counts, batched-scoring occupancy,
  aggregate LP solver work and cache effectiveness, and end-to-end
  throughput.

This module is deliberately dependency-free (no imports from
:mod:`repro.core`) so result types can reference it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SessionMetrics:
    """Per-session measurements recorded by the engine.

    Attributes
    ----------
    session_id:
        The session's submission ticket.
    wall_seconds:
        Latency from submission to this session's completion (what an
        interactive user would experience, minus answer time which is
        simulated instantaneously).
    batched_rounds:
        Rounds whose question was selected through a shared scoring batch
        rather than a per-session network pass.
    retries:
        Recovery attempts consumed before this session's final outcome
        (0 for sessions that never failed).
    abstentions:
        Answers the user withheld (three-valued ``compare`` returned
        ``None``) before a forced or re-asked choice resolved the round,
        over every attempt: a recovery retry starts from the failed
        attempt's count.
    range_updates:
        Half-space updates the session's utility range received (0 for
        algorithms that do not expose a range).
    range_clips:
        Updates the range resolved incrementally — a vertex clip or a
        redundancy short-circuit instead of a from-scratch enumeration.
    range_rebuilds:
        Updates that fell back to a full vertex re-enumeration.
    """

    session_id: int
    wall_seconds: float = 0.0
    batched_rounds: int = 0
    retries: int = 0
    abstentions: int = 0
    range_updates: int = 0
    range_clips: int = 0
    range_rebuilds: int = 0


@dataclass
class SessionError:
    """One session failure observed by the engine.

    Attributes
    ----------
    session_id:
        The failed session's submission ticket.
    round:
        Rounds the session had answered when the error surfaced.
    error_type:
        Class name of the raised exception (e.g. ``"EmptyRegionError"``).
    message:
        The exception's message text.
    attempt:
        Which attempt failed: 0 for the original session, ``n`` for its
        ``n``-th recovery retry.
    retried:
        Whether the engine scheduled another attempt after this failure.
    """

    session_id: int
    round: int
    error_type: str
    message: str
    attempt: int = 0
    retried: bool = False


@dataclass
class EngineMetrics:
    """Aggregate measurements for one engine (or dispatcher).

    Attributes
    ----------
    sessions:
        Sessions admitted to the run.
    completed:
        Sessions that reached their stopping condition.
    truncated:
        Sessions cut off at the round cap.
    failed:
        Sessions that died (exhausting any recovery retries) and were
        returned with ``status == "failed"``.
    retries:
        Recovery attempts scheduled across the run.
    recovered:
        Sessions that failed at least once but completed on a retry.
    errors:
        One :class:`SessionError` record per observed failure (a session
        retried ``n`` times contributes up to ``n + 1`` records).
    ticks:
        Scheduler iterations executed (each tick advances every
        *in-flight* session by at most one round).
    in_flight_cap:
        The engine's admission cap (``max_in_flight``) — the per-tick
        capacity ``occupancy`` is measured against.
    rounds_total:
        Questions answered across all sessions.
    abstentions:
        Withheld answers consumed across all sessions (see
        :attr:`SessionMetrics.abstentions`).
    batches:
        Shared scoring batches issued (one per scorer per tick).
    batched_rows:
        Candidate sets scored through shared batches, summed over ticks.
    peak_batch:
        Largest number of candidate sets in any single batch.
    lp_solves:
        LP solves routed through the engine's cache.
    lp_cache_hits:
        Routed solves answered from the cache.
    range_updates:
        Utility-range updates summed over every range-carrying session.
    range_clips:
        Range updates resolved incrementally (no re-enumeration).
    range_rebuilds:
        Range updates that re-enumerated vertices from scratch.
    wall_seconds:
        End-to-end duration of the run.
    """

    sessions: int = 0
    completed: int = 0
    truncated: int = 0
    failed: int = 0
    retries: int = 0
    recovered: int = 0
    errors: list[SessionError] = field(default_factory=list)
    ticks: int = 0
    in_flight_cap: int = 0
    rounds_total: int = 0
    abstentions: int = 0
    batches: int = 0
    batched_rows: int = 0
    peak_batch: int = 0
    lp_solves: int = 0
    lp_cache_hits: int = 0
    range_updates: int = 0
    range_clips: int = 0
    range_rebuilds: int = 0
    wall_seconds: float = 0.0

    def merge(self, other: "EngineMetrics") -> "EngineMetrics":
        """Fold another engine's metrics into this one, in place.

        The aggregation the multi-process
        :class:`~repro.serve.dispatch.ShardedDispatcher` uses to combine
        per-worker :class:`EngineMetrics` into one report.  Counters
        sum, ``peak_batch`` takes the max and ``errors`` concatenate.
        Workers run *concurrently*, so ``wall_seconds`` takes the max
        of the two (the dispatcher overwrites it with its own
        end-to-end measurement anyway) and ``in_flight_cap`` takes the
        max: with every worker provisioned at the same cap, summed
        ``ticks`` times the shared cap is exactly the aggregate
        capacity :attr:`occupancy` divides by.  Returns ``self`` for
        chaining.
        """
        self.sessions += other.sessions
        self.completed += other.completed
        self.truncated += other.truncated
        self.failed += other.failed
        self.retries += other.retries
        self.recovered += other.recovered
        self.errors.extend(other.errors)
        self.ticks += other.ticks
        self.in_flight_cap = max(self.in_flight_cap, other.in_flight_cap)
        self.rounds_total += other.rounds_total
        self.abstentions += other.abstentions
        self.batches += other.batches
        self.batched_rows += other.batched_rows
        self.peak_batch = max(self.peak_batch, other.peak_batch)
        self.lp_solves += other.lp_solves
        self.lp_cache_hits += other.lp_cache_hits
        self.range_updates += other.range_updates
        self.range_clips += other.range_clips
        self.range_rebuilds += other.range_rebuilds
        self.wall_seconds = max(self.wall_seconds, other.wall_seconds)
        return self

    @property
    def mean_batch_size(self) -> float:
        """Average candidate sets per shared scoring batch."""
        return self.batched_rows / self.batches if self.batches else 0.0

    @property
    def occupancy(self) -> float:
        """Fraction of provisioned batch capacity actually filled.

        ``batched_rows`` over the total capacity the engine provisioned
        — ``ticks × in_flight_cap`` — so an engine that keeps its
        in-flight slots full of batchable work scores close to 1.0
        regardless of how many sessions were queued behind the cap.
        0.0 before the first tick.
        """
        if self.ticks and self.in_flight_cap:
            return self.batched_rows / (self.ticks * self.in_flight_cap)
        return 0.0

    @property
    def lp_hit_rate(self) -> float:
        """Fraction of routed LP solves answered from the cache."""
        return self.lp_cache_hits / self.lp_solves if self.lp_solves else 0.0

    @property
    def range_clip_rate(self) -> float:
        """Fraction of range updates resolved without a re-enumeration."""
        if not self.range_updates:
            return 0.0
        return self.range_clips / self.range_updates

    @property
    def sessions_per_second(self) -> float:
        """Completed-or-truncated sessions per wall-clock second."""
        done = self.completed + self.truncated
        return done / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def rounds_per_second(self) -> float:
        """Answered questions per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.rounds_total / self.wall_seconds

    def summary_lines(self) -> list[str]:
        """Human-readable report lines (used by ``serve-bench``)."""
        steps = f"ticks: {self.ticks} (cap {self.in_flight_cap})"
        lines = [
            f"sessions: {self.sessions} "
            f"({self.completed} completed, {self.truncated} truncated, "
            f"{self.failed} failed)",
            f"{steps}; rounds: {self.rounds_total} "
            f"(mean {self.rounds_total / self.sessions:.1f}/session)"
            if self.sessions
            else f"{steps}; rounds: {self.rounds_total}",
            f"throughput: {self.sessions_per_second:.2f} sessions/s, "
            f"{self.rounds_per_second:.1f} rounds/s "
            f"({self.wall_seconds:.2f}s wall)",
            f"batched scoring: {self.batches} batches, "
            f"mean size {self.mean_batch_size:.1f}, "
            f"peak {self.peak_batch}, "
            f"occupancy {self.occupancy:.2f}",
            f"LP solves: {self.lp_solves}, cache hits: {self.lp_cache_hits} "
            f"(hit rate {self.lp_hit_rate:.1%})",
        ]
        if self.range_updates:
            lines.append(
                f"range updates: {self.range_updates} "
                f"({self.range_clips} clipped, "
                f"{self.range_rebuilds} rebuilt, "
                f"clip rate {self.range_clip_rate:.1%})"
            )
        if self.failed or self.retries or self.recovered:
            lines.append(
                f"faults: {len(self.errors)} errors, "
                f"{self.retries} retries, {self.recovered} recovered, "
                f"{self.failed} failed"
            )
        if self.abstentions:
            lines.append(f"abstentions consumed: {self.abstentions}")
        return lines

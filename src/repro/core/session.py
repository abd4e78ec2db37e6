"""The interaction protocol shared by all interactive algorithms.

Every algorithm — EA, AA and the baselines — follows the three-step round
structure of Section III (question selection, information maintenance,
stopping condition).  :class:`InteractiveAlgorithm` captures that protocol
as an abstract base class and :func:`run_session` drives a full session
against a simulated user, measuring *agent* time only (the stopwatch is
paused while the user answers, matching the paper's execution-time
metric).
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.data.datasets import Dataset
from repro.errors import (
    ConfigurationError,
    InteractionError,
    PersistenceError,
    SessionFailedError,
)
from repro.geometry.hyperplane import PreferenceHalfspace, preference_halfspace
from repro.users.oracle import User
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.geometry.range import UpdatePreview
    from repro.serve.metrics import SessionMetrics

#: Hard cap on rounds; a correct algorithm terminates far earlier, so
#: hitting the cap indicates a logic error or inconsistent (noisy) answers.
DEFAULT_MAX_ROUNDS = 2_000

#: How many times :func:`ask_user` re-asks after an abstention before
#: forcing a choice through ``prefers``.
DEFAULT_MAX_REASKS = 1


def ask_user(
    user: User, question: Question, max_reasks: int = DEFAULT_MAX_REASKS
) -> tuple[bool, int]:
    """Ask one question, consuming abstentions; returns ``(answer, abstained)``.

    The single seam every driver (:func:`run_session`, both serving
    engines) funnels user interaction through.  If the user exposes the
    optional three-valued ``compare`` (see the
    :class:`~repro.users.oracle.User` protocol), it is called up to
    ``1 + max_reasks`` times; each ``None`` counts one abstention and
    triggers a re-ask.  A user still abstaining after the re-ask budget
    is forced through the mandatory two-valued ``prefers``, so sessions
    always terminate.  Users without ``compare`` get exactly one
    ``prefers`` call — bit-identical to the pre-abstention protocol.
    """
    compare = getattr(user, "compare", None)
    if compare is None:
        return bool(user.prefers(question.p_i, question.p_j)), 0
    abstained = 0
    for _ in range(1 + max(0, int(max_reasks))):
        verdict = compare(question.p_i, question.p_j)
        if verdict is not None:
            return bool(verdict), abstained
        abstained += 1
    return bool(user.prefers(question.p_i, question.p_j)), abstained


def validate_epsilon(epsilon: float) -> float:
    """Validate a regret-ratio threshold, returning it as ``float``.

    Every session constructor and ``new_session`` override funnels its
    ``epsilon`` through this helper: values outside the open interval
    ``(0, 1)`` can make stopping conditions unreachable (the session then
    silently loops to :data:`DEFAULT_MAX_ROUNDS`), so they are rejected
    eagerly with :class:`~repro.errors.ConfigurationError`.
    """
    value = float(epsilon)
    if not 0.0 < value < 1.0:
        raise ConfigurationError(
            f"epsilon must be in (0, 1), got {epsilon!r}"
        )
    return value


@dataclass(frozen=True)
class Question:
    """One pairwise question ``<p_i, p_j>`` shown to the user."""

    index_i: int
    index_j: int
    p_i: np.ndarray
    p_j: np.ndarray

    def __post_init__(self) -> None:
        if self.index_i == self.index_j:
            raise InteractionError(
                "a question must compare two distinct points"
            )


@dataclass
class RoundRecord:
    """Per-round trace entry used for the progress figures (Figs. 7-8)."""

    round_number: int
    elapsed_seconds: float
    recommendation_index: int


@dataclass(frozen=True)
class TranscriptEntry:
    """One answered round: the asked pair and the user's choice.

    The transcript is the session's dialogue history — what
    :mod:`repro.persist` snapshots alongside the algorithm state so a
    resumed session carries its full provenance.  ``round_number`` is the
    1-based round the answer completed.
    """

    round_number: int
    index_i: int
    index_j: int
    prefers_first: bool


@dataclass(frozen=True)
class CandidateBatch:
    """One round's scorable candidates, exposed for external batching.

    Produced by :meth:`InteractiveAlgorithm.candidate_batch` on algorithms
    that select questions by *scoring* a candidate set (the RL policies).
    ``state`` is the ``(state_dim,)`` feature vector, ``actions`` the
    ``(m, action_dim)`` candidate feature matrix and ``pairs`` the
    dataset-index pairs the rows encode.  A serving engine can stack many
    sessions' batches through one network pass and resolve each round via
    :meth:`InteractiveAlgorithm.next_question_from`.
    """

    state: np.ndarray
    actions: np.ndarray
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != self.actions.shape[0]:
            raise InteractionError(
                "pair list and action matrix length differ"
            )


#: ``SessionResult.status`` values, in outcome order.
SESSION_STATUSES = ("completed", "truncated", "recovered", "failed")


@dataclass
class SessionResult:
    """Outcome of one full interactive session.

    ``metrics`` is populated only by engine-driven sessions
    (:class:`repro.serve.SessionEngine`); plain :func:`run_session` calls
    leave it ``None``, and old pickles without the field load unchanged.

    ``status`` is one of :data:`SESSION_STATUSES`: ``"completed"``
    (stopping condition reached), ``"truncated"`` (round cap hit),
    ``"recovered"`` (completed, but only after at least one engine
    recovery retry) or ``"failed"`` (the session raised and was not
    recovered; ``error`` then carries ``"ErrorType: message"`` and the
    recommendation fields hold the best effort available — the last
    consistent recommendation, or index ``-1`` with an empty point when
    none exists).  The defaults keep old pickles and callers working.
    """

    recommendation_index: int
    recommendation: np.ndarray
    rounds: int
    elapsed_seconds: float
    truncated: bool = False
    trace: list[RoundRecord] = field(default_factory=list)
    metrics: "SessionMetrics | None" = None
    status: str = "completed"
    error: str | None = None

    @property
    def failed(self) -> bool:
        """Whether the session died (``status == "failed"``)."""
        return self.status == "failed"

    def raise_for_status(self) -> "SessionResult":
        """Return ``self``, raising :class:`SessionFailedError` if failed."""
        if self.failed:
            raise SessionFailedError(
                f"session failed after {self.rounds} rounds: {self.error}"
            )
        return self


class InteractiveAlgorithm(abc.ABC):
    """Base class implementing the round loop of Section III.

    Subclasses provide four hooks:

    * :meth:`_propose` — pick the next question (question selection);
    * :meth:`_update` — fold the answer into the maintained information;
    * :meth:`_finished` — evaluate the stopping condition;
    * :meth:`recommend` — the index of the point to return.

    The base class enforces protocol order (no answer without a pending
    question, no question after termination) so individual algorithms
    cannot be driven out of spec.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.rounds = 0
        self.abstentions = 0
        self._pending: Question | None = None
        self._done = False

    # -- protocol ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the stopping condition has been reached."""
        return self._done

    @property
    def pending_question(self) -> Question | None:
        """The asked-but-unanswered question, if any.

        Non-``None`` between :meth:`next_question` and :meth:`observe` —
        the window a server checkpoint can fall into.  Engines use this
        to re-ask the open question of a resumed session instead of
        proposing a new one (which would consume RNG twice).
        """
        return self._pending

    def next_question(self) -> Question:
        """Select the question for the current round."""
        if self._done:
            raise InteractionError("session already finished")
        if self._pending is not None:
            raise InteractionError("previous question was not answered yet")
        self._pending = self._propose()
        return self._pending

    def observe(self, prefers_first: bool | None) -> None:
        """Feed the user's answer to the pending question.

        ``None`` records an *abstention* (the optional three-valued
        ``compare`` declined to choose): the round does not count, the
        question stays pending so the driver re-asks it via
        :attr:`pending_question`, and the :meth:`_update_abstention`
        hook lets algorithms react (the default keeps the question).
        Engine drivers normally resolve abstentions *before* this point
        through :func:`ask_user`, which forces a choice after the
        re-ask budget — so ``observe(None)`` is the front door for
        external callers (e.g. the HTTP service) whose human declined.
        """
        if self._pending is None:
            raise InteractionError("no question is pending")
        question = self._pending
        if prefers_first is None:
            self.abstentions += 1
            self._update_abstention(question)
            return
        self._pending = None
        self.rounds += 1
        self._update(question, prefers_first)
        self._done = self._finished()

    # -- external scoring (engine protocol) ----------------------------------

    def candidate_batch(self) -> CandidateBatch | None:
        """The current round's candidates, if question selection is scored.

        Algorithms whose question selection is "generate candidates, score
        them, ask the argmax" (EA and AA via :class:`RLPolicy`) override
        this to expose the *candidate-generation* half of ``_propose``; a
        serving engine then performs the *scoring* half in one batched
        network pass across sessions and resolves each round with
        :meth:`next_question_from`.  The default ``None`` marks algorithms
        that pick their question internally (the baselines) — engines fall
        back to plain :meth:`next_question` for those.
        """
        return None

    def next_question_from(self, choice: int) -> Question:
        """Select the question for this round from an external scoring.

        The counterpart of :meth:`next_question` for engine-driven
        sessions: ``choice`` indexes into the most recent
        :meth:`candidate_batch` and must have been computed from exactly
        the scores the algorithm itself would have used, so engine-driven
        sessions replay bit-identically.  Protocol order is enforced the
        same way as for :meth:`next_question`.
        """
        if self._done:
            raise InteractionError("session already finished")
        if self._pending is not None:
            raise InteractionError("previous question was not answered yet")
        self._pending = self._resolve_choice(choice)
        return self._pending

    def _resolve_choice(self, choice: int) -> Question:
        """Build the question for candidate ``choice`` (scoring hook)."""
        raise InteractionError(
            "this algorithm does not expose scorable candidates"
        )

    def probe_preview(self, prefers_first: bool) -> "UpdatePreview | None":
        """Peek the range update that answering the pending question triggers.

        Engines call this after computing the user's answer but before
        :meth:`observe`; a whole wave's previews feed
        :func:`repro.geometry.range.prefetch_updates`, which batches the
        solver work so each session's own update replays it from cache
        bit-identically.  Purely an optimisation hint — the default
        ``None`` marks algorithms whose update is not a previewable range
        clip, and engines simply skip those.
        """
        return None

    # -- state (checkpoint / resume) ------------------------------------------

    def get_state(self) -> dict[str, Any]:
        """The session's full mutable state as a nested dict.

        Leaves are numpy arrays and JSON-able scalars only, so the dict
        serialises through :mod:`repro.persist`'s snapshot format
        without pickling.  The protocol fields (round counter, stopping flag,
        pending question) live in the base dict; everything
        family-specific — utility range, RNG stream, candidate
        book-keeping — comes from the :meth:`_extra_state` hook.

        Raises
        ------
        PersistenceError
            If the concrete algorithm does not implement the state hooks
            (e.g. :class:`~repro.core.robust.MajorityVoteSession`).
        """
        pending = self._pending
        return {
            "class": type(self).__name__,
            "rounds": int(self.rounds),
            "abstentions": int(self.abstentions),
            "done": bool(self._done),
            "pending": None
            if pending is None
            else {
                "index_i": int(pending.index_i),
                "index_j": int(pending.index_j),
                "p_i": np.array(pending.p_i, dtype=float),
                "p_j": np.array(pending.p_j, dtype=float),
            },
            "extra": self._extra_state(),
        }

    def set_state(self, state: dict[str, Any]) -> None:
        """Overwrite this instance's state with a :meth:`get_state` dict.

        The instance must be of the same concrete class (and built
        against an equal dataset); every mutable field is replaced, so
        whatever the constructor did — RNG draws, initial enumerations —
        is irrelevant to the restored behaviour.
        """
        if state.get("class") != type(self).__name__:
            raise PersistenceError(
                f"session state class {state.get('class')!r} does not "
                f"match {type(self).__name__}"
            )
        self.rounds = int(state["rounds"])
        # Older snapshots predate the abstention counter.
        self.abstentions = int(state.get("abstentions", 0))
        self._done = bool(state["done"])
        pending = state["pending"]
        self._pending = (
            None
            if pending is None
            else Question(
                index_i=int(pending["index_i"]),
                index_j=int(pending["index_j"]),
                p_i=np.array(pending["p_i"], dtype=float),
                p_j=np.array(pending["p_j"], dtype=float),
            )
        )
        self._restore_extra(state["extra"])

    def _extra_state(self) -> dict[str, Any]:
        """Family-specific half of :meth:`get_state` (override to support)."""
        raise PersistenceError(
            f"{type(self).__name__} does not support snapshots"
        )

    def _restore_extra(self, extra: dict[str, Any]) -> None:
        """Family-specific half of :meth:`set_state` (override to support)."""
        raise PersistenceError(
            f"{type(self).__name__} does not support snapshots"
        )

    # -- hooks ---------------------------------------------------------------

    @abc.abstractmethod
    def _propose(self) -> Question:
        """Return the next question to ask."""

    @abc.abstractmethod
    def _update(self, question: Question, prefers_first: bool) -> None:
        """Incorporate one answer into the maintained information."""

    def _update_abstention(self, question: Question) -> None:
        """React to an abstained answer (the question is still pending).

        The default is a plain re-ask: keep the question pending and
        learn nothing.  Subclasses may override to, e.g., drop the
        question and propose a different pair.
        """

    @abc.abstractmethod
    def _finished(self) -> bool:
        """Whether the stopping condition now holds."""

    @abc.abstractmethod
    def recommend(self) -> int:
        """Dataset index of the point to return to the user."""

    # -- helpers -------------------------------------------------------------

    def answer_halfspace(
        self, question: Question, prefers_first: bool
    ) -> PreferenceHalfspace:
        """The half-space one answered question induces (Section III).

        Every family derives it the same way — the winner's point must
        score at least the loser's — so the derivation lives here once
        and :meth:`probe_preview` overrides stay bit-identical to the
        ``_update`` that later replays it.
        """
        winner, loser = (
            (question.index_i, question.index_j)
            if prefers_first
            else (question.index_j, question.index_i)
        )
        points = self.dataset.points
        return preference_halfspace(
            points[winner], points[loser],
            winner_index=winner, loser_index=loser,
        )

    def question_for(self, index_i: int, index_j: int) -> Question:
        """Build a :class:`Question` from dataset indices."""
        points = self.dataset.points
        return Question(
            index_i=int(index_i),
            index_j=int(index_j),
            p_i=points[int(index_i)],
            p_j=points[int(index_j)],
        )


def _failed_session_result(
    algorithm: InteractiveAlgorithm,
    error: BaseException,
    elapsed_seconds: float,
    trace: list[RoundRecord] | None = None,
) -> SessionResult:
    """A ``status == "failed"`` result for a session that raised.

    The recommendation fields are filled best-effort: algorithms in this
    package keep a last-consistent fallback recommendation, which is
    still useful to a caller serving degraded traffic.  If even
    :meth:`~InteractiveAlgorithm.recommend` raises, index ``-1`` and an
    empty point are returned.  Shared by sequential
    :func:`run_session` and :class:`repro.serve.SessionEngine` so both
    paths fail identically.
    """
    try:
        index = algorithm.recommend()
        recommendation = algorithm.dataset.points[index].copy()
    except Exception:  # noqa: BLE001 -- best-effort only
        index = -1
        recommendation = np.empty(0)
    return SessionResult(
        recommendation_index=index,
        recommendation=recommendation,
        rounds=algorithm.rounds,
        elapsed_seconds=elapsed_seconds,
        truncated=False,
        trace=trace if trace is not None else [],
        status="failed",
        error=f"{type(error).__name__}: {error}",
    )


def run_session(
    algorithm: InteractiveAlgorithm,
    user: User,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    trace: bool = False,
    on_round: Callable[[RoundRecord], None] | None = None,
    on_error: str = "raise",
) -> SessionResult:
    """Drive ``algorithm`` against ``user`` until it stops.

    Parameters
    ----------
    algorithm:
        A fresh (unused) interactive algorithm instance.
    user:
        Anything with a ``prefers(p_i, p_j) -> bool`` method; users that
        additionally expose the optional three-valued ``compare`` may
        abstain and are re-asked through :func:`ask_user`.
    max_rounds:
        Safety cap; the session is marked ``truncated`` when reached.
    trace, on_round:
        One per-round observation surface, documented here once: after
        every answered round a :class:`RoundRecord` (round number,
        accumulated agent seconds, current recommendation) is delivered to
        each registered callback.  ``on_round`` registers an arbitrary
        callback; ``trace=True`` is sugar that registers an internal
        callback collecting the records into ``result.trace``.  The two
        compose freely.  Round records call
        :meth:`InteractiveAlgorithm.recommend` each round, which may cost
        extra time; the stopwatch excludes that bookkeeping.
    on_error:
        ``"raise"`` (default) propagates any exception the round loop
        raises, exactly as before.  ``"capture"`` gives the sequential
        path the same failure semantics as the serving engine: the
        exception is swallowed and a ``status == "failed"`` result with
        the error text and a best-effort recommendation is returned
        instead.

    Returns
    -------
    SessionResult
        Rounds, agent-side wall time, and the recommended point.
    """
    if on_error not in ("raise", "capture"):
        raise ConfigurationError(
            f"on_error must be 'raise' or 'capture', got {on_error!r}"
        )
    if algorithm.rounds != 0:
        raise InteractionError("run_session() requires a fresh algorithm")
    watch = Stopwatch()
    records: list[RoundRecord] = []
    callbacks: list[Callable[[RoundRecord], None]] = []
    if trace:
        callbacks.append(records.append)
    if on_round is not None:
        callbacks.append(on_round)
    truncated = False
    try:
        while True:
            watch.start()
            if algorithm.finished:
                watch.stop()
                break
            if algorithm.rounds >= max_rounds:
                watch.stop()
                truncated = True
                break
            question = algorithm.next_question()
            watch.stop()
            answer, abstained = ask_user(user, question)
            watch.start()
            algorithm.abstentions += abstained
            algorithm.observe(answer)
            watch.stop()
            if callbacks:
                record = RoundRecord(
                    round_number=algorithm.rounds,
                    elapsed_seconds=watch.elapsed,
                    recommendation_index=algorithm.recommend(),
                )
                for callback in callbacks:
                    callback(record)
        watch.start()
        index = algorithm.recommend()
        watch.stop()
    except Exception as error:  # noqa: BLE001 -- session fault boundary
        watch.stop()
        if on_error == "raise":
            raise
        return _failed_session_result(
            algorithm, error, watch.elapsed, trace=records
        )
    return SessionResult(
        recommendation_index=index,
        recommendation=algorithm.dataset.points[index].copy(),
        rounds=algorithm.rounds,
        elapsed_seconds=watch.elapsed,
        truncated=truncated,
        trace=records,
        status="truncated" if truncated else "completed",
    )

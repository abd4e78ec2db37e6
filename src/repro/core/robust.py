"""Noise-robust session policies — the paper's future work, realised.

The paper's closing line: "As for future work, we consider the case
where users make mistakes when answering questions."  This module holds
the defenses:

* :class:`MajorityVoteSession` — ask each question ``2t + 1`` times and
  act on the majority.  If a user errs independently with probability
  ``p < 0.5``, the majority is wrong with probability at most
  ``exp(-2 t (0.5 - p)^2)`` (Hoeffding).
* :class:`ConfidenceWeightedSession` — a sequential (Wald-style) variant:
  re-ask only until one side *leads* by a configurable margin, so
  clear-cut questions cost one answer and only near-ties pay for
  repetition.
* :func:`inflate_epsilon` — relax a session's stopping threshold, the
  fallback for :class:`~repro.errors.EmptyRegionError` under drifting or
  inconsistent users: an easier stopping condition terminates before
  stale constraints empty the region.

The :class:`RobustPolicy` seam packages each defense as a retry
strategy a :class:`RecoveryPolicy` can be configured with;
:class:`MajorityVotePolicy` is the default and reproduces the
historical recovery behaviour exactly.  :class:`RecoveryPolicy` itself
is what the serving engine
(:class:`~repro.serve.scheduler.ContinuousEngine`, and every
:class:`~repro.serve.dispatch.ShardedDispatcher` worker) consults when
a session dies mid-run.

Both wrappers wrap *any* interactive algorithm in this package without
modifying it: they re-issue the inner algorithm's pending question until
enough answers accumulate, then forward the consolidated verdict.  The
wrapper's ``rounds`` counts every question actually asked (what the user
experiences); the inner algorithm sees one answer per decision.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.core.session import InteractiveAlgorithm, Question
from repro.errors import ConfigurationError, EmptyRegionError


class _RepeatedAskSession(InteractiveAlgorithm):
    """Shared machinery for wrappers that re-ask the inner question.

    Subclasses implement :meth:`_verdict`, inspecting the running vote
    counts after each answer: return ``None`` to keep asking, or the
    consolidated boolean to forward to the inner algorithm.
    """

    def __init__(self, inner: InteractiveAlgorithm) -> None:
        super().__init__(inner.dataset)
        self.inner = inner
        self._pending_inner: Question | None = None
        self._votes_for_first = 0
        self._votes_cast = 0
        self._done = inner.finished

    # -- InteractiveAlgorithm hooks -------------------------------------------

    def _propose(self) -> Question:
        if self._pending_inner is None:
            self._pending_inner = self.inner.next_question()
            self._votes_for_first = 0
            self._votes_cast = 0
        return self._pending_inner

    def _update(self, question: Question, prefers_first: bool) -> None:
        self._votes_cast += 1
        self._votes_for_first += int(prefers_first)
        verdict = self._verdict()
        if verdict is not None:
            self.inner.observe(verdict)
            self._pending_inner = None

    @abc.abstractmethod
    def _verdict(self) -> bool | None:
        """Consolidated answer once decided, else ``None`` (keep asking)."""

    def _finished(self) -> bool:
        return self.inner.finished

    def recommend(self) -> int:
        return self.inner.recommend()

    # -- extras ---------------------------------------------------------------

    @property
    def halfspaces(self) -> tuple:
        """Half-spaces learned by the wrapped algorithm."""
        return getattr(self.inner, "halfspaces", ())

    @property
    def inner_rounds(self) -> int:
        """Decisions made by the wrapped algorithm (its own round count)."""
        return self.inner.rounds


class MajorityVoteSession(_RepeatedAskSession):
    """Ask each of the inner algorithm's questions ``repeats`` times.

    Parameters
    ----------
    inner:
        A fresh interactive algorithm (EA, AA or any baseline).
    repeats:
        Number of times each question is asked; must be odd so the
        majority is always defined.
    """

    name = "MajorityVote"

    def __init__(self, inner: InteractiveAlgorithm, repeats: int = 3) -> None:
        if repeats < 1 or repeats % 2 == 0:
            raise ConfigurationError(
                f"repeats must be a positive odd number, got {repeats}"
            )
        super().__init__(inner)
        self.repeats = repeats

    def _verdict(self) -> bool | None:
        majority_reached = self._votes_for_first > self.repeats // 2
        minority_reached = (
            self._votes_cast - self._votes_for_first > self.repeats // 2
        )
        if majority_reached or minority_reached:
            # Early termination: the remaining votes cannot flip the
            # outcome, so skip them (saves questions at no accuracy cost).
            return majority_reached
        return None


class ConfidenceWeightedSession(_RepeatedAskSession):
    """Re-ask until one answer *leads* by ``lead`` votes (SPRT-style).

    Unlike the fixed-budget majority vote, the repeat count adapts to
    the answers: a consistent user settles every question in ``lead``
    answers, while a flip-flopping user pays more until the budget
    ``max_repeats`` runs out (ties then resolve in favour of the first
    option, matching Algorithm 1's tie rule).

    Parameters
    ----------
    inner:
        A fresh interactive algorithm (EA, AA or any baseline).
    lead:
        Vote lead at which a verdict is accepted (>= 1; ``lead=1``
        makes the wrapper a transparent pass-through).
    max_repeats:
        Hard cap on answers per inner question (>= ``lead``).
    """

    name = "ConfidenceWeighted"

    def __init__(
        self,
        inner: InteractiveAlgorithm,
        lead: int = 2,
        max_repeats: int = 9,
    ) -> None:
        if lead < 1:
            raise ConfigurationError(f"lead must be >= 1, got {lead}")
        if max_repeats < lead:
            raise ConfigurationError(
                f"max_repeats must be >= lead, got {max_repeats} < {lead}"
            )
        super().__init__(inner)
        self.lead = lead
        self.max_repeats = max_repeats

    def _verdict(self) -> bool | None:
        margin = 2 * self._votes_for_first - self._votes_cast
        if abs(margin) >= self.lead:
            return margin > 0
        if self._votes_cast >= self.max_repeats:
            return margin >= 0
        return None


# -- epsilon inflation --------------------------------------------------------


def session_epsilon(algorithm: InteractiveAlgorithm) -> float | None:
    """The stopping threshold ``algorithm`` currently runs at, if any.

    Baselines keep a mutable ``epsilon`` attribute; RL sessions read it
    from their environment's config each round.  Wrappers delegate to
    the wrapped algorithm.  ``None`` for algorithms without a threshold.
    """
    inner = getattr(algorithm, "inner", None)
    if inner is not None:
        return session_epsilon(inner)
    value = getattr(algorithm, "epsilon", None)
    if value is not None:
        return float(value)
    config = getattr(getattr(algorithm, "environment", None), "config", None)
    value = getattr(config, "epsilon", None)
    return None if value is None else float(value)


def inflate_epsilon(
    algorithm: InteractiveAlgorithm,
    scale: float,
    max_epsilon: float = 0.5,
) -> InteractiveAlgorithm:
    """Relax ``algorithm``'s stopping threshold in place by ``scale``.

    The new threshold is ``min(max_epsilon, epsilon * scale)``.  Works
    on both attribute-carrying baselines and RL sessions (whose frozen
    config is swapped via :func:`dataclasses.replace`), and recurses
    through robustness wrappers.  Algorithms without a threshold raise
    :class:`~repro.errors.ConfigurationError` — the caller should pick
    a different :class:`RobustPolicy` for them.
    """
    if scale < 1.0:
        raise ConfigurationError(f"scale must be >= 1, got {scale}")
    if not 0.0 < max_epsilon < 1.0:
        raise ConfigurationError(
            f"max_epsilon must be in (0, 1), got {max_epsilon}"
        )
    inner = getattr(algorithm, "inner", None)
    if inner is not None:
        inflate_epsilon(inner, scale, max_epsilon)
        return algorithm
    current = session_epsilon(algorithm)
    if current is None:
        raise ConfigurationError(
            f"{type(algorithm).__name__} exposes no epsilon to inflate"
        )
    target = min(max_epsilon, current * scale)
    if getattr(algorithm, "epsilon", None) is not None:
        algorithm.epsilon = target  # type: ignore[attr-defined]
        return algorithm
    environment = algorithm.environment  # type: ignore[attr-defined]
    environment.config = replace(environment.config, epsilon=target)
    return algorithm


# -- the RobustPolicy seam ----------------------------------------------------

#: Zero-argument factory producing a fresh inner algorithm.
SessionSource = Callable[[], InteractiveAlgorithm]


class RobustPolicy(abc.ABC):
    """How a serving engine rebuilds a session for recovery retry ``attempt``.

    The seam :class:`RecoveryPolicy` is parameterised by:
    given the failed session's factory and the 1-based retry attempt,
    return the session to run next.  :class:`MajorityVotePolicy` is the
    default (and the historical behaviour); alternatives trade question
    budget against robustness differently.
    """

    name: str = "robust"

    @abc.abstractmethod
    def build(
        self, source: SessionSource, attempt: int
    ) -> InteractiveAlgorithm:
        """The session to run for retry number ``attempt`` (>= 1)."""


@dataclass(frozen=True)
class MajorityVotePolicy(RobustPolicy):
    """Retry under a fixed-budget majority vote (the historical default)."""

    repeats: int = 3
    name: str = "majority-vote"

    def build(
        self, source: SessionSource, attempt: int
    ) -> InteractiveAlgorithm:
        return MajorityVoteSession(source(), repeats=self.repeats)


@dataclass(frozen=True)
class ConfidenceWeightedPolicy(RobustPolicy):
    """Retry under the adaptive lead-based repeat wrapper."""

    lead: int = 2
    max_repeats: int = 9
    name: str = "confidence-weighted"

    def build(
        self, source: SessionSource, attempt: int
    ) -> InteractiveAlgorithm:
        return ConfidenceWeightedSession(
            source(), lead=self.lead, max_repeats=self.max_repeats
        )


@dataclass(frozen=True)
class EpsilonInflationPolicy(RobustPolicy):
    """Retry with a progressively relaxed stopping threshold.

    Attempt ``k`` runs at ``min(max_epsilon, epsilon * factor**k)``: the
    right fallback when :class:`~repro.errors.EmptyRegionError` comes
    from *drift* rather than iid noise — repeating questions cannot
    un-stale old constraints, but a looser threshold stops the session
    before they accumulate.  Set ``repeats > 1`` to stack a majority
    vote on top of the inflated threshold.
    """

    factor: float = 2.0
    max_epsilon: float = 0.5
    repeats: int = 1
    name: str = "epsilon-inflation"

    def build(
        self, source: SessionSource, attempt: int
    ) -> InteractiveAlgorithm:
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        session = inflate_epsilon(
            source(), self.factor**attempt, self.max_epsilon
        )
        if self.repeats > 1:
            return MajorityVoteSession(session, repeats=self.repeats)
        return session


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the serving engine does when a session dies mid-run.

    A failed session whose error is an instance of one of ``retry_on``
    is rebuilt from its spec's factory and re-driven from round zero,
    wrapped in :class:`MajorityVoteSession` with ``majority_repeats``
    votes per question.  Repetition is the provably-helpful defence
    against the inconsistent answers that raise
    :class:`~repro.errors.EmptyRegionError` in the first place;
    ``majority_repeats=1`` degenerates to a plain re-run (useful when
    the factory draws a fresh seed).  After ``max_retries`` failed
    attempts the session is returned as ``"failed"``.
    """

    retry_on: tuple[type[BaseException], ...] = (EmptyRegionError,)
    max_retries: int = 1
    majority_repeats: int = 3
    #: Optional :class:`RobustPolicy` deciding *how* the retry session
    #: is built.  ``None`` keeps the historical behaviour: a majority
    #: vote with ``majority_repeats`` votes.
    policy: RobustPolicy | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ConfigurationError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )
        if self.majority_repeats < 1 or self.majority_repeats % 2 == 0:
            raise ConfigurationError(
                "majority_repeats must be a positive odd number, "
                f"got {self.majority_repeats}"
            )
        if not self.retry_on:
            raise ConfigurationError("retry_on must name at least one error")

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether ``error`` on attempt number ``attempt`` warrants a retry."""
        return attempt < self.max_retries and isinstance(
            error, tuple(self.retry_on)
        )

    def build_retry(
        self, source: SessionSource, attempt: int
    ) -> InteractiveAlgorithm:
        """Build the session for retry number ``attempt`` (1-based).

        Delegates to :attr:`policy` when one is configured; the default
        reproduces the historical behaviour exactly — a fresh session
        from ``source`` under a ``majority_repeats``-vote majority.
        """
        if self.policy is not None:
            return self.policy.build(source, attempt)
        return MajorityVoteSession(source(), repeats=self.majority_repeats)

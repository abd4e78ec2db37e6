"""Noise-robust sessions — the paper's future work, realised.

The paper's closing line: "As for future work, we consider the case
where users make mistakes when answering questions."  This module holds
the defence and the one rule the serving engines apply with it:

* :class:`MajorityVoteSession` — ask each question ``2t + 1`` times and
  act on the majority.  If a user errs independently with probability
  ``p < 0.5``, the majority is wrong with probability at most
  ``exp(-2 t (0.5 - p)^2)`` (Hoeffding).
* The recovery rule (:data:`RETRY_ON`, :data:`MAX_RETRIES`,
  :data:`RETRY_REPEATS`) — what a serving engine built with
  ``recover=True`` (:class:`~repro.serve.scheduler.ContinuousEngine`,
  and every :class:`~repro.serve.dispatch.ShardedDispatcher` worker)
  does when a session dies mid-run: a session that raised
  :class:`~repro.errors.EmptyRegionError` is rebuilt from its spec's
  factory and re-driven from round zero under a 3-vote
  :class:`MajorityVoteSession`, once; if that attempt dies too, the
  session is returned as ``"failed"``.

The wrapper wraps *any* interactive algorithm in this package without
modifying it: it re-issues the inner algorithm's pending question until
the majority is decided, then forwards the consolidated verdict.  The
wrapper's ``rounds`` counts every question actually asked (what the user
experiences); the inner algorithm sees one answer per decision.
"""

from __future__ import annotations

from repro.core.session import InteractiveAlgorithm, Question
from repro.errors import ConfigurationError, EmptyRegionError

#: Errors a ``recover=True`` engine re-drives a session for.
RETRY_ON: tuple[type[Exception], ...] = (EmptyRegionError,)
#: Retries per session before it is returned as ``"failed"``.
MAX_RETRIES = 1
#: Votes per question in a retried session.
RETRY_REPEATS = 3


class MajorityVoteSession(InteractiveAlgorithm):
    """Ask each of the inner algorithm's questions ``repeats`` times.

    Parameters
    ----------
    inner:
        A fresh interactive algorithm (EA, AA or any baseline).
    repeats:
        Number of times each question is asked; must be odd so the
        majority is always defined.
    """

    def __init__(self, inner: InteractiveAlgorithm, repeats: int = 3) -> None:
        if repeats < 1 or repeats % 2 == 0:
            raise ConfigurationError(
                f"repeats must be a positive odd number, got {repeats}"
            )
        super().__init__(inner.dataset)
        self.inner = inner
        self.repeats = repeats
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
        majority = self.repeats // 2
        first_wins = self._votes_for_first > majority
        # Early termination: once either side holds a majority the
        # remaining votes cannot flip the outcome, so skip them (saves
        # questions at no accuracy cost).
        if first_wins or self._votes_cast - self._votes_for_first > majority:
            self.inner.observe(first_wins)
            self._pending_inner = None

    def _finished(self) -> bool:
        return self.inner.finished

    def recommend(self) -> int:
        return self.inner.recommend()

    # -- extras ---------------------------------------------------------------

    @property
    def halfspaces(self) -> tuple:
        """Half-spaces learned by the wrapped algorithm."""
        return getattr(self.inner, "halfspaces", ())

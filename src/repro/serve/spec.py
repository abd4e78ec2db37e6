"""The canonical unit of serving work: :class:`SessionSpec`.

The serving engine (:class:`~repro.serve.scheduler.ContinuousEngine`,
and through it every :class:`~repro.serve.dispatch.ShardedDispatcher`
worker) admits work only as *specs*: a zero-argument session factory
paired with the user who will answer its questions, plus caller-side
bookkeeping (``seed``, ``tags``) that the engine carries through
untouched.  Factories — not constructed sessions — are the unit for two
reasons the engine relies on:

* they are invoked *inside* the engine's LP-cache context, so the heavy
  constraint solves of session start-up (identical across sessions that
  share a dataset) are memoised;
* an engine built with ``recover=True`` rebuilds a failed session by
  calling its factory again — an already-driven session holds poisoned
  state and cannot be replayed.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.core.session import InteractiveAlgorithm
from repro.errors import ConfigurationError
from repro.users.oracle import User


@dataclass(frozen=True)
class SessionSpec:
    """One unit of serving work: who asks the questions, who answers.

    Attributes
    ----------
    factory:
        Zero-argument callable producing a fresh, unused
        :class:`~repro.core.session.InteractiveAlgorithm`.  Invoked by
        the engine inside its LP-cache context; re-invoked on recovery
        retries.
    user:
        Anything with a ``prefers(p_i, p_j) -> bool`` method — an
        oracle, or any model from :mod:`repro.users.models` (tag the
        spec with ``tags["user_model"]`` for provenance).  Users with
        the optional three-valued ``compare`` may abstain; the engine
        consumes abstentions through
        :func:`repro.core.session.ask_user`.
    seed:
        Optional seed recorded for provenance (e.g. the per-session RNG
        stream the factory closes over).  The engine never interprets
        it; it exists so results can be traced back to their stream.
    tags:
        Free-form caller metadata (tenant, experiment arm, priority
        class, ...) carried through unchanged.  The engine never
        interprets tags either.
    resumed:
        The factory restores a mid-flight session from a
        :class:`~repro.persist.SessionSnapshot` (see
        :func:`repro.persist.resumed_spec`).  The engine normally
        rejects algorithms that arrive with ``rounds != 0`` — the
        tell-tale of an accidentally re-submitted instance — but a
        resumed spec is *supposed* to arrive mid-session, so this flag
        relaxes that admission check.
    """

    factory: Callable[[], InteractiveAlgorithm]
    user: User
    seed: int | None = None
    tags: Mapping[str, object] = field(default_factory=dict)
    resumed: bool = False

    def __post_init__(self) -> None:
        if not callable(self.factory):
            raise ConfigurationError(
                "SessionSpec.factory must be a zero-argument callable "
                f"producing a fresh session, got {type(self.factory).__name__}"
            )

    def build(self) -> InteractiveAlgorithm:
        """Invoke the factory, returning a fresh session instance."""
        return self.factory()


def require_spec(session: object) -> SessionSpec:
    """Return ``session`` if it is a :class:`SessionSpec`, else raise.

    The engine and the dispatcher accept nothing else: a bare algorithm
    or an ``(algorithm, user)`` tuple raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(session, SessionSpec):
        raise ConfigurationError(
            "sessions must be submitted as repro.serve.SessionSpec, "
            f"got {type(session).__name__}"
        )
    return session

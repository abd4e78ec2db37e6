"""Per-round progress traces (the measurement behind Figures 7-8).

The paper reports, at the end of every interactive round, the current
*maximum regret ratio* — the worst regret of the algorithm's current
recommendation over utility vectors sampled from the range consistent
with the answers so far — together with the accumulated execution time.
:func:`trace_session` drives any interactive algorithm against a user
and collects exactly that series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.session import InteractiveAlgorithm, RoundRecord, run_session
from repro.data.datasets import Dataset
from repro.errors import EmptyRegionError
from repro.eval.metrics import max_regret_ratio
from repro.users.oracle import User
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class TracePoint:
    """One round's worth of progress measurements."""

    round_number: int
    max_regret: float
    elapsed_seconds: float
    recommendation_index: int


class _StopTrace(Exception):
    """Ends a traced run once the max-regret metric has no region left."""


def trace_session(
    algorithm: InteractiveAlgorithm,
    user: User,
    dataset: Dataset,
    max_rounds: int = 50,
    n_samples: int = 300,
    rng: RngLike = 0,
) -> list[TracePoint]:
    """Run a session collecting the max-regret/time series per round.

    The session runs through :func:`~repro.core.session.run_session`
    (so an abstaining user is re-asked, as on every other path), and
    each round's :class:`~repro.core.session.RoundRecord` gets its
    max-regret measurement in the ``on_round`` callback.  The elapsed
    time is *agent* time only — measuring the max-regret metric itself
    is evaluation bookkeeping and is excluded, matching the paper's
    methodology.

    Parameters
    ----------
    algorithm:
        A fresh interactive session exposing a ``halfspaces`` property
        (all algorithms in this package do).
    user:
        The question-answering user.
    dataset:
        The searched dataset (for regret computation).
    max_rounds:
        Trace at most this many rounds (the session may finish earlier;
        it is *not* run to completion beyond the trace).
    n_samples:
        Utility vectors sampled per round for the max-regret estimate.

    Noisy answers can empty the region mid-trace; the metric then
    raises :class:`~repro.errors.EmptyRegionError`, the worst-case
    exposure is undefined, and tracing stops with the rounds measured
    so far.  The same error raised by the algorithm itself propagates.
    """
    if not hasattr(algorithm, "halfspaces"):
        raise TypeError(
            f"{type(algorithm).__name__} does not expose learned half-spaces"
        )
    points: list[TracePoint] = []

    def measure(record: RoundRecord) -> None:
        try:
            regret = max_regret_ratio(
                dataset,
                record.recommendation_index,
                list(algorithm.halfspaces),
                n_samples=n_samples,
                rng=rng,
            )
        except EmptyRegionError as error:
            raise _StopTrace from error
        points.append(
            TracePoint(
                round_number=record.round_number,
                max_regret=regret,
                elapsed_seconds=record.elapsed_seconds,
                recommendation_index=record.recommendation_index,
            )
        )

    try:
        run_session(algorithm, user, max_rounds=max_rounds, on_round=measure)
    except _StopTrace:
        pass
    return points

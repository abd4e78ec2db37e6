"""Evaluation metrics (Section V, "Performance measurement").

* :func:`session_regret` — the *actual regret ratio* of a returned point
  w.r.t. the user's hidden utility vector.
* :func:`max_regret_ratio` — the paper's progress metric (Figures 7-8):
  at the end of a round, sample utility vectors from the intersection of
  the half-spaces learned so far, and report the worst regret ratio of
  the current recommendation over those samples — the algorithm's
  worst-case exposure given what it knows.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.session import SessionResult
from repro.data.datasets import Dataset
from repro.geometry.hyperplane import PreferenceHalfspace
from repro.geometry.range import ExactRange
from repro.geometry.vectors import regret_ratio, regret_ratios
from repro.users.oracle import OracleUser
from repro.utils.rng import RngLike

#: Sample count for the max-regret estimate; the paper uses 10,000 but a
#: tenth of that already stabilises the estimate to the two digits shown.
DEFAULT_REGION_SAMPLES = 1_000


def session_regret(
    dataset: Dataset, result: SessionResult, user: OracleUser
) -> float:
    """Actual regret ratio of the session's returned point."""
    return regret_ratio(dataset.points, result.recommendation, user.utility)


def max_regret_ratio(
    dataset: Dataset,
    recommendation_index: int,
    halfspaces: Sequence[PreferenceHalfspace],
    n_samples: int = DEFAULT_REGION_SAMPLES,
    rng: RngLike = None,
) -> float:
    """Worst-case regret of a recommendation over the current range.

    Follows the paper's procedure: sample utility vectors inside the
    intersection of the learned half-spaces with the utility simplex and
    report the maximum regret ratio of the recommended point over the
    samples.  Uses hit-and-run (no vertex enumeration), so it works in
    high dimensions too.

    Raises
    ------
    EmptyRegionError
        If the learned half-spaces are inconsistent.
    """
    region = ExactRange.from_halfspaces(dataset.dimension, halfspaces)
    samples = region.sample(n_samples, rng=rng)
    values = regret_ratios(
        dataset.points, dataset.points[recommendation_index], samples
    )
    return float(values.max())

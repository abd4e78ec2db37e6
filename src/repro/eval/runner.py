"""Run and aggregate interactive sessions over held-out users.

The paper runs every experiment over multiple hidden utility vectors and
reports averages of three measurements (rounds, time, regret ratio).
:func:`evaluate_algorithm` reproduces that loop for any algorithm that
implements the session protocol.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.session import InteractiveAlgorithm, SessionResult, run_session
from repro.data.datasets import Dataset
from repro.eval.metrics import session_regret
from repro.users.oracle import OracleUser

#: A fresh algorithm instance per user session.
AlgorithmFactory = Callable[[], InteractiveAlgorithm]


@dataclass
class EvaluationSummary:
    """Aggregated results of one algorithm over a set of users."""

    name: str
    rounds_mean: float
    rounds_max: float
    seconds_mean: float
    regret_mean: float
    regret_max: float
    truncated: int
    sessions: list[SessionResult] = field(default_factory=list)
    regrets: list[float] = field(default_factory=list)


def evaluate_algorithm(
    factory: AlgorithmFactory,
    dataset: Dataset,
    utilities: np.ndarray,
    name: str = "",
    max_rounds: int = 2_000,
) -> EvaluationSummary:
    """Run one session per hidden utility vector and aggregate.

    Parameters
    ----------
    factory:
        Zero-argument callable producing a fresh, unused session.
    dataset:
        The dataset being searched (used for regret computation).
    utilities:
        ``(k, d)`` matrix of hidden utility vectors — one session each.
    name:
        Label used in reports.
    max_rounds:
        Per-session safety cap.
    """
    users = [
        OracleUser(utility)
        for utility in np.atleast_2d(np.asarray(utilities, dtype=float))
    ]
    sessions = [
        run_session(factory(), user, max_rounds=max_rounds) for user in users
    ]
    regrets = [
        session_regret(dataset, result, user)
        for result, user in zip(sessions, users)
    ]
    truncated = sum(int(result.truncated) for result in sessions)
    rounds = np.array([s.rounds for s in sessions], dtype=float)
    seconds = np.array([s.elapsed_seconds for s in sessions])
    regret_array = np.array(regrets)
    return EvaluationSummary(
        name=name,
        rounds_mean=float(rounds.mean()),
        rounds_max=float(rounds.max()),
        seconds_mean=float(seconds.mean()),
        regret_mean=float(regret_array.mean()),
        regret_max=float(regret_array.max()),
        truncated=truncated,
        sessions=sessions,
        regrets=regrets,
    )

"""Shared experiment configuration for the benchmark harness.

Every figure of Section V compares a subset of methods over a dataset
while sweeping one parameter.  This module centralises:

* **scale control** — benchmarks default to reduced sizes so the whole
  suite runs in minutes; setting the environment variable
  ``REPRO_PAPER_SCALE=1`` switches to the paper's sizes (n = 100,000,
  10,000 training vectors, 10 evaluation users);
* **method construction** — :func:`build_method` returns a session
  factory per method name, training the RL agents where needed;
* **comparison loops** — :func:`compare_methods` evaluates a method set
  on one dataset/epsilon and returns one :class:`MethodResult` per
  method, ready for table printing and shape assertions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.datasets import Dataset
from repro.data.utility import sample_training_utilities
from repro.eval.runner import AlgorithmFactory, EvaluationSummary, evaluate_algorithm
from repro.registry import (
    canonical_session_name,
    make_session,
    session_needs_agent,
    train_agent,
)
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

#: Methods usable only with explicit polytopes (the paper stops comparing
#: them beyond 10 attributes; EA's sweet spot is d <= 5).
LOW_DIMENSIONAL_METHODS = ("EA", "UH-Random", "UH-Simplex")
ALL_METHODS = ("EA", "AA", "UH-Random", "UH-Simplex", "SinglePass", "UtilityApprox")

_PAPER_SCALE_VAR = "REPRO_PAPER_SCALE"


@dataclass(frozen=True)
class Scale:
    """Workload sizes for one benchmark run."""

    synthetic_n: int
    train_episodes: int
    test_users: int
    region_samples: int
    updates_per_episode: int

    @property
    def label(self) -> str:
        """Human-readable scale tag printed in benchmark headers."""
        return (
            f"n={self.synthetic_n}, train={self.train_episodes}, "
            f"users={self.test_users}"
        )


REDUCED_SCALE = Scale(
    synthetic_n=5_000,
    train_episodes=40,
    test_users=5,
    region_samples=500,
    updates_per_episode=4,
)

PAPER_SCALE = Scale(
    synthetic_n=100_000,
    train_episodes=10_000,
    test_users=10,
    region_samples=10_000,
    updates_per_episode=1,
)


def current_scale() -> Scale:
    """The active scale; set ``REPRO_PAPER_SCALE=1`` for paper sizes."""
    if os.environ.get(_PAPER_SCALE_VAR, "") == "1":
        return PAPER_SCALE
    return REDUCED_SCALE


@dataclass(frozen=True)
class MethodResult:
    """One method's aggregate outcome on one experimental cell."""

    method: str
    epsilon: float
    dataset: str
    n: int
    d: int
    rounds: float
    seconds: float
    regret: float
    regret_max: float
    truncated: int

    @classmethod
    def from_summary(
        cls, summary: EvaluationSummary, epsilon: float, dataset: Dataset
    ) -> "MethodResult":
        return cls(
            method=summary.name,
            epsilon=epsilon,
            dataset=dataset.name,
            n=dataset.n,
            d=dataset.dimension,
            rounds=summary.rounds_mean,
            seconds=summary.seconds_mean,
            regret=summary.regret_mean,
            regret_max=summary.regret_max,
            truncated=summary.truncated,
        )

    def row(self) -> list[object]:
        """Table row used by the benchmark printers."""
        return [
            self.method,
            self.epsilon,
            self.rounds,
            self.seconds,
            self.regret,
        ]


RESULT_HEADERS = ["method", "epsilon", "rounds", "seconds", "regret"]


def applicable_methods(
    dimension: int, methods: tuple[str, ...] = ALL_METHODS
) -> tuple[str, ...]:
    """Drop polytope-based methods in high dimensions (paper's rule)."""
    if dimension <= 5:
        return methods
    return tuple(m for m in methods if m not in LOW_DIMENSIONAL_METHODS)


def build_method(
    name: str,
    dataset: Dataset,
    epsilon: float,
    seed: RngLike = 0,
    scale: Scale | None = None,
    train_utilities: np.ndarray | None = None,
) -> AlgorithmFactory:
    """A session factory for method ``name`` on ``dataset``.

    EA and AA are trained here (once per call) on ``train_utilities`` or a
    freshly sampled training set of the scale's size; the baselines need
    no training.  Each factory invocation gets an independent RNG stream
    so repeated sessions differ exactly as they would for different users.

    Names are resolved through :mod:`repro.registry`, so registry names
    and display names are both accepted; unknown names raise
    :class:`~repro.errors.ConfigurationError`.
    """
    scale = scale or current_scale()
    key = canonical_session_name(name)
    train_rng, session_seed_rng = spawn_rngs(seed, 2)

    def session_rng() -> np.random.Generator:
        return ensure_rng(int(session_seed_rng.integers(2**63 - 1)))

    extra: dict[str, Any] = {}
    if session_needs_agent(key):
        extra["agent"] = train_agent(
            key,
            dataset,
            epsilon,
            rng=train_rng,
            episodes=scale.train_episodes,
            utilities=train_utilities,
            updates_per_episode=scale.updates_per_episode,
        )
    return lambda: make_session(key, dataset, epsilon, rng=session_rng(), **extra)


def compare_methods(
    dataset: Dataset,
    epsilon: float,
    methods: tuple[str, ...],
    seed: RngLike = 0,
    scale: Scale | None = None,
    test_utilities: np.ndarray | None = None,
) -> list[MethodResult]:
    """Evaluate several methods on one dataset/epsilon cell.

    All methods face the *same* held-out users, so differences in rounds
    are attributable to the algorithms alone.
    """
    scale = scale or current_scale()
    method_seed_rng, test_rng = spawn_rngs(seed, 2)
    if test_utilities is None:
        test_utilities = sample_training_utilities(
            dataset.dimension, scale.test_users, rng=test_rng
        )
    results: list[MethodResult] = []
    for name in methods:
        factory = build_method(
            name,
            dataset,
            epsilon,
            seed=int(method_seed_rng.integers(2**63 - 1)),
            scale=scale,
        )
        summary = evaluate_algorithm(
            factory, dataset, test_utilities, name=name
        )
        results.append(MethodResult.from_summary(summary, epsilon, dataset))
    return results

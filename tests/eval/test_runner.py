"""Tests for the evaluation runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.runner import evaluate_algorithm
from tests.core.test_session import CountdownAlgorithm


class TestEvaluateAlgorithm:
    def test_aggregates_over_users(self, toy):
        utilities = np.array([[0.3, 0.7], [0.6, 0.4], [0.9, 0.1]])
        summary = evaluate_algorithm(
            lambda: CountdownAlgorithm(toy, questions=2),
            toy,
            utilities,
            name="countdown",
        )
        assert summary.name == "countdown"
        assert summary.rounds_mean == pytest.approx(2.0)
        assert summary.rounds_max == pytest.approx(2.0)
        assert len(summary.sessions) == 3
        assert len(summary.regrets) == 3
        assert summary.truncated == 0

    def test_regret_statistics(self, toy):
        # CountdownAlgorithm always recommends point 0 = (floor, 1.0).
        utilities = np.array([[0.0, 1.0], [1.0, 0.0]])
        summary = evaluate_algorithm(
            lambda: CountdownAlgorithm(toy, questions=1), toy, utilities
        )
        # For u = (0, 1), point 0 is the favourite: regret 0.
        assert min(summary.regrets) == pytest.approx(0.0, abs=1e-9)
        # For u = (1, 0), point 0 is nearly worthless: regret ~ 0.99.
        assert summary.regret_max > 0.9

    def test_truncation_counted(self, toy):
        utilities = np.array([[0.5, 0.5]])
        summary = evaluate_algorithm(
            lambda: CountdownAlgorithm(toy, questions=100),
            toy,
            utilities,
            max_rounds=3,
        )
        assert summary.truncated == 1

    def test_within_threshold_helper(self, toy):
        utilities = np.array([[0.0, 1.0]])
        summary = evaluate_algorithm(
            lambda: CountdownAlgorithm(toy, questions=1), toy, utilities
        )
        # Every session's actual regret stayed within eps.
        assert summary.regret_max <= 0.05

    def test_single_utility_vector_promoted(self, toy):
        summary = evaluate_algorithm(
            lambda: CountdownAlgorithm(toy, questions=1),
            toy,
            np.array([0.5, 0.5]),
        )
        assert len(summary.sessions) == 1

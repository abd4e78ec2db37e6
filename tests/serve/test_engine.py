"""ContinuousEngine: determinism vs the sequential path, plus metrics.

The engine's contract is that sharing work across sessions (batched
Q-scoring, LP memoisation) must not perturb any individual session:
engine-driven sessions are bit-identical to sequential ``run_session``
runs over the same algorithm/user/seed.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import UHRandomSession
from repro.core.session import run_session
from repro.data.utility import sample_training_utilities
from repro.serve import (
    ContinuousEngine,
    EngineMetrics,
    SessionSpec,
    run_serve_bench,
)
from repro.users import OracleUser

N_USERS = 4


def _hidden_users(dimension: int):
    utilities = sample_training_utilities(dimension, N_USERS, rng=2_024)
    return [OracleUser(u) for u in utilities]


def _specs(make_algorithm, users):
    """One factory-form SessionSpec per (seed, user)."""
    return [
        SessionSpec(
            factory=lambda seed=seed: make_algorithm(seed),
            user=user,
            seed=seed,
        )
        for seed, user in enumerate(users)
    ]


def _assert_identical(sequential, engine_results):
    """Engine results must match sequential ones field for field."""
    assert len(sequential) == len(engine_results)
    for seq, eng in zip(sequential, engine_results):
        assert seq.recommendation_index == eng.recommendation_index
        np.testing.assert_array_equal(seq.recommendation, eng.recommendation)
        assert seq.rounds == eng.rounds
        assert seq.truncated == eng.truncated


class TestDeterminism:
    """Engine-driven sessions replay the sequential path bit for bit."""

    def _run_both(self, make_algorithm, dataset):
        users = _hidden_users(dataset.dimension)
        sequential = [
            run_session(make_algorithm(seed), user)
            for seed, user in enumerate(users)
        ]
        with ContinuousEngine() as engine:
            engine_results = engine.run(_specs(make_algorithm, users))
        _assert_identical(sequential, engine_results)
        return engine

    def test_ea_sessions_identical(self, trained_ea_3d, small_anti_3d):
        engine = self._run_both(
            lambda seed: trained_ea_3d.new_session(rng=seed), small_anti_3d
        )
        metrics = engine.last_metrics
        assert metrics.batches > 0
        assert metrics.lp_solves > 0

    def test_aa_sessions_identical(self, trained_aa_3d, small_anti_3d):
        engine = self._run_both(
            lambda seed: trained_aa_3d.new_session(rng=seed), small_anti_3d
        )
        metrics = engine.last_metrics
        assert metrics.batches > 0
        assert metrics.lp_cache_hits > 0

    def test_baseline_sessions_identical(self, small_anti_3d):
        engine = self._run_both(
            lambda seed: UHRandomSession(small_anti_3d, epsilon=0.1, rng=seed),
            small_anti_3d,
        )
        # Baselines have no batched scorer: every round goes the
        # sequential next_question() route.
        assert engine.last_metrics.batches == 0

    def test_trace_matches_sequential(self, trained_ea_3d, small_anti_3d):
        users = _hidden_users(small_anti_3d.dimension)
        sequential = [
            run_session(trained_ea_3d.new_session(rng=seed), user, trace=True)
            for seed, user in enumerate(users)
        ]
        with ContinuousEngine() as engine:
            engine_results = engine.run(
                _specs(lambda seed: trained_ea_3d.new_session(rng=seed), users),
                trace=True,
            )
        for seq, eng in zip(sequential, engine_results):
            assert [r.round_number for r in seq.trace] == [
                r.round_number for r in eng.trace
            ]
            assert [r.recommendation_index for r in seq.trace] == [
                r.recommendation_index for r in eng.trace
            ]


class TestMetrics:
    """Engine and per-session metrics are populated and consistent."""

    def test_session_results_carry_metrics(self, trained_ea_3d, small_anti_3d):
        users = _hidden_users(small_anti_3d.dimension)
        with ContinuousEngine() as engine:
            results = engine.run(
                _specs(lambda seed: trained_ea_3d.new_session(rng=seed), users)
            )
        metrics = engine.last_metrics
        assert isinstance(metrics, EngineMetrics)
        assert metrics.sessions == len(users)
        assert metrics.completed + metrics.truncated == len(users)
        assert metrics.rounds_total == sum(r.rounds for r in results)
        assert 0.0 < metrics.occupancy <= 1.0
        for ticket, result in enumerate(results):
            assert result.metrics is not None
            assert result.metrics.session_id == ticket
            assert result.metrics.batched_rounds > 0

    def test_range_counters_collected(self, trained_ea_3d, small_anti_3d):
        users = _hidden_users(small_anti_3d.dimension)
        with ContinuousEngine() as engine:
            results = engine.run(
                _specs(lambda seed: trained_ea_3d.new_session(rng=seed), users)
            )
        metrics = engine.last_metrics
        assert metrics.range_updates >= metrics.rounds_total
        assert metrics.range_clips + metrics.range_rebuilds > 0
        assert 0.0 <= metrics.range_clip_rate <= 1.0
        assert metrics.range_updates == sum(
            r.metrics.range_updates for r in results
        )
        assert metrics.range_clips == sum(
            r.metrics.range_clips for r in results
        )
        assert any(
            line.startswith("range updates:")
            for line in metrics.summary_lines()
        )

    def test_shared_cache_accumulates(self, trained_aa_3d, small_anti_3d):
        users = _hidden_users(small_anti_3d.dimension)
        make = lambda seed: trained_aa_3d.new_session(rng=seed)  # noqa: E731
        with ContinuousEngine() as engine:
            engine.run(_specs(make, users))
            hits, solves = engine.metrics.lp_cache_hits, engine.metrics.lp_solves
            engine.run(_specs(make, users))
            hits = engine.metrics.lp_cache_hits - hits
            solves = engine.metrics.lp_solves - solves
        # The engine's cache lives as long as the engine: the second run
        # replays the first run's LP systems, so (nearly) every solve is
        # a hit.
        assert solves > 0
        assert hits / solves > 0.9

    def test_rejects_used_sessions(self, trained_ea_3d, small_anti_3d):
        session = trained_ea_3d.new_session(rng=0)
        user = _hidden_users(small_anti_3d.dimension)[0]
        run_session(session, user)
        with ContinuousEngine() as engine:
            (result,) = engine.run(
                [SessionSpec(factory=lambda: session, user=user)]
            )
        assert result.failed
        assert "InteractionError" in result.error
        assert "already been driven" in result.error

    def test_max_rounds_truncates(self, trained_ea_3d, small_anti_3d):
        users = _hidden_users(small_anti_3d.dimension)
        with ContinuousEngine(max_rounds=1) as engine:
            results = engine.run(
                _specs(lambda seed: trained_ea_3d.new_session(rng=seed), users)
            )
        assert all(r.truncated for r in results)
        assert all(r.rounds == 1 for r in results)
        assert engine.last_metrics.truncated == len(users)


class TestServeBench:
    """The end-to-end serve-bench workload."""

    def test_reports_cache_hits_and_occupancy(self, small_anti_3d):
        report = run_serve_bench(
            small_anti_3d, sessions=6, algorithm="aa", episodes=2, seed=5
        )
        assert len(report.results) == 6
        metrics = report.metrics
        assert metrics.lp_hit_rate > 0
        assert metrics.occupancy > 0
        assert metrics.sessions_per_second > 0
        assert any("occupancy" in line for line in report.lines())

"""Tracing the serving hot path: visibility without perturbation.

Two contracts at once: with a tracer installed the engine (and the LP /
range / DQN layers under it) produce the promised spans, and the traced
run remains bit-identical to the untraced
one — observation must never change behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.utility import sample_training_utilities
from repro.obs.tracer import Tracer, use_tracer
from repro.serve import ContinuousEngine, SessionSpec
from repro.users import OracleUser


def _pairs(agent, dimension: int, n_users: int = 3):
    utilities = sample_training_utilities(dimension, n_users, rng=909)
    # Factories, not pre-built sessions: construction then happens inside
    # the engine's LP-cache context, so start-up solves shared across
    # sessions are memoised (and their hit/miss outcomes traced).
    return [
        SessionSpec(
            factory=lambda seed=seed: agent.new_session(rng=seed),
            user=OracleUser(u),
            seed=seed,
        )
        for seed, u in enumerate(utilities)
    ]


def _run(agent, dimension: int, tracer: Tracer | None):
    with ContinuousEngine() as engine:
        if tracer is None:
            results = engine.run(_pairs(agent, dimension))
        else:
            with use_tracer(tracer):
                results = engine.run(_pairs(agent, dimension))
    return engine, results


class TestTracedEngineRun:
    @pytest.fixture(scope="class")
    def traced(self, trained_ea_3d):
        tracer = Tracer()
        engine, results = _run(trained_ea_3d, 3, tracer)
        return tracer, engine, results

    def test_results_identical_with_and_without_tracer(
        self, trained_ea_3d, traced
    ):
        _, _, traced_results = traced
        _, plain_results = _run(trained_ea_3d, 3, None)
        assert len(plain_results) == len(traced_results)
        for plain, observed in zip(plain_results, traced_results):
            assert plain.recommendation_index == observed.recommendation_index
            np.testing.assert_array_equal(
                plain.recommendation, observed.recommendation
            )
            assert plain.rounds == observed.rounds
            assert plain.truncated == observed.truncated

    def test_engine_spans_present(self, traced):
        tracer, _, _ = traced
        names = set(tracer.aggregate())
        assert "engine.tick" in names
        assert "engine.slot" in names
        assert "engine.score" in names

    def test_lp_spans_split_by_kind_and_outcome(self, traced):
        tracer, engine, _ = traced
        lp_names = [
            name for name in tracer.aggregate() if name.startswith("lp.solve/")
        ]
        assert lp_names, "no LP solve spans recorded"
        # Names carry kind and cache outcome: lp.solve/<kind>/<outcome>.
        for name in lp_names:
            _, kind, outcome = name.split("/")
            assert kind
            assert outcome in ("hit", "miss", "uncached")
        # The engine's cache saw hits, and the spans agree.
        assert engine.last_metrics.lp_cache_hits > 0
        assert any(name.endswith("/hit") for name in lp_names)
        assert tracer.counters["lp.cache.hits"] == (
            engine.last_metrics.lp_cache_hits
        )

    def test_scoring_and_range_spans_present(self, traced):
        tracer, _, _ = traced
        names = set(tracer.aggregate())
        assert "dqn.q_values_many" in names
        assert "range.update" in names
        assert "range.clip" in names

    def test_tracer_detached_after_run(self, traced):
        _, engine, _ = traced
        assert engine._tracer is None

"""Tests for per-round progress tracing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import UHRandomSession
from repro.errors import EmptyRegionError
from repro.eval import traces
from repro.eval.traces import TracePoint, trace_session
from repro.users import OracleUser


class _HesitantUser(OracleUser):
    """Abstains on the first ask of every question; never forced."""

    def __init__(self, utility) -> None:
        super().__init__(utility)
        self.compares = 0

    def compare(self, p_i, p_j):
        self.compares += 1
        if self.compares % 2:
            return None
        return super().prefers(p_i, p_j)

    def prefers(self, p_i, p_j):
        raise AssertionError("an abstaining user must be re-asked")


class _CollapsingSession(UHRandomSession):
    """Raises ``EmptyRegionError`` from its own update in round 2."""

    def observe(self, prefers_first):
        if self.rounds == 1:
            raise EmptyRegionError("collapsed by the algorithm")
        super().observe(prefers_first)


class TestTraceSession:
    def test_collects_one_point_per_round(self, small_anti_3d):
        user = OracleUser(np.array([0.3, 0.4, 0.3]))
        session = UHRandomSession(small_anti_3d, rng=0)
        points = trace_session(
            session, user, small_anti_3d, max_rounds=5, n_samples=100
        )
        assert 1 <= len(points) <= 5
        assert [p.round_number for p in points] == list(
            range(1, len(points) + 1)
        )

    def test_time_is_cumulative(self, small_anti_3d):
        user = OracleUser(np.array([0.2, 0.5, 0.3]))
        session = UHRandomSession(small_anti_3d, rng=1)
        points = trace_session(
            session, user, small_anti_3d, max_rounds=6, n_samples=50
        )
        times = [p.elapsed_seconds for p in points]
        assert times == sorted(times)

    def test_max_regret_within_unit_interval(self, small_anti_3d):
        user = OracleUser(np.array([0.4, 0.3, 0.3]))
        session = UHRandomSession(small_anti_3d, rng=2)
        points = trace_session(
            session, user, small_anti_3d, max_rounds=8, n_samples=50
        )
        for point in points:
            assert -1e-9 <= point.max_regret <= 1.0 + 1e-9

    def test_final_regret_below_initial(self, small_anti_3d, trained_ea_3d):
        """Information accumulates: worst-case exposure shrinks."""
        user = OracleUser(np.array([0.35, 0.35, 0.3]))
        session = trained_ea_3d.new_session(rng=3)
        points = trace_session(
            session, user, small_anti_3d, max_rounds=20, n_samples=200
        )
        assert points[-1].max_regret <= points[0].max_regret + 1e-9

    def test_requires_halfspace_support(self, small_anti_3d):
        class Opaque:
            finished = False
            rounds = 0

        with pytest.raises(TypeError):
            trace_session(
                Opaque(), OracleUser(np.array([0.5, 0.3, 0.2])), small_anti_3d
            )

    def test_trace_point_fields(self):
        point = TracePoint(1, 0.5, 0.1, 7)
        assert point.round_number == 1
        assert point.recommendation_index == 7

    def test_abstaining_user_is_re_asked(self, small_anti_3d):
        user = _HesitantUser(np.array([0.3, 0.4, 0.3]))
        session = UHRandomSession(small_anti_3d, rng=0)
        points = trace_session(
            session, user, small_anti_3d, max_rounds=4, n_samples=50
        )
        assert points
        assert user.compares == 2 * len(points)
        assert session.abstentions == len(points)

    def test_algorithm_empty_region_propagates(self, small_anti_3d):
        session = _CollapsingSession(small_anti_3d, rng=0)
        with pytest.raises(EmptyRegionError, match="by the algorithm"):
            trace_session(
                session,
                OracleUser(np.array([0.3, 0.4, 0.3])),
                small_anti_3d,
                max_rounds=5,
                n_samples=50,
            )

    def test_metric_empty_region_stops_tracing(
        self, small_anti_3d, monkeypatch
    ):
        real = traces.max_regret_ratio
        calls = []

        def collapsing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise EmptyRegionError("metric region emptied")
            return real(*args, **kwargs)

        monkeypatch.setattr(traces, "max_regret_ratio", collapsing)
        session = UHRandomSession(small_anti_3d, rng=0)
        points = trace_session(
            session,
            OracleUser(np.array([0.3, 0.4, 0.3])),
            small_anti_3d,
            max_rounds=6,
            n_samples=50,
        )
        assert [p.round_number for p in points] == [1, 2]

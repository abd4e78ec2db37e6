"""Tracer semantics: free when off, correct tree/aggregates when on.

The disabled path is the load-bearing one — tracing ships enabled in no
default configuration, so the hot loops (engine ticks, LP solves, DQN
scoring) must pay nothing beyond a single ContextVar read.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.tracer import (
    NULL_SPAN,
    Tracer,
    active_tracer,
    counter,
    span,
    use_tracer,
)


class TestDisabledByDefault:
    """With no tracer installed, instrumentation is inert and allocation-free."""

    def test_no_tracer_installed(self):
        assert active_tracer() is None

    def test_module_span_returns_shared_singleton(self):
        # Identity, not just equality: the disabled path must not
        # allocate a fresh object per call.
        first = span("engine.wave")
        second = span("lp.solve/chebyshev/miss", kind="chebyshev")
        assert first is NULL_SPAN
        assert second is NULL_SPAN
        with first:
            pass  # usable as a context manager

    def test_module_counter_is_noop(self):
        counter("lp.cache.hits")  # must not raise, must not record anywhere
        assert active_tracer() is None

    def test_uninstalled_tracer_records_nothing(self):
        tracer = Tracer()
        with span("engine.wave"):
            pass
        counter("anything")
        assert tracer.spans_recorded == 0
        assert tracer.counters == {}
        assert tracer.aggregate() == {}

    def test_engine_hot_loop_records_nothing_without_install(
        self, trained_ea_3d
    ):
        # The full serving hot path — ticks, slot ops, LP solves, range
        # updates, Q-scoring — runs with a tracer constructed but never
        # installed: nothing may reach it.
        import numpy as np

        from repro.serve import ContinuousEngine
        from repro.users import OracleUser

        tracer = Tracer()
        engine = ContinuousEngine()
        users = [
            OracleUser(u)
            for u in np.random.default_rng(7).dirichlet(np.ones(3), size=2)
        ]
        from repro.serve import SessionSpec

        engine.run(
            [
                SessionSpec(
                    factory=lambda seed=seed: trained_ea_3d.new_session(
                        rng=seed
                    ),
                    user=user,
                )
                for seed, user in enumerate(users)
            ]
        )
        assert tracer.spans_recorded == 0
        assert tracer.counters == {}


class TestSpanTree:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("engine.run"):
            with tracer.span("engine.tick", tick=1):
                with tracer.span("lp.solve/chebyshev/miss"):
                    pass
            with tracer.span("engine.tick", tick=2):
                pass
        assert len(tracer.roots) == 1
        run = tracer.roots[0]
        assert run.name == "engine.run"
        assert [child.name for child in run.children] == [
            "engine.tick",
            "engine.tick",
        ]
        assert run.children[0].tags == {"tick": 1}
        assert run.children[0].children[0].name == "lp.solve/chebyshev/miss"
        assert run.children[1].children == []
        assert tracer.spans_recorded == 4

    def test_durations_contain_children(self):
        tracer = Tracer()
        with tracer.span("engine.run"):
            with tracer.span("lp.solve/support/miss"):
                time.sleep(0.002)
        run = tracer.roots[0]
        child = run.children[0]
        assert child.duration > 0.0
        assert run.duration >= child.duration
        assert child.start >= run.start

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("range.update"):
            with tracer.span("lp.solve/redundancy/miss"):
                time.sleep(0.003)
        aggregates = tracer.aggregate()
        update = aggregates["range.update"]
        solve = aggregates["lp.solve/redundancy/miss"]
        assert update.total_seconds >= solve.total_seconds
        assert update.self_seconds == pytest.approx(
            update.total_seconds - solve.total_seconds
        )

    def test_aggregate_is_name_sorted_and_counts_calls(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("b.second"):
                pass
        with tracer.span("a.first"):
            pass
        aggregates = tracer.aggregate()
        assert list(aggregates) == ["a.first", "b.second"]
        assert aggregates["b.second"].calls == 3

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("engine.slot"):
                raise RuntimeError("boom")
        assert tracer.spans_recorded == 1
        assert tracer.aggregate()["engine.slot"].calls == 1


class TestCountersAndSnapshots:
    def test_counter_accumulates(self):
        tracer = Tracer()
        tracer.counter("lp.cache.hits")
        tracer.counter("lp.cache.hits", 2)
        assert tracer.counters == {"lp.cache.hits": 3}


class TestMaxSpansCap:
    def test_aggregates_exact_past_cap(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("engine.slot"):
                pass
        assert tracer.spans_recorded == 2
        assert tracer.dropped_spans == 3
        # Timing and counting stay exact even for dropped spans.
        assert tracer.aggregate()["engine.slot"].calls == 5

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestUseTracer:
    def test_installs_and_restores(self):
        tracer = Tracer()
        assert active_tracer() is None
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert active_tracer() is tracer
            assert span("engine.wave") is not NULL_SPAN
        assert active_tracer() is None

    def test_nesting_innermost_wins(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            with use_tracer(inner):
                assert active_tracer() is inner
            assert active_tracer() is outer

    def test_threads_do_not_stomp_each_other(self):
        # Mirrors tests/geometry/test_lp.py::TestCacheContextIsolation —
        # the tracer's installation is context-local for the same
        # reason the LP cache's is.
        tracers = [Tracer(), Tracer()]
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def worker(i: int) -> None:
            try:
                with use_tracer(tracers[i]):
                    barrier.wait(timeout=10)
                    # Both threads are inside use_tracer now; each must
                    # still see only its own tracer.
                    assert active_tracer() is tracers[i]
                    with span(f"thread.{i}"):
                        pass
                    barrier.wait(timeout=10)
                    assert active_tracer() is tracers[i]
                assert active_tracer() is None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        for i, tracer in enumerate(tracers):
            # Each thread's span landed in its own tracer only.
            assert tracer.spans_recorded == 1
            assert list(tracer.aggregate()) == [f"thread.{i}"]
        assert active_tracer() is None

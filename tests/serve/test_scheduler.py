"""ContinuousEngine: equivalence with ``run_session``, plus scheduling.

The continuous scheduler's contract has three parts:

* **Equivalence** — per-session results are identical to sequential
  ``run_session`` (the scalar reference) over the same specs:
  scheduling order, admission timing and batch composition must never
  perturb a session's transcript.
* **Streaming lifecycle** — ``submit()`` / ``as_completed()`` /
  ``drain()`` with input-order drain results, consuming streams and
  admission control (``max_in_flight``).
* **Fault isolation and recovery** — per-session failure boundaries,
  extended to admission (a crashing factory fails only its ticket).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.baselines import UHRandomSession
from repro.core.robust import RETRY_ON
from repro.core.session import run_session
from repro.data.utility import sample_training_utilities
from repro.errors import (
    ConfigurationError,
    EmptyRegionError,
    InteractionError,
)
from repro.serve import (
    ContinuousEngine,
    SessionSpec,
    ShardedDispatcher,
)
from repro.users import OracleUser
from tests.serve.test_faults import (
    BatchableSession,
    BrokenScorer,
    CrashingUser,
    ExplodingSession,
    ScriptedSession,
    _always_true_user,
    _spec,
)

N_USERS = 6


def _hidden_users(dimension: int, n: int = N_USERS):
    utilities = sample_training_utilities(dimension, n, rng=31_337)
    return [OracleUser(u) for u in utilities]


def _specs(make_algorithm, users):
    return [
        SessionSpec(
            factory=lambda seed=seed: make_algorithm(seed),
            user=user,
            seed=seed,
        )
        for seed, user in enumerate(users)
    ]


def _outcome(result):
    return (
        result.recommendation_index,
        result.rounds,
        result.truncated,
        result.status,
    )


class TestSessionSpec:
    """The unit of work, and the engine's refusal of anything else."""

    def test_factory_must_be_callable(self, toy):
        with pytest.raises(ConfigurationError):
            SessionSpec(
                factory=ScriptedSession(toy, total=1),  # type: ignore[arg-type]
                user=_always_true_user(),
            )

    def test_seed_and_tags_carried(self, toy):
        spec = SessionSpec(
            factory=lambda: ScriptedSession(toy, total=1),
            user=_always_true_user(),
            seed=41,
            tags={"tenant": "acme"},
        )
        assert spec.seed == 41
        assert spec.tags["tenant"] == "acme"

    def test_tuple_submission_rejected(self, toy):
        with ContinuousEngine() as engine:
            with pytest.raises(ConfigurationError, match="SessionSpec"):
                engine.submit(
                    (ScriptedSession(toy, total=1), _always_true_user())  # type: ignore[arg-type]
                )
            with pytest.raises(ConfigurationError, match="SessionSpec"):
                engine.run(
                    [(lambda: ScriptedSession(toy, total=1),
                      _always_true_user())]  # type: ignore[list-item]
                )
            assert not engine.has_work

    def test_non_tuple_rejected(self):
        with ContinuousEngine() as engine:
            with pytest.raises(ConfigurationError):
                engine.submit("not a session")  # type: ignore[arg-type]


class TestEquivalence:
    """Same specs ⇒ same per-session results as sequential run_session."""

    def _run_both(self, make_algorithm, dimension, **continuous_kwargs):
        users = _hidden_users(dimension)
        sequential = [
            run_session(make_algorithm(seed), user)
            for seed, user in enumerate(users)
        ]
        continuous_kwargs.setdefault("max_in_flight", 3)
        with ContinuousEngine(**continuous_kwargs) as engine:
            continuous_results = engine.run(_specs(make_algorithm, users))
        assert [_outcome(r) for r in sequential] == [
            _outcome(r) for r in continuous_results
        ]
        for seq_result, cont_result in zip(sequential, continuous_results):
            np.testing.assert_array_equal(
                seq_result.recommendation, cont_result.recommendation
            )
        return sequential, continuous_results

    def test_ea_equivalent_to_sequential(self, trained_ea_3d):
        self._run_both(lambda seed: trained_ea_3d.new_session(rng=seed), 3)

    def test_aa_equivalent_to_sequential(self, trained_aa_3d):
        self._run_both(lambda seed: trained_aa_3d.new_session(rng=seed), 3)

    def test_baseline_equivalent_to_sequential(self, small_anti_3d):
        self._run_both(
            lambda seed: UHRandomSession(
                small_anti_3d, epsilon=0.1, rng=seed
            ),
            3,
        )

    def test_equivalent_to_sequential(self, trained_ea_3d):
        # Two in flight: admission staggers, and the results still match.
        self._run_both(
            lambda seed: trained_ea_3d.new_session(rng=seed),
            3,
            max_in_flight=2,
        )

    def test_trace_equivalent_to_sequential(self, trained_ea_3d):
        users = _hidden_users(3, n=3)
        make = lambda seed: trained_ea_3d.new_session(rng=seed)  # noqa: E731
        sequential = [
            run_session(make(seed), user, trace=True)
            for seed, user in enumerate(users)
        ]
        with ContinuousEngine(max_in_flight=2) as engine:
            continuous_results = engine.run(_specs(make, users), trace=True)
        for seq_result, cont_result in zip(sequential, continuous_results):
            assert [
                (r.round_number, r.recommendation_index)
                for r in seq_result.trace
            ] == [
                (r.round_number, r.recommendation_index)
                for r in cont_result.trace
            ]


class TestStreamingLifecycle:
    """submit / as_completed / drain semantics."""

    def test_drain_returns_submission_order(self, toy):
        with ContinuousEngine(max_in_flight=2) as engine:
            for total in (4, 1, 3, 2):
                engine.submit(
                    _spec(
                        lambda total=total: ScriptedSession(toy, total=total),
                        _always_true_user(),
                    )
                )
            results = engine.drain()
        assert [r.rounds for r in results] == [4, 1, 3, 2]
        assert [r.metrics.session_id for r in results] == [0, 1, 2, 3]

    def test_as_completed_streams_everything(self, toy):
        with ContinuousEngine(max_in_flight=2) as engine:
            tickets = [
                engine.submit(
                    _spec(
                        lambda total=total: ScriptedSession(toy, total=total),
                        _always_true_user(),
                    )
                )
                for total in (3, 1, 2)
            ]
            assert tickets == [0, 1, 2]
            streamed = list(engine.as_completed())
            # Completion order: shortest sessions finish first.
            assert sorted(r.rounds for r in streamed) == [1, 2, 3]
            assert streamed[0].rounds == 1
            # Streamed results are consumed: drain() has nothing left.
            assert engine.drain() == []

    def test_drain_epochs_are_independent(self, toy):
        with ContinuousEngine(max_in_flight=4) as engine:
            first = engine.run(
                [_spec(lambda: ScriptedSession(toy, total=2),
                       _always_true_user())]
            )
            second = engine.run(
                [_spec(lambda: ScriptedSession(toy, total=3),
                       _always_true_user())]
            )
        assert [r.rounds for r in first] == [2]
        assert [r.rounds for r in second] == [3]
        # Tickets keep counting across epochs.
        assert second[0].metrics.session_id == 1

    def test_closed_engine_refuses_work(self, toy):
        engine = ContinuousEngine()
        engine.close()
        # Lifecycle misuse, not misconfiguration: submitting to a
        # closed engine is an InteractionError.
        with pytest.raises(InteractionError, match="closed"):
            engine.submit(
                _spec(lambda: ScriptedSession(toy, total=1),
                      _always_true_user())
            )
        engine.close()  # idempotent

    def test_submit_races_a_streaming_thread(self, toy):
        # The HTTP service's shape: one thread streams results out of
        # as_completed() while another keeps submitting.  Every ticket
        # must come out exactly once, and nothing is left to drain.
        streamed = []
        errors = []
        submitted = threading.Event()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ContinuousEngine(max_in_flight=4) as engine:

                def stream():
                    try:
                        while True:
                            last = submitted.is_set()
                            streamed.extend(engine.as_completed())
                            if last:
                                return
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)

                thread = threading.Thread(target=stream)
                thread.start()
                tickets = [
                    engine.submit(
                        _spec(
                            lambda k=k: ScriptedSession(toy, total=1 + k % 3),
                            _always_true_user(),
                        )
                    )
                    for k in range(200)
                ]
                submitted.set()
                thread.join(timeout=60)
                assert not thread.is_alive()
                assert engine.drain() == []
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert sorted(r.metrics.session_id for r in streamed) == tickets

    def test_poll_completed_consumes_results(self, toy):
        with ContinuousEngine(max_in_flight=2) as engine:
            for total in (2, 1):
                engine.submit(
                    _spec(
                        lambda total=total: ScriptedSession(toy, total=total),
                        _always_true_user(),
                    )
                )
            polled = []
            while engine.has_work:
                engine.step()
                polled.extend(engine.poll_completed())
            polled.extend(engine.poll_completed())
            assert sorted(r.rounds for r in polled) == [1, 2]
            # Consumed: the next poll and the next drain see nothing.
            assert engine.poll_completed() == []
            assert engine.drain() == []

    def test_has_work_and_in_flight_tickets(self, toy):
        with ContinuousEngine(max_in_flight=2) as engine:
            assert not engine.has_work
            assert engine.in_flight_tickets == ()
            engine.submit(
                _spec(lambda: ScriptedSession(toy, total=3),
                      _always_true_user())
            )
            assert engine.has_work
            engine.step()
            assert engine.in_flight_tickets == (0,)
            while engine.has_work:
                engine.step()
            engine.poll_completed()
            assert engine.in_flight_tickets == ()

    def test_max_in_flight_bounds_batches(self, toy):
        scorer_sessions = 8
        with ContinuousEngine(max_in_flight=3) as engine:
            scorer = _SharedScorer()
            results = engine.run(
                [
                    _spec(
                        lambda: BatchableSession(toy, scorer),
                        _always_true_user(),
                    )
                    for _ in range(scorer_sessions)
                ]
            )
        assert len(results) == scorer_sessions
        assert engine.metrics.peak_batch <= 3
        assert scorer.max_rows <= 3

    def test_occupancy_metric_populated(self, trained_ea_3d):
        users = _hidden_users(3)
        with ContinuousEngine(max_in_flight=2) as engine:
            engine.run(
                _specs(lambda seed: trained_ea_3d.new_session(rng=seed), users)
            )
        metrics = engine.last_metrics
        assert metrics is not None
        assert metrics.ticks > 0
        assert metrics.in_flight_cap == 2
        assert 0.0 < metrics.occupancy <= 1.0
        assert metrics.occupancy == metrics.batched_rows / (
            metrics.ticks * metrics.in_flight_cap
        )
        assert any(
            line.startswith("ticks:") for line in metrics.summary_lines()
        )

    def test_validation(self):
        # Both runtimes refuse bad engine options at construction; the
        # dispatcher does so before forking a single worker.
        children = set(multiprocessing.active_children())
        for runtime, options, option in (
            (ContinuousEngine, {"max_in_flight": 0}, "max_in_flight"),
            (ContinuousEngine, {"max_rounds": 0}, "max_rounds"),
            (ShardedDispatcher, {"procs": 1, "max_in_flight": 0},
             "max_in_flight"),
            (ShardedDispatcher, {"procs": 1, "max_rounds": 0}, "max_rounds"),
        ):
            with pytest.raises(ConfigurationError, match=option):
                runtime(**options)
        assert set(multiprocessing.active_children()) <= children


class _SharedScorer:
    """A q_values_many scorer recording the widest batch it saw."""

    def __init__(self) -> None:
        self.max_rows = 0

    def q_values_many(self, items):
        self.max_rows = max(self.max_rows, len(items))
        return [np.zeros(len(item[1])) for item in items]


class TestFaultIsolation:
    """One bad ticket cannot take down the scheduler."""

    def test_one_bad_session_does_not_kill_the_run(self, toy):
        with ContinuousEngine(max_in_flight=2) as engine:
            results = engine.run(
                [
                    _spec(lambda: ScriptedSession(toy, total=3),
                          _always_true_user()),
                    _spec(lambda: ExplodingSession(toy, fail_at=2),
                          _always_true_user()),
                    _spec(lambda: ScriptedSession(toy, total=5),
                          _always_true_user()),
                ]
            )
        assert [r.metrics.session_id for r in results] == [0, 1, 2]
        assert results[0].status == "completed" and results[0].rounds == 3
        assert results[2].status == "completed" and results[2].rounds == 5
        assert results[1].failed
        assert "EmptyRegionError" in results[1].error
        metrics = engine.metrics
        assert metrics.failed == 1
        assert metrics.completed == 2
        assert metrics.errors[0].session_id == 1

    def test_crashing_user_fails_only_its_slot(self, toy):
        with ContinuousEngine(max_in_flight=2) as engine:
            results = engine.run(
                [
                    _spec(lambda: ScriptedSession(toy, total=2),
                          _always_true_user()),
                    _spec(lambda: ScriptedSession(toy, total=2),
                          CrashingUser()),
                ]
            )
        assert results[0].status == "completed"
        assert results[1].failed
        assert "RuntimeError" in results[1].error

    def test_scorer_row_mismatch_fails_group(self, toy):
        scorer = BrokenScorer()
        with ContinuousEngine(max_in_flight=4) as engine:
            results = engine.run(
                [
                    _spec(lambda: BatchableSession(toy, scorer),
                          _always_true_user()),
                    _spec(lambda: BatchableSession(toy, scorer),
                          _always_true_user()),
                ]
            )
        assert all(r.failed for r in results)
        assert engine.metrics.failed == 2

    def test_crashing_factory_fails_only_its_ticket(self, toy):
        def bomb():
            raise RuntimeError("factory exploded")

        with ContinuousEngine(max_in_flight=2) as engine:
            results = engine.run(
                [
                    _spec(lambda: ScriptedSession(toy, total=2),
                          _always_true_user()),
                    _spec(bomb, _always_true_user()),
                    _spec(lambda: ScriptedSession(toy, total=3),
                          _always_true_user()),
                ]
            )
        assert results[0].status == "completed"
        assert results[2].status == "completed"
        assert results[1].failed
        assert results[1].recommendation_index == -1
        assert "factory exploded" in results[1].error

    def test_stale_session_fails_only_its_ticket(self, toy):
        stale = ScriptedSession(toy, total=2)
        run_session(stale, _always_true_user())
        specs = [
            _spec(lambda: ScriptedSession(toy, total=2), _always_true_user()),
            _spec(lambda: stale, _always_true_user()),
        ]
        with ContinuousEngine(max_in_flight=2) as engine:
            results = engine.run(specs)
        assert results[0].status == "completed"
        assert results[1].failed
        assert "already been driven" in results[1].error


class TestRecoveryRaisesOnMissing:
    def test_empty_region_default_policy(self):
        assert isinstance(EmptyRegionError("x"), RETRY_ON)
        assert not isinstance(ValueError("x"), RETRY_ON)

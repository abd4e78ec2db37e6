"""Fault isolation and recovery in the serving engine.

One bad session must never kill an engine run: a slot whose question
selection, user callback, update or recommendation raises is returned
as ``status == "failed"`` while every other session runs to completion,
bit-identical to its sequential ``run_session`` replay.  With
``recover=True`` the engine additionally retries ``EmptyRegionError``
failures once under ``MajorityVoteSession``.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.core.robust import MajorityVoteSession
from repro.core.session import (
    CandidateBatch,
    InteractiveAlgorithm,
    Question,
    run_session,
)
from repro.errors import EmptyRegionError
from repro.serve import ContinuousEngine, SessionSpec, ShardedDispatcher
from repro.users import NoisyUser, OracleUser


def _spec(factory, user):
    return SessionSpec(factory=factory, user=user)


# -- deterministic test doubles -------------------------------------------------


class ScriptedSession(InteractiveAlgorithm):
    """Asks the pair (0, 1) every round and finishes after ``total`` rounds."""

    def __init__(self, dataset, total: int = 3) -> None:
        super().__init__(dataset)
        self.total = total

    def _propose(self) -> Question:
        return self.question_for(0, 1)

    def _update(self, question: Question, prefers_first: bool) -> None:
        pass

    def _finished(self) -> bool:
        return self.rounds >= self.total

    def recommend(self) -> int:
        return 0


class ExplodingSession(ScriptedSession):
    """Raises ``error`` inside ``_update`` once ``rounds`` reaches ``fail_at``."""

    def __init__(self, dataset, fail_at: int = 1, error=EmptyRegionError) -> None:
        super().__init__(dataset, total=fail_at + 10)
        self.fail_at = fail_at
        self.error = error

    def _update(self, question: Question, prefers_first: bool) -> None:
        if self.rounds >= self.fail_at:
            raise self.error("utility range is empty (scripted)")


class NoRecommendSession(ExplodingSession):
    """A session whose ``recommend`` is as broken as its update."""

    def recommend(self) -> int:
        raise EmptyRegionError("no recommendation either")


class StrictConsistencySession(ScriptedSession):
    """Raises ``EmptyRegionError`` as soon as two answers disagree.

    The strict reading of inconsistency the ISSUE motivates: unlike the
    package's graceful EA/AA sessions, this one treats a contradictory
    answer to the *same* repeated question as an empty utility range.
    """

    def __init__(self, dataset, total: int = 5) -> None:
        super().__init__(dataset, total=total)
        self._first_answer: bool | None = None

    def _update(self, question: Question, prefers_first: bool) -> None:
        if self._first_answer is None:
            self._first_answer = prefers_first
        elif prefers_first != self._first_answer:
            raise EmptyRegionError(
                "utility range is empty; user answers are inconsistent"
            )


class SlowSession(ScriptedSession):
    """Sleeps in question selection so tick timing is observable."""

    def __init__(self, dataset, total: int, delay: float) -> None:
        super().__init__(dataset, total=total)
        self.delay = delay

    def _propose(self) -> Question:
        time.sleep(self.delay)
        return self.question_for(0, 1)


class NoneProposingSession(ScriptedSession):
    """Violates the protocol by proposing no question at all."""

    def _propose(self):
        return None


class BrokenScorer:
    """A ``q_values_many`` scorer that drops one session's score rows."""

    def q_values_many(self, items):
        return [np.zeros(2) for _ in range(len(items) - 1)]


class BatchableSession(ScriptedSession):
    """Exposes a candidate batch routed through ``self.dqn``."""

    def __init__(self, dataset, scorer) -> None:
        super().__init__(dataset, total=2)
        self.dqn = scorer

    def candidate_batch(self) -> CandidateBatch:
        return CandidateBatch(
            state=np.zeros(2),
            actions=np.zeros((2, 2)),
            pairs=((0, 1), (0, 2)),
        )

    def _resolve_choice(self, choice: int) -> Question:
        return self.question_for(0, 1)


class PeriodicFlipUser:
    """Answers ``True`` except on every ``period``-th ``prefers`` call."""

    def __init__(self, period: int) -> None:
        self.period = period
        self.calls = 0

    def prefers(self, p_i, p_j) -> bool:
        self.calls += 1
        return self.calls % self.period != 0


class AbstainingFlipUser(PeriodicFlipUser):
    """A :class:`PeriodicFlipUser` that abstains on every other ask."""

    def __init__(self, period: int) -> None:
        super().__init__(period)
        self.compares = 0
        self.abstentions = 0

    def compare(self, p_i, p_j) -> bool | None:
        self.compares += 1
        if self.compares % 2:
            self.abstentions += 1
            return None
        return self.prefers(p_i, p_j)


class CrashingUser:
    """A user whose callback itself dies."""

    def prefers(self, p_i, p_j) -> bool:
        raise RuntimeError("user transport dropped")


def _always_true_user():
    return PeriodicFlipUser(period=10**9)


# -- fault isolation ------------------------------------------------------------


class TestFaultIsolation:
    """A dying slot is contained; everything else completes."""

    def test_one_bad_session_does_not_kill_the_run(self, toy):
        pairs = [
            _spec(lambda: ScriptedSession(toy, total=3), _always_true_user()),
            _spec(lambda: ExplodingSession(toy, fail_at=2), _always_true_user()),
            _spec(lambda: ScriptedSession(toy, total=5), _always_true_user()),
        ]
        engine = ContinuousEngine()
        results = engine.run(pairs)
        assert len(results) == 3
        assert [r.metrics.session_id for r in results] == [0, 1, 2]
        assert results[0].status == "completed" and results[0].rounds == 3
        assert results[2].status == "completed" and results[2].rounds == 5
        bad = results[1]
        assert bad.failed and bad.status == "failed"
        assert "EmptyRegionError" in bad.error
        assert bad.rounds == 2  # the scripted error fires on round 2's update
        metrics = engine.last_metrics
        assert metrics.failed == 1
        assert metrics.completed == 2
        assert metrics.sessions == 3
        assert len(metrics.errors) == 1
        record = metrics.errors[0]
        assert record.session_id == 1
        assert record.error_type == "EmptyRegionError"
        assert not record.retried

    def test_failed_result_keeps_best_effort_recommendation(self, toy):
        engine = ContinuousEngine()
        results = engine.run(
            [_spec(lambda: ExplodingSession(toy, fail_at=1), _always_true_user())]
        )
        assert results[0].failed
        assert results[0].recommendation_index == 0
        np.testing.assert_array_equal(results[0].recommendation, toy.points[0])

    def test_broken_recommend_degrades_to_sentinel(self, toy):
        engine = ContinuousEngine()
        results = engine.run(
            [_spec(lambda: NoRecommendSession(toy, fail_at=1), _always_true_user())]
        )
        assert results[0].failed
        assert results[0].recommendation_index == -1
        assert results[0].recommendation.size == 0

    def test_crashing_user_fails_only_its_slot(self, toy):
        engine = ContinuousEngine()
        results = engine.run(
            [
                _spec(lambda: ScriptedSession(toy, total=2), _always_true_user()),
                _spec(lambda: ScriptedSession(toy, total=2), CrashingUser()),
            ]
        )
        assert results[0].status == "completed"
        assert results[1].failed
        assert "RuntimeError" in results[1].error

    def test_none_question_raises_interaction_error_not_assert(self, toy):
        # Under ``python -O`` a bare assert would vanish and a None
        # question would reach user.prefers; the guard must be a real
        # InteractionError that the fault boundary then contains.
        engine = ContinuousEngine()
        results = engine.run(
            [_spec(lambda: NoneProposingSession(toy, total=3), _always_true_user())]
        )
        assert results[0].failed
        assert "InteractionError" in results[0].error
        assert engine.last_metrics.errors[0].error_type == "InteractionError"

    def test_healthy_sessions_bit_identical_amid_failures(
        self, trained_ea_3d, small_anti_3d
    ):
        from repro.data.utility import sample_training_utilities

        utilities = sample_training_utilities(3, 3, rng=77)
        users = [OracleUser(u) for u in utilities]
        sequential = [
            run_session(trained_ea_3d.new_session(rng=seed), user)
            for seed, user in enumerate(users)
        ]
        engine = ContinuousEngine()
        pairs = [
            _spec(lambda: trained_ea_3d.new_session(rng=0), users[0]),
            _spec(
                lambda: ExplodingSession(small_anti_3d, fail_at=1),
                _always_true_user(),
            ),
            _spec(lambda: trained_ea_3d.new_session(rng=1), users[1]),
            _spec(lambda: trained_ea_3d.new_session(rng=2), users[2]),
        ]
        results = engine.run(pairs)
        assert len(results) == 4
        assert results[1].failed
        healthy = [results[0], results[2], results[3]]
        for seq, eng in zip(sequential, healthy):
            assert seq.recommendation_index == eng.recommendation_index
            np.testing.assert_array_equal(seq.recommendation, eng.recommendation)
            assert seq.rounds == eng.rounds
            assert seq.status == eng.status

    def test_noisy_fleet_isolates_the_inconsistent_session(
        self, trained_ea_3d, small_anti_3d
    ):
        # The satellite scenario: NoisyUser fleets where one session's
        # answers turn inconsistent must yield N results, not an abort.
        from repro.data.utility import sample_training_utilities

        utilities = sample_training_utilities(3, 4, rng=88)
        pairs = [
            _spec(
                lambda seed=seed: trained_ea_3d.new_session(rng=seed),
                NoisyUser(utilities[seed], error_rate=0.2, rng=seed),
            )
            for seed in range(3)
        ]
        # The "goes inconsistent" session: a strict algorithm served a
        # heavily-noisy user over a near-tie question (huge temperature
        # makes the flip probability the full error rate).
        bad_user = NoisyUser(
            utilities[3], error_rate=0.5, temperature=1e9, rng=123
        )
        pairs.append(
            _spec(
                lambda: StrictConsistencySession(small_anti_3d, total=64),
                bad_user,
            )
        )
        engine = ContinuousEngine()
        results = engine.run(pairs)
        assert len(results) == 4
        for result in results[:3]:
            assert result.status in ("completed", "truncated")
            assert not result.failed
        assert results[3].failed
        assert "inconsistent" in results[3].error
        assert engine.last_metrics.failed == 1
        assert engine.last_metrics.completed + engine.last_metrics.truncated == 3

    def test_scorer_row_mismatch_fails_group_with_identity(self, toy):
        scorer = BrokenScorer()
        engine = ContinuousEngine()
        results = engine.run(
            [
                _spec(lambda: BatchableSession(toy, scorer), _always_true_user()),
                _spec(lambda: BatchableSession(toy, scorer), _always_true_user()),
            ]
        )
        assert all(r.failed for r in results)
        for result in results:
            assert "InteractionError" in result.error
            assert "BrokenScorer" in result.error
            assert "score rows" in result.error
        assert engine.last_metrics.failed == 2

    def test_batch_without_scorer_fails_only_its_session(self, toy):
        engine = ContinuousEngine()
        results = engine.run(
            [
                _spec(lambda: BatchableSession(toy, None), _always_true_user()),
                _spec(lambda: ScriptedSession(toy, total=3), _always_true_user()),
            ]
        )
        assert results[0].failed
        assert results[0].rounds == 0
        assert "InteractionError" in results[0].error
        assert "q_values_many" in results[0].error
        assert results[1].status == "completed"
        assert results[1].rounds == 3
        assert engine.last_metrics.failed == 1


# -- recovery -------------------------------------------------------------------


class TestRecovery:
    """EmptyRegionError sessions are re-driven under majority voting."""

    def test_majority_vote_retry_recovers_the_session(self, toy):
        # Every 4th answer is flipped: the strict session dies on the
        # plain run, but under 3-vote majority each flip is outvoted.
        user = PeriodicFlipUser(period=4)
        engine = ContinuousEngine(recover=True)
        results = engine.run(
            [_spec(lambda: StrictConsistencySession(toy, total=5), user)]
        )
        result = results[0]
        assert result.status == "recovered"
        assert not result.failed
        assert result.metrics.retries == 1
        metrics = engine.last_metrics
        assert metrics.retries == 1
        assert metrics.recovered == 1
        assert metrics.failed == 0
        assert metrics.completed == 1
        assert len(metrics.errors) == 1
        assert metrics.errors[0].retried
        assert metrics.errors[0].error_type == "EmptyRegionError"

    def test_retried_result_counts_every_abstention(self, toy):
        # The first attempt abstains, then dies on a flipped answer; the
        # result must count its abstentions as the engine total does.
        user = AbstainingFlipUser(period=4)
        engine = ContinuousEngine(recover=True)
        (result,) = engine.run(
            [_spec(lambda: StrictConsistencySession(toy, total=5), user)]
        )
        assert result.status == "recovered"
        assert result.metrics.abstentions == user.abstentions
        assert engine.last_metrics.abstentions == user.abstentions

    def test_retried_result_abstentions_cross_the_pipe(self, toy):
        specs = [
            _spec(
                lambda total=total: StrictConsistencySession(toy, total=total),
                AbstainingFlipUser(period=4),
            )
            for total in (5, 6)
        ]
        with ShardedDispatcher(procs=1, recover=True) as dispatcher:
            for spec in specs:
                dispatcher.submit(spec)
            results = dispatcher.drain()
            metrics = dispatcher.last_metrics
        assert [r.status for r in results] == ["recovered", "recovered"]
        assert metrics.retries == 2
        assert sum(r.metrics.abstentions for r in results) == (
            metrics.abstentions
        )

    def test_sequential_majority_vote_control(self, toy):
        # The recovery mechanism really is MajorityVoteSession: the same
        # flipping user drives a wrapped session to completion directly.
        user = PeriodicFlipUser(period=4)
        with pytest.raises(EmptyRegionError):
            run_session(StrictConsistencySession(toy, total=5), user)
        wrapped = MajorityVoteSession(
            StrictConsistencySession(toy, total=5), repeats=3
        )
        result = run_session(wrapped, user)
        assert result.status == "completed"

    def test_retries_exhaust_to_failed(self, toy):
        engine = ContinuousEngine(recover=True)
        results = engine.run(
            [_spec(lambda: ExplodingSession(toy, fail_at=1), _always_true_user())]
        )
        assert results[0].failed
        metrics = engine.last_metrics
        assert metrics.retries == 1
        assert metrics.recovered == 0
        assert metrics.failed == 1
        assert [e.attempt for e in metrics.errors] == [0, 1]
        assert metrics.errors[0].retried and not metrics.errors[1].retried

    def test_non_matching_errors_are_not_retried(self, toy):
        engine = ContinuousEngine(recover=True)
        results = engine.run(
            [
                _spec(
                    lambda: ExplodingSession(toy, fail_at=1, error=ValueError),
                    _always_true_user(),
                )
            ]
        )
        assert results[0].failed
        assert engine.last_metrics.retries == 0

    def test_retry_whose_factory_raises_fails_only_its_session(self, toy):
        built: list[int] = []

        def factory():
            built.append(1)
            if len(built) > 1:
                raise RuntimeError("factory down on retry")
            return ExplodingSession(toy, fail_at=1)

        engine = ContinuousEngine(recover=True)
        results = engine.run(
            [
                _spec(factory, _always_true_user()),
                _spec(lambda: ScriptedSession(toy, total=3),
                      _always_true_user()),
            ]
        )
        assert [r.status for r in results] == ["failed", "completed"]
        assert results[0].error == "RuntimeError: factory down on retry"
        metrics = engine.last_metrics
        assert metrics.retries == 1
        assert metrics.failed == 1
        assert [(e.attempt, e.retried) for e in metrics.errors] == [
            (0, True),
            (1, False),
        ]

    def test_recovery_independent_of_admission_cap(self, toy):
        def build(max_in_flight):
            user = PeriodicFlipUser(period=4)
            specs = [
                _spec(lambda: StrictConsistencySession(toy, total=5), user),
                _spec(lambda: ExplodingSession(toy, fail_at=1, error=ValueError),
                      _always_true_user()),
                _spec(lambda: ScriptedSession(toy, total=3),
                      _always_true_user()),
            ]
            with ContinuousEngine(
                recover=True, max_in_flight=max_in_flight
            ) as engine:
                return engine.run(specs)

        wide = build(64)
        narrow = build(2)
        assert [r.status for r in wide] == [
            "recovered", "failed", "completed"
        ]
        assert [r.status for r in wide] == [r.status for r in narrow]
        assert [r.rounds for r in wide] == [r.rounds for r in narrow]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="ShardedDispatcher needs the fork start method",
    )
    def test_dispatcher_forwards_recover_to_its_workers(self, toy):
        def fleet():
            return [
                _spec(
                    lambda total=total: StrictConsistencySession(
                        toy, total=total
                    ),
                    PeriodicFlipUser(period=4),
                )
                for total in (4, 5, 6)
            ]

        def outcome(results, metrics):
            return (
                [r.status for r in results],
                [r.rounds for r in results],
                [r.metrics.retries for r in results],
                metrics.retries,
                metrics.recovered,
            )

        with ContinuousEngine(recover=True) as engine:
            reference = outcome(engine.run(fleet()), engine.last_metrics)
        with ShardedDispatcher(procs=1, recover=True) as dispatcher:
            for spec in fleet():
                dispatcher.submit(spec)
            dispatched = outcome(dispatcher.drain(), dispatcher.last_metrics)
        assert reference[0] == ["recovered"] * 3
        assert reference[3:] == (3, 3)
        assert dispatched == reference


# -- tick-latency regression ----------------------------------------------------


class TestWaveLatency:
    """A finished session is finalized in the tick it finishes in."""

    def test_finalized_in_same_wave(self, toy):
        delay = 0.1
        pairs = [
            _spec(
                lambda: SlowSession(toy, total=3, delay=delay),
                _always_true_user(),
            ),
            _spec(lambda: ScriptedSession(toy, total=1), _always_true_user()),
        ]
        engine = ContinuousEngine()
        results = engine.run(pairs)
        # Every session is finalized in the tick its last answer lands
        # in, so the run needs exactly max(rounds) ticks — top-of-next-
        # tick detection would need one more.
        assert engine.last_metrics.ticks == 3
        fast = results[1]
        assert fast.status == "completed"
        # The fast session's completion latency covers tick 1 only
        # (~one slow question); the regression would charge it a second
        # slow tick (>= 2 * delay).
        assert fast.metrics.wall_seconds < 1.7 * delay
        slow = results[0]
        assert slow.metrics.wall_seconds >= 3 * delay

    def test_interleaved_finishes_keep_input_order(self, toy):
        pairs = [
            _spec(
                lambda total=total: ScriptedSession(toy, total=total),
                _always_true_user(),
            )
            for total in (4, 1, 3, 2)
        ]
        engine = ContinuousEngine()
        results = engine.run(pairs)
        assert [r.rounds for r in results] == [4, 1, 3, 2]
        assert [r.metrics.session_id for r in results] == [0, 1, 2, 3]
        assert engine.last_metrics.ticks == 4

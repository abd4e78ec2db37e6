"""ShardedDispatcher: multi-process serving equivalence and resilience.

Three contracts:

* **Golden equivalence** — ``procs=2`` results are bit-identical to a
  single-process ``ContinuousEngine`` run over the same 52-session
  golden suite (every family, truthful and noisy users): forking and
  sharding must never perturb a session's transcript.
* **Crash-resume** — a SIGKILL'd worker's sessions are resumed from
  their shared-store checkpoints by a replacement worker and still
  finish bit-identically, with contiguous transcripts; when the restart
  budget is exhausted, lost sessions come back as ``failed`` results
  instead of hanging the wave.
* **Runtime lifecycle** — drain order, close idempotence and
  submit-after-close mirror the single-process engine's semantics.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import zlib

import numpy as np
import pytest

from repro.errors import InteractionError, PersistenceError
from repro.persist import FileSessionStore
from repro.registry import make_session
from repro.serve import (
    ContinuousEngine,
    EngineMetrics,
    SessionSpec,
    ShardedDispatcher,
)
from repro.serve.dispatch import _WorkItem
from repro.users import NoisyUser, OracleUser
from repro.users.models import AbstainingUser
from tests.persist.test_golden_resume import (
    BASELINE_SEEDS,
    BASELINES,
    EPSILON,
    RL_SEEDS,
    ROUND_CAP,
    USER_KINDS,
    _make_user,
)
from tests.serve.test_faults import PeriodicFlipUser, StrictConsistencySession

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ShardedDispatcher needs the fork start method",
)


def _golden_specs(dataset, trained_ea, trained_aa):
    """The 52-case golden suite as SessionSpecs (fresh users per call)."""
    specs = []
    for family in BASELINES:
        for kind in USER_KINDS:
            for seed in BASELINE_SEEDS:
                specs.append(
                    SessionSpec(
                        factory=lambda family=family, seed=seed: make_session(
                            family, dataset, EPSILON, rng=100 + seed
                        ),
                        user=_make_user(kind, dataset.dimension, seed),
                        seed=seed,
                        tags={"session_id": f"{family}-{kind}-{seed}"},
                    )
                )
    for family, trained in (("ea", trained_ea), ("aa", trained_aa)):
        for kind in USER_KINDS:
            for seed in RL_SEEDS:
                specs.append(
                    SessionSpec(
                        factory=lambda trained=trained, seed=seed: (
                            trained.new_session(rng=100 + seed)
                        ),
                        user=_make_user(kind, dataset.dimension, seed),
                        seed=seed,
                        tags={"session_id": f"{family}-{kind}-{seed}"},
                    )
                )
    return specs


def _outcome(result):
    return (
        result.recommendation_index,
        result.rounds,
        result.truncated,
        result.status,
    )


class _SlowOracleUser(OracleUser):
    """An oracle that thinks for a moment — keeps sessions in flight
    long enough for the kill thread to land mid-wave."""

    def __init__(self, utility, delay: float = 0.02) -> None:
        super().__init__(utility)
        self.delay = delay

    def prefers(self, p_i, p_j) -> bool:
        time.sleep(self.delay)
        return super().prefers(p_i, p_j)


class _StalledUser(OracleUser):
    """An oracle whose first answer never arrives (until killed)."""

    def prefers(self, p_i, p_j) -> bool:
        time.sleep(300.0)
        return super().prefers(p_i, p_j)  # pragma: no cover


def _agent_specs(trained, users, *, ids=True):
    return [
        SessionSpec(
            factory=lambda seed=seed: trained.new_session(rng=seed),
            user=user,
            seed=seed,
            tags={"session_id": f"kill-{seed:02d}"} if ids else {},
        )
        for seed, user in enumerate(users)
    ]


def _kill_first_worker(dispatcher, killed, *, after_ckpt=False):
    """Background thread body: SIGKILL the first live, not-done worker."""
    deadline = time.time() + 30.0
    while time.time() < deadline:
        if after_ckpt:
            with dispatcher._lock:
                ready = bool(dispatcher._ckpts)
            if not ready:
                time.sleep(0.005)
                continue
        live = [
            w
            for w in dispatcher._live
            if w.process.is_alive() and not w.done
        ]
        if live:
            os.kill(live[0].process.pid, signal.SIGKILL)
            killed.append(live[0].process.pid)
            return
        time.sleep(0.005)


class TestGoldenEquivalence:
    def test_procs2_bit_identical_to_single_process(
        self, small_anti_3d, trained_ea_3d, trained_aa_3d
    ):
        with ContinuousEngine(max_rounds=ROUND_CAP, max_in_flight=8) as ref:
            reference = ref.run(
                _golden_specs(small_anti_3d, trained_ea_3d, trained_aa_3d)
            )
        with ShardedDispatcher(
            procs=2, max_rounds=ROUND_CAP, max_in_flight=8
        ) as dispatcher:
            for spec in _golden_specs(
                small_anti_3d, trained_ea_3d, trained_aa_3d
            ):
                dispatcher.submit(spec)
            sharded = dispatcher.drain()
            metrics = dispatcher.last_metrics

        assert len(reference) == len(sharded) == 52
        assert [_outcome(r) for r in reference] == [
            _outcome(r) for r in sharded
        ]
        for ref_result, shard_result in zip(reference, sharded):
            np.testing.assert_array_equal(
                ref_result.recommendation, shard_result.recommendation
            )
        # Merged worker metrics cover the whole suite once.
        assert metrics is not None
        assert metrics.sessions == 52
        assert metrics.completed + metrics.truncated + metrics.failed == 52
        assert metrics.rounds_total == sum(r.rounds for r in reference)


class TestCrashResume:
    def test_sigkilled_worker_resumes_from_checkpoints(
        self, trained_aa_3d, tmp_path
    ):
        from repro.data.utility import sample_training_utilities

        utilities = sample_training_utilities(3, 8, rng=77)
        reference_users = [OracleUser(u) for u in utilities]
        with ContinuousEngine(max_in_flight=4) as ref:
            reference = ref.run(_agent_specs(trained_aa_3d, reference_users))

        store = FileSessionStore(tmp_path / "ckpts")
        slow_users = [_SlowOracleUser(u) for u in utilities]
        killed: list[int] = []
        with ShardedDispatcher(
            procs=2,
            max_in_flight=4,
            store=store,
            agents={"aa": trained_aa_3d},
        ) as dispatcher:
            for spec in _agent_specs(trained_aa_3d, slow_users):
                dispatcher.submit(spec)
            # Wait for a checkpoint notice before killing, so the
            # replacement provably resumes from the store rather than
            # re-admitting original specs.
            killer = threading.Thread(
                target=_kill_first_worker,
                args=(dispatcher, killed),
                kwargs={"after_ckpt": True},
            )
            killer.start()
            results = dispatcher.drain()
            killer.join()

        assert killed, "the kill thread never found a live worker"
        assert len(results) == 8
        assert [r.status for r in results] == ["completed"] * 8
        # Bit-identical to the unkilled single-process run: the resumed
        # sessions picked up exactly where their checkpoints left off.
        assert [_outcome(r) for r in reference] == [
            _outcome(r) for r in results
        ]
        for ref_result, result in zip(reference, results):
            np.testing.assert_array_equal(
                ref_result.recommendation, result.recommendation
            )
        # Contiguous transcripts: every final checkpoint's rounds count
        # 1..n with no gap or duplicate from the rollback.
        checkpoint_ids = store.ids()
        assert checkpoint_ids, "the store never received a snapshot"
        for session_id in checkpoint_ids:
            rounds = [
                entry.round_number
                for entry in store.get(session_id).transcript
            ]
            assert rounds == list(range(1, len(rounds) + 1))

    def test_restart_budget_exhaustion_fails_lost_sessions(
        self, trained_aa_3d, monkeypatch
    ):
        from repro.data.utility import sample_training_utilities

        monkeypatch.setattr("repro.serve.dispatch.MAX_RESTARTS", 0)
        utilities = sample_training_utilities(3, 3, rng=78)
        users = [_StalledUser(u) for u in utilities]
        killed: list[int] = []
        with ShardedDispatcher(procs=1, max_in_flight=4) as dispatcher:
            for spec in _agent_specs(trained_aa_3d, users, ids=False):
                dispatcher.submit(spec)
            killer = threading.Thread(
                target=_kill_first_worker, args=(dispatcher, killed)
            )
            killer.start()
            results = dispatcher.drain()
            killer.join()
            metrics = dispatcher.metrics

        assert killed
        assert len(results) == 3
        assert all(r.status == "failed" for r in results)
        assert all("WorkerDied" in r.error for r in results)
        assert all(r.recommendation_index == -1 for r in results)
        assert metrics.failed == 3
        assert {e.error_type for e in metrics.errors} == {"WorkerDied"}


class TestLifecycle:
    def test_drain_returns_submission_order(self, trained_aa_3d):
        from repro.data.utility import sample_training_utilities

        utilities = sample_training_utilities(3, 5, rng=79)
        users = [OracleUser(u) for u in utilities]
        with ShardedDispatcher(procs=2, max_in_flight=4) as dispatcher:
            tickets = [
                dispatcher.submit(spec)
                for spec in _agent_specs(trained_aa_3d, users)
            ]
            results = dispatcher.drain()
        assert tickets == [0, 1, 2, 3, 4]
        assert [r.metrics.session_id for r in results] == tickets

    def test_as_completed_consumes_what_it_streams(self, trained_aa_3d):
        from repro.data.utility import sample_training_utilities

        utilities = sample_training_utilities(3, 4, rng=80)
        users = [OracleUser(u) for u in utilities]
        with ShardedDispatcher(procs=2, max_in_flight=4) as dispatcher:
            for spec in _agent_specs(trained_aa_3d, users):
                dispatcher.submit(spec)
            streamed = list(dispatcher.as_completed())
            # Streamed results are consumed: drain() has nothing left.
            assert dispatcher.drain() == []
            # A later submission is reported by drain() alone.
            dispatcher.submit(_agent_specs(trained_aa_3d, users[:1])[0])
            drained = dispatcher.drain()
        assert sorted(r.metrics.session_id for r in streamed) == [0, 1, 2, 3]
        assert [r.metrics.session_id for r in drained] == [4]

    def test_close_is_idempotent_and_submit_after_close_raises(self, toy):
        dispatcher = ShardedDispatcher(procs=2)
        dispatcher.close()
        dispatcher.close()
        with pytest.raises(InteractionError, match="closed"):
            dispatcher.submit(
                SessionSpec(
                    factory=lambda: make_session("uh-random", toy, 0.3),
                    user=OracleUser(np.array([0.5, 0.5])),
                )
            )

    @pytest.mark.parametrize("consume", ["as_completed", "drain"])
    def test_close_during_wave_forks_nothing_and_ends_cleanly(
        self, small_anti_3d, consume
    ):
        # One quick session on shard 0; shard 1's sessions stall on their
        # first answer, so its worker is mid-wave when close() lands.
        dispatcher = ShardedDispatcher(procs=2, max_in_flight=4)
        ids = [f"close-{k}" for k in range(64)]
        fast = next(i for i in ids if zlib.crc32(i.encode()) % 2 == 0)
        stalled = [i for i in ids if zlib.crc32(i.encode()) % 2 == 1][:3]
        utility = np.array([0.2, 0.3, 0.5])
        users = [OracleUser(utility)] + [_StalledUser(utility)] * 3
        for seed, (session_id, user) in enumerate(zip([fast, *stalled], users)):
            dispatcher.submit(
                SessionSpec(
                    factory=lambda seed=seed: make_session(
                        "uh-random", small_anti_3d, 0.1, rng=seed
                    ),
                    user=user,
                    tags={"session_id": session_id},
                )
            )
        forks = []
        fork = dispatcher._fork

        def recording_fork(shard, items):
            state = fork(shard, items)
            forks.append((dispatcher._closed, state.process))
            return state

        dispatcher._fork = recording_fork
        first = threading.Event()
        outcome: dict = {}

        def consumer():
            try:
                if consume == "as_completed":
                    results = []
                    for result in dispatcher.as_completed():
                        results.append(result)
                        first.set()
                else:
                    results = dispatcher.drain()
                outcome["results"] = results
            except Exception as error:  # noqa: BLE001 -- reported below
                outcome["error"] = error

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        try:
            deadline = time.time() + 60.0
            while time.time() < deadline and not first.is_set():
                with dispatcher._lock:
                    if dispatcher._results:
                        first.set()
                time.sleep(0.01)
            assert first.is_set()
            dispatcher.close()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert "error" not in outcome, repr(outcome.get("error"))
            assert [r.metrics.session_id for r in outcome["results"]] == [0]
            assert not [p for closed, p in forks if closed]
            assert not [p for _, p in forks if p.is_alive()]
        finally:
            dispatcher.close()
            for _, process in forks:
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)

    def test_parent_checkpoint_without_store_raises(self, toy):
        with ShardedDispatcher(procs=1) as dispatcher:
            ticket = dispatcher.submit(
                SessionSpec(
                    factory=lambda: make_session("uh-random", toy, 0.3),
                    user=OracleUser(np.array([0.5, 0.5])),
                )
            )
            with pytest.raises(PersistenceError, match="checkpoint inside"):
                dispatcher.checkpoint(ticket)

    def test_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ShardedDispatcher(procs=0)

    def test_wrong_family_agent_fails_before_fork(self, trained_ea_3d):
        from repro.errors import ConfigurationError

        before = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="family"):
            ShardedDispatcher(procs=2, agents={"aa": trained_ea_3d})
        assert set(multiprocessing.active_children()) == before


class TestAffinity:
    def test_shard_is_stable_across_dispatchers(self):
        a = ShardedDispatcher(procs=4)
        b = ShardedDispatcher(procs=4)
        try:
            for session_id in ("alice", "bob", "ticket-17", "s-99"):
                item = _WorkItem(
                    ticket=0,
                    spec=None,
                    user=None,
                    trace=False,
                    session_id=session_id,
                )
                assert a._shard_of(item) == b._shard_of(item)
        finally:
            a.close()
            b.close()

    def test_all_shards_reachable(self):
        with ShardedDispatcher(procs=3) as dispatcher:
            shards = {
                dispatcher._shard_of(
                    _WorkItem(
                        ticket=i,
                        spec=None,
                        user=None,
                        trace=False,
                        session_id=f"session-{i}",
                    )
                )
                for i in range(64)
            }
        assert shards == {0, 1, 2}


class TestMetricsMerge:
    def test_counters_sum_and_extrema_max(self):
        left = EngineMetrics()
        left.sessions = 3
        left.completed = 2
        left.failed = 1
        left.ticks = 10
        left.in_flight_cap = 8
        left.peak_batch = 4
        left.rounds_total = 20
        left.batched_rows = 30
        left.batches = 10
        left.lp_solves = 5
        left.wall_seconds = 1.0
        right = EngineMetrics()
        right.sessions = 2
        right.completed = 2
        right.ticks = 7
        right.in_flight_cap = 8
        right.peak_batch = 6
        right.rounds_total = 12
        right.batched_rows = 21
        right.batches = 7
        right.lp_solves = 3
        right.wall_seconds = 2.0

        merged = left.merge(right)
        assert merged is left
        assert merged.sessions == 5
        assert merged.completed == 4
        assert merged.failed == 1
        assert merged.ticks == 17
        # Workers share one per-engine cap: occupancy over summed ticks
        # needs the max, not the sum.
        assert merged.in_flight_cap == 8
        assert merged.peak_batch == 6
        assert merged.rounds_total == 32
        assert merged.batched_rows == 51
        assert merged.lp_solves == 8
        # Concurrent workers overlap in time.
        assert merged.wall_seconds == 2.0

    def test_merge_preserves_occupancy_identity(self):
        left = EngineMetrics()
        left.ticks = 10
        left.in_flight_cap = 4
        left.batched_rows = 30
        right = EngineMetrics()
        right.ticks = 6
        right.in_flight_cap = 4
        right.batched_rows = 12
        merged = left.merge(right)
        assert merged.occupancy == 42 / (16 * 4)

    def test_merge_extends_errors_and_per_session(self):
        from repro.serve import SessionError

        left = EngineMetrics()
        left.errors.append(
            SessionError(
                session_id=0, round=1, error_type="X", message="m"
            )
        )
        right = EngineMetrics()
        right.errors.append(
            SessionError(
                session_id=1, round=2, error_type="Y", message="n"
            )
        )
        merged = left.merge(right)
        assert [e.session_id for e in merged.errors] == [0, 1]

    def test_result_metrics_add_up_to_merged_metrics(
        self, small_anti_3d, trained_ea_3d, toy
    ):
        """Each result's ``metrics`` is the only per-session record that
        crosses the pipe, so the per-result counters must sum to the
        merged worker totals."""
        specs = []
        for seed in range(6):
            utility = np.random.default_rng(seed).dirichlet(np.ones(3))
            specs.append(
                SessionSpec(
                    factory=lambda seed=seed: make_session(
                        "uh-random", small_anti_3d, EPSILON, rng=seed
                    ),
                    user=AbstainingUser(utility, margin=0.02),
                    seed=seed,
                )
            )
            specs.append(
                SessionSpec(
                    factory=lambda seed=seed: trained_ea_3d.new_session(
                        rng=seed
                    ),
                    user=AbstainingUser(utility, margin=0.02),
                    seed=seed,
                )
            )
        # Contradicted by every 4th answer: dies once, then recovers
        # under the majority-vote retry.
        for total in (4, 5):
            specs.append(
                SessionSpec(
                    factory=lambda total=total: StrictConsistencySession(
                        toy, total=total
                    ),
                    user=PeriodicFlipUser(period=4),
                )
            )
        with ShardedDispatcher(
            procs=2, max_rounds=ROUND_CAP, recover=True
        ) as dispatcher:
            for spec in specs:
                dispatcher.submit(spec)
            results = dispatcher.drain()
            metrics = dispatcher.last_metrics

        assert metrics is not None
        assert [r.metrics.session_id for r in results] == list(
            range(len(specs))
        )
        per_result = [r.metrics for r in results]
        for name in (
            "abstentions",
            "range_updates",
            "range_clips",
            "range_rebuilds",
            "retries",
        ):
            assert sum(getattr(m, name) for m in per_result) == getattr(
                metrics, name
            ), name
        assert metrics.abstentions > 0
        assert metrics.range_updates > 0
        assert metrics.range_clips > 0
        assert metrics.retries == 2
        assert metrics.rounds_total >= sum(r.rounds for r in results)

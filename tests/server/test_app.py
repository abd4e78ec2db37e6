"""SessionService endpoint behaviour over real sockets.

Every test talks to an in-process asyncio server through the same
client codec the load generator uses, so the full request path —
parsing, routing, fault mapping, keep-alive — is exercised, not just
the handler functions.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.session import run_session
from repro.data.utility import sample_training_utilities
from repro.persist import MemorySessionStore
from repro.registry import make_session
from repro.serve import SessionMetrics, ShardedDispatcher
from repro.server import SessionService
from repro.server.http import request
from repro.users import OracleUser
from tests.serve.test_faults import ScriptedSession, _always_true_user, _spec

EPSILON = 0.1

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ShardedDispatcher needs the fork start method",
)


@contextlib.asynccontextmanager
async def serving(dataset, **kwargs):
    service = SessionService(dataset, epsilon=EPSILON, **kwargs)
    server = await service.serve("127.0.0.1", 0)
    bound = server.sockets[0].getsockname()
    try:
        yield service, bound[0], bound[1]
    finally:
        server.close()
        await server.wait_closed()
        service.close()


def _utility(seed=0):
    return sample_training_utilities(3, 1, rng=60 + seed)[0]


async def _drive_over_http(host, port, session_id, utility, cap=40):
    """Answer questions until the server reports the session finished."""
    base = f"/sessions/{session_id}"
    transcript = []
    finished = False
    while not finished and len(transcript) < cap:
        status, question = await request(host, port, "GET", f"{base}/question")
        assert status == 200, question
        p_i = np.asarray(question["p_i"], dtype=float)
        p_j = np.asarray(question["p_j"], dtype=float)
        answer = bool(float(utility @ p_i) >= float(utility @ p_j))
        status, body = await request(
            host, port, "POST", f"{base}/answer", {"prefers_first": answer}
        )
        assert status == 200, body
        transcript.append(
            (body["rounds"], question["index_i"], question["index_j"], answer)
        )
        finished = body["finished"]
    return transcript


def _reference(dataset, seed, utility):
    session = make_session("uh-random", dataset, EPSILON, rng=seed)
    result = run_session(session, OracleUser(utility))
    return result


class TestInteractiveFlow:
    def test_matches_sequential_run_exactly(self, small_anti_3d):
        utility = _utility()

        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                status, body = await request(
                    host,
                    port,
                    "POST",
                    "/sessions",
                    {"algorithm": "uh-random", "seed": 21},
                )
                assert status == 201, body
                sid = body["session_id"]
                await _drive_over_http(host, port, sid, utility)
                status, rec = await request(
                    host, port, "GET", f"/sessions/{sid}/recommendation"
                )
                assert status == 200, rec
                return rec

        rec = asyncio.run(main())
        reference = _reference(small_anti_3d, 21, utility)
        assert rec["status"] == "completed"
        assert rec["rounds"] == reference.rounds
        assert rec["index"] == reference.recommendation_index
        np.testing.assert_allclose(
            np.asarray(rec["point"]), reference.recommendation
        )

    def test_question_get_is_idempotent(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                _, body = await request(
                    host, port, "POST", "/sessions", {"seed": 4}
                )
                sid = body["session_id"]
                _, first = await request(
                    host, port, "GET", f"/sessions/{sid}/question"
                )
                _, second = await request(
                    host, port, "GET", f"/sessions/{sid}/question"
                )
                return first, second

        first, second = asyncio.run(main())
        assert (first["index_i"], first["index_j"]) == (
            second["index_i"],
            second["index_j"],
        )
        assert first["round"] == second["round"]

    def test_delete_forgets_the_session(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                _, body = await request(host, port, "POST", "/sessions", {})
                sid = body["session_id"]
                status, _ = await request(
                    host, port, "DELETE", f"/sessions/{sid}"
                )
                assert status == 200
                status, _ = await request(
                    host, port, "GET", f"/sessions/{sid}/question"
                )
                return status

        assert asyncio.run(main()) == 404


class TestOracleMode:
    def test_matches_sequential_run_exactly(self, small_anti_3d):
        utility = _utility(3)

        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                status, body = await request(
                    host,
                    port,
                    "POST",
                    "/sessions",
                    {
                        "algorithm": "uh-random",
                        "seed": 33,
                        "mode": "oracle",
                        "utility": [float(x) for x in utility],
                    },
                )
                assert status == 201, body
                assert body["mode"] == "oracle"
                sid = body["session_id"]
                status, rec = await request(
                    host, port, "GET", f"/sessions/{sid}/recommendation"
                )
                assert status == 200, rec
                return rec

        rec = asyncio.run(main())
        reference = _reference(small_anti_3d, 33, utility)
        assert rec["status"] == "completed"
        assert rec["rounds"] == reference.rounds
        assert rec["index"] == reference.recommendation_index

    def test_oracle_rejects_wrong_utility_shape(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                status, body = await request(
                    host,
                    port,
                    "POST",
                    "/sessions",
                    {"mode": "oracle", "utility": [0.5, 0.5]},
                )
                return status, body

        status, body = asyncio.run(main())
        assert status == 400
        assert "weights" in body["error"]

    def test_oracle_session_rejects_interactive_verbs(self, small_anti_3d):
        utility = _utility(5)

        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                _, body = await request(
                    host,
                    port,
                    "POST",
                    "/sessions",
                    {"mode": "oracle", "utility": [float(x) for x in utility]},
                )
                sid = body["session_id"]
                status, _ = await request(
                    host, port, "GET", f"/sessions/{sid}/question"
                )
                return status

        assert asyncio.run(main()) == 409


class TestRuntimeSeam:
    """The service depends on the Runtime protocol, not on a concrete
    engine: a ShardedDispatcher behind ``runtime=`` serves oracle
    sessions through the same collector thread as the in-process
    engine, with sequential-identical results."""

    @needs_fork
    def test_oracle_through_dispatcher_matches_sequential(
        self, small_anti_3d
    ):
        utility = _utility(7)
        runtime = ShardedDispatcher(procs=1, max_rounds=128)

        async def main():
            async with serving(small_anti_3d, runtime=runtime) as (
                service,
                host,
                port,
            ):
                assert service.engine is runtime
                status, body = await request(
                    host,
                    port,
                    "POST",
                    "/sessions",
                    {
                        "algorithm": "uh-random",
                        "seed": 44,
                        "mode": "oracle",
                        "utility": [float(x) for x in utility],
                    },
                )
                assert status == 201, body
                sid = body["session_id"]
                status, rec = await request(
                    host, port, "GET", f"/sessions/{sid}/recommendation"
                )
                assert status == 200, rec
                return rec

        rec = asyncio.run(main())
        reference = _reference(small_anti_3d, 44, utility)
        assert rec["status"] == "completed"
        assert rec["rounds"] == reference.rounds
        assert rec["index"] == reference.recommendation_index


def _oracle_body(seed, utility):
    return {
        "algorithm": "uh-random",
        "seed": seed,
        "mode": "oracle",
        "utility": [float(x) for x in utility],
    }


@pytest.fixture(params=["engine", pytest.param("dispatcher", marks=needs_fork)])
def oracle_runtime(request):
    """Service kwargs for each runtime the collector drives."""
    if request.param == "engine":
        return {"max_in_flight": 8}
    return {"runtime": ShardedDispatcher(procs=1)}


class TestOracleCollector:
    """Oracle sessions reach any runtime by one road: ``submit()`` in,
    one collector thread over ``as_completed()`` out."""

    def test_many_concurrent_sessions_match_run_session(
        self, small_anti_3d, oracle_runtime
    ):
        cases = [(40 + k, _utility(k)) for k in range(12)]

        async def main():
            async with serving(small_anti_3d, **oracle_runtime) as (
                _,
                host,
                port,
            ):
                sids = []
                for seed, utility in cases:
                    status, body = await request(
                        host, port, "POST", "/sessions",
                        _oracle_body(seed, utility),
                    )
                    assert status == 201, body
                    sids.append(body["session_id"])
                return await asyncio.gather(
                    *(
                        request(
                            host, port, "GET", f"/sessions/{sid}/recommendation"
                        )
                        for sid in sids
                    )
                )

        replies = asyncio.run(main())
        for (seed, utility), (status, rec) in zip(cases, replies, strict=True):
            assert status == 200, rec
            reference = _reference(small_anti_3d, seed, utility)
            assert rec["status"] == "completed"
            assert rec["rounds"] == reference.rounds
            assert rec["index"] == reference.recommendation_index

    def test_create_returns_the_ticket(self, small_anti_3d, oracle_runtime):
        async def main():
            async with serving(small_anti_3d, **oracle_runtime) as (
                _,
                host,
                port,
            ):
                tickets = []
                for k in range(2):
                    status, body = await request(
                        host, port, "POST", "/sessions",
                        _oracle_body(k, _utility(k)),
                    )
                    assert status == 201, body
                    tickets.append(body["ticket"])
                    status, rec = await request(
                        host, port, "GET",
                        f"/sessions/{body['session_id']}/recommendation",
                    )
                    assert status == 200, rec
                return tickets

        assert asyncio.run(main()) == [0, 1]

    def test_oracle_mixes_with_interactive(self, small_anti_3d, oracle_runtime):
        utility = _utility()
        oracle_cases = [(50 + k, _utility(k + 1)) for k in range(3)]

        async def main():
            async with serving(small_anti_3d, **oracle_runtime) as (
                _,
                host,
                port,
            ):
                oracle_sids = []
                for seed, oracle_utility in oracle_cases:
                    status, body = await request(
                        host, port, "POST", "/sessions",
                        _oracle_body(seed, oracle_utility),
                    )
                    assert status == 201, body
                    oracle_sids.append(body["session_id"])
                status, body = await request(
                    host, port, "POST", "/sessions",
                    {"algorithm": "uh-random", "seed": 21},
                )
                assert status == 201, body
                sid = body["session_id"]
                await _drive_over_http(host, port, sid, utility)
                return await asyncio.gather(
                    *(
                        request(
                            host, port, "GET", f"/sessions/{each}/recommendation"
                        )
                        for each in [sid, *oracle_sids]
                    )
                )

        (status, rec), *oracle_replies = asyncio.run(main())
        assert status == 200, rec
        reference = _reference(small_anti_3d, 21, utility)
        assert rec["status"] == "completed"
        assert rec["index"] == reference.recommendation_index
        for (seed, oracle_utility), (status, rec) in zip(
            oracle_cases, oracle_replies, strict=True
        ):
            assert status == 200, rec
            reference = _reference(small_anti_3d, seed, oracle_utility)
            assert rec["rounds"] == reference.rounds
            assert rec["index"] == reference.recommendation_index


class _SleepyOracle(OracleUser):
    """An oracle user who takes ``seconds`` over every answer."""

    def __init__(self, utility, seconds):
        super().__init__(utility)
        self.seconds = seconds

    def prefers(self, p_i, p_j):
        time.sleep(self.seconds)
        return super().prefers(p_i, p_j)


class _SlowFirstDispatcher(ShardedDispatcher):
    """Serves its first submission to a user who sleeps per answer, and
    holds the collector's first wave until ``gate`` opens, so the test's
    sessions share one wave."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()

    def submit(self, session, trace=False):
        if self._next_ticket == 0:
            session = dataclasses.replace(
                session, user=_SleepyOracle(session.user.utility, 0.05)
            )
        return super().submit(session, trace)

    def as_completed(self):
        self.gate.wait(timeout=30)
        yield from super().as_completed()


class _InstantRuntime:
    """A runtime whose result is ready as soon as ``submit()`` returns.

    ``submit`` also waits until a running collector has taken the
    result, so a service that registered futures only after submitting
    would lose it.
    """

    def __init__(self):
        self._tickets = 0
        self._ready = []
        self._lock = threading.Lock()
        self._taken = threading.Event()

    def submit(self, session, trace=False):
        ticket = self._tickets
        self._tickets += 1
        result = run_session(session.build(), session.user)
        result.metrics = SessionMetrics(session_id=ticket)
        self._taken.clear()
        with self._lock:
            self._ready.append(result)
        self._taken.wait(timeout=0.5)
        return ticket

    def as_completed(self):
        with self._lock:
            ready, self._ready = self._ready, []
        for result in ready:
            self._taken.set()
            yield result

    def close(self):
        pass


class TestCollectorResolution:
    """Regressions for the collector that resolves oracle futures."""

    @needs_fork
    def test_short_session_does_not_wait_for_its_wave(self, small_anti_3d):
        slow_seed, slow_utility = 43, _utility(3)
        short_seed, short_utility = 46, _utility(0)
        slow_ref = _reference(small_anti_3d, slow_seed, slow_utility)
        short_ref = _reference(small_anti_3d, short_seed, short_utility)
        # The slow session's user sleeps 50 ms per answer over 8 more
        # rounds than the short session needs.
        assert slow_ref.rounds - short_ref.rounds >= 8
        runtime = _SlowFirstDispatcher(procs=1)

        async def main():
            async with serving(small_anti_3d, runtime=runtime) as (
                _,
                host,
                port,
            ):
                sids = []
                for seed, utility in (
                    (slow_seed, slow_utility),
                    (short_seed, short_utility),
                ):
                    status, body = await request(
                        host, port, "POST", "/sessions",
                        _oracle_body(seed, utility),
                    )
                    assert status == 201, body
                    sids.append(body["session_id"])
                runtime.gate.set()

                async def fetch(sid):
                    reply = await request(
                        host, port, "GET", f"/sessions/{sid}/recommendation"
                    )
                    return reply, time.perf_counter()

                return await asyncio.gather(*(fetch(sid) for sid in sids))

        ((_, slow), slow_at), ((_, short), short_at) = asyncio.run(main())
        assert slow["rounds"] == slow_ref.rounds
        assert short["rounds"] == short_ref.rounds
        # Resolved as it finished, not when its wave mate did (>= 400 ms
        # later).
        assert slow_at - short_at > 0.2

    def test_result_ready_at_submit_still_resolves(self, toy):
        runtime = _InstantRuntime()
        service = SessionService(toy, runtime=runtime)

        async def main():
            futures = [
                service._submit_oracle(
                    _spec(
                        lambda total=total: ScriptedSession(toy, total=total),
                        _always_true_user(),
                    )
                )[1]
                for total in (2, 3)
            ]
            return await asyncio.wait_for(asyncio.gather(*futures), 10)

        try:
            results = asyncio.run(main())
        finally:
            service.close()
        assert [result.rounds for result in results] == [2, 3]


class _RecordingEvent(threading.Event):
    """A wake event that logs the collector thread's clear()/wait() order."""

    def __init__(self):
        super().__init__()
        self.collector_calls: list[str] = []

    def _record(self, name: str) -> None:
        if threading.current_thread().name == "repro-server-collector":
            self.collector_calls.append(name)

    def clear(self) -> None:
        self._record("clear")
        super().clear()

    def wait(self, timeout=None) -> bool:
        self._record("wait")
        return super().wait(timeout)


class TestCollectorWakeup:
    """The collector loop must clear its wake event *before* checking
    the runtime for work.  Wait-then-clear could erase a ``set()`` that
    raced in between ``wait()`` returning and the clear, swallowing a
    wake-up and costing a submission a full poll timeout.
    """

    def test_collector_clears_before_checking(self, toy):
        service = SessionService(toy)
        wake = _RecordingEvent()
        service._collector_wake = wake

        async def main():
            _, future = service._submit_oracle(
                _spec(lambda: ScriptedSession(toy, total=3),
                      _always_true_user())
            )
            return await asyncio.wait_for(future, 10)

        try:
            result = asyncio.run(main())
        finally:
            service.close()

        assert result.status == "completed"
        assert result.rounds == 3
        calls = wake.collector_calls
        assert "wait" in calls, "collector never waited on the wake event"
        # clear-before-check: every loop iteration's first Event
        # operation is clear(), and a wait() is always preceded by the
        # same iteration's clear().
        assert calls[0] == "clear"
        assert all(
            calls[i - 1] == "clear"
            for i in range(1, len(calls))
            if calls[i] == "wait"
        )


class TestFaultMapping:
    def test_unknown_session_is_404(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                status, _ = await request(
                    host, port, "GET", "/sessions/nope/question"
                )
                return status

        assert asyncio.run(main()) == 404

    def test_unknown_endpoint_is_404(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                status, _ = await request(host, port, "GET", "/frobnicate")
                return status

        assert asyncio.run(main()) == 404

    def test_answer_without_open_question_is_409(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                _, body = await request(host, port, "POST", "/sessions", {})
                sid = body["session_id"]
                status, body = await request(
                    host,
                    port,
                    "POST",
                    f"/sessions/{sid}/answer",
                    {"prefers_first": True},
                )
                return status, body

        status, body = asyncio.run(main())
        assert status == 409
        assert "no open question" in body["error"]

    def test_early_recommendation_is_409_unless_forced(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                _, body = await request(
                    host, port, "POST", "/sessions", {"seed": 8}
                )
                sid = body["session_id"]
                blocked, _ = await request(
                    host, port, "GET", f"/sessions/{sid}/recommendation"
                )
                forced, rec = await request(
                    host,
                    port,
                    "GET",
                    f"/sessions/{sid}/recommendation?force=1",
                )
                return blocked, forced, rec

        blocked, forced, rec = asyncio.run(main())
        assert blocked == 409
        assert forced == 200
        assert rec["status"] == "running"

    def test_unknown_algorithm_is_400(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                status, body = await request(
                    host,
                    port,
                    "POST",
                    "/sessions",
                    {"algorithm": "does-not-exist"},
                )
                return status, body

        status, body = asyncio.run(main())
        assert status == 400
        assert "error" in body

    def test_agent_under_wrong_family_rejected_at_construction(
        self, small_anti_3d, trained_ea_3d
    ):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="family"):
            SessionService(small_anti_3d, agents={"aa": trained_ea_3d})

    def test_rl_family_without_agent_is_400(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                status, body = await request(
                    host, port, "POST", "/sessions", {"algorithm": "ea"}
                )
                return status, body

        status, body = asyncio.run(main())
        assert status == 400
        assert "agent" in body["error"]

    def test_resume_without_store_is_400(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                status, body = await request(
                    host, port, "POST", "/sessions", {"resume": "x"}
                )
                return status, body

        status, body = asyncio.run(main())
        assert status == 400
        assert "store" in body["error"]


#: One row per request: which endpoint, the JSON body, the expected
#: status, and whether the target session's dialogue advances.  Every
#: non-2xx row must leave the target's round and open question intact
#: and create no session.
VALIDATION_CASES = [
    pytest.param("answer", {"prefers_first": "false"}, 400, False,
                 id="answer-string-false"),
    pytest.param("answer", {"prefers_first": None}, 400, False,
                 id="answer-null"),
    pytest.param("answer", {"prefers_first": 0}, 400, False,
                 id="answer-zero"),
    pytest.param("answer", {"prefers_first": 1}, 400, False,
                 id="answer-one"),
    pytest.param("answer", {"prefers_first": False}, 200, True,
                 id="answer-false"),
    pytest.param("create", {"seed": "abc"}, 400, False, id="seed-string"),
    pytest.param("create", {"seed": [1]}, 400, False, id="seed-list"),
    pytest.param("create", {"seed": True}, 400, False, id="seed-bool"),
    pytest.param("create", {"seed": 1.5}, 400, False, id="seed-float"),
    pytest.param("create", {"seed": -1}, 400, False, id="seed-negative"),
    pytest.param("create", {"epsilon": "x"}, 400, False,
                 id="epsilon-string"),
    pytest.param("create", {"epsilon": [0.1]}, 400, False,
                 id="epsilon-list"),
    pytest.param("create", {"epsilon": True}, 400, False,
                 id="epsilon-bool"),
    pytest.param("create", {"epsilon": 2.0}, 400, False,
                 id="epsilon-out-of-range"),
    pytest.param("create", {"mode": "oracle", "utility": "abc"}, 400,
                 False, id="utility-string"),
    pytest.param("create", {"mode": "oracle", "utility": [[0.3]] * 3},
                 400, False, id="utility-nested"),
    pytest.param("create", {"mode": "oracle", "utility": [0.3, "x", 0.4]},
                 400, False, id="utility-non-numeric"),
    pytest.param("create", {"seed": 7, "epsilon": 0.2}, 201, False,
                 id="create-valid"),
]


class TestRequestValidation:
    @pytest.mark.parametrize("endpoint, body, status, advances",
                             VALIDATION_CASES)
    def test_malformed_fields_are_400_and_change_nothing(
        self, small_anti_3d, endpoint, body, status, advances
    ):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                _, created = await request(
                    host, port, "POST", "/sessions", {"seed": 4}
                )
                base = f"/sessions/{created['session_id']}"
                _, before = await request(host, port, "GET", f"{base}/question")
                _, health = await request(host, port, "GET", "/healthz")
                path = f"{base}/answer" if endpoint == "answer" else "/sessions"
                got, reply = await request(host, port, "POST", path, body)
                _, after = await request(host, port, "GET", f"{base}/question")
                _, health_after = await request(host, port, "GET", "/healthz")
                return before, health, got, reply, after, health_after

        before, health, got, reply, after, health_after = asyncio.run(main())
        assert got == status, reply
        sessions = ("interactive_sessions", "oracle_sessions")
        grown = sum(health_after[k] - health[k] for k in sessions)
        assert grown == (1 if status == 201 else 0)
        if advances:
            assert after["round"] == before["round"] + 1
        else:
            assert after == before
        if status == 400:
            field = next(key for key in body if key != "mode")
            assert field in reply["error"]


class TestCrashResume:
    def test_dialogue_survives_a_service_restart(self, small_anti_3d):
        """Answer k rounds against one service instance, kill it, resume
        the same session id on a second instance sharing the store, and
        the stitched dialogue must equal the uninterrupted local run."""
        utility = _utility(9)
        store = MemorySessionStore()

        async def first_half():
            async with serving(small_anti_3d, store=store) as (_, host, port):
                _, body = await request(
                    host, port, "POST", "/sessions", {"seed": 77}
                )
                sid = body["session_id"]
                base = f"/sessions/{sid}"
                head = []
                for _ in range(2):
                    _, question = await request(
                        host, port, "GET", f"{base}/question"
                    )
                    p_i = np.asarray(question["p_i"], dtype=float)
                    p_j = np.asarray(question["p_j"], dtype=float)
                    answer = bool(float(utility @ p_i) >= float(utility @ p_j))
                    _, body = await request(
                        host,
                        port,
                        "POST",
                        f"{base}/answer",
                        {"prefers_first": answer},
                    )
                    head.append(
                        (
                            body["rounds"],
                            question["index_i"],
                            question["index_j"],
                            answer,
                        )
                    )
                return sid, head

        async def second_half(sid):
            async with serving(small_anti_3d, store=store) as (_, host, port):
                status, body = await request(
                    host, port, "POST", "/sessions", {"resume": sid}
                )
                assert status == 200, body
                assert body["resumed"] is True
                assert body["rounds"] == 2
                tail = await _drive_over_http(host, port, sid, utility)
                _, rec = await request(
                    host, port, "GET", f"/sessions/{sid}/recommendation"
                )
                return tail, rec

        sid, head = asyncio.run(first_half())
        tail, rec = asyncio.run(second_half(sid))

        reference = _reference(small_anti_3d, 77, utility)
        session = make_session("uh-random", small_anti_3d, EPSILON, rng=77)
        local = []
        user = OracleUser(utility)
        while not session.finished:
            question = session.next_question()
            answer = bool(user.prefers(question.p_i, question.p_j))
            session.observe(answer)
            local.append(
                (session.rounds, question.index_i, question.index_j, answer)
            )
        assert head + tail == local
        assert rec["rounds"] == reference.rounds
        assert rec["index"] == reference.recommendation_index

    def test_resume_of_unknown_id_is_404(self, small_anti_3d):
        async def main():
            async with serving(
                small_anti_3d, store=MemorySessionStore()
            ) as (_, host, port):
                status, _ = await request(
                    host, port, "POST", "/sessions", {"resume": "ghost"}
                )
                return status

        assert asyncio.run(main()) == 404


class TestHealthz:
    def test_reports_dataset_and_session_counts(self, small_anti_3d):
        async def main():
            async with serving(small_anti_3d) as (_, host, port):
                _, before = await request(host, port, "GET", "/healthz")
                await request(host, port, "POST", "/sessions", {})
                _, after = await request(host, port, "GET", "/healthz")
                return before, after

        before, after = asyncio.run(main())
        assert before["status"] == "ok"
        assert before["interactive_sessions"] == 0
        assert after["interactive_sessions"] == 1

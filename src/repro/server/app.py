"""The interactive-search HTTP service: :class:`SessionService`.

The ROADMAP's service step: a session outlives a request, so the server
owns the session state and the client only ships answers.  Two session
modes share one service:

* **interactive** (the production shape) — the client *is* the user.
  ``POST /sessions`` creates a session, ``GET .../question`` returns the
  current round's pair, ``POST .../answer`` feeds the preference back,
  ``GET .../recommendation`` returns the final tuple.  After every
  answer the session is checkpointed to the configured
  :class:`~repro.persist.SessionStore`, so a crashed or restarted
  server resumes every open dialogue bit-identically (``POST /sessions``
  with ``{"resume": id}``).
* **oracle** (the benchmark shape) — the request carries the user's
  utility vector; the whole dialogue runs server-side on the backing
  :class:`~repro.serve.runtime.Runtime`, so hundreds of concurrent
  sessions ride one continuously-batched scheduler (or one per
  dispatcher worker).  ``GET .../recommendation`` awaits the result.
  Every runtime is served the same way: the request thread calls
  ``runtime.submit()``, and one collector thread iterates
  ``runtime.as_completed()`` and resolves each session's future the
  moment that session finishes.

Endpoints (all JSON)::

    GET    /healthz                      liveness + session counts
    POST   /sessions                     create / resume (see below)
    GET    /sessions/{id}/question       current pair to show the user
    POST   /sessions/{id}/answer         {"prefers_first": bool}
    GET    /sessions/{id}/recommendation final tuple (oracle: awaits)
    DELETE /sessions/{id}                drop session (and stored snapshot)

Fault isolation is per request: a handler error maps to a JSON error
response (400/404/409/500) on that request only — the connection, the
service and every other session keep going, mirroring the engines'
per-slot fault boundaries.  When a :mod:`repro.obs` tracer is
installed, every request runs inside a ``server.request`` span, with
``server.create``, ``server.question``, ``server.answer``,
``server.recommend``, ``server.resume`` and ``server.checkpoint`` child
spans around the handler work they name.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.session import (
    DEFAULT_MAX_ROUNDS,
    InteractiveAlgorithm,
    TranscriptEntry,
    validate_epsilon,
)
from repro.data.datasets import Dataset
from repro.errors import PersistenceError, ReproError
from repro.obs.tracer import span
from repro.persist import SessionStore, capture_session, restore_session
from repro.registry import (
    agents_by_family,
    canonical_session_name,
    make_session,
    session_needs_agent,
)
from repro.serve.runtime import Runtime
from repro.serve.scheduler import ContinuousEngine
from repro.serve.spec import SessionSpec
from repro.server.http import (
    BadRequestError,
    Request,
    Response,
    read_request,
    render_response,
)
from repro.users.oracle import OracleUser


def _seed_field(body: dict[str, Any]) -> int | None:
    """The request's ``seed``: absent/null, or a non-negative JSON integer."""
    seed = body.get("seed")
    if seed is None:
        return None
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise BadRequestError(
            f"seed must be a non-negative JSON integer, got {seed!r}"
        )
    return seed


def _is_number(value: Any) -> bool:
    """Whether ``value`` decoded from a JSON number (bools excluded)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve_collected(future: "asyncio.Future[Any]", result: Any) -> None:
    """Resolve a collector-tracked future on its own loop (cancel-safe)."""
    if not future.done():
        future.set_result(result)


class _HTTPError(Exception):
    """A handler outcome with a specific status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _LiveSession:
    """One interactive (client-driven) session."""

    session_id: str
    family: str
    algorithm: InteractiveAlgorithm
    agent_ref: str | None = None
    transcript: list[TranscriptEntry] = field(default_factory=list)
    #: Serialises concurrent requests against the same session; requests
    #: against *different* sessions interleave freely.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class SessionService:
    """The HTTP front end over one dataset (and its trained agents).

    Parameters
    ----------
    dataset:
        The dataset every served session searches.
    agents:
        Trained agents by family name (``{"ea": agent}``, display names
        accepted) for the RL families; baselines need none.  An agent
        filed under another family's name raises
        :class:`~repro.errors.ConfigurationError` here.
    agent_refs:
        Optional provenance by family (typically the agent npz path),
        recorded into snapshots so a fresh process knows which agent to
        load.
    store:
        Optional :class:`~repro.persist.SessionStore`.  When set,
        interactive sessions are checkpointed after every answer and
        ``POST /sessions {"resume": id}`` restores them.
    epsilon:
        Default regret threshold for sessions that do not specify one.
    max_rounds / max_in_flight:
        Passed to the backing runtime's default
        :class:`~repro.serve.scheduler.ContinuousEngine` (oracle mode);
        ignored when an explicit ``runtime`` is supplied.
    runtime:
        Any :class:`~repro.serve.runtime.Runtime` to serve oracle
        sessions through — e.g. a
        :class:`~repro.serve.dispatch.ShardedDispatcher` for
        multi-process serving (``python -m repro server --procs N``).
        The service owns it exclusively and closes it with
        :meth:`close`.  Whatever the runtime, one background collector
        thread drives it through ``as_completed()`` and resolves each
        submission's future as its result streams out (matched on
        ``result.metrics.session_id``, the submission ticket).
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        agents: dict[str, Any] | None = None,
        agent_refs: dict[str, str] | None = None,
        store: SessionStore | None = None,
        epsilon: float = 0.1,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        max_in_flight: int = 64,
        runtime: Runtime | None = None,
    ) -> None:
        self.dataset = dataset
        self.agents = agents_by_family(agents)
        self.agent_refs = {
            canonical_session_name(name): ref
            for name, ref in (agent_refs or {}).items()
        }
        self.store = store
        self.epsilon = float(epsilon)
        self.max_rounds = int(max_rounds)
        self.engine: Runtime = (
            runtime
            if runtime is not None
            else ContinuousEngine(
                max_rounds=max_rounds,
                max_in_flight=max_in_flight,
                store=store,
            )
        )
        self._interactive: dict[str, _LiveSession] = {}
        #: Oracle (runtime-driven) sessions' result futures, by session id.
        self._oracle: dict[str, "asyncio.Future[Any]"] = {}
        self._counter = itertools.count(1)
        # -- the collector: the one bridge from asyncio to the runtime --
        self._closed = False
        self._collector: threading.Thread | None = None
        self._collector_lock = threading.Lock()
        self._collector_wake = threading.Event()
        self._waiting: dict[
            int, tuple[asyncio.AbstractEventLoop, "asyncio.Future[Any]"]
        ] = {}

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the backing runtime down (idempotent)."""
        self._closed = True
        self._collector_wake.set()
        collector = self._collector
        if collector is not None and collector.is_alive():
            collector.join(timeout=5.0)
        self._collector = None
        with self._collector_lock:
            waiting = list(self._waiting.values())
            self._waiting.clear()
        for loop, future in waiting:
            try:
                loop.call_soon_threadsafe(future.cancel)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self.engine.close()

    def _submit_oracle(
        self, spec: SessionSpec
    ) -> tuple[int, "asyncio.Future[Any]"]:
        """Submit an oracle-mode spec; return its ticket and result future.

        The submit runs under the collector lock, so the collector can
        never see a result before its future is registered.  Lock order
        is collector lock, then runtime lock; the collector never takes
        them the other way round.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        with self._collector_lock:
            ticket = self.engine.submit(spec)
            self._waiting[ticket] = (loop, future)
            if self._collector is None or not self._collector.is_alive():
                self._collector = threading.Thread(
                    target=self._collect,
                    name="repro-server-collector",
                    daemon=True,
                )
                self._collector.start()
        self._collector_wake.set()
        return ticket, future

    def _collect(self) -> None:
        """Drive the runtime; resolve each future as its session finishes.

        The wake event is cleared *before* the runtime is checked for
        work, never after a wait: a submit that sets it after the clear
        is either seen by ``as_completed()`` or still pending when the
        wait runs, so a wake-up is never lost.
        """
        while not self._closed:
            self._collector_wake.clear()
            try:
                for result in self.engine.as_completed():
                    metrics = result.metrics
                    if metrics is None:  # pragma: no cover - contract breach
                        continue
                    with self._collector_lock:
                        entry = self._waiting.pop(metrics.session_id, None)
                    if entry is None:
                        continue
                    loop, future = entry
                    try:
                        loop.call_soon_threadsafe(
                            _resolve_collected, future, result
                        )
                    except RuntimeError:  # pragma: no cover - loop closed
                        pass
            except ReproError:  # runtime closed under us
                return
            self._collector_wake.wait(timeout=0.1)

    async def serve(
        self, host: str = "127.0.0.1", port: int = 8000
    ) -> asyncio.AbstractServer:
        """Bind and return an asyncio server (``port=0`` for ephemeral)."""
        return await asyncio.start_server(self._handle_connection, host, port)

    # -- connection / dispatch ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one (possibly keep-alive) connection, fault-isolated."""
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequestError as error:
                    writer.write(
                        render_response(
                            Response.error(400, str(error)), keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self.handle(request)
                keep_alive = request.keep_alive
                writer.write(render_response(response, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def handle(self, request: Request) -> Response:
        """Route one request; every failure maps to a JSON error response."""
        with span(
            "server.request", method=request.method, path=request.path
        ):
            try:
                return await self._dispatch(request)
            except _HTTPError as error:
                return Response.error(error.status, str(error))
            except BadRequestError as error:
                return Response.error(400, str(error))
            except ReproError as error:
                # Domain errors triggered by request content are client
                # errors: unknown family, bad epsilon, protocol misuse.
                return Response.error(
                    400, f"{type(error).__name__}: {error}"
                )
            except Exception as error:  # noqa: BLE001 -- request boundary
                return Response.error(
                    500, f"{type(error).__name__}: {error}"
                )

    async def _dispatch(self, request: Request) -> Response:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return Response.json(
                {
                    "status": "ok",
                    "dataset": self.dataset.name,
                    "interactive_sessions": len(self._interactive),
                    "oracle_sessions": len(self._oracle),
                }
            )
        if path == "/sessions" and method == "POST":
            return await self._create(request)
        parts = path.strip("/").split("/")
        if parts[0] != "sessions" or len(parts) not in (2, 3):
            raise _HTTPError(404, f"no such endpoint: {method} {path}")
        session_id = parts[1]
        if len(parts) == 2:
            if method == "DELETE":
                return self._delete(session_id)
            raise _HTTPError(405, f"unsupported method {method} on {path}")
        action = parts[2]
        if action == "question" and method == "GET":
            return await self._question(session_id)
        if action == "answer" and method == "POST":
            return await self._answer(session_id, request)
        if action == "recommendation" and method == "GET":
            return await self._recommendation(session_id, request)
        raise _HTTPError(404, f"no such endpoint: {method} {path}")

    # -- handlers ------------------------------------------------------------

    def _new_id(self) -> str:
        return f"s{next(self._counter):04d}-{uuid.uuid4().hex[:8]}"

    def _build_session(
        self, family: str, epsilon: float, seed: int | None
    ) -> InteractiveAlgorithm:
        kwargs: dict[str, Any] = {}
        if session_needs_agent(family):
            agent = self.agents.get(family)
            if agent is None:
                raise _HTTPError(
                    400,
                    f"family {family!r} needs a trained agent and the "
                    "server has none loaded for it",
                )
            kwargs["agent"] = agent
        return make_session(
            family, self.dataset, epsilon, rng=seed, **kwargs
        )

    async def _create(self, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        if "resume" in body:
            return self._resume(str(body["resume"]))
        family = canonical_session_name(body.get("algorithm", "uh-random"))
        epsilon = body.get("epsilon", self.epsilon)
        if not _is_number(epsilon):
            raise BadRequestError(
                f"epsilon must be a JSON number, got {epsilon!r}"
            )
        epsilon = validate_epsilon(epsilon)
        seed = _seed_field(body)
        if body.get("mode") == "oracle" or "utility" in body:
            return self._create_oracle(body, family, epsilon, seed)
        with span("server.create", family=family):
            algorithm = self._build_session(family, epsilon, seed)
        session_id = self._new_id()
        live = _LiveSession(
            session_id=session_id,
            family=family,
            algorithm=algorithm,
            agent_ref=self.agent_refs.get(family),
        )
        self._interactive[session_id] = live
        self._checkpoint(live)
        return Response.json(
            {
                "session_id": session_id,
                "algorithm": family,
                "epsilon": epsilon,
                "mode": "interactive",
                "rounds": 0,
                "finished": bool(algorithm.finished),
            },
            status=201,
        )

    def _create_oracle(
        self,
        body: dict[str, Any],
        family: str,
        epsilon: float,
        seed: int | None,
    ) -> Response:
        utility = body.get("utility")
        if utility is None:
            raise BadRequestError(
                "oracle mode needs the user's utility vector: "
                '{"mode": "oracle", "utility": [...]}'
            )
        dimension = self.dataset.dimension
        if (
            not isinstance(utility, list)
            or len(utility) != dimension
            or not all(_is_number(weight) for weight in utility)
        ):
            raise BadRequestError(
                f"utility must be a list of {dimension} numeric weights, "
                f"got {utility!r}"
            )
        user = OracleUser(np.asarray(utility, dtype=float))
        session_id = self._new_id()
        with span("server.create", family=family, mode="oracle"):
            spec = SessionSpec(
                factory=lambda: self._build_session(family, epsilon, seed),
                user=user,
                seed=seed,
                tags={"session_id": session_id},
            )
            ticket, future = self._submit_oracle(spec)
        self._oracle[session_id] = future
        return Response.json(
            {
                "session_id": session_id,
                "algorithm": family,
                "epsilon": epsilon,
                "mode": "oracle",
                "ticket": ticket,
            },
            status=201,
        )

    def _resume(self, session_id: str) -> Response:
        if self.store is None:
            raise _HTTPError(
                400, "this server has no session store; cannot resume"
            )
        with span("server.resume", session=session_id):
            try:
                snapshot = self.store.get(session_id)
            except PersistenceError as error:
                raise _HTTPError(404, str(error)) from None
            agent = self.agents.get(snapshot.family)
            if session_needs_agent(snapshot.family) and agent is None:
                raise _HTTPError(
                    400,
                    f"snapshot {session_id!r} needs a trained "
                    f"{snapshot.family!r} agent and the server has none "
                    f"loaded (agent_ref={snapshot.agent_ref!r})",
                )
            algorithm = restore_session(
                snapshot, agent=agent, dataset=self.dataset
            )
        live = _LiveSession(
            session_id=session_id,
            family=snapshot.family,
            algorithm=algorithm,
            agent_ref=snapshot.agent_ref or self.agent_refs.get(snapshot.family),
            transcript=list(snapshot.transcript),
        )
        self._interactive[session_id] = live
        return Response.json(
            {
                "session_id": session_id,
                "algorithm": snapshot.family,
                "mode": "interactive",
                "resumed": True,
                "rounds": int(algorithm.rounds),
                "finished": bool(algorithm.finished),
            }
        )

    def _live(self, session_id: str) -> _LiveSession:
        live = self._interactive.get(session_id)
        if live is None:
            if session_id in self._oracle:
                raise _HTTPError(
                    409,
                    f"session {session_id!r} runs in oracle mode; it is "
                    "driven by the scheduler, not by requests",
                )
            raise _HTTPError(404, f"no such session: {session_id!r}")
        return live

    async def _question(self, session_id: str) -> Response:
        live = self._live(session_id)
        async with live.lock:
            algorithm = live.algorithm
            if algorithm.finished:
                raise _HTTPError(
                    409,
                    f"session {session_id!r} is finished; "
                    "GET its recommendation",
                )
            if algorithm.rounds >= self.max_rounds:
                raise _HTTPError(
                    409,
                    f"session {session_id!r} hit the round cap "
                    f"({self.max_rounds}); GET its recommendation",
                )
            with span("server.question", session=session_id):
                # Idempotent: re-asking an open question returns the same
                # pair instead of advancing the session.
                question = (
                    algorithm.pending_question or algorithm.next_question()
                )
        return Response.json(
            {
                "session_id": session_id,
                "round": int(algorithm.rounds) + 1,
                "index_i": int(question.index_i),
                "index_j": int(question.index_j),
                "p_i": [float(x) for x in question.p_i],
                "p_j": [float(x) for x in question.p_j],
            }
        )

    async def _answer(self, session_id: str, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict) or "prefers_first" not in body:
            raise BadRequestError(
                'answer body must be {"prefers_first": true|false}'
            )
        answer = body["prefers_first"]
        if not isinstance(answer, bool):
            raise BadRequestError(
                f"prefers_first must be a JSON boolean, got {answer!r}"
            )
        live = self._live(session_id)
        async with live.lock:
            algorithm = live.algorithm
            question = algorithm.pending_question
            if question is None:
                raise _HTTPError(
                    409,
                    f"session {session_id!r} has no open question; "
                    "GET its question first",
                )
            with span("server.answer", session=session_id):
                algorithm.observe(answer)
            live.transcript.append(
                TranscriptEntry(
                    round_number=int(algorithm.rounds),
                    index_i=int(question.index_i),
                    index_j=int(question.index_j),
                    prefers_first=answer,
                )
            )
            self._checkpoint(live)
        return Response.json(
            {
                "session_id": session_id,
                "rounds": int(algorithm.rounds),
                "finished": bool(
                    algorithm.finished
                    or algorithm.rounds >= self.max_rounds
                ),
            }
        )

    async def _recommendation(
        self, session_id: str, request: Request
    ) -> Response:
        oracle = self._oracle.get(session_id)
        if oracle is not None:
            with span("server.recommend", session=session_id, mode="oracle"):
                result = await oracle
            payload: dict[str, Any] = {
                "session_id": session_id,
                "status": result.status,
                "rounds": int(result.rounds),
                "index": int(result.recommendation_index),
                "point": [float(x) for x in result.recommendation],
            }
            if result.error is not None:
                payload["error"] = result.error
            return Response.json(payload)
        live = self._live(session_id)
        async with live.lock:
            algorithm = live.algorithm
            done = bool(
                algorithm.finished or algorithm.rounds >= self.max_rounds
            )
            if not done and request.query.get("force") not in ("1", "true"):
                raise _HTTPError(
                    409,
                    f"session {session_id!r} is still running "
                    f"(round {algorithm.rounds}); answer its questions or "
                    "pass ?force=1 for the current best guess",
                )
            with span("server.recommend", session=session_id):
                index = algorithm.recommend()
        return Response.json(
            {
                "session_id": session_id,
                "status": "completed" if done else "running",
                "rounds": int(algorithm.rounds),
                "index": int(index),
                "point": [float(x) for x in self.dataset.points[index]],
            }
        )

    def _delete(self, session_id: str) -> Response:
        known = (
            self._interactive.pop(session_id, None) is not None
            or self._oracle.pop(session_id, None) is not None
        )
        if self.store is not None and session_id in self.store:
            self.store.delete(session_id)
            known = True
        if not known:
            raise _HTTPError(404, f"no such session: {session_id!r}")
        return Response.json({"session_id": session_id, "deleted": True})

    # -- persistence ---------------------------------------------------------

    def _checkpoint(self, live: _LiveSession) -> None:
        """Persist one interactive session (no-op without a store)."""
        if self.store is None:
            return
        with span("server.checkpoint", session=live.session_id):
            self.store.put(
                capture_session(
                    live.algorithm,
                    session_id=live.session_id,
                    transcript=tuple(live.transcript),
                    agent_ref=live.agent_ref,
                )
            )


def run_server(
    service: SessionService, host: str = "127.0.0.1", port: int = 8000
) -> None:
    """Serve until interrupted (the ``python -m repro server`` entry)."""

    async def _main() -> None:
        server = await service.serve(host, port)
        sockets = server.sockets or []
        for sock in sockets:
            bound = sock.getsockname()
            print(f"serving on http://{bound[0]}:{bound[1]}")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()

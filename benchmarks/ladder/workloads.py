"""The ladder's workloads: inputs from a seed, served, measured, checked.

Every workload serves *batches*: the next ``batch`` sessions of the
seed's session stream, submitted together and served to completion on a
fresh runtime.  A fresh engine owns a fresh LP cache, so a batch does
the same work whether it is the first of a run or the tenth, and the
traced replay of a batch repeats its untraced run exactly.  Batches
repeat until the run's time budget is spent.

The seed draws the users: hidden utilities, session seeds and the
warm-up sessions, from separate streams.  The dataset and the trained
agent are fixed parts of each workload (seed 0), because EA's share of
sessions stuck at the round cap swings from 3% to 36% between
synthetic datasets of the same shape, which would make every metric a
property of the seed rather than of the code.
"""

from __future__ import annotations

import asyncio
import hashlib
import mmap
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import layers
from repro.core.session import SessionResult, run_session
from repro.data.datasets import Dataset
from repro.data.synthetic import synthetic_dataset
from repro.data.utility import sample_training_utilities
from repro.geometry.sampling import sample_simplex
from repro.geometry.vectors import regret_ratio
from repro.obs.export import aggregate_report, merge_aggregate_reports
from repro.obs.tracer import Tracer, use_tracer
from repro.persist import FileSessionStore
from repro.registry import make_config, make_session, make_trainer
from repro.serve.dispatch import ShardedDispatcher
from repro.serve.scheduler import ContinuousEngine
from repro.serve.spec import SessionSpec
from repro.server.app import SessionService
from repro.server.http import request
from repro.users import OracleUser, make_user

#: Dispatcher workers: one per core of the two-core machine the ladder
#: was sized on.
PROCS = 2
DATASET_SEED = 0
TRAIN_SEED = 0
#: Sessions replayed through ``run_session`` by the replay check.
REPLAYED = {"engine": 4, "dispatch": 4, "http": 8}
#: Leading sessions of a run fingerprinted by ``outcome_digest``; the
#: same for every workload, so ea-lowd and ea-dispatch compare.
DIGESTED = 32


@dataclass(frozen=True)
class Workload:
    """One fixed serving scenario of the ladder."""

    name: str
    #: ``engine`` (ContinuousEngine), ``dispatch`` (ShardedDispatcher)
    #: or ``http`` (SessionService over real sockets).
    serving: str
    algorithm: str
    #: ``anti:N:D`` before skyline filtering.
    dataset: str
    #: Training episodes of the shared agent; 0 for untrained families.
    episodes: int
    max_rounds: int
    #: Sessions per batch, and warm-up sessions before timing starts.
    batch: int
    warmup: int
    #: Sessions served at once: the engine's ``max_in_flight`` (per
    #: dispatcher worker), or the number of HTTP clients.
    concurrency: int
    #: ``repro.users.make_user`` model answering engine sessions.
    user: str = "oracle"
    epsilon: float = 0.1

    @property
    def dimension(self) -> int:
        return int(self.dataset.split(":")[2])

    @property
    def regret_bound(self) -> float:
        """The guarantee every finished oracle session must meet.

        EA and the UH baselines stop on the Lemma 6 test, so their answer
        has regret below epsilon; AA only promises ``d^2 * epsilon``
        (Lemma 9).
        """
        if self.algorithm == "aa":
            return self.dimension**2 * self.epsilon
        return self.epsilon


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("ea-lowd", "engine", "ea", "anti:300:3", episodes=8,
                 max_rounds=15, batch=48, warmup=8, concurrency=8),
        Workload("aa-highd", "engine", "aa", "anti:2000:8", episodes=4,
                 max_rounds=100, batch=12, warmup=4, concurrency=4),
        Workload("ea-dispatch", "dispatch", "ea", "anti:300:3", episodes=8,
                 max_rounds=15, batch=64, warmup=8, concurrency=8,
                 user="abstaining"),
        Workload("http-ckpt", "http", "uh-random", "anti:300:3",
                 episodes=0, max_rounds=100, batch=64, warmup=64,
                 concurrency=2),
    )
}


# -- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class SessionInput:
    """What one simulated user brings: a hidden utility and a seed."""

    utility: np.ndarray
    seed: int


class SessionStream:
    """An endless, seed-determined sequence of session inputs."""

    def __init__(self, seed: np.random.SeedSequence, dimension: int) -> None:
        self._utilities, self._seeds = (
            np.random.default_rng(child) for child in seed.spawn(2)
        )
        self._dimension = dimension

    def take(self, count: int) -> list[SessionInput]:
        utilities = sample_simplex(self._dimension, count, self._utilities)
        seeds = self._seeds.integers(2**62, size=count)
        return [
            SessionInput(utility, int(seed))
            for utility, seed in zip(utilities, seeds)
        ]


def streams(seed: int, dimension: int) -> tuple[SessionStream, SessionStream]:
    """The warm-up stream and the timed stream of ``seed``."""
    warm, timed = np.random.SeedSequence(seed).spawn(2)
    return SessionStream(warm, dimension), SessionStream(timed, dimension)


# -- outcomes ----------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """How one session ended."""

    index: int
    rounds: int
    point: np.ndarray
    #: ``completed``, ``truncated`` or ``failed``.
    status: str
    abstentions: int = 0

    @classmethod
    def of(cls, result: SessionResult) -> "Outcome":
        return cls(
            index=int(result.recommendation_index),
            rounds=int(result.rounds),
            point=np.asarray(result.recommendation, dtype=float),
            status=result.status,
            abstentions=result.metrics.abstentions if result.metrics else 0,
        )

    def key(self) -> tuple[int, int, bytes]:
        """What must match bit for bit between two serving paths."""
        return self.index, self.rounds, self.point.tobytes()


_FAILED = Outcome(index=-1, rounds=0, point=np.empty(0), status="failed")


def digest(outcomes: list[Outcome]) -> str:
    """A fingerprint of a batch's outcomes, in session order."""
    sha = hashlib.sha256()
    for outcome in outcomes:
        index, rounds, point = outcome.key()
        sha.update(f"{index}:{rounds}:".encode() + point)
    return sha.hexdigest()


@dataclass
class Batch:
    """One served batch: outcomes, question waits, wall time."""

    outcomes: list[Outcome]
    #: Seconds each question kept its user waiting, in no order.
    waits: np.ndarray
    wall: float
    #: Aggregate tracer report (traced batches only).
    report: dict[str, Any] | None = None
    #: Dispatcher waves: each worker's busy seconds, and the wave wall.
    waves: list[tuple[list[float], float]] = field(default_factory=list)


# -- question waits ----------------------------------------------------------


class WaitLog:
    """Per-question waits of one batch, in memory forked workers share.

    Row ``slot`` holds session ``slot``'s waits; its last column counts
    them.  The table lives in an anonymous shared mapping, so the
    dispatcher's forked workers write where the parent reads.
    """

    def __init__(self, sessions: int, max_rounds: int) -> None:
        self._buffer = mmap.mmap(-1, 8 * sessions * (max_rounds + 1))
        self._table = np.frombuffer(self._buffer, dtype=np.float64).reshape(
            sessions, max_rounds + 1
        )

    def record(self, slot: int, seconds: float) -> None:
        row = self._table[slot]
        count = int(row[-1])
        row[count] = seconds
        row[-1] = count + 1

    def waits(self) -> np.ndarray:
        return np.concatenate(
            [row[: int(row[-1])] for row in self._table]
        )


class TimedUser:
    """A user that logs how long each answer kept it waiting.

    The wait runs from an answer to the next question, which is what a
    person at the screen experiences between rounds.  The first
    question's wait is not a round: in a batch submitted at once it is
    mostly the admission queue.  Answers come unchanged from the wrapped
    user; a re-asked question after an abstention is not a new wait.
    """

    def __init__(self, user: Any, log: WaitLog, slot: int) -> None:
        self._user = user
        self._log = log
        self._slot = slot
        self._answered_at: float | None = None
        if hasattr(user, "compare"):
            self.compare = self._compare

    @property
    def utility(self) -> np.ndarray:
        return self._user.utility

    def prefers(self, p_i: np.ndarray, p_j: np.ndarray) -> bool:
        self._asked()
        answer = self._user.prefers(p_i, p_j)
        self._answered_at = time.perf_counter()
        return answer

    def _compare(self, p_i: np.ndarray, p_j: np.ndarray) -> bool | None:
        self._asked()
        verdict = self._user.compare(p_i, p_j)
        if verdict is not None:
            self._answered_at = time.perf_counter()
        return verdict

    def _asked(self) -> None:
        if self._answered_at is not None:
            self._log.record(
                self._slot, time.perf_counter() - self._answered_at
            )
            self._answered_at = None


# -- set-up ------------------------------------------------------------------


def build_dataset(workload: Workload) -> Dataset:
    kind, n, d = workload.dataset.split(":")
    return synthetic_dataset(kind, int(n), int(d), rng=DATASET_SEED)


def train(workload: Workload, dataset: Dataset) -> Any | None:
    if not workload.episodes:
        return None
    rng = np.random.default_rng(TRAIN_SEED)
    utilities = sample_training_utilities(
        dataset.dimension, workload.episodes, rng=rng
    )
    return make_trainer(workload.algorithm)(
        dataset,
        utilities,
        config=make_config(workload.algorithm, epsilon=workload.epsilon),
        rng=rng,
    )


@dataclass
class Setup:
    """A workload's dataset, agent and runtime, with the time each took."""

    workload: Workload
    dataset: Dataset
    agent: Any | None
    runtime: Any
    #: ``dataset_s``, ``train_s`` and ``runtime_s``.
    timings: dict[str, float]

    @classmethod
    def build(cls, workload: Workload, workdir: Path) -> "Setup":
        clock = time.perf_counter()
        dataset = build_dataset(workload)
        dataset_s = time.perf_counter() - clock
        clock = time.perf_counter()
        agent = train(workload, dataset)
        train_s = time.perf_counter() - clock
        clock = time.perf_counter()
        setup = cls(workload, dataset, agent, None, {})
        setup.runtime = RUNTIMES[workload.serving](setup, workdir)
        setup.timings = {
            "dataset_s": dataset_s,
            "train_s": train_s,
            "runtime_s": time.perf_counter() - clock,
        }
        return setup

    def new_session(self, seed: int) -> Any:
        extra = {} if self.agent is None else {"agent": self.agent}
        workload = self.workload
        return make_session(
            workload.algorithm, self.dataset, workload.epsilon, rng=seed,
            **extra,
        )

    def specs(
        self, inputs: list[SessionInput], log: WaitLog
    ) -> list[SessionSpec]:
        return [
            SessionSpec(
                factory=lambda seed=item.seed: self.new_session(seed),
                user=TimedUser(
                    make_user(self.workload.user, item.utility), log, slot
                ),
                seed=item.seed,
                # A stable id keeps a session on the same dispatcher
                # shard when its batch is replayed traced.
                tags={"session_id": f"session-{item.seed}"},
            )
            for slot, item in enumerate(inputs)
        ]


@contextmanager
def _traced(tracer: Tracer | None) -> Iterator[None]:
    if tracer is None:
        yield
        return
    with layers.patched(), use_tracer(tracer):
        yield


# -- serving paths -----------------------------------------------------------


class EngineRuntime:
    """A fresh ``ContinuousEngine`` per batch, all sessions at t=0."""

    def __init__(self, setup: Setup, workdir: Path) -> None:
        self._setup = setup

    def serve(self, inputs: list[SessionInput], traced: bool = False) -> Batch:
        workload = self._setup.workload
        tracer = Tracer(max_spans=1) if traced else None
        log = WaitLog(len(inputs), workload.max_rounds)
        specs = self._setup.specs(inputs, log)
        started = time.perf_counter()
        with _traced(tracer), ContinuousEngine(
            max_rounds=workload.max_rounds,
            max_in_flight=workload.concurrency,
        ) as engine:
            results = engine.run(specs)
        wall = time.perf_counter() - started
        return Batch(
            outcomes=[Outcome.of(result) for result in results],
            waits=log.waits(),
            wall=wall,
            report=None if tracer is None else aggregate_report(tracer),
        )

    def close(self) -> None:
        pass


class DispatchRuntime:
    """A ``ShardedDispatcher``; each batch is one wave of forked workers."""

    def __init__(self, setup: Setup, workdir: Path) -> None:
        self._setup = setup
        self._dispatchers: dict[bool, ShardedDispatcher] = {}
        self._dispatcher(False)

    def _dispatcher(self, traced: bool) -> ShardedDispatcher:
        if traced not in self._dispatchers:
            self._dispatchers[traced] = ShardedDispatcher(
                procs=PROCS,
                max_rounds=self._setup.workload.max_rounds,
                max_in_flight=self._setup.workload.concurrency,
                collect_obs=traced,
            )
        return self._dispatchers[traced]

    def serve(self, inputs: list[SessionInput], traced: bool = False) -> Batch:
        dispatcher = self._dispatcher(traced)
        seen = len(dispatcher.worker_reports)
        log = WaitLog(len(inputs), self._setup.workload.max_rounds)
        specs = self._setup.specs(inputs, log)
        started = time.perf_counter()
        # The workers are forked inside drain(), so they inherit the
        # wrapped layers and install their own tracers.
        with layers.patched() if traced else nullcontext():
            for spec in specs:
                dispatcher.submit(spec)
            results = dispatcher.drain()
        wall = time.perf_counter() - started
        batch = Batch(
            outcomes=[Outcome.of(result) for result in results],
            waits=log.waits(),
            wall=wall,
        )
        if traced:
            reports = dispatcher.worker_reports[seen:]
            batch.report = merge_aggregate_reports(reports)
            busy = [
                report["spans"].get("engine.tick", {}).get(
                    "total_seconds", 0.0
                )
                for report in reports
            ]
            batch.waves = [(busy, wall)]
        return batch

    def close(self) -> None:
        for dispatcher in self._dispatchers.values():
            dispatcher.close()


class ClientError(Exception):
    """The service answered a benchmark request with a non-2xx status."""


class HttpRuntime:
    """A ``SessionService`` checkpointing every answer to a file store.

    Each batch binds the service on ``127.0.0.1:0`` and drives it from
    ``concurrency`` keep-alive clients in the same event loop: a closed loop
    with zero think time, each client starting its next session as soon
    as the previous one ends.  A session resumes from the store once,
    after its second answer.
    """

    def __init__(self, setup: Setup, workdir: Path) -> None:
        self._setup = setup
        workload = setup.workload
        self.service = SessionService(
            setup.dataset,
            store=FileSessionStore(workdir / "store"),
            epsilon=workload.epsilon,
            max_rounds=workload.max_rounds,
        )

    def serve(self, inputs: list[SessionInput], traced: bool = False) -> Batch:
        tracer = Tracer(max_spans=1) if traced else None
        waits: list[float] = []
        started = time.perf_counter()
        # asyncio.run copies the current context into the loop, so the
        # tracer reaches every request handler of this batch.
        with _traced(tracer):
            outcomes = asyncio.run(self._batch(inputs, waits))
        wall = time.perf_counter() - started
        return Batch(
            outcomes=outcomes,
            waits=np.asarray(waits),
            wall=wall,
            report=None if tracer is None else aggregate_report(tracer),
        )

    async def _batch(
        self, inputs: list[SessionInput], waits: list[float]
    ) -> list[Outcome]:
        server = await self.service.serve("127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        outcomes: list[Outcome] = [_FAILED] * len(inputs)
        queue = enumerate(inputs)

        async def client() -> None:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for slot, item in queue:
                    try:
                        outcomes[slot] = await self._session(
                            host, port, reader, writer, item, waits
                        )
                    except ClientError:
                        pass  # the slot keeps its failed outcome
            finally:
                writer.close()
                await writer.wait_closed()

        try:
            await asyncio.gather(
                *(client() for _ in range(self._setup.workload.concurrency))
            )
        finally:
            server.close()
            await server.wait_closed()
        return outcomes

    async def _session(
        self,
        host: str,
        port: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        item: SessionInput,
        waits: list[float],
    ) -> Outcome:
        workload = self._setup.workload

        async def call(method: str, path: str, payload: Any = None) -> Any:
            status, body = await request(
                host, port, method, path, payload, reader=reader,
                writer=writer,
            )
            if not 200 <= status < 300:
                raise ClientError(f"{method} {path}: {status} {body}")
            return body

        body = await call(
            "POST",
            "/sessions",
            {
                "algorithm": workload.algorithm,
                "epsilon": workload.epsilon,
                "seed": item.seed,
            },
        )
        session_id = body["session_id"]
        base = f"/sessions/{session_id}"
        finished = body["finished"]
        rounds = 0
        answered_at = None
        while not finished:
            question = await call("GET", f"{base}/question")
            if answered_at is not None:
                waits.append(time.perf_counter() - answered_at)
            prefers = float(item.utility @ np.asarray(question["p_i"])) >= (
                float(item.utility @ np.asarray(question["p_j"]))
            )
            answered_at = time.perf_counter()
            body = await call(
                "POST", f"{base}/answer", {"prefers_first": prefers}
            )
            rounds += 1
            finished = body["finished"]
            if rounds == 2 and not finished:
                await call("POST", "/sessions", {"resume": session_id})
        answer = await call("GET", f"{base}/recommendation")
        return Outcome(
            index=int(answer["index"]),
            rounds=int(answer["rounds"]),
            point=np.asarray(answer["point"], dtype=float),
            status=(
                "truncated"
                if answer["rounds"] >= workload.max_rounds
                else "completed"
            ),
        )

    def close(self) -> None:
        self.service.close()


RUNTIMES = {
    "engine": EngineRuntime,
    "dispatch": DispatchRuntime,
    "http": HttpRuntime,
}


# -- checks ------------------------------------------------------------------


def regret_failures(
    setup: Setup, inputs: list[SessionInput], outcomes: list[Outcome]
) -> list[str]:
    """Finished sessions whose true regret ratio breaks the guarantee."""
    bound = setup.workload.regret_bound + 1e-9
    points = setup.dataset.points
    failures = []
    for item, outcome in zip(inputs, outcomes, strict=True):
        if outcome.status != "completed":
            continue
        regret = regret_ratio(points, outcome.point, item.utility)
        if regret > bound:
            failures.append(
                f"session {item.seed}: regret {regret:.6f} > {bound:.6f}"
            )
    return failures


def replay_failures(
    setup: Setup, inputs: list[SessionInput], outcomes: list[Outcome]
) -> list[str]:
    """Sessions that end differently under the ``run_session`` reference."""
    failures = []
    for item, outcome in zip(inputs, outcomes, strict=True):
        result = run_session(
            setup.new_session(item.seed),
            OracleUser(item.utility),
            max_rounds=setup.workload.max_rounds,
        )
        if Outcome.of(result).key() != outcome.key():
            failures.append(
                f"session {item.seed}: served (index {outcome.index}, "
                f"{outcome.rounds} rounds), run_session (index "
                f"{result.recommendation_index}, {result.rounds} rounds)"
            )
    return failures


# -- the run -----------------------------------------------------------------


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    import_s: float = 0.0,
) -> dict[str, Any]:
    """Set up, warm up, serve batches for ``seconds``, then check.

    Returns the run's report: set-up parts, the end-to-end metrics (or,
    with ``trace``, the per-layer ones), the attempted and failed
    session counts, check failures and descriptive details.  With
    ``trace`` every batch is served untraced and then replayed traced,
    and the per-layer numbers come from the replays.
    """
    setup = Setup.build(workload, workdir)
    setup.timings["import_s"] = import_s
    runtime = setup.runtime
    warm, timed = streams(seed, workload.dimension)
    served: list[tuple[list[SessionInput], Batch, Batch | None]] = []
    try:
        runtime.serve(warm.take(workload.warmup))
        started = time.perf_counter()
        while not served or time.perf_counter() - started < seconds:
            inputs = timed.take(workload.batch)
            batch = runtime.serve(inputs)
            replay = runtime.serve(inputs, traced=True) if trace else None
            served.append((inputs, batch, replay))
    finally:
        runtime.close()

    inputs = [item for batch_inputs, _, _ in served for item in batch_inputs]
    outcomes = [o for _, batch, _ in served for o in batch.outcomes]
    first_inputs, first, _ = served[0]
    replayed = REPLAYED[workload.serving]
    checks = {
        "regret": regret_failures(setup, inputs, outcomes),
        "replay": replay_failures(
            setup, first_inputs[:replayed], first.outcomes[:replayed]
        ),
    }
    if trace:
        checks["trace_identical"] = [
            f"batch {index}: traced outcomes differ"
            for index, (_, batch, replay) in enumerate(served)
            if digest(replay.outcomes) != digest(batch.outcomes)
        ]
    wall = sum(batch.wall for _, batch, _ in served)
    waits = np.concatenate([batch.waits for _, batch, _ in served]) * 1e3
    rounds = np.array([outcome.rounds for outcome in outcomes])
    statuses = [outcome.status for outcome in outcomes]
    regrets = [
        regret_ratio(setup.dataset.points, outcome.point, item.utility)
        for item, outcome in zip(inputs, outcomes)
        if outcome.status != "failed"
    ]
    details = {
        "batches": len(served),
        "sessions": len(outcomes),
        "questions": int(rounds.sum()),
        "wait_samples": int(waits.size),
        "round_p99_ms": float(np.percentile(waits, 99)),
        "wall_s": wall,
        "sessions_per_s": len(outcomes) / wall,
        "truncated_frac": statuses.count("truncated") / len(outcomes),
        "regret_max": max(regrets, default=0.0),
        "abstentions": sum(outcome.abstentions for outcome in outcomes),
        "outcome_digest": digest(outcomes[:DIGESTED]),
        "skyline_points": setup.dataset.n,
    }
    if trace:
        report = merge_aggregate_reports(
            [replay.report for _, _, replay in served if replay]
        )
        totals = _trace_totals(workload, served)
        metrics = layers.per_layer_metrics(report, totals, setup.timings)
        # Every span, the program's own included: where the time went.
        details["span_self_frac"] = {
            name: aggregate["self_seconds"] / totals.serving_s
            for name, aggregate in report["spans"].items()
        }
    else:
        # Timings are medians over batches: a burst of load from
        # elsewhere on the machine slows one batch, not the number.
        batches = [batch for _, batch, _ in served]
        metrics = {
            "questions_per_s": _batch_median(
                batches,
                lambda b: sum(o.rounds for o in b.outcomes) / b.wall,
            ),
            "round_p50_ms": _batch_median(
                batches, lambda b: 1e3 * np.percentile(b.waits, 50)
            ),
            "round_p90_ms": _batch_median(
                batches, lambda b: 1e3 * np.percentile(b.waits, 90)
            ),
            "rounds_per_session": float(rounds.mean()),
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "setup": setup.timings,
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": statuses.count("failed"),
        "checks": checks,
        "details": details,
    }


def _batch_median(
    batches: list[Batch], statistic: Callable[[Batch], float]
) -> float:
    """``statistic`` of every batch that waited at all, medianed."""
    return float(
        np.median([statistic(batch) for batch in batches if batch.waits.size])
    )


def _trace_totals(
    workload: Workload,
    served: list[tuple[list[SessionInput], Batch, Batch | None]],
) -> layers.TraceTotals:
    replays = [replay for _, _, replay in served if replay is not None]
    workers = PROCS if workload.serving == "dispatch" else 1
    return layers.TraceTotals(
        sessions=sum(len(replay.outcomes) for replay in replays),
        batches=len(replays),
        questions=sum(o.rounds for r in replays for o in r.outcomes),
        serving_s=workers * sum(replay.wall for replay in replays),
        traced_wall_s=sum(replay.wall for replay in replays),
        untraced_wall_s=sum(batch.wall for _, batch, _ in served),
        abstentions=sum(o.abstentions for r in replays for o in r.outcomes),
        max_in_flight=workload.concurrency,
        waves=[wave for replay in replays for wave in replay.waves],
    )

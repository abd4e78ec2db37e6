"""The ``serve-bench`` workload: many concurrent users, one agent.

Trains a small RL agent on a dataset, fans out ``--sessions`` simulated
users with independent hidden utilities and seeds, drives them all
through the continuous-batching
:class:`~repro.serve.scheduler.ContinuousEngine` (or, with ``procs >=
1``, a :class:`~repro.serve.dispatch.ShardedDispatcher` running one
engine per worker process) and reports the aggregate metrics
(throughput, LP cache hit rate, batch occupancy, and — when sessions
die — failure/retry counts).  :func:`bench_workload` builds the trained
agent and the fixed-seed :class:`~repro.serve.spec.SessionSpec` list on
its own, so a caller can replay the identical sessions through
:func:`~repro.core.session.run_session`.  With ``noise > 0`` the
users are :class:`~repro.users.NoisyUser` instances, the workload the
fault-isolation and recovery machinery exists for; ``recover=True``
retries failed sessions under majority voting.  This is the smallest
end-to-end demonstration of the serving path the ROADMAP's production
north star needs; the CLI command ``python -m repro serve-bench`` is a
thin wrapper around :func:`run_serve_bench`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.session import DEFAULT_MAX_ROUNDS, SessionResult, validate_epsilon
from repro.data.datasets import Dataset
from repro.data.utility import sample_training_utilities
from repro.errors import ConfigurationError
from repro.obs.export import aggregate_report, merge_aggregate_reports
from repro.obs.snapshot import write_snapshot
from repro.obs.tracer import active_tracer
from repro.registry import make_session, train_agent
from repro.serve.dispatch import ShardedDispatcher
from repro.serve.metrics import EngineMetrics
from repro.serve.scheduler import ContinuousEngine
from repro.serve.spec import SessionSpec
from repro.users import canonical_user_model
from repro.users import make_user as build_user
from repro.utils.rng import RngLike, spawn_rngs


@dataclass
class ServeBenchReport:
    """Outcome of one serve-bench run."""

    algorithm: str
    dataset: str
    sessions: int
    epsilon: float
    train_seconds: float
    metrics: EngineMetrics
    results: list[SessionResult]
    noise: float = 0.0
    max_rounds: int = DEFAULT_MAX_ROUNDS
    procs: int = 0
    user_model: str = "oracle"
    #: Per-worker tracer aggregate reports (dispatch engine only).
    worker_obs: list[dict] = field(default_factory=list)

    @property
    def engine(self) -> str:
        """Which runtime served the run: ``continuous`` or ``dispatch``."""
        return "dispatch" if self.procs else "continuous"

    def lines(self) -> list[str]:
        """Report lines printed by the CLI command."""
        noise_note = f", noise={self.noise}" if self.noise else ""
        if self.user_model not in ("oracle", "noisy"):
            noise_note += f", users={self.user_model}"
        engine_note = (
            f"{self.engine} x{self.procs}" if self.procs else self.engine
        )
        header = (
            f"serve-bench[{engine_note}]: "
            f"{self.sessions} x {self.algorithm} sessions "
            f"on {self.dataset} (eps={self.epsilon}{noise_note}, "
            f"train {self.train_seconds:.1f}s)"
        )
        lines = [header, *self.metrics.summary_lines()]
        for record in self.metrics.errors:
            lines.append(
                f"  session {record.session_id} attempt {record.attempt}: "
                f"{record.error_type}: {record.message}"
                + (" (retried)" if record.retried else "")
            )
        return lines

    def snapshot_sections(self) -> dict[str, dict]:
        """The ``config``/``timings``/``counters``/``obs`` sections of a
        BENCH snapshot (see :mod:`repro.obs.snapshot`).

        ``counters`` holds only seed-deterministic quantities (round and
        tick counts, LP cache and range-clip rates) so a CI gate can
        compare them exactly; wall-clock measurements live in
        ``timings`` and are only ever ratio-checked.  ``obs`` carries
        the active tracer's aggregate report when tracing was on during
        the run, and is empty otherwise.
        """
        m = self.metrics
        config = {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "engine": self.engine,
            "epsilon": self.epsilon,
            "max_rounds": self.max_rounds,
            "noise": self.noise,
            "procs": self.procs,
            "sessions": self.sessions,
            "user_model": self.user_model,
        }
        timings = {
            "rounds_per_second": m.rounds_per_second,
            "sessions_per_second": m.sessions_per_second,
            "tick_latency_seconds": (
                m.wall_seconds / m.ticks if m.ticks else 0.0
            ),
            "train_seconds": self.train_seconds,
            "wall_seconds": m.wall_seconds,
        }
        counters = {
            "abstentions": m.abstentions,
            "batched_rows": m.batched_rows,
            "batches": m.batches,
            "completed": m.completed,
            "failed": m.failed,
            "lp_cache_hits": m.lp_cache_hits,
            "lp_hit_rate": round(m.lp_hit_rate, 6),
            "lp_solves": m.lp_solves,
            "occupancy": round(m.occupancy, 6),
            "peak_batch": m.peak_batch,
            "range_clip_rate": round(m.range_clip_rate, 6),
            "range_clips": m.range_clips,
            "range_rebuilds": m.range_rebuilds,
            "range_updates": m.range_updates,
            "retries": m.retries,
            "rounds_total": m.rounds_total,
            "ticks": m.ticks,
            "truncated": m.truncated,
        }
        if self.worker_obs:
            # Dispatch runs trace inside the workers; the merged
            # cross-process view is the run's observability record.
            obs = merge_aggregate_reports(self.worker_obs)
        else:
            tracer = active_tracer()
            obs = aggregate_report(tracer) if tracer is not None else {}
        return {
            "config": config,
            "counters": counters,
            "obs": obs,
            "timings": timings,
        }

    def write_snapshot(
        self, target: str | Path, name: str = "serve_bench"
    ) -> Path:
        """Write this report as a versioned ``BENCH_<name>.json`` snapshot."""
        sections = self.snapshot_sections()
        return write_snapshot(
            target,
            name,
            config=sections["config"],
            timings=sections["timings"],
            counters=sections["counters"],
            obs=sections["obs"],
        )


@dataclass
class BenchWorkload:
    """The trained agent and fixed-seed session specs of one bench run."""

    agent: Any
    specs: list[SessionSpec]
    train_seconds: float
    #: The canonical user model the specs' users were built from.
    user_model: str


def bench_workload(
    dataset: Dataset,
    sessions: int = 64,
    algorithm: str = "aa",
    epsilon: float = 0.1,
    episodes: int = 8,
    seed: RngLike = 0,
    noise: float = 0.0,
    user_model: str = "oracle",
) -> BenchWorkload:
    """Train the bench agent and build its ``sessions`` fixed-seed specs.

    The parameters mean what they mean for :func:`run_serve_bench`,
    which serves exactly these specs.  Every call with the same
    arguments trains the same agent and builds specs with the same
    session seeds and freshly built users, so the sessions can be
    replayed through any runtime or through sequential
    :func:`~repro.core.session.run_session`.
    """
    if sessions < 1:
        raise ConfigurationError(f"sessions must be >= 1, got {sessions}")
    if not 0.0 <= noise < 1.0:
        raise ConfigurationError(f"noise must be in [0, 1), got {noise}")
    user_model = canonical_user_model(user_model)
    if user_model == "oracle" and noise > 0.0:
        # Historical behaviour: --noise alone serves NoisyUser fleets.
        user_model = "noisy"
    epsilon = validate_epsilon(epsilon)
    train_rng, user_rng, session_rng = spawn_rngs(seed, 3)
    train_started = time.perf_counter()
    agent = train_agent(
        algorithm, dataset, epsilon, rng=train_rng, episodes=episodes
    )
    train_seconds = time.perf_counter() - train_started
    hidden = sample_training_utilities(dataset.dimension, sessions, rng=user_rng)
    seeds = [int(session_rng.integers(2**62)) for _ in range(sessions)]

    def session_factory(seed: int):
        """A deferred constructor, invoked inside the engine's LP cache."""
        return lambda: make_session(
            algorithm, dataset, epsilon, rng=seed, agent=agent
        )

    def make_user(index: int):
        # Oracles draw no per-user seed, keeping the user_rng stream —
        # and therefore every oracle row — bit-identical to pre-zoo runs.
        rng = (
            None
            if user_model == "oracle"
            else int(user_rng.integers(2**62))
        )
        return build_user(user_model, hidden[index], rng=rng, noise=noise)

    specs = [
        SessionSpec(
            factory=session_factory(seeds[i]),
            user=make_user(i),
            seed=seeds[i],
            tags={"user_model": user_model, "session_id": f"bench-{i}"},
        )
        for i in range(sessions)
    ]
    return BenchWorkload(
        agent=agent,
        specs=specs,
        train_seconds=train_seconds,
        user_model=user_model,
    )


def run_serve_bench(
    dataset: Dataset,
    sessions: int = 64,
    algorithm: str = "aa",
    epsilon: float = 0.1,
    episodes: int = 8,
    seed: RngLike = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    noise: float = 0.0,
    recover: bool = False,
    max_in_flight: int = 64,
    procs: int = 0,
    user_model: str = "oracle",
) -> ServeBenchReport:
    """Train one agent, serve ``sessions`` concurrent users, measure.

    Parameters
    ----------
    dataset:
        The (skyline-preprocessed) dataset to search.
    sessions:
        Number of concurrent simulated users.
    algorithm:
        ``"ea"`` or ``"aa"`` (registry names; display aliases accepted).
    epsilon:
        Regret-ratio threshold served to every user.
    episodes:
        Training episodes for the shared agent — kept small by default;
        the bench measures serving, not learning.
    seed:
        Master seed; training, hidden users and per-session streams are
        spawned independently from it.
    max_rounds:
        Per-session safety cap.
    noise:
        Error rate of the simulated users: 0 (default) serves truthful
        :class:`~repro.users.OracleUser` instances, anything greater
        serves :class:`~repro.users.NoisyUser` fleets whose mistakes can
        drive individual sessions into failure.
    recover:
        Retry :class:`~repro.errors.EmptyRegionError` failures once
        under majority voting (the rule in :mod:`repro.core.robust`).
    max_in_flight:
        Admission cap of the engine (per worker with ``procs``).
    procs:
        ``0`` (default) serves in-process through one
        :class:`~repro.serve.scheduler.ContinuousEngine`; ``> 0``
        serves through a :class:`~repro.serve.dispatch.ShardedDispatcher`
        with this many worker processes (each running its own engine
        at ``max_in_flight``), and the report's engine reads
        ``"dispatch"``.  Per-worker tracer reports are collected and
        merged into the snapshot's ``obs`` section.
    user_model:
        Which :func:`repro.users.make_user` model answers the
        questions (``oracle``, ``noisy``, ``persona``, ``fatigue``,
        ``drifting``, ``abstaining``).  ``oracle`` with ``noise > 0``
        upgrades to ``noisy``, preserving the historical behaviour;
        ``noise`` feeds each model's headline error knob.
    """
    if procs < 0:
        raise ConfigurationError(f"procs must be >= 0, got {procs}")
    workload = bench_workload(
        dataset,
        sessions=sessions,
        algorithm=algorithm,
        epsilon=epsilon,
        episodes=episodes,
        seed=seed,
        noise=noise,
        user_model=user_model,
    )
    worker_obs: list[dict] = []
    if procs > 0:
        with ShardedDispatcher(
            procs=procs,
            max_rounds=max_rounds,
            max_in_flight=max_in_flight,
            recover=recover,
            agents={algorithm: workload.agent},
            dataset=dataset,
            collect_obs=True,
        ) as dispatcher:
            for spec in workload.specs:
                dispatcher.submit(spec)
            results = dispatcher.drain()
            metrics = dispatcher.last_metrics
            worker_obs = list(dispatcher.worker_reports)
    else:
        with ContinuousEngine(
            max_rounds=max_rounds,
            recover=recover,
            max_in_flight=max_in_flight,
        ) as served:
            results = served.run(workload.specs)
            metrics = served.last_metrics
    if metrics is None:
        raise ConfigurationError("engine.run() did not populate last_metrics")
    return ServeBenchReport(
        algorithm=algorithm,
        dataset=dataset.name,
        sessions=sessions,
        epsilon=validate_epsilon(epsilon),
        train_seconds=workload.train_seconds,
        metrics=metrics,
        results=results,
        noise=noise,
        max_rounds=max_rounds,
        procs=procs,
        user_model=workload.user_model,
        worker_obs=worker_obs,
    )

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``      Describe a dataset (built-in name or CSV file): size,
              dimensionality, skyline fraction.
``train``     Train an EA or AA agent on a dataset and save it to disk.
``search``    Load a trained agent and answer one simulated query,
              printing the transcript (or run interactively with
              ``--interactive``).
``compare``   Run the method comparison of the paper's evaluation on a
              dataset and print the table.
``serve-bench``  Drive many concurrent simulated users through one
              trained agent and report throughput, LP cache hit rate
              and batch occupancy.  Sessions are served in-process by
              the continuous-batching engine (a bounded in-flight set,
              ``--max-in-flight``) or, with ``--procs N``, by ``N``
              worker processes; per-session results are identical to
              sequential ``run_session`` either way.  ``--snapshot``
              additionally writes a versioned ``BENCH_*.json`` perf
              snapshot.  With ``--http`` the benchmark instead drives
              real HTTP sessions through :mod:`repro.server` and
              reports request-latency percentiles
              (``BENCH_serve_http.json``).
``robustness``  Run the robustness matrix: every requested algorithm
              family against every user model in the zoo
              (:mod:`repro.users.models`) over shared hidden utilities,
              reporting rounds, regret, failure rate, retries and
              abstentions per cell, and optionally writing a versioned
              ``BENCH_robustness.json`` (``--out``).  All counters are
              seed-deterministic; CI gates them exactly.
``server``    Run the HTTP session service: ``POST /sessions``,
              ``GET /sessions/{id}/question``, ``POST .../answer``,
              ``GET .../recommendation``.  ``--store DIR`` checkpoints
              every interactive session after each answer so a crashed
              dialogue resumes bit-identically; ``--agent`` loads
              trained EA/AA agents so RL families can be served.
``profile``   Run the serve-bench workload under a
              :class:`~repro.obs.tracer.Tracer` and export a Chrome
              ``trace_event`` file (plus an optional aggregate JSON):
              per-tick Q-scoring, LP solves split by kind and cache
              hit/miss, and range clip/rebuild breakdowns.

Examples
--------
::

    python -m repro info car
    python -m repro train --algorithm EA --dataset car --out car_ea.npz
    python -m repro search car_ea.npz --seed 7
    python -m repro compare --dataset anti:2000:3 --epsilon 0.1
    python -m repro serve-bench --dataset anti:2000:3 --sessions 64
    python -m repro serve-bench --dataset anti:2000:3 --sessions 1024 \
        --max-in-flight 64
    python -m repro serve-bench --dataset anti:2000:3 --http \
        --sessions 64 --mode oracle
    python -m repro robustness --dataset anti:500:3 --seeds 4 \
        --out benchmarks/
    python -m repro server --dataset anti:1000:4 --port 8080 --store runs/
    python -m repro profile --dataset anti:500:3 --out trace.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core import run_session
from repro.data import load_car, load_player, synthetic_dataset
from repro.data.io import load_csv
from repro.data.summary import summarize
from repro.data.utility import sample_training_utilities
from repro.errors import ReproError
from repro.eval.experiments import (
    RESULT_HEADERS,
    applicable_methods,
    compare_methods,
    current_scale,
)
from repro.eval.reporting import format_table
from repro.geometry.vectors import regret_ratio
from repro.obs.export import (
    summary_lines,
    write_aggregate,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.registry import train_agent
from repro.rl.serialization import load_agent, save_agent
from repro.serve import run_serve_bench
from repro.users import OracleUser, user_model_names


def _resolve_dataset(spec: str):
    """Dataset from a spec: ``car``, ``player``, ``anti:N:D`` or a CSV path."""
    if spec == "car":
        return load_car()
    if spec == "player":
        return load_player()
    for kind in ("anti", "corr", "indep"):
        if spec.startswith(f"{kind}:"):
            parts = spec.split(":")
            if len(parts) != 3:
                raise ReproError(
                    f"synthetic spec must be {kind}:N:D, got {spec!r}"
                )
            return synthetic_dataset(kind, int(parts[1]), int(parts[2]), rng=0)
    path = Path(spec)
    if path.exists():
        return load_csv(path)
    raise ReproError(
        f"unknown dataset {spec!r}: expected car, player, "
        f"anti:N:D / corr:N:D / indep:N:D, or a CSV path"
    )


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args.dataset)
    summary = summarize(dataset)
    for line in summary.lines():
        print(line)
    print(f"attribute names: {', '.join(dataset.attribute_names)}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args.dataset)
    utilities = sample_training_utilities(
        dataset.dimension, args.episodes, rng=args.seed
    )
    print(
        f"training {args.algorithm} on {dataset.name} "
        f"({args.episodes} episodes, eps={args.epsilon}) ..."
    )
    agent = train_agent(
        args.algorithm, dataset, args.epsilon,
        rng=args.seed + 1, utilities=utilities,
        updates_per_episode=args.updates,
    )
    written = save_agent(agent, args.out)
    log = agent.training_log
    print(
        f"done: mean rounds over last 20 episodes = {log.mean_rounds(20):.1f}; "
        f"saved to {written}"
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    agent = load_agent(args.agent)
    dataset = agent.dataset
    session = agent.new_session(rng=args.seed)
    if args.interactive:
        while not session.finished:
            question = session.next_question()
            print(f"\n[1] {_describe(dataset, question.index_i)}")
            print(f"[2] {_describe(dataset, question.index_j)}")
            reply = ""
            while reply not in ("1", "2"):
                reply = input("prefer which? [1/2] ").strip()
            session.observe(reply == "1")
    else:
        rng = np.random.default_rng(args.seed)
        hidden = rng.dirichlet(np.ones(dataset.dimension))
        user = OracleUser(hidden)
        result = run_session(session, user)
        regret = regret_ratio(dataset.points, result.recommendation, hidden)
        print(
            f"simulated user answered {result.rounds} questions; "
            f"regret ratio {regret:.4f}"
        )
    index = session.recommend()
    print(f"recommended: {_describe(dataset, index)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args.dataset)
    methods = applicable_methods(dataset.dimension)
    if args.methods:
        methods = tuple(args.methods)
    print(
        f"comparing {', '.join(methods)} on {dataset.name} "
        f"(eps={args.epsilon}, scale: {current_scale().label}) ..."
    )
    results = compare_methods(
        dataset, args.epsilon, methods, seed=args.seed
    )
    print(format_table(RESULT_HEADERS, [r.row() for r in results]))
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args.dataset)
    if args.http:
        return _serve_bench_http(args, dataset)
    print(
        f"serve-bench: training {args.algorithm} on {dataset.name} "
        f"({args.episodes} episodes), then serving {args.sessions} "
        f"concurrent sessions ..."
    )
    report = run_serve_bench(
        dataset,
        sessions=args.sessions,
        algorithm=args.algorithm,
        epsilon=args.epsilon,
        episodes=args.episodes,
        seed=args.seed,
        noise=args.noise,
        user_model=args.user_model,
        recover=args.recover,
        max_in_flight=args.max_in_flight,
        procs=args.procs,
    )
    for line in report.lines():
        print(line)
    if args.snapshot:
        name = "dispatch" if report.procs else "serve_bench"
        written = report.write_snapshot(args.snapshot, name=name)
        print(f"snapshot written to {written}")
    return 0


def _serve_bench_http(args: argparse.Namespace, dataset) -> int:
    from repro.server import run_http_bench, write_http_bench_snapshot

    target = (
        f"http://{args.host}:{args.port}"
        if args.host and args.port
        else "an in-process server"
    )
    print(
        f"serve-bench --http: driving {args.sessions} {args.mode} "
        f"sessions ({args.family}) against {target} ..."
    )
    report = run_http_bench(
        dataset,
        host=args.host,
        port=args.port,
        sessions=args.sessions,
        concurrency=args.concurrency,
        mode=args.mode,
        algorithm=args.family,
        epsilon=args.epsilon,
        service_kwargs={"max_in_flight": args.max_in_flight}
        if not (args.host and args.port)
        else None,
    )
    for line in report.summary_lines():
        print(line)
    for error in report.errors[:5]:
        print(f"  error: {error}")
    if args.snapshot:
        written = write_http_bench_snapshot(
            report,
            args.snapshot,
            dataset_name=dataset.name,
            algorithm=args.family,
        )
        print(f"snapshot written to {written}")
    return 0 if report.failed == 0 else 1


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.eval.robustness import run_robustness_matrix

    dataset = _resolve_dataset(args.dataset)
    print(
        f"robustness: {len(args.families)} families x "
        f"{len(args.user_models)} user models x {args.seeds} seeds "
        f"on {dataset.name} ..."
    )
    report = run_robustness_matrix(
        dataset,
        families=tuple(args.families),
        user_models=tuple(args.user_models),
        seeds=args.seeds,
        epsilon=args.epsilon,
        noise=args.noise,
        max_rounds=args.max_rounds,
        seed=args.seed,
        recover=not args.no_recover,
    )
    for line in report.lines():
        print(line)
    if args.out:
        written = report.write_snapshot(args.out)
        print(f"snapshot written to {written}")
    return 0


def _cmd_server(args: argparse.Namespace) -> int:
    from repro.persist import FileSessionStore
    from repro.server import SessionService, run_server

    dataset = _resolve_dataset(args.dataset)
    agents: dict[str, object] = {}
    agent_refs: dict[str, str] = {}
    for path in args.agent or ():
        agent = load_agent(path)
        family = agent.family
        if agent.dataset.dimension != dataset.dimension:
            raise ReproError(
                f"agent {path} was trained on a {agent.dataset.dimension}-d "
                f"dataset but the server dataset is {dataset.dimension}-d"
            )
        agents[family] = agent
        agent_refs[family] = str(path)
        print(f"loaded {family} agent from {path}")
    store = FileSessionStore(args.store) if args.store else None
    if store is not None:
        print(f"checkpointing sessions under {args.store}")
    runtime = None
    if args.procs > 0:
        from repro.serve import ShardedDispatcher

        runtime = ShardedDispatcher(
            procs=args.procs,
            max_rounds=args.max_rounds,
            max_in_flight=args.max_in_flight,
            store=store,
            agents=agents,
            dataset=dataset,
        )
        print(f"oracle sessions sharded across {args.procs} worker processes")
    service = SessionService(
        dataset,
        agents=agents,
        agent_refs=agent_refs,
        store=store,
        epsilon=args.epsilon,
        max_rounds=args.max_rounds,
        max_in_flight=args.max_in_flight,
        runtime=runtime,
    )
    print(
        f"session service over {dataset.name} "
        f"({len(dataset.points)} points, {dataset.dimension}-d)"
    )
    run_server(service, args.host, args.port)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args.dataset)
    print(
        f"profile: tracing {args.algorithm} train + serve on {dataset.name} "
        f"({args.episodes} episodes, {args.sessions} sessions) ..."
    )
    tracer = Tracer()
    with use_tracer(tracer):
        report = run_serve_bench(
            dataset,
            sessions=args.sessions,
            algorithm=args.algorithm,
            epsilon=args.epsilon,
            episodes=args.episodes,
            seed=args.seed,
        )
        for line in report.lines():
            print(line)
        if args.snapshot:
            written = report.write_snapshot(args.snapshot, name="profile")
            print(f"snapshot written to {written}")
    print()
    for line in summary_lines(tracer):
        print(line)
    trace_path = write_chrome_trace(tracer, args.out)
    print(
        f"chrome trace written to {trace_path} "
        "(load in chrome://tracing or ui.perfetto.dev)"
    )
    if args.aggregate:
        aggregate_path = write_aggregate(tracer, args.aggregate)
        print(f"aggregate report written to {aggregate_path}")
    return 0


def _describe(dataset, index: int) -> str:
    values = dataset.points[index]
    parts = [
        f"{name}={value:.2f}"
        for name, value in zip(dataset.attribute_names, values)
    ]
    return f"#{index} ({', '.join(parts)})"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interactive regret queries with reinforcement learning",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="describe a dataset")
    info.add_argument("dataset")
    info.set_defaults(handler=_cmd_info)

    train = commands.add_parser("train", help="train and save an agent")
    train.add_argument("--algorithm", choices=("EA", "AA"), default="EA")
    train.add_argument("--dataset", required=True)
    train.add_argument("--epsilon", type=float, default=0.1)
    train.add_argument("--episodes", type=int, default=60)
    train.add_argument("--updates", type=int, default=6)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)
    train.set_defaults(handler=_cmd_train)

    search = commands.add_parser("search", help="run one query session")
    search.add_argument("agent", help="path to a saved agent (.npz)")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--interactive", action="store_true")
    search.set_defaults(handler=_cmd_search)

    compare = commands.add_parser("compare", help="compare methods")
    compare.add_argument("--dataset", required=True)
    compare.add_argument("--epsilon", type=float, default=0.1)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--methods", nargs="*", default=None)
    compare.set_defaults(handler=_cmd_compare)

    serve = commands.add_parser(
        "serve-bench", help="benchmark many concurrent sessions"
    )
    serve.add_argument("--dataset", required=True)
    serve.add_argument("--sessions", type=int, default=64)
    serve.add_argument("--algorithm", choices=("EA", "AA"), default="AA")
    serve.add_argument("--epsilon", type=float, default=0.1)
    serve.add_argument("--episodes", type=int, default=8)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--noise",
        type=float,
        default=0.0,
        help="serve NoisyUser fleets with this error rate (default 0: truthful)",
    )
    serve.add_argument(
        "--user-model",
        choices=user_model_names(),
        default="oracle",
        help="user model answering the questions (default oracle; "
        "--noise > 0 upgrades oracle to noisy)",
    )
    serve.add_argument(
        "--recover",
        action="store_true",
        help="retry EmptyRegionError sessions once under majority voting",
    )
    serve.add_argument(
        "--procs",
        type=int,
        default=0,
        help="serve through a ShardedDispatcher with this many worker "
        "processes (default 0: single process)",
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=64,
        help="max sessions live at once, per worker with --procs "
        "(default 64)",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        help="write a BENCH_*.json perf snapshot (directory or .json path)",
    )
    serve.add_argument(
        "--http",
        action="store_true",
        help="benchmark over real HTTP via repro.server instead of "
        "in-process engines; reports latency percentiles",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=16,
        help="--http: concurrent client sessions (default 16)",
    )
    serve.add_argument(
        "--mode",
        choices=("interactive", "oracle"),
        default="interactive",
        help="--http: client-driven dialogue or scheduler-side oracle "
        "sessions (default interactive)",
    )
    serve.add_argument(
        "--family",
        default="uh-random",
        help="--http: session family served (default uh-random; RL "
        "families need an external --host/--port server with agents)",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="--http: target an already-running server (with --port)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="--http: target server port (with --host)",
    )
    serve.set_defaults(handler=_cmd_serve_bench)

    robustness = commands.add_parser(
        "robustness",
        help="run the family x user-model robustness matrix",
    )
    robustness.add_argument("--dataset", required=True)
    robustness.add_argument(
        "--families",
        nargs="*",
        default=["uh-random", "uh-simplex"],
        help="algorithm families (registry names; RL families train a "
        "small agent first). Default: uh-random uh-simplex",
    )
    robustness.add_argument(
        "--user-models",
        nargs="*",
        default=list(user_model_names()),
        help=f"user-model columns (default: all of "
        f"{', '.join(user_model_names())})",
    )
    robustness.add_argument(
        "--seeds",
        type=int,
        default=4,
        help="sessions per cell (default 4); hidden utilities and "
        "session seeds are shared across columns",
    )
    robustness.add_argument("--epsilon", type=float, default=0.1)
    robustness.add_argument(
        "--noise",
        type=float,
        default=0.1,
        help="headline error knob fed to every model that has one "
        "(default 0.1)",
    )
    robustness.add_argument("--max-rounds", type=int, default=1000)
    robustness.add_argument("--seed", type=int, default=0)
    robustness.add_argument(
        "--no-recover",
        action="store_true",
        help="disable EmptyRegionError recovery retries",
    )
    robustness.add_argument(
        "--out",
        default=None,
        help="write BENCH_robustness.json (directory or .json path)",
    )
    robustness.set_defaults(handler=_cmd_robustness)

    server = commands.add_parser(
        "server", help="run the HTTP session service"
    )
    server.add_argument("--dataset", required=True)
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=8000)
    server.add_argument("--epsilon", type=float, default=0.1)
    server.add_argument(
        "--agent",
        action="append",
        default=None,
        help="trained agent npz to serve RL families (repeatable; the "
        "family is inferred from the file)",
    )
    server.add_argument(
        "--store",
        default=None,
        help="directory for per-answer session checkpoints (enables "
        'crash-resume via POST /sessions {"resume": id})',
    )
    server.add_argument("--max-rounds", type=int, default=128)
    server.add_argument(
        "--max-in-flight",
        type=int,
        default=64,
        help="oracle-mode scheduler: max sessions live at once",
    )
    server.add_argument(
        "--procs",
        type=int,
        default=0,
        help="oracle-mode scheduler: shard sessions across this many "
        "worker processes (default 0: in-process ContinuousEngine)",
    )
    server.set_defaults(handler=_cmd_server)

    profile = commands.add_parser(
        "profile", help="trace the serve workload and export a Chrome trace"
    )
    profile.add_argument("--dataset", required=True)
    profile.add_argument("--sessions", type=int, default=8)
    profile.add_argument("--algorithm", choices=("EA", "AA"), default="EA")
    profile.add_argument("--epsilon", type=float, default=0.1)
    profile.add_argument("--episodes", type=int, default=4)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace_event output path (default: trace.json)",
    )
    profile.add_argument(
        "--aggregate",
        default=None,
        help="also write the aggregate span report as JSON",
    )
    profile.add_argument(
        "--snapshot",
        default=None,
        help="also write a BENCH_profile.json perf snapshot",
    )
    profile.set_defaults(handler=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""CI smoke + equivalence gate for the multi-process dispatcher.

Serves the same fixed-seed workload twice — once through a
single-process ``ContinuousEngine``, once through
``ShardedDispatcher(procs=N)`` — and asserts:

* **zero failures** in the dispatched run;
* **zero per-session mismatches**: ``(recommendation index, rounds,
  truncated, status)`` and the recommended point must be bit-identical
  session by session (the dispatcher's determinism contract);
* per-worker observability made it home (one tracer report per worker
  that served sessions).

The result is written as a versioned ``BENCH_dispatch.json`` snapshot
(config, merged counters, wall timings, merged worker span report) —
the artifact the ISSUE's throughput acceptance reads.  Wall-clock is
recorded, never gated here: on a single-core runner the dispatcher
*cannot* beat one process (fork + pipe overhead with no parallel CPU to
spend it on), and pretending otherwise would gate CI on hardware.

Run the CI shape (2 workers x 64 sessions)::

    PYTHONPATH=src python benchmarks/dispatch_smoke.py

or the acceptance shape::

    PYTHONPATH=src python benchmarks/dispatch_smoke.py \
        --procs 4 --sessions 4096 --out BENCH_dispatch.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DATASET = ("anti", 300, 3)
SEED = 0
EPISODES = 4
EPSILON = 0.2
MAX_ROUNDS = 30
ALGORITHM = "ea"


def _outcome(result):
    return (
        result.recommendation_index,
        result.rounds,
        result.truncated,
        result.status,
    )


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    from repro.data import synthetic_dataset
    from repro.serve import run_serve_bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--sessions", type=int, default=64)
    parser.add_argument(
        "--out",
        default=None,
        help="also write a BENCH_dispatch.json snapshot here "
        "(directory or .json path)",
    )
    args = parser.parse_args(argv)

    dataset = synthetic_dataset(*DATASET, rng=SEED)
    common = dict(
        sessions=args.sessions,
        algorithm=ALGORITHM,
        epsilon=EPSILON,
        episodes=EPISODES,
        seed=SEED,
        max_rounds=MAX_ROUNDS,
    )
    single = run_serve_bench(dataset, **common)
    dispatched = run_serve_bench(dataset, procs=args.procs, **common)

    mismatches = 0
    for ours, ref in zip(dispatched.results, single.results):
        if _outcome(ours) != _outcome(ref) or not np.array_equal(
            ours.recommendation, ref.recommendation
        ):
            mismatches += 1

    for line in dispatched.lines():
        print(line)
    speedup = (
        single.metrics.wall_seconds / dispatched.metrics.wall_seconds
        if dispatched.metrics.wall_seconds > 0
        else 0.0
    )
    print(
        f"single-process wall: {single.metrics.wall_seconds:.2f}s, "
        f"dispatch x{args.procs} wall: "
        f"{dispatched.metrics.wall_seconds:.2f}s "
        f"(speedup {speedup:.2f}x)"
    )
    print(
        f"equivalence: {mismatches} mismatches over "
        f"{args.sessions} sessions; "
        f"failures: {dispatched.metrics.failed}; "
        f"worker reports: {len(dispatched.worker_obs)}"
    )

    if args.out:
        sections = dispatched.snapshot_sections()
        sections["counters"]["dispatch_mismatches"] = mismatches
        sections["timings"]["single_wall_seconds"] = (
            single.metrics.wall_seconds
        )
        sections["timings"]["dispatch_speedup"] = speedup
        from repro.obs.snapshot import write_snapshot

        written = write_snapshot(
            args.out,
            "dispatch",
            config=sections["config"],
            timings=sections["timings"],
            counters=sections["counters"],
            obs=sections["obs"],
            notes=(
                "dispatch smoke: ShardedDispatcher vs single-process "
                "ContinuousEngine on the same fixed-seed workload"
            ),
        )
        print(f"snapshot written to {written}")

    failures: list[str] = []
    if mismatches:
        failures.append(
            f"{mismatches} sessions diverged from the single-process run"
        )
    if dispatched.metrics.failed:
        failures.append(f"{dispatched.metrics.failed} sessions failed")
    if dispatched.metrics.completed + dispatched.metrics.truncated != (
        args.sessions
    ):
        failures.append(
            f"expected {args.sessions} served sessions, got "
            f"{dispatched.metrics.completed + dispatched.metrics.truncated}"
        )
    if not dispatched.worker_obs:
        failures.append("no per-worker tracer reports came home")
    if failures:
        print("dispatch smoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("dispatch smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

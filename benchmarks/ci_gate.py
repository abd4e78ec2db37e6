"""CI performance-regression gate over BENCH snapshots.

Two subcommands, wired into ``.github/workflows/ci.yml``, each taking
``--suite {ci,robustness}``:

``run``
    Execute the gate workloads and write the result as a versioned
    ``BENCH_ci.json`` snapshot (see :mod:`repro.obs.snapshot`):

    * a small, fixed-seed EA serve-bench (traced, so the snapshot
      carries span aggregates);
    * the clip-vs-rebuild micro-geometry comparison;
    * the batched-LP comparison — 256 concurrent sessions' stacked
      ambient-bounds probes solved per-probe and block-diagonally
      (``batch_mismatches`` must be 0, ``batch_speedup`` is
      ratio-gated);
    * the continuous-scheduler workload — ``serve-bench`` at 1024
      concurrent sessions — recording its batch occupancy *and*
      replaying the identical specs through sequential ``run_session``
      (the scalar reference) to count per-session result mismatches
      (the engine's equivalence guarantee);
    * the dispatch workload — 256 sessions served through
      ``ShardedDispatcher(procs=2)`` and replayed single-process —
      counting per-session mismatches and failures (both must be 0:
      forking and sharding must never perturb a transcript), served
      sessions (must equal the session count) and the workers whose
      tracer reports came home (at least one);
    * the AA workload — 16 fixed-seed AA sessions on 6-d data served
      through one ``ContinuousEngine`` and replayed through sequential
      ``run_session`` — counting rounds, cache-routed LP solves, cache
      hits, raw HiGHS runs (the ``lp.solve_count()`` delta) and
      per-session mismatches (must be 0).

``check``
    Compare a freshly produced snapshot against the committed baseline
    ``benchmarks/baselines/ci.json``.  Deterministic counters (LP cache
    hit rate, range clip rate, rounds, ticks, occupancy, equivalence
    mismatches, the AA workload's LP counts) must match the baseline
    *exactly* — a fixed seed makes them machine-independent, so any
    drift is a behaviour change, not noise.  Absolute gates ride on top: continuous
    occupancy must stay above :data:`OCCUPANCY_FLOOR`; the equivalence,
    batch, dispatch and AA mismatch counts and the dispatch failures
    must be zero; every dispatched session must be served (completed or
    truncated); and at least one dispatch worker must report its
    tracer spans.  Wall-clock timings are only
    ratio-gated: a tick-latency or end-to-end slowdown beyond
    ``--max-slowdown`` (default 2.0x) fails, as does the incremental
    clip path losing more than half of its speedup over from-scratch
    re-enumeration.

The ``robustness`` suite (:data:`ROBUSTNESS_CONFIG`) runs the small
family x user-model matrix of :mod:`repro.eval.robustness` — 2
training-free families x 4 user models x 4 seeds — and gates **every**
integer counter (rounds, completed, truncated, failed, recovered,
retries, abstentions, mistakes, per cell and in total) exactly against
``benchmarks/baselines/robustness.json``.  The matrix is fully
seed-deterministic, so any counter drift is a behaviour change in the
session loop, the recovery rule or the user zoo.

Refreshing a baseline after an intentional perf/behaviour change::

    PYTHONPATH=src python benchmarks/ci_gate.py run \
        --out benchmarks/baselines/ci.json
    PYTHONPATH=src python benchmarks/ci_gate.py run --suite robustness \
        --out benchmarks/baselines/robustness.json

The small workloads finish in seconds; the 1024-session continuous
workload dominates at about a minute of serving on CI hardware.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

#: Workload parameters; changing any of these requires a baseline refresh.
GATE_CONFIG = {
    "algorithm": "ea",
    "answers": 8,
    "dataset": "anti:300:3",
    "dimension": 4,
    "episodes": 2,
    "epsilon": 0.1,
    "micro_repeats": 3,
    "seed": 0,
    "sessions": 6,
}

#: The continuous-scheduler workload: 1024 concurrent sessions served
#: through ``ContinuousEngine``, then replayed through sequential
#: ``run_session`` for the per-session equivalence count.
#: ``max_in_flight=32`` keeps the tail (the last in-flight cohort
#: draining with no queue behind it) a small fraction of total ticks,
#: so steady-state occupancy clears the floor with margin.
CONTINUOUS_CONFIG = {
    "algorithm": "ea",
    "dataset": "anti:200:3",
    "episodes": 4,
    "epsilon": 0.2,
    "max_in_flight": 32,
    "max_rounds": 30,
    "seed": 0,
    "sessions": 1024,
}

#: Minimum batch occupancy the continuous engine must sustain on the
#: 1024-session workload (an absolute gate, not baseline-relative).
OCCUPANCY_FLOOR = 0.9

#: The multi-process dispatcher workload: the same fixed-seed spec set
#: served through ``ShardedDispatcher(procs=2)`` and through one
#: ``ContinuousEngine``, compared session by session.  Mismatches and
#: failures are absolute zero-gates, every session must be served and
#: at least one worker must report its spans; the dispatch wall clock
#: is only ratio-gated (a single-core runner cannot show a speedup).
DISPATCH_CONFIG = {
    "algorithm": "ea",
    "dataset": "anti:200:3",
    "episodes": 4,
    "epsilon": 0.2,
    "max_in_flight": 32,
    "max_rounds": 30,
    "procs": 2,
    "seed": 0,
    "sessions": 256,
}

#: The batched-LP workload: the stacked ambient-bounds probes of 256
#: concurrent sessions (``2d`` probes each), solved once per probe and
#: once block-diagonally via ``lp.solve_stacked``.  The
#: optimal values must agree bitwise probe by probe
#: (``batch_mismatches == 0``); the wall-clock ratio is the
#: ``batch_speedup`` gate.
BATCH_CONFIG = {
    "answers": 10,
    "base_sets": 16,
    "dimension": 5,
    "repeats": 2,
    "seed": 6,
    "sessions": 256,
}

#: The AA workload: 16 fixed-seed AA sessions on 6-d data, served
#: through one ``ContinuousEngine`` and replayed through sequential
#: ``run_session``.  It is the gate's only AA traffic, so its exact LP
#: counters pin the ambient LP layer (inner sphere, outer rectangle,
#: split-margin probes and the engine's stacked prefetch).
AA_CONFIG = {
    "algorithm": "aa",
    "dataset": "anti:500:6",
    "episodes": 2,
    "epsilon": 0.1,
    "max_in_flight": 8,
    "max_rounds": 100,
    "seed": 0,
    "sessions": 16,
}

#: The robustness-matrix workload (``--suite robustness``): the two
#: training-free baseline families against four user models from the
#: zoo, four sessions per cell.  Every counter in the snapshot is an
#: integer derived from seed-deterministic session transcripts, so the
#: check gates the *whole* counters section exactly.
ROBUSTNESS_CONFIG = {
    "dataset": "anti:300:3",
    "families": ["uh-random", "uh-simplex"],
    "user_models": ["oracle", "noisy", "drifting", "abstaining"],
    "seeds": 4,
    "epsilon": 0.1,
    "noise": 0.1,
    "max_rounds": 100,
    "seed": 0,
}

#: Counters compared exactly against the baseline (seed-deterministic).
EXACT_COUNTERS = (
    "lp_hit_rate",
    "range_clip_rate",
    "rounds_total",
    "ticks",
    "lp_solves",
    "range_clips",
    "range_rebuilds",
    "continuous_occupancy",
    "continuous_rounds_total",
    "continuous_ticks",
    "equiv_mismatches",
    "batch_mismatches",
    "dispatch_mismatches",
    "dispatch_failed",
    "dispatch_rounds_total",
    "aa_rounds_total",
    "aa_lp_solves",
    "aa_lp_cache_hits",
    "aa_raw_solves",
    "aa_mismatches",
)

#: Best-of timing ratios gated against ``baseline / max_slowdown``
#: (candidate speedups may lose at most half their margin by default).
SPEEDUP_FLOORS = (
    "clip_speedup",
    "batch_speedup",
)

#: Timings gated by ratio only (candidate may be up to ``max_slowdown``
#: times the baseline).
RATIO_TIMINGS = (
    "tick_latency_seconds",
    "wall_seconds",
    "continuous_wall_seconds",
    "dispatch_wall_seconds",
    "aa_wall_seconds",
)


def _micro_clip_vs_rebuild(d: int, answers: int, repeats: int) -> dict:
    """Best-of-``repeats`` seconds for incremental clips vs full rebuilds."""
    import numpy as np

    from repro.errors import EmptyRegionError
    from repro.geometry.hyperplane import preference_halfspace
    from repro.geometry.range import ExactRange

    rng = np.random.default_rng(4)
    spaces = []
    while len(spaces) < answers:
        a, b = rng.uniform(0.05, 1.0, size=(2, d))
        if np.allclose(a, b):
            continue
        halfspace = preference_halfspace(a, b)
        try:
            ExactRange.from_halfspaces(d, spaces + [halfspace])
        except EmptyRegionError:
            continue
        spaces.append(halfspace)

    def clip_session() -> None:
        urange = ExactRange(d)
        for halfspace in spaces:
            urange.update(halfspace)
            urange.vertices()

    def rebuild_session() -> None:
        # Per answer: one emptiness LP and one full enumeration.
        for count in range(1, len(spaces) + 1):
            ExactRange.from_halfspaces(d, spaces[:count]).vertices()

    def best_of(work) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - started)
        return best

    clip_seconds = best_of(clip_session)
    rebuild_seconds = best_of(rebuild_session)
    return {
        "clip_seconds": clip_seconds,
        "rebuild_seconds": rebuild_seconds,
        "clip_speedup": (
            rebuild_seconds / clip_seconds if clip_seconds > 0 else 0.0
        ),
    }


def _micro_batched_bounds(repeats: int) -> tuple[dict, dict]:
    """Counters/timings for the batched-LP workload (:data:`BATCH_CONFIG`).

    Builds the ambient-bounds probe stack of 256 concurrent sessions
    and solves it twice — one HiGHS call per probe, then block-
    diagonally through ``lp.solve_stacked`` — counting
    probes whose optimal value (or status) is not bitwise identical.
    Bound probes are value-consumed, so value bit-equality is the
    contract the serving engines rely on; the optimiser point may
    legitimately differ on degenerate systems (alternative optima).
    """
    import numpy as np

    from repro.geometry import lp
    from repro.geometry.hyperplane import preference_halfspace

    cfg = BATCH_CONFIG
    d = cfg["dimension"]
    rng = np.random.default_rng(cfg["seed"])
    base_sets: list[list] = []
    while len(base_sets) < cfg["base_sets"]:
        spaces: list = []
        while len(spaces) < cfg["answers"]:
            a, b = rng.uniform(0.05, 1.0, size=(2, d))
            if np.allclose(a, b):
                continue
            trial = spaces + [preference_halfspace(a, b)]
            if lp.ambient_is_feasible(trial, d):
                spaces = trial
        base_sets.append(spaces)
    systems: list = []
    for i in range(cfg["sessions"]):
        systems.extend(
            lp.ambient_bounds_systems(base_sets[i % len(base_sets)], d)
        )
    def sequential() -> list:
        return [lp.solve_raw(s) for s in systems]

    def batched() -> list:
        return lp.solve_stacked(systems)

    def best_of(work):
        best, result = float("inf"), None
        for _ in range(repeats):
            started = time.perf_counter()
            result = work()
            best = min(best, time.perf_counter() - started)
        return best, result

    seq_seconds, seq_results = best_of(sequential)
    stack_seconds, stack_results = best_of(batched)
    mismatches = 0
    for ours, ref in zip(stack_results, seq_results):
        ours_ok = isinstance(ours, lp.LPResult)
        ref_ok = isinstance(ref, lp.LPResult)
        if ours_ok != ref_ok or (ours_ok and ours.value != ref.value):
            mismatches += 1
    counters = {
        "batch_mismatches": mismatches,
        "batch_probes": len(systems),
    }
    timings = {
        "batch_seq_seconds": seq_seconds,
        "batch_stack_seconds": stack_seconds,
        "batch_speedup": (
            seq_seconds / stack_seconds if stack_seconds > 0 else 0.0
        ),
    }
    return counters, timings


def _mismatches(served: list, reference: list) -> int:
    """Sessions whose outcome differs between two equal-length runs.

    A session mismatches when its ``(recommendation index, rounds,
    truncated, status)`` or its recommended point differ; the lists are
    zipped strictly, so a short result list raises instead of passing.
    """
    import numpy as np

    return sum(
        1
        for ours, ref in zip(served, reference, strict=True)
        if (ours.recommendation_index, ours.rounds, ours.truncated, ours.status)
        != (ref.recommendation_index, ref.rounds, ref.truncated, ref.status)
        or not np.array_equal(ours.recommendation, ref.recommendation)
    )


def _continuous_gate() -> tuple[dict, dict]:
    """Counters/timings for the continuous-scheduler workload.

    Serves :data:`CONTINUOUS_CONFIG` through ``ContinuousEngine``, then
    rebuilds the identical fixed-seed spec set with
    :func:`~repro.serve.bench.bench_workload` and replays it through
    sequential ``run_session``, counting per-session outcome mismatches
    (:func:`_mismatches`).  Both the occupancy and the mismatch count
    are seed-deterministic.
    """
    from repro.cli import _resolve_dataset
    from repro.core.session import run_session
    from repro.serve import run_serve_bench
    from repro.serve.bench import bench_workload

    cfg = CONTINUOUS_CONFIG
    dataset = _resolve_dataset(cfg["dataset"])
    common = dict(
        sessions=cfg["sessions"],
        algorithm=cfg["algorithm"],
        epsilon=cfg["epsilon"],
        episodes=cfg["episodes"],
        seed=cfg["seed"],
    )
    continuous = run_serve_bench(
        dataset,
        max_rounds=cfg["max_rounds"],
        max_in_flight=cfg["max_in_flight"],
        **common,
    )
    workload = bench_workload(dataset, **common)
    started = time.perf_counter()
    sequential = [
        run_session(
            spec.build(),
            spec.user,
            max_rounds=cfg["max_rounds"],
            on_error="capture",
        )
        for spec in workload.specs
    ]
    sequential_seconds = time.perf_counter() - started
    mismatches = _mismatches(continuous.results, sequential)
    m = continuous.metrics
    counters = {
        "continuous_occupancy": round(m.occupancy, 6),
        "continuous_peak_batch": m.peak_batch,
        "continuous_rounds_total": m.rounds_total,
        "continuous_ticks": m.ticks,
        "equiv_mismatches": mismatches,
    }
    timings = {
        "continuous_wall_seconds": m.wall_seconds,
        "equiv_sequential_wall_seconds": sequential_seconds,
    }
    return counters, timings


def _dispatch_gate() -> tuple[dict, dict]:
    """Counters/timings for the multi-process dispatcher workload.

    Serves :data:`DISPATCH_CONFIG` through ``ShardedDispatcher`` and
    through a single ``ContinuousEngine``, counting per-session outcome
    mismatches (:func:`_mismatches`).  Mismatch and failure counts are
    seed-deterministic and must be zero; the dispatch wall clock is
    ratio-gated only.  For the merged worker spans as a
    ``BENCH_dispatch.json`` snapshot, run ``python -m repro serve-bench
    --procs N --snapshot``.
    """
    from repro.cli import _resolve_dataset
    from repro.serve import run_serve_bench

    cfg = DISPATCH_CONFIG
    dataset = _resolve_dataset(cfg["dataset"])
    common = dict(
        sessions=cfg["sessions"],
        algorithm=cfg["algorithm"],
        epsilon=cfg["epsilon"],
        episodes=cfg["episodes"],
        seed=cfg["seed"],
        max_rounds=cfg["max_rounds"],
        max_in_flight=cfg["max_in_flight"],
    )
    single = run_serve_bench(dataset, **common)
    dispatched = run_serve_bench(dataset, procs=cfg["procs"], **common)
    mismatches = _mismatches(dispatched.results, single.results)
    m = dispatched.metrics
    counters = {
        "dispatch_failed": m.failed,
        "dispatch_mismatches": mismatches,
        "dispatch_rounds_total": m.rounds_total,
        "dispatch_served": m.completed + m.truncated,
        "dispatch_workers_reporting": len(dispatched.worker_obs),
    }
    timings = {
        "dispatch_wall_seconds": m.wall_seconds,
    }
    return counters, timings


def _aa_gate() -> tuple[dict, dict]:
    """Counters/timings for the AA workload (:data:`AA_CONFIG`).

    Serves the fixed-seed specs through one ``ContinuousEngine``,
    counting the LP solves routed through its cache, the cache hits and
    the raw HiGHS runs (``lp.solve_count()`` before and after serving),
    then replays identically built specs through sequential
    ``run_session`` and counts per-session outcome mismatches
    (:func:`_mismatches`).
    """
    from repro.cli import _resolve_dataset
    from repro.core.session import run_session
    from repro.geometry import lp
    from repro.serve import ContinuousEngine
    from repro.serve.bench import bench_workload

    cfg = AA_CONFIG
    dataset = _resolve_dataset(cfg["dataset"])
    common = dict(
        sessions=cfg["sessions"],
        algorithm=cfg["algorithm"],
        epsilon=cfg["epsilon"],
        episodes=cfg["episodes"],
        seed=cfg["seed"],
    )
    workload = bench_workload(dataset, **common)
    before = lp.solve_count()
    with ContinuousEngine(
        max_rounds=cfg["max_rounds"], max_in_flight=cfg["max_in_flight"]
    ) as engine:
        served = engine.run(workload.specs)
        metrics = engine.last_metrics
    raw_solves = lp.solve_count() - before
    assert metrics is not None
    sequential = [
        run_session(
            spec.build(),
            spec.user,
            max_rounds=cfg["max_rounds"],
            on_error="capture",
        )
        for spec in bench_workload(dataset, **common).specs
    ]
    mismatches = _mismatches(served, sequential)
    counters = {
        "aa_lp_cache_hits": metrics.lp_cache_hits,
        "aa_lp_solves": metrics.lp_solves,
        "aa_mismatches": mismatches,
        "aa_raw_solves": raw_solves,
        "aa_rounds_total": metrics.rounds_total,
    }
    timings = {"aa_wall_seconds": metrics.wall_seconds}
    return counters, timings


def run_gate(out: Path) -> Path:
    """Run the gate workload and write the snapshot to ``out``."""
    from repro.cli import _resolve_dataset
    from repro.obs.export import aggregate_report
    from repro.obs.snapshot import write_snapshot
    from repro.obs.tracer import Tracer, use_tracer
    from repro.serve import run_serve_bench

    dataset = _resolve_dataset(GATE_CONFIG["dataset"])
    tracer = Tracer()
    with use_tracer(tracer):
        report = run_serve_bench(
            dataset,
            sessions=GATE_CONFIG["sessions"],
            algorithm=GATE_CONFIG["algorithm"],
            epsilon=GATE_CONFIG["epsilon"],
            episodes=GATE_CONFIG["episodes"],
            seed=GATE_CONFIG["seed"],
        )
        sections = report.snapshot_sections()
    micro = _micro_clip_vs_rebuild(
        GATE_CONFIG["dimension"],
        GATE_CONFIG["answers"],
        GATE_CONFIG["micro_repeats"],
    )
    batch_counters, batch_timings = _micro_batched_bounds(
        BATCH_CONFIG["repeats"]
    )
    continuous_counters, continuous_timings = _continuous_gate()
    dispatch_counters, dispatch_timings = _dispatch_gate()
    aa_counters, aa_timings = _aa_gate()
    timings = dict(sections["timings"])
    timings.update(micro)
    timings.update(batch_timings)
    timings.update(continuous_timings)
    timings.update(dispatch_timings)
    timings.update(aa_timings)
    counters = dict(sections["counters"])
    counters.update(batch_counters)
    counters.update(continuous_counters)
    counters.update(dispatch_counters)
    counters.update(aa_counters)
    return write_snapshot(
        out,
        "ci",
        config={
            **GATE_CONFIG,
            "batch": BATCH_CONFIG,
            "continuous": CONTINUOUS_CONFIG,
            "dispatch": DISPATCH_CONFIG,
            "aa": AA_CONFIG,
        },
        timings=timings,
        counters=counters,
        obs=aggregate_report(tracer),
        notes="CI perf gate; refresh via benchmarks/ci_gate.py run",
    )


def run_robustness_gate(out: Path) -> Path:
    """Run the robustness-matrix workload; write the snapshot to ``out``."""
    from repro.cli import _resolve_dataset
    from repro.eval.robustness import run_robustness_matrix

    cfg = ROBUSTNESS_CONFIG
    dataset = _resolve_dataset(cfg["dataset"])
    report = run_robustness_matrix(
        dataset,
        families=tuple(cfg["families"]),
        user_models=tuple(cfg["user_models"]),
        seeds=cfg["seeds"],
        epsilon=cfg["epsilon"],
        noise=cfg["noise"],
        max_rounds=cfg["max_rounds"],
        seed=cfg["seed"],
    )
    for line in report.lines():
        print(line)
    return report.write_snapshot(out)


def check_robustness_gate(candidate_path: Path, baseline_path: Path) -> int:
    """Gate the robustness snapshot; every counter must match exactly."""
    from repro.obs.snapshot import load_snapshot

    candidate = load_snapshot(candidate_path)
    baseline = load_snapshot(baseline_path)
    failures: list[str] = []
    if candidate.get("config") != baseline.get("config"):
        failures.append(
            "robustness config drifted from the baseline's — refresh "
            f"{baseline_path} with `benchmarks/ci_gate.py run "
            "--suite robustness`"
        )
    got_counters = candidate.get("counters", {})
    want_counters = baseline.get("counters", {})
    for key in sorted(set(got_counters) | set(want_counters)):
        got, want = got_counters.get(key), want_counters.get(key)
        status = "ok" if got == want else "FAIL"
        print(f"  [{status}] counter {key}: {got} (baseline {want})")
        if got != want:
            failures.append(
                f"counter {key} = {got} != baseline {want} "
                "(deterministic; a real behaviour change)"
            )
    if failures:
        print("\nrobustness gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nrobustness gate passed")
    return 0


def check_gate(
    candidate_path: Path, baseline_path: Path, max_slowdown: float
) -> int:
    """Gate ``candidate_path`` against ``baseline_path``; 0 when clean."""
    from repro.obs.snapshot import load_snapshot

    candidate = load_snapshot(candidate_path)
    baseline = load_snapshot(baseline_path)
    failures: list[str] = []
    if candidate.get("config") != baseline.get("config"):
        failures.append(
            "gate config drifted from the baseline's — refresh "
            f"{baseline_path} with `benchmarks/ci_gate.py run`"
        )
    got_counters = candidate.get("counters", {})
    want_counters = baseline.get("counters", {})
    for key in EXACT_COUNTERS:
        got, want = got_counters.get(key), want_counters.get(key)
        status = "ok" if got == want else "FAIL"
        print(f"  [{status}] counter {key}: {got} (baseline {want})")
        if got != want:
            failures.append(
                f"counter {key} = {got} != baseline {want} "
                "(deterministic; a real behaviour change)"
            )
    occupancy = got_counters.get("continuous_occupancy")
    if isinstance(occupancy, (int, float)):
        status = "ok" if occupancy >= OCCUPANCY_FLOOR else "FAIL"
        print(
            f"  [{status}] continuous occupancy: {occupancy:.3f} "
            f"(floor {OCCUPANCY_FLOOR:.2f})"
        )
        if occupancy < OCCUPANCY_FLOOR:
            failures.append(
                f"continuous occupancy {occupancy:.3f} fell below the "
                f"{OCCUPANCY_FLOOR:.2f} floor"
            )
    else:
        failures.append("continuous_occupancy missing from candidate")
    mismatches = got_counters.get("equiv_mismatches")
    if mismatches != 0:
        failures.append(
            f"continuous engine diverged from sequential run_session on "
            f"{mismatches} of {CONTINUOUS_CONFIG['sessions']} sessions"
        )
    batch_mismatches = got_counters.get("batch_mismatches")
    if batch_mismatches != 0:
        failures.append(
            f"batched LP solve diverged from the per-probe path on "
            f"{batch_mismatches} of {got_counters.get('batch_probes')} "
            "stacked bound probes"
        )
    dispatch_mismatches = got_counters.get("dispatch_mismatches")
    if dispatch_mismatches != 0:
        failures.append(
            f"sharded dispatcher diverged from the single-process run on "
            f"{dispatch_mismatches} of {DISPATCH_CONFIG['sessions']} sessions"
        )
    aa_mismatches = got_counters.get("aa_mismatches")
    if aa_mismatches != 0:
        failures.append(
            f"continuous engine diverged from sequential run_session on "
            f"{aa_mismatches} of {AA_CONFIG['sessions']} AA sessions"
        )
    dispatch_failed = got_counters.get("dispatch_failed")
    if dispatch_failed != 0:
        failures.append(
            f"{dispatch_failed} sessions failed under the sharded dispatcher"
        )
    dispatch_served = got_counters.get("dispatch_served")
    served_ok = dispatch_served == DISPATCH_CONFIG["sessions"]
    print(
        f"  [{'ok' if served_ok else 'FAIL'}] dispatch served: "
        f"{dispatch_served} of {DISPATCH_CONFIG['sessions']} sessions"
    )
    if not served_ok:
        failures.append(
            f"the sharded dispatcher served {dispatch_served} of "
            f"{DISPATCH_CONFIG['sessions']} sessions"
        )
    workers_reporting = got_counters.get("dispatch_workers_reporting")
    reporting_ok = isinstance(workers_reporting, int) and workers_reporting >= 1
    print(
        f"  [{'ok' if reporting_ok else 'FAIL'}] dispatch workers "
        f"reporting: {workers_reporting} (floor 1)"
    )
    if not reporting_ok:
        failures.append(
            "no dispatch worker's tracer report came home "
            f"(dispatch_workers_reporting = {workers_reporting})"
        )
    got_timings = candidate.get("timings", {})
    want_timings = baseline.get("timings", {})
    for key in RATIO_TIMINGS:
        got, want = got_timings.get(key), want_timings.get(key)
        if not isinstance(got, (int, float)) or not isinstance(
            want, (int, float)
        ):
            failures.append(f"timing {key} missing from candidate or baseline")
            continue
        limit = want * max_slowdown
        status = "ok" if got <= limit else "FAIL"
        print(
            f"  [{status}] timing {key}: {got:.4f}s "
            f"(baseline {want:.4f}s, limit {limit:.4f}s)"
        )
        if got > limit:
            failures.append(
                f"timing {key} = {got:.4f}s exceeds "
                f"{max_slowdown:.1f}x baseline ({want:.4f}s)"
            )
    for key in SPEEDUP_FLOORS:
        got_speedup = got_timings.get(key)
        want_speedup = want_timings.get(key)
        if isinstance(got_speedup, (int, float)) and isinstance(
            want_speedup, (int, float)
        ):
            floor = want_speedup / max_slowdown
            status = "ok" if got_speedup >= floor else "FAIL"
            print(
                f"  [{status}] {key}: {got_speedup:.2f}x "
                f"(baseline {want_speedup:.2f}x, floor {floor:.2f}x)"
            )
            if got_speedup < floor:
                failures.append(
                    f"{key} {got_speedup:.2f}x fell below "
                    f"{floor:.2f}x (baseline {want_speedup:.2f}x)"
                )
        else:
            failures.append(f"{key} missing from candidate or baseline")
    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: ``ci_gate.py run|check ...``."""
    parser = argparse.ArgumentParser(
        description="CI perf-regression gate over BENCH snapshots"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the gate workload")
    run.add_argument(
        "--suite",
        choices=("ci", "robustness"),
        default="ci",
        help="which gate workload to run (default ci)",
    )
    run.add_argument(
        "--out",
        default=None,
        help="snapshot output (directory or .json path; default "
        "benchmarks/BENCH_<suite>.json)",
    )
    check = commands.add_parser("check", help="compare against the baseline")
    check.add_argument(
        "--suite",
        choices=("ci", "robustness"),
        default="ci",
        help="which gate baseline to check against (default ci)",
    )
    check.add_argument("--candidate", default=None)
    check.add_argument("--baseline", default=None)
    check.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="ci suite: ratio limit for wall-clock timings (default 2.0)",
    )
    args = parser.parse_args(argv)
    suite = args.suite
    snapshot_name = "ci" if suite == "ci" else "robustness"
    if args.command == "run":
        out = Path(args.out or f"benchmarks/BENCH_{snapshot_name}.json")
        if suite == "robustness":
            written = run_robustness_gate(out)
        else:
            written = run_gate(out)
        print(f"gate snapshot written to {written}")
        return 0
    candidate = Path(
        args.candidate or f"benchmarks/BENCH_{snapshot_name}.json"
    )
    baseline = Path(
        args.baseline or f"benchmarks/baselines/{snapshot_name}.json"
    )
    if suite == "robustness":
        return check_robustness_gate(candidate, baseline)
    return check_gate(candidate, baseline, args.max_slowdown)


if __name__ == "__main__":
    sys.exit(main())

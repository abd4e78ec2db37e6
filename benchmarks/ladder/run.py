"""The ladder benchmark: four fixed-seed workloads, end to end and per layer.

Run every workload, one after another, each in fresh processes::

    python3 benchmarks/ladder/run.py --seed 0 --out BENCH_ladder.json
    python3 benchmarks/ladder/run.py --seed 0 --trace --out BENCH_trace.json

or one workload, printing its metrics as the last line of output::

    python3 benchmarks/ladder/run.py --workload ea-lowd --seed 0 \\
        --seconds 15 --trace 0

Metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root.  Without ``--trace`` a workload reports the
end-to-end metrics; with it, every batch is replayed with each layer
wrapped in a span and the per-layer metrics are reported instead.  A
run exits non-zero when a correctness check fails.

This file imports only the standard library: it measures set-up time
and peak memory of the child processes that do the work, so that
``setup_s`` and ``peak_rss_mb`` belong to one workload alone.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for stores and reports; removed after each run.
WORKDIR = ROOT / ".ladder_work"
#: Set-up runs per workload run: two set-up-only children plus the one
#: that serves.  ``setup_s`` is their median.
SETUP_RUNS = 3
#: A workload run, set-up children included, must end within this.
RUN_TIMEOUT_S = 170.0


def spec() -> dict[str, Any]:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- children ----------------------------------------------------------------


def child_main(args: argparse.Namespace) -> None:
    """Set up (and, for ``run``, serve and check) one workload; print JSON."""
    started = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    import_s = time.perf_counter() - started
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    if args.child == "setup":
        setup = workloads.Setup.build(workload, workdir)
        setup.runtime.close()
        report = {"setup": {**setup.timings, "import_s": import_s}}
    else:
        report = workloads.measure(
            workload, args.seed, args.seconds, bool(args.trace), workdir,
            import_s=import_s,
        )
    print(json.dumps(report))


def _child(
    kind: str, args: argparse.Namespace, workdir: Path, deadline: float
) -> dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", kind,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    # A session of its own, so a timeout can stop the dispatcher's
    # workers along with the child.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = process.communicate(
            timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(
            f"{args.workload}: {kind} child ran past {RUN_TIMEOUT_S:.0f}s"
        ) from None
    if process.returncode != 0:
        raise RuntimeError(
            f"{args.workload}: {kind} child exited {process.returncode}"
        )
    return json.loads(output.strip().splitlines()[-1])


# -- one workload ------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    """Measure one workload in child processes; return its full report."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        setups = (
            []
            if args.trace
            else [
                _child("setup", args, workdir, deadline)["setup"]
                for _ in range(SETUP_RUNS - 1)
            ]
        )
        report = _child("run", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Linux reports kilobytes: the largest resident set of any child,
    # dispatcher workers included.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    add_parent_metrics(
        report, setups + [report["setup"]], bool(args.trace), peak_rss_kb
    )
    return report


def add_parent_metrics(
    report: dict[str, Any],
    setups: list[dict[str, float]],
    trace: bool,
    peak_rss_kb: float,
) -> None:
    """Attach the set-up runs and, untraced, ``setup_s`` and ``peak_rss_mb``."""
    report["setup_runs"] = setups
    if not trace:
        report["metrics"]["setup_s"] = statistics.median(
            sum(parts.values()) for parts in setups
        )
        report["metrics"]["peak_rss_mb"] = peak_rss_kb / 1024


def declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit for untraced or traced runs."""
    section = spec()["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def result_line(report: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The one-line JSON result: correctness, counts and every metric."""
    units = declared(trace)
    missing = set(units) - set(report["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": not any(report["checks"].values()),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def print_report(report: dict[str, Any], trace: bool) -> None:
    units = declared(trace)
    print(f"{report['workload']} (seed {report['seed']}):")
    for name, unit in units.items():
        print(f"  {name:<48} {report['metrics'][name]:>14.6g} {unit}")
    details = report["details"]
    print(
        f"  {details['sessions']} sessions in {details['batches']} "
        f"batches, {details['questions']} questions, "
        f"{report['failed']} failed"
    )
    for check, failures in report["checks"].items():
        for failure in failures:
            print(f"  CHECK {check} FAILED: {failure}")


# -- the ladder --------------------------------------------------------------


def provenance() -> dict[str, Any]:
    """The machine and code a ladder run measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "git_head": commit,
    }


def run_ladder(args: argparse.Namespace) -> int:
    """Every workload in its own process tree; cross-checks; ``--out``."""
    reports: dict[str, dict[str, Any]] = {}
    failed = False
    WORKDIR.mkdir(exist_ok=True)
    for workload in spec()["workloads"]:
        name = workload["name"]
        with tempfile.NamedTemporaryFile(dir=WORKDIR, suffix=".json") as out:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--report", out.name,
            ]
            returncode = subprocess.run(
                command, stdout=subprocess.DEVNULL, check=False
            ).returncode
            text = Path(out.name).read_text()
        if not text:
            print(f"{name}: run failed (exit {returncode})")
            failed = True
            continue
        reports[name] = json.loads(text)
        print_report(reports[name], bool(args.trace))
        failed |= returncode != 0
    cross = {"dispatch_digest": []}
    lowd, dispatch = reports.get("ea-lowd"), reports.get("ea-dispatch")
    if lowd and dispatch:
        ours = dispatch["details"]["outcome_digest"]
        theirs = lowd["details"]["outcome_digest"]
        if ours != theirs:
            cross["dispatch_digest"].append(
                f"ea-dispatch outcomes {ours[:12]} != ea-lowd {theirs[:12]}"
            )
    for failure in cross["dispatch_digest"]:
        print(f"CHECK dispatch_digest FAILED: {failure}")
    failed |= bool(cross["dispatch_digest"])
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": bool(args.trace),
                    "machine": provenance(),
                    "workloads": reports,
                    "checks": cross,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed serving per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced replay")
    parser.add_argument("--out", help="ladder report file (all workloads)")
    parser.add_argument("--report", help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload is None:
        return run_ladder(args)
    if args.workload not in {w["name"] for w in spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    report = run_workload(args)
    if args.report:
        Path(args.report).write_text(json.dumps(report))
    print_report(report, bool(args.trace))
    line = result_line(report, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of ladder runs, metric by metric, against the bounds.

    python3 benchmarks/ladder/compare.py A1.json A2.json ... -- B1.json ...

Each file is a ladder report written by ``run.py --out``.  Side A is the
parent, side B the change; the i-th runs of the two sides form a pair,
so run them alternately.  For every workload and end-to-end metric the
table gives each side's median and quartiles, B's change against A as a
share of A's median, and the bound from ``BENCHMARK.json``.  The verdict:

* ``REGRESSION`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- a side's spread (quartile distance over median) is
  wider than the bound, unless every run of B is better than every run
  of A;
* ``gain`` -- at least ten pairs ran, B wins at least nine tenths of
  them, ties counting for neither, and the medians differ by more than
  A's quartile distance;
* ``same`` -- otherwise.

The command exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
USAGE = "usage: compare.py A.json [A.json ...] -- B.json [B.json ...]"
#: Fewer pairs than this can show a regression but never claim a gain.
MIN_PAIRS_FOR_GAIN = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    a: list[float], b: list[float], bound: float, higher_is_better: bool
) -> dict[str, Any]:
    """Compare one metric's runs; see the module docstring."""
    sign = 1.0 if higher_is_better else -1.0
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    change = (b_median - a_median) / a_median
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    b_beats_every_a = (
        min(b) > max(a) if higher_is_better else max(b) < min(a)
    )
    if -sign * change > bound:
        label = "REGRESSION"
    elif spread > bound and not b_beats_every_a:
        label = "unresolved"
    elif (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(pairs)
        and sign * (b_median - a_median) > a_q3 - a_q1
    ):
        label = "gain"
    else:
        label = "same"
    return {
        "a": (a_q1, a_median, a_q3),
        "b": (b_q1, b_median, b_q3),
        "change": change,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": label,
    }


def load(paths: list[str]) -> list[dict[str, Any]]:
    return [json.loads(Path(path).read_text()) for path in paths]


def compare(
    a_runs: list[dict[str, Any]],
    b_runs: list[dict[str, Any]],
    metrics: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """One row per workload and end-to-end metric."""
    rows = []
    workloads = sorted(
        set.intersection(*(set(run["workloads"]) for run in a_runs + b_runs))
    )
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]

            def values(runs: list[dict[str, Any]]) -> list[float]:
                return [
                    run["workloads"][workload]["metrics"][name]
                    for run in runs
                ]

            row = verdict(
                values(a_runs),
                values(b_runs),
                metric["bound"],
                metric["better"] == "higher",
            )
            rows.append(
                {"workload": workload, "metric": name,
                 "unit": metric["unit"], "bound": metric["bound"], **row}
            )
    return rows


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(USAGE, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_runs, b_runs = load(argv[:split]), load(argv[split + 1:])
    if not a_runs or not b_runs:
        print("error: each side needs at least one run", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a_runs, b_runs, spec["end_to_end"])
    header = (
        f"{'workload':<12} {'metric':<20} {'A q1/median/q3':>30} "
        f"{'B q1/median/q3':>30} {'change':>8} {'bound':>6} "
        f"{'wins':>6}  verdict"
    )
    print(header)
    for row in rows:
        a = "/".join(f"{value:.4g}" for value in row["a"])
        b = "/".join(f"{value:.4g}" for value in row["b"])
        print(
            f"{row['workload']:<12} {row['metric']:<20} {a:>30} {b:>30} "
            f"{row['change']:>+8.1%} {row['bound']:>6.0%} "
            f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
        )
    digests: dict[tuple[str, int], set[str]] = {}
    for run in a_runs + b_runs:
        for workload, report in run["workloads"].items():
            digests.setdefault((workload, run["seed"]), set()).add(
                report["details"]["outcome_digest"]
            )
    for (workload, seed), seen in sorted(digests.items()):
        state = "identical" if len(seen) == 1 else "DIFFERENT"
        print(f"first-session outcomes, {workload} seed {seed}: {state}")
    return 1 if any(row["verdict"] == "REGRESSION" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Exporters for :class:`~repro.obs.tracer.Tracer` contents.

Two formats:

* **Aggregate JSON** — per-span-name totals (calls, total seconds,
  self seconds) and counters; the machine-readable summary embedded
  in ``BENCH_*.json`` snapshots and printed by ``python -m repro
  profile``.
* **Chrome ``trace_event``** — the ``{"traceEvents": [...]}`` JSON
  consumed by ``chrome://tracing`` and https://ui.perfetto.dev: one
  complete (``"ph": "X"``) event per span, micro-second timestamps,
  span tags as ``args``.  Load the file and the per-tick Q-scoring /
  LP-solve / range-clip breakdown is visible as nested slices.

Both exporters are read-only over the tracer and sort keys, so output
is stable and diffs are reviewable.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.obs.tracer import SpanNode, Tracer


def aggregate_report(tracer: Tracer) -> dict[str, Any]:
    """Aggregate view of a tracer: spans and counters (key-sorted)."""
    return {
        "spans": {
            name: agg.as_dict() for name, agg in tracer.aggregate().items()
        },
        "counters": {
            name: tracer.counters[name] for name in sorted(tracer.counters)
        },
        "spans_recorded": tracer.spans_recorded,
        "dropped_spans": tracer.dropped_spans,
    }


def merge_aggregate_reports(
    reports: Sequence[dict[str, Any]],
) -> dict[str, Any]:
    """Combine per-worker :func:`aggregate_report` dicts into one.

    The cross-process aggregation behind ``BENCH_dispatch.json``: each
    :class:`~repro.serve.dispatch.ShardedDispatcher` worker ships its
    own tracer's aggregate report over the result pipe, and this folds
    them into a single report of the same shape — span calls and
    seconds summed per name, counters summed.  Keys stay sorted so
    snapshots remain diffable.  An empty input merges to an empty
    report.
    """
    reports = list(reports)
    spans: dict[str, dict[str, Any]] = {}
    counters: dict[str, int] = {}
    spans_recorded = 0
    dropped = 0
    for report in reports:
        for name, agg in report.get("spans", {}).items():
            merged = spans.setdefault(
                name, {"calls": 0, "total_seconds": 0.0, "self_seconds": 0.0}
            )
            merged["calls"] += agg.get("calls", 0)
            merged["total_seconds"] += agg.get("total_seconds", 0.0)
            merged["self_seconds"] += agg.get("self_seconds", 0.0)
        for name, value in report.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        spans_recorded += report.get("spans_recorded", 0)
        dropped += report.get("dropped_spans", 0)
    return {
        "spans": {name: spans[name] for name in sorted(spans)},
        "counters": {name: counters[name] for name in sorted(counters)},
        "spans_recorded": spans_recorded,
        "dropped_spans": dropped,
        "workers": len(reports),
    }


def _span_event(node: SpanNode) -> dict[str, Any]:
    """One Chrome ``trace_event`` complete event for ``node``."""
    event: dict[str, Any] = {
        "name": node.name,
        "cat": node.name.partition(".")[0],
        "ph": "X",
        "ts": round(node.start * 1e6, 3),
        "dur": round(node.duration * 1e6, 3),
        "pid": 0,
        "tid": 0,
    }
    if node.tags:
        event["args"] = {key: str(value) for key, value in node.tags.items()}
    return event


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The tracer's span tree in Chrome ``trace_event`` JSON format.

    Nesting is implied by time containment (``ph: "X"`` complete
    events), which is exactly how the tree was recorded, so the viewer
    reconstructs parent/child slices without explicit ids.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    stack: list[SpanNode] = list(reversed(tracer.roots))
    while stack:
        node = stack.pop()
        events.append(_span_event(node))
        stack.extend(reversed(node.children))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": aggregate_report(tracer),
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write :func:`chrome_trace` as JSON; returns the written path."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(tracer), sort_keys=True) + "\n"
    )
    return path


def write_aggregate(tracer: Tracer, path: str | Path) -> Path:
    """Write :func:`aggregate_report` as JSON; returns the written path."""
    path = Path(path)
    path.write_text(
        json.dumps(aggregate_report(tracer), sort_keys=True, indent=2) + "\n"
    )
    return path


def summary_lines(tracer: Tracer, top: int = 12) -> list[str]:
    """Human-readable top-N span lines (used by ``repro profile``)."""
    rows = sorted(
        tracer.aggregate().items(),
        key=lambda item: item[1].total_seconds,
        reverse=True,
    )[:top]
    if not rows:
        return ["no spans recorded"]
    width = max(len(name) for name, _ in rows)
    lines = [
        f"{'span':<{width}}  {'calls':>8}  {'total':>9}  {'self':>9}"
    ]
    for name, agg in rows:
        lines.append(
            f"{name:<{width}}  {agg.calls:>8}  "
            f"{agg.total_seconds:>8.3f}s  {agg.self_seconds:>8.3f}s"
        )
    return lines

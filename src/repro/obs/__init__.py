"""Span-level observability: tracing, exporters and perf snapshots.

``repro.obs`` is the measurement substrate the performance work reports
against.  It has three parts:

* :mod:`repro.obs.tracer` — a context-local :class:`Tracer` with
  ``span("lp.solve/...")`` / ``counter(...)`` APIs that compile to a
  no-op when no tracer is installed (the default), an in-memory span
  tree with per-span wall time, and incremental per-name aggregates.
  Installation mirrors the LP cache's ``ContextVar`` isolation
  semantics.
* :mod:`repro.obs.export` — aggregate JSON and Chrome ``trace_event``
  exporters (loadable in ``chrome://tracing`` / Perfetto).
* :mod:`repro.obs.snapshot` — the versioned ``BENCH_<name>.json``
  performance-snapshot schema consumed by the CI regression gate.

Instrumented hot paths: :class:`~repro.rl.dqn.DQNAgent` scoring and
training steps, :class:`~repro.serve.scheduler.ContinuousEngine` ticks
and per-slot interactions, every LP solve (tagged by kind and cache
hit/miss), :class:`~repro.geometry.range.ExactRange` clips/rebuilds and
:class:`~repro.geometry.range.AmbientRange` feasibility probes.  Enable
with::

    from repro import obs
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        engine.run(specs)
    obs.write_chrome_trace(tracer, "trace.json")

or from the command line: ``python -m repro profile --out trace.json``.
"""

from repro.obs.export import (
    aggregate_report,
    chrome_trace,
    merge_aggregate_reports,
    summary_lines,
    write_aggregate,
    write_chrome_trace,
)
from repro.obs.snapshot import (
    SCHEMA_VERSION,
    load_snapshot,
    machine_info,
    snapshot_payload,
    snapshot_path,
    write_snapshot,
)
from repro.obs.tracer import (
    NULL_SPAN,
    SpanAggregate,
    SpanNode,
    Tracer,
    active_tracer,
    counter,
    span,
    use_tracer,
)

__all__ = [
    "NULL_SPAN",
    "SCHEMA_VERSION",
    "SpanAggregate",
    "SpanNode",
    "Tracer",
    "active_tracer",
    "aggregate_report",
    "chrome_trace",
    "counter",
    "load_snapshot",
    "machine_info",
    "merge_aggregate_reports",
    "snapshot_path",
    "snapshot_payload",
    "span",
    "summary_lines",
    "use_tracer",
    "write_aggregate",
    "write_chrome_trace",
    "write_snapshot",
]

"""Per-layer tracing for the ladder: wrap each layer's functions from outside.

A traced batch replaces every name in :data:`LAYERS` with a wrapper that
opens a ``repro.obs`` span ``layer.<name>`` around the original call.
Each name is patched where its caller looks it up (``ask_user`` is
imported into ``repro.serve.scheduler`` by name, so that is the module
patched), and the wrappers nest with the program's own spans
(``engine.tick``, ``engine.slot``, ``lp.solve/...``, ``server.request``),
so a layer's self time is its time minus the time of every span inside
it.  :func:`patched` restores the originals on exit; nothing under
``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.obs.tracer import active_tracer

SPAN_PREFIX = "layer."

#: Spans of the serving frameworks themselves.  Their self time is work
#: that no layer span names: the ``unattributed_frac`` metric.
FRAMEWORK_SPANS = ("engine.tick", "engine.slot", "server.request")

#: The HTTP endpoints, as named in the ``server.handle.<endpoint>`` spans.
ENDPOINTS = ("create", "question", "answer", "resume", "recommendation")

EA_ENGINES = frozenset({"ea-lowd", "ea-dispatch"})
ENGINES = EA_ENGINES | {"aa-highd"}
HTTP = frozenset({"http-ckpt"})
EVERYWHERE = ENGINES | HTTP


def _systems(args: tuple) -> int:
    return len(args[0])


def _rows(args: tuple) -> int:
    return sum(len(actions) for _, actions in args[1])


def _endpoint(args: tuple) -> str:
    request = args[1]
    if request.path.rstrip("/") == "/sessions":
        return "resume" if b'"resume"' in request.body else "create"
    tail = request.path.rstrip("/").rsplit("/", 1)[-1]
    return tail if tail in ENDPOINTS else "other"


@dataclass(frozen=True)
class Layer:
    """One wrapped name and the workloads it must fire on."""

    #: Metric prefix, e.g. ``geometry.sampling.hit_and_run``.
    name: str
    #: The module where the caller looks the name up.
    module: str
    #: ``function`` or ``Class.method``, defined directly on its owner.
    attr: str
    #: Workloads whose traced run must record at least one call.
    fires_on: frozenset[str]
    #: Extra per-call count recorded as counter ``layer.<name>.<count>``.
    count: str | None = None
    #: Name prefixes of the program's own spans that do this layer's
    #: work (``lp.solve/<kind>/miss`` holds the HiGHS time); their self
    #: time is the layer's too.
    program_spans: tuple[str, ...] = ()

    def owner(self) -> tuple[Any, str]:
        """The object holding the name, and the name."""
        owner: Any = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if name not in vars(owner):
            raise AttributeError(
                f"{self.module}.{self.attr} is gone; the ladder's "
                f"{self.name} layer must follow the rename"
            )
        return owner, name


LAYERS = (
    Layer("geometry.sampling.hit_and_run", "repro.geometry.sampling",
          "hit_and_run", EA_ENGINES),
    Layer("core.terminal.terminal_anchor", "repro.core.terminal",
          "terminal_anchor", EA_ENGINES | HTTP),
    Layer("core.terminal.build_action_vectors", "repro.core.terminal",
          "build_action_vectors", EA_ENGINES),
    Layer("core.terminal.anchor_pairs", "repro.core.terminal",
          "anchor_pairs", EA_ENGINES),
    Layer("core.state_encoding.ea_state", "repro.core.state_encoding",
          "ea_state", EA_ENGINES),
    Layer("core.state_encoding.aa_state_from_range",
          "repro.core.state_encoding", "aa_state_from_range",
          frozenset({"aa-highd"})),
    Layer("geometry.range.update", "repro.geometry.range",
          "UtilityRange.update", EVERYWHERE,
          program_spans=("range.update", "range.clip", "range.rebuild",
                         "range.feasible")),
    Layer("geometry.range.prefetch_updates", "repro.serve.scheduler",
          "prefetch_updates", ENGINES, program_spans=("range.prefetch",)),
    Layer("geometry.range.split_margin", "repro.geometry.range",
          "AmbientRange.split_margin", frozenset({"aa-highd"})),
    Layer("geometry.lp.solve", "repro.geometry.lp", "solve", EVERYWHERE,
          program_spans=("lp.solve/",)),
    Layer("geometry.lp.solve_many", "repro.geometry.lp", "solve_many",
          frozenset({"aa-highd"}), count="systems",
          program_spans=("lp.solve_many/",)),
    Layer("rl.dqn.q_values_many", "repro.rl.dqn",
          "DQNAgent.q_values_many", ENGINES, count="rows",
          program_spans=("dqn.q_values_many",)),
    Layer("users.ask_user", "repro.serve.scheduler", "ask_user", ENGINES),
    Layer("persist.capture_session", "repro.server.app",
          "capture_session", HTTP),
    Layer("persist.store_put", "repro.persist.store",
          "FileSessionStore.put", HTTP, count="bytes"),
    Layer("persist.store_get", "repro.persist.store",
          "FileSessionStore.get", HTTP),
    Layer("persist.restore_session", "repro.server.app",
          "restore_session", HTTP),
    Layer("server.handle", "repro.server.app", "SessionService.handle",
          HTTP),
)

_COUNTS: dict[str, Callable[[tuple], int]] = {
    "systems": _systems,
    "rows": _rows,
}


def _wrap(layer: Layer, original: Callable) -> Callable:
    span = SPAN_PREFIX + layer.name
    if inspect.iscoroutinefunction(original):
        # Only SessionService.handle: one span per endpoint.
        @functools.wraps(original)
        async def handle(*args: Any, **kwargs: Any) -> Any:
            tracer = active_tracer()
            if tracer is None:
                return await original(*args, **kwargs)
            with tracer.span(f"{span}.{_endpoint(args)}"):
                return await original(*args, **kwargs)

        return handle

    count = _COUNTS.get(layer.count or "")

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = active_tracer()
        if tracer is None:
            return original(*args, **kwargs)
        if count is not None:
            tracer.counter(f"{span}.{layer.count}", count(args))
        with tracer.span(span):
            result = original(*args, **kwargs)
        if layer.count == "bytes":
            store, snapshot = args[0], args[1]
            tracer.counter(
                f"{span}.bytes",
                os.path.getsize(store._path(snapshot.session_id)),
            )
        return result

    return wrapper


@contextmanager
def patched() -> Iterator[None]:
    """Wrap every layer for the block; restore the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for layer in LAYERS:
            owner, name = layer.owner()
            original = vars(owner)[name]
            setattr(owner, name, _wrap(layer, original))
            saved.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


@dataclass
class TraceTotals:
    """What a workload's traced batches served, for normalising spans."""

    sessions: int = 0
    batches: int = 0
    questions: int = 0
    #: Processor-seconds available to the traced batches: wall time,
    #: times the worker count for the dispatcher.
    serving_s: float = 0.0
    traced_wall_s: float = 0.0
    untraced_wall_s: float = 0.0
    abstentions: int = 0
    max_in_flight: int = 1
    #: Per dispatcher wave: each worker's busy seconds, and the wave wall.
    waves: list[tuple[list[float], float]] | None = None


def per_layer_metrics(
    report: dict[str, Any],
    totals: TraceTotals,
    setup: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from a traced run.

    ``report`` is the merged :func:`repro.obs.export.aggregate_report`
    of the traced batches; ``setup`` the set-up parts in seconds.
    """
    spans = report.get("spans", {})
    counters = report.get("counters", {})
    sessions = max(totals.sessions, 1)
    serving = max(totals.serving_s, 1e-12)

    def calls(span: str) -> int:
        return int(spans.get(span, {}).get("calls", 0))

    def seconds(span: str, key: str = "self_seconds") -> float:
        return float(spans.get(span, {}).get(key, 0.0))

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        if layer.name == "server.handle":
            continue
        span = SPAN_PREFIX + layer.name
        own = seconds(span) + sum(
            aggregate["self_seconds"]
            for name, aggregate in spans.items()
            if layer.program_spans and name.startswith(layer.program_spans)
        )
        metrics[f"{layer.name}.calls"] = calls(span) / sessions
        metrics[f"{layer.name}.self_frac"] = own / serving
        if layer.count in ("systems", "rows"):
            metrics[f"{layer.name}.{layer.count}"] = (
                counters.get(f"{span}.{layer.count}", 0) / sessions
            )
    puts = calls(SPAN_PREFIX + "persist.store_put")
    metrics["persist.bytes_per_checkpoint"] = (
        counters.get(SPAN_PREFIX + "persist.store_put.bytes", 0) / puts
        if puts else 0.0
    )
    handled = 0.0
    for endpoint in ENDPOINTS:
        total = seconds(f"{SPAN_PREFIX}server.handle.{endpoint}",
                        "total_seconds")
        handled += total
        metrics[f"server.handle.{endpoint}.total_frac"] = total / serving
    metrics["server.client_overhead_frac"] = (
        1.0 - handled / serving if handled else 0.0
    )
    updates = calls(SPAN_PREFIX + "geometry.range.update")
    metrics["range.clip_rate"] = (
        counters.get("range.clips", 0) / updates if updates else 0.0
    )
    metrics["range.rebuilds"] = counters.get("range.rebuilds", 0) / sessions
    hits = counters.get("lp.cache.hits", 0)
    lookups = hits + counters.get("lp.cache.misses", 0)
    metrics["lp.cache_hit_rate"] = hits / lookups if lookups else 0.0
    metrics["users.abstentions"] = totals.abstentions / sessions
    ticks = calls("engine.tick")
    metrics["serve.engine.ticks"] = ticks / max(totals.batches, 1)
    metrics["serve.engine.occupancy"] = (
        totals.questions / (ticks * totals.max_in_flight) if ticks else 0.0
    )
    metrics["unattributed_frac"] = (
        sum(seconds(span) for span in FRAMEWORK_SPANS) / serving
    )
    efficiency = imbalance = 0.0
    if totals.waves:
        busy = [sum(workers) for workers, _ in totals.waves]
        capacity = [len(workers) * wall for workers, wall in totals.waves]
        efficiency = sum(busy) / sum(capacity)
        imbalance = sum(
            max(workers) * len(workers) / sum(workers)
            for workers, _ in totals.waves
        ) / len(totals.waves)
    metrics["serve.dispatch.parallel_efficiency"] = efficiency
    metrics["serve.dispatch.shard_imbalance"] = imbalance
    total_setup = sum(setup.values())
    for part in ("import", "dataset", "train"):
        metrics[f"setup.{part}_frac"] = setup[f"{part}_s"] / total_setup
    metrics["trace_overhead_frac"] = (
        totals.traced_wall_s / totals.untraced_wall_s - 1.0
    )
    return metrics

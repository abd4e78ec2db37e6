"""Concurrent serving of interactive sessions (the ROADMAP's scale step).

The paper's harness answers one user at a time through
:func:`~repro.core.session.run_session`; a production deployment serves
many users against one trained agent.  This subsystem provides that
layer, with ``run_session`` as its scalar reference: every served
session is bit-identical to a sequential ``run_session`` over the same
algorithm, user and seed.

* :class:`SessionSpec` — the unit of serving work (session factory,
  user, seed, tags), the only form the engine accepts;
* :class:`ContinuousEngine` — the engine: continuous (iteration-level)
  batching with admission control and a
  ``submit()``/``as_completed()``/``drain()`` streaming lifecycle,
  batching Q-network scoring across sessions, memoising LP solves
  through a per-engine :class:`~repro.geometry.lp.LPCache`, and
  isolating faults per session (one dying session cannot abort the
  run);
* :class:`Runtime` — the structural protocol the engine and the
  dispatcher satisfy; service layers and benchmarks depend on it, not
  on a concrete runtime;
* :class:`ShardedDispatcher` — multi-process serving: shards specs
  across worker processes (one ``ContinuousEngine``, LP cache and
  tracer per worker), with checkpoint-based crash-resume when a worker
  dies;
* ``recover=True`` on either runtime — retry a session that raised
  :class:`~repro.errors.EmptyRegionError` once under
  :class:`~repro.core.robust.MajorityVoteSession`;
* :class:`EngineMetrics` / :class:`SessionMetrics` /
  :class:`SessionError` — lightweight instrumentation of the whole
  path, failures included;
* :func:`run_serve_bench` — the end-to-end many-users benchmark behind
  ``python -m repro serve-bench``.

Everything else in the submodules (task book-keeping, result helpers)
is private API.
"""

from repro.serve.bench import ServeBenchReport, run_serve_bench
from repro.serve.dispatch import ShardedDispatcher
from repro.serve.metrics import EngineMetrics, SessionError, SessionMetrics
from repro.serve.runtime import Runtime
from repro.serve.scheduler import ContinuousEngine
from repro.serve.spec import SessionSpec

__all__ = [
    "ContinuousEngine",
    "EngineMetrics",
    "Runtime",
    "ServeBenchReport",
    "SessionError",
    "SessionMetrics",
    "SessionSpec",
    "ShardedDispatcher",
    "run_serve_bench",
]

"""The HTTP service layer over the serving engines.

``repro.server`` turns the in-process serving stack
(:mod:`repro.serve` + :mod:`repro.persist`) into a network service a
real client can hold a dialogue with:

* :mod:`repro.server.http` — a hand-rolled HTTP/1.1 codec on stdlib
  ``asyncio`` streams (no third-party web framework);
* :mod:`repro.server.app` — :class:`SessionService`, the endpoint layer
  (``POST /sessions``, ``GET .../question``, ``POST .../answer``,
  ``GET .../recommendation``), with per-request fault isolation,
  per-answer checkpoints into a :class:`~repro.persist.SessionStore`,
  crash-resume via ``{"resume": id}``, and an oracle mode that serves
  scheduler-batched concurrent sessions on any
  :class:`~repro.serve.runtime.Runtime` through one collector thread
  (``submit()`` in, ``as_completed()`` out);
* :mod:`repro.server.loadgen` — the concurrent HTTP load generator
  behind ``python -m repro serve-bench --http`` and the CI smoke job.

Start a server with ``python -m repro server --dataset anti:1000:4``.
"""

from repro.server.app import SessionService, run_server
from repro.server.http import Request, Response, read_request, render_response
from repro.server.loadgen import (
    HttpBenchReport,
    run_http_bench,
    write_http_bench_snapshot,
)

__all__ = [
    "HttpBenchReport",
    "Request",
    "Response",
    "SessionService",
    "read_request",
    "render_response",
    "run_http_bench",
    "run_server",
    "write_http_bench_snapshot",
]

"""CI smoke check for the HTTP service layer.

Starts a real ``python -m repro server`` subprocess (file-backed
session store, ephemeral port), waits for ``/healthz``, then drives
sessions end-to-end over HTTP with the ``serve-bench --http`` load
generator, in three passes:

1. 16 concurrent interactive sessions, each checkpointed to the store
   after every answer;
2. 16 oracle sessions against the same server, served by its
   in-process ``ContinuousEngine``;
3. 16 oracle sessions against a second server booted with
   ``--procs 2``, served by a ``ShardedDispatcher``.

Both oracle passes go through the service's one collector thread
(``submit()`` in, ``as_completed()`` out); the two passes exercise the
two runtimes behind it.

Every pass must bring every session to a recommendation with zero
failures.

This is deliberately a subprocess test, not an in-process one: it
proves the CLI entry point, the asyncio server loop, the HTTP codec,
the per-answer checkpointing and oracle serving on both runtimes all work
together the way an operator would actually run them.

Run directly::

    PYTHONPATH=src python benchmarks/server_smoke.py
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATASET = "anti:400:3"
SESSIONS = 16
CONCURRENCY = 16
START_TIMEOUT = 30.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def _wait_healthy(host: str, port: int, deadline: float) -> None:
    import asyncio

    from repro.server.http import request

    async def probe() -> bool:
        try:
            status, body = await request(host, port, "GET", "/healthz")
        except OSError:
            return False
        return status == 200 and isinstance(body, dict)

    while time.monotonic() < deadline:
        if asyncio.run(probe()):
            return
        time.sleep(0.2)
    raise SystemExit("server never became healthy")


@contextmanager
def _server(store: str, *extra: str) -> Iterator[int]:
    """Boot ``python -m repro server`` on a free port; yield the port."""
    port = _free_port()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "server",
            "--dataset",
            DATASET,
            "--port",
            str(port),
            "--store",
            store,
            *extra,
        ],
        env=env,
        cwd=REPO,
    )
    try:
        _wait_healthy("127.0.0.1", port, time.monotonic() + START_TIMEOUT)
        yield port
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _drive(port: int, mode: str) -> bool:
    """Run one load-generator pass; report whether it was clean."""
    from repro.data import synthetic_dataset
    from repro.server import run_http_bench

    dataset = synthetic_dataset("anti", 400, 3, rng=0)
    report = run_http_bench(
        dataset,
        host="127.0.0.1",
        port=port,
        sessions=SESSIONS,
        concurrency=CONCURRENCY,
        mode=mode,
    )
    for line in report.summary_lines():
        print(line)
    for error in report.errors:
        print(f"  error: {error}", file=sys.stderr)
    return not report.failed and report.completed == SESSIONS


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.persist.snapshot import SNAPSHOT_SUFFIX

    with tempfile.TemporaryDirectory(prefix="server-smoke-") as store:
        with _server(store) as port:
            if not _drive(port, "interactive"):
                print("server smoke FAILED (interactive)", file=sys.stderr)
                return 1
            checkpoints = len(list(Path(store).glob(f"*{SNAPSHOT_SUFFIX}")))
            print(f"  checkpoints on disk: {checkpoints}")
            if checkpoints != SESSIONS:
                print(
                    f"expected {SESSIONS} checkpoints, found {checkpoints}",
                    file=sys.stderr,
                )
                return 1
            if not _drive(port, "oracle"):
                print("server smoke FAILED (oracle)", file=sys.stderr)
                return 1
    with tempfile.TemporaryDirectory(prefix="server-smoke-") as store:
        with _server(store, "--procs", "2") as port:
            if not _drive(port, "oracle"):
                print(
                    "server smoke FAILED (oracle, --procs 2)",
                    file=sys.stderr,
                )
                return 1
    print("server smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

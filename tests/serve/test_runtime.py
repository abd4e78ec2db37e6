"""Runtime protocol: the seam the service and bench layers depend on.

``Runtime`` is structural (``runtime_checkable``), so conformance is
checked by ``isinstance`` — any scheduler exposing the submit /
as_completed / drain / checkpoint / resume / close surface qualifies,
with no inheritance relationship required.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.serve import ContinuousEngine, Runtime, ShardedDispatcher

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ShardedDispatcher needs the fork start method",
)


class TestConformance:
    def test_continuous_engine_is_a_runtime(self):
        with ContinuousEngine() as engine:
            assert isinstance(engine, Runtime)

    @needs_fork
    def test_dispatcher_is_a_runtime(self):
        with ShardedDispatcher(procs=2) as dispatcher:
            assert isinstance(dispatcher, Runtime)

    def test_protocol_surface(self):
        for name in (
            "submit",
            "as_completed",
            "drain",
            "checkpoint",
            "resume",
            "close",
        ):
            assert callable(getattr(Runtime, name))

    def test_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Runtime()  # type: ignore[misc]

"""Contract tests for the top-level public API.

A downstream user should be able to rely on ``repro.__all__``: every
name resolves, the subpackage re-exports agree with their sources, and
the version string follows semantic-versioning shape.
"""

from __future__ import annotations

import re


import repro


class TestAllExports:
    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version_is_semver(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_core_entry_points_are_callable(self):
        for name in ("train_ea", "train_aa", "run_session", "regret_ratio",
                     "synthetic_dataset", "load_csv", "save_agent",
                     "load_agent", "evaluate_algorithm", "summarize"):
            assert callable(getattr(repro, name)), name

    def test_session_classes_share_protocol(self):
        from repro.core.session import InteractiveAlgorithm

        for name in ("EASession", "AASession", "UHRandomSession",
                     "UHSimplexSession", "SinglePassSession",
                     "UtilityApproxSession", "AdaptiveSession"):
            cls = getattr(repro, name)
            assert issubclass(cls, InteractiveAlgorithm), name

    def test_errors_have_common_base(self):
        from repro.errors import (
            ConfigurationError,
            DataError,
            EmptyRegionError,
            GeometryError,
            InteractionError,
            LPError,
            ReproError,
            VertexEnumerationError,
        )

        for exc in (
            GeometryError,
            EmptyRegionError,
            LPError,
            VertexEnumerationError,
            DataError,
            InteractionError,
            ConfigurationError,
        ):
            assert issubclass(exc, ReproError)


class TestSubpackageConsistency:
    def test_data_exports(self):
        import repro.data

        for name in repro.data.__all__:
            assert hasattr(repro.data, name)

    def test_rl_exports(self):
        import repro.rl

        for name in repro.rl.__all__:
            assert hasattr(repro.rl, name)

    def test_eval_exports(self):
        import repro.eval

        for name in repro.eval.__all__:
            assert hasattr(repro.eval, name)

    def test_core_exports(self):
        import repro.core

        for name in repro.core.__all__:
            assert hasattr(repro.core, name)

    def test_geometry_exports(self):
        import repro.geometry

        for name in repro.geometry.__all__:
            assert hasattr(repro.geometry, name)

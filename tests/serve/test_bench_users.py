"""serve-bench x user-model zoo: wiring, validation and determinism."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.serve import run_serve_bench
from repro.users import NoisyUser


def bench(dataset, **kwargs):
    defaults = dict(sessions=4, episodes=2, seed=0, max_rounds=30)
    defaults.update(kwargs)
    return run_serve_bench(dataset, **defaults)


def _outcome(result):
    return (
        result.recommendation_index,
        result.rounds,
        result.truncated,
        result.status,
        result.recommendation.tolist(),
    )


@pytest.fixture(scope="module")
def drifting_reports(small_anti_3d):
    """One drifting-user bench per runtime, keyed by engine name."""
    return {
        engine: bench(small_anti_3d, user_model="drifting", procs=procs)
        for engine, procs in (("continuous", 0), ("dispatch", 1))
    }


class TestUserModelWiring:
    def test_default_is_oracle(self, small_anti_3d):
        report = bench(small_anti_3d)
        assert report.user_model == "oracle"
        assert report.metrics.abstentions == 0

    def test_noise_upgrades_oracle_to_noisy(self, small_anti_3d):
        report = bench(small_anti_3d, noise=0.2)
        assert report.user_model == "noisy"
        assert report.snapshot_sections()["config"]["user_model"] == "noisy"

    def test_oracle_rows_unchanged_by_the_zoo(self, small_anti_3d):
        """The pre-zoo seed streams must survive: an oracle bench draws
        no per-user seeds, so its rounds are bit-stable."""
        a = bench(small_anti_3d)
        b = bench(small_anti_3d)
        assert a.metrics.rounds_total == b.metrics.rounds_total
        assert [r.recommendation_index for r in a.results] == [
            r.recommendation_index for r in b.results
        ]

    def test_abstaining_fleet_reports_abstentions(self, small_anti_3d):
        report = bench(small_anti_3d, user_model="abstaining", sessions=6)
        assert report.user_model == "abstaining"
        assert report.metrics.abstentions > 0
        counters = report.snapshot_sections()["counters"]
        assert counters["abstentions"] == report.metrics.abstentions

    @pytest.mark.parametrize("engine", ["continuous", "dispatch"])
    def test_zoo_models_run_on_both_engines(self, drifting_reports, engine):
        report = drifting_reports[engine]
        assert report.engine == engine
        assert report.snapshot_sections()["config"]["engine"] == engine
        assert len(report.results) == 4
        other = drifting_reports[
            "dispatch" if engine == "continuous" else "continuous"
        ]
        assert [_outcome(r) for r in report.results] == [
            _outcome(r) for r in other.results
        ]

    def test_specs_are_tagged_with_the_model(self, small_anti_3d):
        report = bench(small_anti_3d, user_model="fatigue")
        assert report.user_model == "fatigue"


class TestValidation:
    def test_rejects_noise_of_one(self, small_anti_3d):
        with pytest.raises(ConfigurationError):
            bench(small_anti_3d, noise=1.0)

    def test_rejects_unknown_user_model(self, small_anti_3d):
        with pytest.raises(ConfigurationError):
            bench(small_anti_3d, user_model="psychic")

    def test_noisy_user_validation_agrees_with_bench(self, small_anti_3d):
        """Regression: NoisyUser used to accept error_rate == 1.0 while
        the bench rejected noise >= 1 — both now draw the same line."""
        import numpy as np

        with pytest.raises(ConfigurationError):
            bench(small_anti_3d, noise=1.0)
        with pytest.raises(ValueError):
            NoisyUser(np.array([0.5, 0.5]), error_rate=1.0)
        # And the largest bench-legal noise builds a legal user.
        NoisyUser(np.array([0.5, 0.5]), error_rate=0.999)

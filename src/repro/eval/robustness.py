"""The robustness matrix: algorithm family × user model.

Runs every requested algorithm family against every requested user
model from the zoo (:mod:`repro.users.models`) over a common pool of
hidden utilities, through the serving engine with recovery enabled, and
reports per-cell rounds, regret, failure/recovery/retry/abstention
counts.  Every counter is seed-deterministic — the CI
``robustness-smoke`` job gates them exactly, the same way the perf gate
pins LP and round counters — and the oracle column is bit-identical to
sequential golden sessions (the engine's standing determinism
guarantee).

``python -m repro robustness`` is the CLI front door; the report writes
a versioned ``BENCH_robustness.json`` through
:mod:`repro.obs.snapshot`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.session import DEFAULT_MAX_ROUNDS, validate_epsilon
from repro.data.datasets import Dataset
from repro.data.utility import sample_training_utilities
from repro.errors import ConfigurationError
from repro.eval.metrics import session_regret
from repro.eval.reporting import format_table
from repro.obs.snapshot import write_snapshot
from repro.registry import (
    canonical_session_name,
    make_session,
    session_needs_agent,
    train_agent,
)
from repro.serve.scheduler import ContinuousEngine
from repro.serve.spec import SessionSpec
from repro.users import canonical_user_model, make_user

#: The default model line-up: one column per behaviour class.
DEFAULT_USER_MODELS = (
    "oracle",
    "noisy",
    "persona",
    "fatigue",
    "drifting",
    "abstaining",
)

#: Training-free families, cheap enough for CI smoke matrices.
DEFAULT_FAMILIES = ("uh-random", "uh-simplex")


def _cell_seed(*entropy: int) -> int:
    """A platform-stable derived seed for one matrix coordinate."""
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class RobustnessCell:
    """One (family, user model) cell of the matrix."""

    family: str
    user_model: str
    sessions: int
    rounds_total: int
    completed: int
    truncated: int
    failed: int
    recovered: int
    retries: int
    abstentions: int
    mistakes: int
    regret_mean: float
    regret_max: float
    wall_seconds: float

    @property
    def rounds_mean(self) -> float:
        """Questions per session, averaged over the cell."""
        return self.rounds_total / self.sessions if self.sessions else 0.0

    @property
    def failure_rate(self) -> float:
        """Fraction of the cell's sessions that ended ``"failed"``."""
        return self.failed / self.sessions if self.sessions else 0.0

    def row(self) -> list[object]:
        """One table row (see :meth:`RobustnessReport.lines`)."""
        return [
            self.family,
            self.user_model,
            round(self.rounds_mean, 1),
            self.regret_mean,
            self.regret_max,
            self.failure_rate,
            self.retries,
            self.recovered,
            self.abstentions,
            self.mistakes,
        ]

    def counter_items(self) -> dict[str, int]:
        """The cell's seed-deterministic integer counters."""
        prefix = f"{self.family}.{self.user_model}"
        return {
            f"{prefix}.rounds_total": self.rounds_total,
            f"{prefix}.completed": self.completed,
            f"{prefix}.truncated": self.truncated,
            f"{prefix}.failed": self.failed,
            f"{prefix}.recovered": self.recovered,
            f"{prefix}.retries": self.retries,
            f"{prefix}.abstentions": self.abstentions,
            f"{prefix}.mistakes": self.mistakes,
        }


@dataclass
class RobustnessReport:
    """Outcome of one full matrix run."""

    dataset: str
    families: tuple[str, ...]
    user_models: tuple[str, ...]
    seeds: int
    epsilon: float
    noise: float
    max_rounds: int
    seed: int
    recover: bool
    cells: list[RobustnessCell] = field(default_factory=list)
    wall_seconds: float = 0.0

    HEADERS = (
        "family",
        "users",
        "rounds",
        "regret",
        "regret_max",
        "fail_rate",
        "retries",
        "recovered",
        "abstain",
        "mistakes",
    )

    def lines(self) -> list[str]:
        """Report lines printed by the CLI command."""
        title = (
            f"robustness matrix: {len(self.families)} families x "
            f"{len(self.user_models)} user models x {self.seeds} seeds "
            f"on {self.dataset} (eps={self.epsilon}, noise={self.noise}, "
            f"{self.wall_seconds:.1f}s)"
        )
        table = format_table(
            self.HEADERS, [cell.row() for cell in self.cells], title=title
        )
        return table.splitlines()

    def snapshot_sections(self) -> dict[str, dict]:
        """``config``/``timings``/``counters``/``tables`` snapshot sections.

        ``counters`` holds the per-cell integer counts plus matrix
        totals — all seed-deterministic, gated exactly by CI.  Regret
        is a float (LP/geometry dependent), so it lives in ``tables``.
        """
        counters: dict[str, int] = {}
        for cell in self.cells:
            counters.update(cell.counter_items())
        counters["total.rounds"] = sum(c.rounds_total for c in self.cells)
        counters["total.failed"] = sum(c.failed for c in self.cells)
        counters["total.recovered"] = sum(c.recovered for c in self.cells)
        counters["total.retries"] = sum(c.retries for c in self.cells)
        counters["total.abstentions"] = sum(
            c.abstentions for c in self.cells
        )
        counters["total.mistakes"] = sum(c.mistakes for c in self.cells)
        return {
            "config": {
                "dataset": self.dataset,
                "families": list(self.families),
                "user_models": list(self.user_models),
                "seeds": self.seeds,
                "epsilon": self.epsilon,
                "noise": self.noise,
                "max_rounds": self.max_rounds,
                "seed": self.seed,
                "recover": self.recover,
            },
            "timings": {"wall_seconds": self.wall_seconds},
            "counters": counters,
            "tables": {
                "matrix": {
                    "headers": list(self.HEADERS),
                    "rows": [cell.row() for cell in self.cells],
                }
            },
        }

    def write_snapshot(
        self, target: str | Path, name: str = "robustness"
    ) -> Path:
        """Write this report as a versioned ``BENCH_<name>.json``."""
        sections = self.snapshot_sections()
        return write_snapshot(
            target,
            name,
            config=sections["config"],
            timings=sections["timings"],
            counters=sections["counters"],
            tables=sections["tables"],
        )


def _family_factories(
    families: tuple[str, ...],
    dataset: Dataset,
    epsilon: float,
    seed: int,
    train_episodes: int,
) -> dict[str, Any]:
    """Per-family session constructors; RL families train one agent each."""
    out: dict[str, Any] = {}
    for index, family in enumerate(families):
        extra: dict[str, Any] = {}
        if session_needs_agent(family):
            extra["agent"] = train_agent(
                family,
                dataset,
                epsilon,
                rng=_cell_seed(seed, 11, index),
                episodes=train_episodes,
            )
        out[family] = (
            lambda session_seed, f=family, k=extra: make_session(
                f, dataset, epsilon, rng=session_seed, **k
            )
        )
    return out


def run_robustness_matrix(
    dataset: Dataset,
    families: tuple[str, ...] = DEFAULT_FAMILIES,
    user_models: tuple[str, ...] = DEFAULT_USER_MODELS,
    seeds: int = 4,
    epsilon: float = 0.1,
    noise: float = 0.1,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    seed: int = 0,
    recover: bool = True,
    train_episodes: int = 8,
) -> RobustnessReport:
    """Run the full matrix; every counter in the report is deterministic.

    Parameters
    ----------
    dataset:
        The (skyline-preprocessed) dataset to search.
    families:
        Algorithm families (registry names; RL families train one small
        agent per family on ``train_episodes`` episodes).
    user_models:
        :func:`repro.users.make_user` model names — the matrix columns.
    seeds:
        Sessions per cell.  The *same* hidden utilities and session
        seeds are reused across user models, so the oracle column is
        bit-identical to sequential golden sessions and differences
        between columns isolate the user behaviour.
    epsilon, max_rounds:
        Session stopping threshold and safety cap.
    noise:
        Headline error knob fed to every model that has one.
    seed:
        Master seed; all derived streams are platform-stable
        ``SeedSequence`` children.
    recover:
        As in ``serve-bench``: ``True`` (default) retries
        :class:`~repro.errors.EmptyRegionError` failures once under
        majority voting.
    """
    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    if not 0.0 <= noise < 1.0:
        raise ConfigurationError(f"noise must be in [0, 1), got {noise}")
    epsilon = validate_epsilon(epsilon)
    families = tuple(canonical_session_name(f) for f in families)
    user_models = tuple(canonical_user_model(m) for m in user_models)
    started = time.perf_counter()
    hidden = sample_training_utilities(
        dataset.dimension, seeds, rng=_cell_seed(seed, 7)
    )
    factories = _family_factories(
        families, dataset, epsilon, seed, train_episodes
    )
    cells: list[RobustnessCell] = []
    for family_index, family in enumerate(families):
        factory = factories[family]
        # One session seed per (family, i): shared across user models so
        # the columns differ only in the user's behaviour.
        session_seeds = [
            _cell_seed(seed, 13, family_index, i) for i in range(seeds)
        ]
        for model_index, model in enumerate(user_models):
            users = [
                make_user(
                    model,
                    hidden[i],
                    # Oracles draw no RNG; seeded models get one
                    # platform-stable stream per (model, i).
                    rng=(
                        None
                        if model == "oracle"
                        else _cell_seed(seed, 17, model_index, i)
                    ),
                    noise=noise,
                )
                for i in range(seeds)
            ]
            specs = [
                SessionSpec(
                    factory=(
                        lambda s=session_seeds[i], build=factory: build(s)
                    ),
                    user=users[i],
                    seed=session_seeds[i],
                    tags={
                        "user_model": model,
                        "session_id": f"{family}-{model}-{i}",
                    },
                )
                for i in range(seeds)
            ]
            cell_started = time.perf_counter()
            with ContinuousEngine(
                max_rounds=max_rounds, recover=recover
            ) as engine:
                results = engine.run(specs)
            metrics = engine.last_metrics
            assert metrics is not None
            regrets = [
                session_regret(dataset, result, user)
                for result, user in zip(results, users)
                if not result.failed
            ]
            cells.append(
                RobustnessCell(
                    family=family,
                    user_model=model,
                    sessions=seeds,
                    rounds_total=metrics.rounds_total,
                    completed=metrics.completed,
                    truncated=metrics.truncated,
                    failed=metrics.failed,
                    recovered=metrics.recovered,
                    retries=metrics.retries,
                    abstentions=metrics.abstentions,
                    mistakes=sum(
                        int(getattr(user, "mistakes_made", 0))
                        for user in users
                    ),
                    regret_mean=(
                        float(np.mean(regrets)) if regrets else float("nan")
                    ),
                    regret_max=(
                        float(np.max(regrets)) if regrets else float("nan")
                    ),
                    wall_seconds=time.perf_counter() - cell_started,
                )
            )
    return RobustnessReport(
        dataset=dataset.name,
        families=families,
        user_models=user_models,
        seeds=seeds,
        epsilon=epsilon,
        noise=noise,
        max_rounds=max_rounds,
        seed=seed,
        recover=recover,
        cells=cells,
        wall_seconds=time.perf_counter() - started,
    )

"""Bring your own data: the full CSV-to-recommendation workflow.

Run with::

    python examples/csv_workflow.py

Demonstrates the deployment path a downstream user would take:

1. export a raw table to CSV (here: a synthetic laptop catalogue),
2. ``load_csv`` with larger-is-better inversion for price and weight,
3. inspect the dataset profile (``repro.data.summary``),
4. train algorithm EA once and persist the agent with ``save_agent``,
5. reload the agent in a "fresh process" and answer a user query.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    EAConfig,
    OracleUser,
    load_agent,
    load_csv,
    regret_ratio,
    run_session,
    sample_training_utilities,
    save_agent,
    train_ea,
)
from repro.data.summary import summarize


def write_catalogue(path: Path, n: int = 3_000, seed: int = 0) -> None:
    """A synthetic laptop catalogue with realistic trade-offs."""
    rng = np.random.default_rng(seed)
    tier = rng.beta(2.0, 3.0, size=n)  # build quality / price tier
    price = 350 + 2_800 * tier**1.4 + rng.normal(0, 120, n)
    battery = 4 + 14 * (0.4 * tier + 0.6 * rng.uniform(0, 1, n))
    weight = 2.8 - 1.6 * tier + rng.normal(0, 0.15, n)
    cpu = 2_000 + 14_000 * (0.7 * tier + 0.3 * rng.uniform(0, 1, n))
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["price", "battery_h", "weight_kg", "cpu_score"])
        for row in zip(price, battery, np.maximum(weight, 0.7), cpu):
            writer.writerow([f"{value:.2f}" for value in row])


def main(workdir: Path | None = None) -> None:
    """Run the workflow, writing its files under ``workdir``.

    With no ``workdir`` the files go to a temporary directory that is
    removed when the run ends.
    """
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro_csv_") as scratch:
            run_workflow(Path(scratch))
    else:
        run_workflow(Path(workdir))


def run_workflow(workdir: Path) -> None:
    """Steps 1-5 of the module docstring, with files under ``workdir``."""
    csv_path = workdir / "laptops.csv"
    agent_path = workdir / "laptops_ea.npz"

    # 1-2. Export and ingest (price and weight are smaller-is-better).
    write_catalogue(csv_path)
    dataset = load_csv(csv_path, invert=["price", "weight_kg"])
    print(f"loaded {csv_path.name}: {dataset}")

    # 3. Profile.
    for line in summarize(dataset).lines():
        print(f"  {line}")

    # 4. Train once, save.
    agent = train_ea(
        dataset,
        sample_training_utilities(dataset.dimension, 60, rng=1),
        config=EAConfig(epsilon=0.1),
        rng=2,
        updates_per_episode=6,
    )
    save_agent(agent, agent_path)
    print(f"trained agent saved to {agent_path}")

    # 5. Reload (as a fresh deployment would) and serve a query.
    served = load_agent(agent_path)
    shopper = OracleUser(np.array([0.45, 0.25, 0.2, 0.1]))
    result = run_session(served.new_session(rng=3), shopper)
    laptop = dataset.points[result.recommendation_index]
    regret = regret_ratio(dataset.points, laptop, shopper.utility)
    print(
        f"\nanswered {result.rounds} questions; "
        f"regret ratio {regret:.4f} (threshold 0.1)"
    )
    described = ", ".join(
        f"{name}={value:.2f}"
        for name, value in zip(dataset.attribute_names, laptop)
    )
    print(f"recommended laptop #{result.recommendation_index}: {described}")
    print("(normalised attributes: 1.0 = cheapest / lightest / best)")


if __name__ == "__main__":
    main()

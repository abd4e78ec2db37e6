"""Watch the utility range shrink: per-round SVG snapshots.

Run with::

    python examples/visualize_session.py

Reproduces the paper's geometric intuition (Figures 2-5) on a live
session: a 3-attribute search where, after every answered question, the
current utility range is rendered into an SVG — the yellow region
shrinking around the user's hidden utility vector until the stopping
condition fires.  Output lands in ``./range_snapshots/`` (``main``
takes another ``out_dir``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import (
    EAConfig,
    OracleUser,
    regret_ratio,
    sample_training_utilities,
    synthetic_dataset,
    train_ea,
)
from repro.eval.svg import save_range_svg


def main(out_dir: str | Path = "range_snapshots") -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(exist_ok=True)

    dataset = synthetic_dataset("anti", 2_000, 3, rng=0)
    print(f"dataset: {dataset}")
    agent = train_ea(
        dataset,
        sample_training_utilities(3, 60, rng=1),
        config=EAConfig(epsilon=0.1),
        rng=2,
        updates_per_episode=6,
    )

    hidden = np.array([0.55, 0.15, 0.30])
    user = OracleUser(hidden)
    session = agent.new_session(rng=3)

    snapshot = save_range_svg(
        session.environment.utility_range,
        out_dir / "round_00.svg",
        truth=hidden,
        title="round 0: the whole utility simplex",
    )
    print(f"wrote {snapshot}")

    while not session.finished:
        question = session.next_question()
        session.observe(user.prefers(question.p_i, question.p_j))
        urange = session.environment.utility_range
        snapshot = save_range_svg(
            urange,
            out_dir / f"round_{session.rounds:02d}.svg",
            samples=urange.sample(150, rng=session.rounds),
            truth=hidden,
            title=(
                f"round {session.rounds}: asked p{question.index_i} "
                f"vs p{question.index_j}"
            ),
        )
        print(f"wrote {snapshot}")

    index = session.recommend()
    regret = regret_ratio(dataset.points, dataset.points[index], hidden)
    print(
        f"\ndone in {session.rounds} questions; recommended #{index} "
        f"(regret {regret:.4f}).  Open the SVGs in a browser to watch the "
        f"range collapse onto u*."
    )


if __name__ == "__main__":
    main()

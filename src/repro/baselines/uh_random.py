"""UH-Random (Xie, Wong, Lall; SIGMOD 2019) — the paper's SOTA baseline.

In each round UH-Random picks *two random points from the candidate set*
and asks the user which she prefers; the answer's half-space narrows the
utility range and dominated candidates are pruned.  Because both points
may still be the favourite, every question carries information, but the
selection looks only at the current round — exactly the short-term
behaviour the paper's RL algorithms improve upon.
"""

from __future__ import annotations

from repro.baselines.uh_base import UHBaseSession


class UHRandomSession(UHBaseSession):
    """One interactive session of UH-Random."""

    family = "uh-random"

    def _select_pair(self) -> tuple[int, int]:
        chosen = self._rng.choice(
            self._candidates.shape[0], size=2, replace=False
        )
        return int(self._candidates[chosen[0]]), int(self._candidates[chosen[1]])

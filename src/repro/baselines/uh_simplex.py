"""UH-Simplex (Xie, Wong, Lall; SIGMOD 2019) — the greedy UH variant.

UH-Simplex selects each question greedily rather than randomly: it
considers candidate points that are extreme in the current range (the
points "likely to be the best according to some criteria", Section II-A)
and picks the pair whose separating hyper-plane passes closest to the
centre of the utility range, i.e. the question most likely to cut ``R``
into two comparable halves.  Like UH-Random it is exact, and like all
pre-RL baselines it optimises one round at a time.

Implementation note: the original drives its choice through simplex
pivots on the candidate LP; the centre-split greedy used here is the same
per-round objective (maximal expected range reduction) expressed
geometrically, and reproduces the published behaviour — consistently
fewer rounds than UH-Random, more than EA (see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.uh_base import UHBaseSession

#: Cap on candidates scored per round; the closest pair among the
#: top-scoring extremes is a near-tie beyond this many.
_MAX_SCORED = 24


class UHSimplexSession(UHBaseSession):
    """One interactive session of UH-Simplex."""

    family = "uh-simplex"

    def _select_pair(self) -> tuple[int, int]:
        center, _ = self._range.chebyshev_center()
        points = self.dataset.points
        candidates = self._candidates
        # Score candidates by utility at the range centre and keep the
        # leaders: their separating planes are the ones crossing R.
        scores = points[candidates] @ center
        order = np.argsort(-scores)[: min(_MAX_SCORED, candidates.shape[0])]
        leaders = candidates[order]
        best_pair: tuple[int, int] | None = None
        best_distance = np.inf
        for a in range(leaders.shape[0]):
            for b in range(a + 1, leaders.shape[0]):
                i, j = int(leaders[a]), int(leaders[b])
                normal = points[i] - points[j]
                norm = float(np.linalg.norm(normal))
                if norm < 1e-12:
                    continue
                distance = abs(float(center @ normal)) / norm
                if distance < best_distance:
                    best_distance = distance
                    best_pair = (i, j)
        if best_pair is None:  # all leaders identical; fall back to random
            chosen = self._rng.choice(candidates.shape[0], size=2, replace=False)
            return int(candidates[chosen[0]]), int(candidates[chosen[1]])
        return best_pair

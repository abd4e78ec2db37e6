"""Terminal polyhedra and the restricted action set ``P_R`` (Section IV-B).

A polyhedron ``T`` inside the utility range is *terminal* when some point
``p_T`` has regret ratio below ``eps`` for every utility vector in ``T``
(Lemma 4): ``T`` is the intersection of the relaxed half-spaces
``u . (p_T - (1 - eps) p_j) >= 0`` over all other points ``p_j``.  The
constraints are linear in ``u``, so a *convex* region is terminal for
``p_T`` iff all its extreme vectors satisfy them — which reduces both the
terminal test (Lemma 6) and membership checks to dense matrix
comparisons, no polytope construction required:

    ``R`` is terminal for ``p_i``  <=>
    ``scores[:, i] >= (1 - eps) * scores.max(axis=1)``

where ``scores[v, j] = vertex_v . p_j``.

The anchor set ``P_R`` — every point that is top-1 for some utility
vector in ``R`` — is discovered by scoring the extreme vectors plus a set
of utility vectors sampled inside ``R`` (Lemma 5 shows sampling finds the
large-volume terminal polyhedra with high probability).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.range import SPLIT_TOL, ExactRange
from repro.utils.rng import RngLike
from repro.utils.validation import require_matrix

#: Numerical slack when testing the epsilon-domination inequalities.
#: Vertex enumeration rounds coordinates at ~1e-8, so boundary vertices
#: of an exact terminal polyhedron can miss the inequality by that much;
#: the slack is still 5-6 orders of magnitude below any practical epsilon.
_TERMINAL_TOL = 1e-7


def anchor_indices_with_counts(
    points: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Anchor set ``P_R`` plus how many of ``vectors`` each anchor tops.

    The anchor set is every point with the highest utility for at least
    one of ``vectors``; each anchor is the ``p_T`` of one constructible
    terminal polyhedron.

    The counts estimate each terminal polyhedron's volume share of ``R``
    (Lemma 5: uniform samples land in a polyhedron proportionally to its
    volume), so they are the natural weights for picking *informative*
    anchor pairs — large polyhedra are the likely homes of the user's
    utility vector.
    """
    points = require_matrix(points, "points")
    vectors = require_matrix(vectors, "vectors", columns=points.shape[1])
    tops = np.argmax(vectors @ points.T, axis=1)
    return np.unique(tops, return_counts=True)


def terminal_anchor(
    points: np.ndarray, vertices: np.ndarray, epsilon: float
) -> int | None:
    """Lemma 6 terminal test over the extreme vectors of ``R``.

    Returns the index of a point whose regret ratio is below ``epsilon``
    for every utility vector in the convex hull of ``vertices`` (i.e. all
    of ``R``), or ``None`` when no such point exists and the interaction
    must continue.

    Every point is tested at once: the condition
    ``scores[:, i] >= (1 - eps) * rowmax`` is a dense boolean matrix
    reduction, so the complete check costs one ``(m, n)`` matrix product.
    Among qualifying points the one with the largest worst-case margin is
    returned (the most robust recommendation).
    """
    points = require_matrix(points, "points")
    vertices = require_matrix(vertices, "vertices", columns=points.shape[1])
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    scores = vertices @ points.T
    best = scores.max(axis=1, keepdims=True)
    margins = scores - (1.0 - epsilon) * best
    worst_margin = margins.min(axis=0)
    winner = int(np.argmax(worst_margin))
    if worst_margin[winner] >= -_TERMINAL_TOL:
        return winner
    return None


def build_action_vectors(
    region: ExactRange, n_samples: int, rng: RngLike = None
) -> np.ndarray:
    """The utility-vector set ``V`` of Section IV-B: samples + vertices.

    EA passes its :class:`~repro.geometry.range.ExactRange`, so the
    incrementally maintained vertex set is reused.

    The sampled part makes large-volume terminal polyhedra likely to be
    discovered (Lemma 5); the extreme vectors provide the side information
    for the terminal test (Lemma 6).
    """
    vertices = region.vertices()
    if n_samples <= 0:
        return vertices
    samples = region.sample(n_samples, rng=rng)
    return np.vstack([samples, vertices])


def anchor_pairs(
    anchors: np.ndarray,
    m_h: int,
    rng: np.random.Generator,
    counts: np.ndarray | None = None,
    vertex_scores: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """Select ``m_h`` distinct pairs of anchors (the EA action space).

    Every returned pair ``(i, j)`` has ``i != j`` and both points are
    top-1 somewhere in the scored vectors, so Lemma 7 says asking about
    them narrows ``R``.  In floating point that can fail: a pair's plane
    may only touch ``R``, or cut it by a few 1e-9, and then the answer
    leaves the vertex set as it was and the same question comes back
    (ROADMAP item 1 traces such a stall).  ``vertex_scores``, the
    ``(v, n)`` utilities of the anchors at the vertices of ``R``, guards
    against that: only pairs whose plane has vertices more than
    :data:`~repro.geometry.range.SPLIT_TOL` inside on both sides are
    offered, unless no pair splits ``R`` that clearly (then every pair
    is a candidate, as without ``vertex_scores``).

    With ``counts`` given (all positive), anchors are weighted
    proportionally to how often they topped the sampled utility vectors,
    i.e. to the (estimated) volume of their terminal polyhedra.
    Questions then discriminate between the *likely* winners first,
    which is the volume-sensitivity Lemma 5 motivates.  Without
    ``counts`` the choice is uniform over pairs, as in the paper's plain
    description.

    The pairs come from one draw: pair ``{i, j}`` gets the probability
    that two weighted draws without replacement pick it,
    ``p_i p_j (1 / (1 - p_i) + 1 / (1 - p_j))``, and a single
    ``rng.choice(n_pairs, m_h, replace=False, p=...)`` over the candidate
    upper-triangle pairs (row-major, renormalised) picks ``m_h`` of them
    by successive draws without replacement.  With at most ``m_h``
    candidates all are returned and nothing is drawn.  The result is
    sorted.
    """
    anchors = np.asarray(anchors, dtype=int)
    if anchors.shape[0] < 2:
        raise ValueError("need at least two anchors to form a question")
    if m_h < 1:
        raise ValueError(f"m_h must be >= 1, got {m_h}")
    n = anchors.shape[0]
    first, second = np.triu_indices(n, k=1)
    if vertex_scores is not None:
        values = vertex_scores[:, first] - vertex_scores[:, second]
        splits = (values.max(axis=0) > SPLIT_TOL) & (
            values.min(axis=0) < -SPLIT_TOL
        )
        if splits.any():
            first, second = first[splits], second[splits]
    if first.shape[0] <= m_h:
        chosen = np.arange(first.shape[0])
    else:
        if counts is None:
            probabilities = None
        else:
            counts = np.asarray(counts, dtype=float)
            if counts.shape != anchors.shape:
                raise ValueError("counts must align with anchors")
            if not np.all(counts > 0):
                raise ValueError("counts must be positive")
            weights = counts / counts.sum()
            p_i, p_j = weights[first], weights[second]
            probabilities = p_i * p_j * (1.0 / (1.0 - p_i) + 1.0 / (1.0 - p_j))
            probabilities /= probabilities.sum()
        chosen = rng.choice(
            first.shape[0], size=m_h, replace=False, p=probabilities
        )
    left, right = anchors[first[chosen]], anchors[second[chosen]]
    return sorted(
        zip(
            np.minimum(left, right).tolist(), np.maximum(left, right).tolist()
        )
    )

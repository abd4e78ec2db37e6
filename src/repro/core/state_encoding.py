"""EA's fixed-length state representation (Section IV-B).

The utility range ``R`` is summarised by two parts:

1. ``m_e`` *selected extreme vectors* — chosen by a greedy maximum-coverage
   procedure over ``d_eps``-neighbourhoods (the exact selection problem is
   NP-hard, Lemma 2; the greedy achieves the classic ``1 - 1/e`` bound).
2. The *outer sphere* — the smallest enclosing ball of all extreme
   vectors, computed with the paper's iterative mover (Lemma 3).

Concatenating the selected vectors with the sphere's centre and radius
yields a ``(d * m_e + d + 1)``-dimensional state vector regardless of how
many vertices the polytope happens to have.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.sphere import Sphere, minimum_enclosing_sphere, ritter_sphere
from repro.utils.rng import RngLike
from repro.utils.validation import require_matrix


def neighborhood_sets(vertices: np.ndarray, d_eps: float) -> np.ndarray:
    """Boolean coverage matrix: ``cover[i, j]`` iff ``||e_i - e_j|| <= d_eps``.

    Row ``i`` is the neighbourhood set ``S_{e_i}`` of Section IV-B (every
    vector covers itself since the distance is zero).
    """
    vertices = require_matrix(vertices, "vertices")
    if d_eps < 0:
        raise ValueError(f"d_eps must be >= 0, got {d_eps}")
    diff = vertices[:, None, :] - vertices[None, :, :]
    distances = np.linalg.norm(diff, axis=2)
    return distances <= d_eps + 1e-12


def select_extreme_vectors(
    vertices: np.ndarray, m_e: int, d_eps: float
) -> np.ndarray:
    """Greedy maximum-coverage selection of ``m_e`` representative vertices.

    Repeatedly picks the vertex whose neighbourhood covers the most
    not-yet-covered vertices (ties resolved by lowest index for
    determinism), stopping early once everything is covered; remaining
    slots are filled by cycling through the selected vectors so the state
    length is always exactly ``m_e`` (the paper leaves padding
    unspecified; repetition is information-neutral for the network).

    Returns an ``(m_e, d)`` array.
    """
    vertices = require_matrix(vertices, "vertices")
    if m_e < 1:
        raise ValueError(f"m_e must be >= 1, got {m_e}")
    n = vertices.shape[0]
    if n == 0:
        raise ValueError("cannot encode an empty vertex set")
    cover = neighborhood_sets(vertices, d_eps)
    uncovered = np.ones(n, dtype=bool)
    selected: list[int] = []
    while len(selected) < m_e and uncovered.any():
        gains = (cover & uncovered).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            break
        selected.append(best)
        uncovered &= ~cover[best]
    if not selected:  # d_eps = 0 edge case with duplicate-free cover
        selected.append(0)
    rows = [selected[i % len(selected)] for i in range(m_e)]
    return vertices[rows]


def ea_state(
    vertices: np.ndarray,
    m_e: int,
    d_eps: float,
    rng: RngLike = None,
    sphere_method: str = "iterative",
) -> tuple[np.ndarray, Sphere]:
    """The full EA state vector and the outer sphere it embeds.

    Layout: ``[e_1, ..., e_{m_e}, sphere_center, sphere_radius]`` of total
    length ``d * m_e + d + 1``.  ``sphere_method`` selects the outer-
    sphere solver: the paper's ``"iterative"`` mover (default) or
    ``"ritter"`` (ablation baseline).
    """
    selected = select_extreme_vectors(vertices, m_e, d_eps)
    if sphere_method == "ritter":
        sphere = ritter_sphere(vertices)
    else:
        sphere = minimum_enclosing_sphere(vertices, rng=rng)
    state = np.concatenate([selected.ravel(), sphere.features()])
    return state, sphere


def ea_state_dim(d: int, m_e: int) -> int:
    """Length of the EA state vector for dimensionality ``d``."""
    if d < 2 or m_e < 1:
        raise ValueError("need d >= 2 and m_e >= 1")
    return d * m_e + d + 1


def aa_state_from_range(
    urange,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """AA state ``[B_c, B_r, e_min, e_max]`` plus the rectangle itself.

    Reads the inner sphere and outer rectangle off an
    :class:`~repro.geometry.range.AmbientRange` (Section IV-C state
    layout, length ``3d + 1``).  Returns ``(state, e_min, e_max)`` so the
    caller can evaluate the stopping rule without re-solving the LPs.
    May raise :class:`~repro.errors.EmptyRegionError` for an inconsistent
    range.
    """
    center, radius = urange.inner_sphere()
    e_min, e_max = urange.bounds()
    state = np.concatenate([center, [radius], e_min, e_max])
    return state, e_min, e_max

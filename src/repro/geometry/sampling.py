"""Sampling utility vectors — uniformly on the simplex and inside polytopes.

Two samplers are provided:

* :func:`sample_simplex` — exact uniform samples on the utility simplex via
  the Dirichlet(1, ..., 1) construction.  Used to build training sets of
  utility vectors (Section V: "We randomly sampled 10,000 utility vectors
  from the utility space for training").
* :func:`hit_and_run` — an approximately uniform Markov-chain sampler over
  an arbitrary H-polytope ``{x : A x <= b}`` in reduced coordinates: one
  short chain per sample, all chains advanced together as array work.
  Used by algorithm EA to sample utility vectors inside the current range
  ``R`` when constructing terminal polyhedra (Lemma 5 justifies sampling
  as a volume-sensitive discovery mechanism).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.utils.rng import RngLike, ensure_rng

#: Steps each chain takes before its end point is returned as a sample.
DEFAULT_STEPS = 55
_LINE_TOL = 1e-12


def sample_simplex(d: int, n: int, rng: RngLike = None) -> np.ndarray:
    """Draw ``n`` utility vectors uniformly from the ``d``-simplex.

    Returns an ``(n, d)`` array with non-negative rows summing to 1.

    >>> u = sample_simplex(4, 3, rng=0)
    >>> u.shape
    (3, 4)
    >>> bool(np.allclose(u.sum(axis=1), 1.0))
    True
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    generator = ensure_rng(rng)
    return generator.dirichlet(np.ones(d), size=n)


def hit_and_run(
    a: np.ndarray,
    b: np.ndarray,
    start: np.ndarray,
    n_samples: int,
    rng: RngLike = None,
    steps: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Hit-and-run sampling over ``{x : A x <= b}``: one chain per sample.

    ``n_samples`` independent chains start at ``start`` and advance side
    by side; sample ``i`` is where chain ``i`` stands after ``steps``
    steps.  A step draws a uniformly random direction for every chain,
    computes each chain's feasible chord through its current point in
    closed form, and moves the chain to a uniform point on that chord.
    Each chain is uniform-ergodic on bounded full-dimensional polytopes.

    Draw order (part of every EA transcript, see ``docs/geometry.md``):
    each step draws ``standard_normal((n_samples, k))`` and then
    ``random(n_samples)``, so a call consumes exactly ``steps`` such
    pairs.  A chain whose chord is degenerate (flat in the drawn
    direction) stays put but still consumes its draws, so the stream
    never depends on the geometry.

    Parameters
    ----------
    a, b:
        H-representation of the polytope (reduced coordinates).
    start:
        An interior starting point shared by every chain (e.g. the
        Chebyshev centre, or the mean of the polytope's vertices).
    n_samples:
        Number of chains, hence of returned samples.
    steps:
        Chain length: the mixing control.

    Returns
    -------
    ``(n_samples, k)`` array of points inside the polytope.

    Raises
    ------
    ValueError
        On a start point of the wrong dimension, ``n_samples < 0`` or
        ``steps < 1``; these checks draw nothing.
    GeometryError
        If ``start`` is outside the polytope (before any draw), or the
        polytope is unbounded along a sampled direction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    start = np.asarray(start, dtype=float)
    if start.ndim != 1 or start.shape[0] != a.shape[1]:
        raise ValueError("start point dimension does not match constraints")
    if np.any(b - a @ start < -1e-9):
        raise GeometryError("hit-and-run start point is outside the polytope")
    if n_samples < 0:
        raise ValueError(f"sample count must be >= 0, got {n_samples}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    generator = ensure_rng(rng)
    k = start.shape[0]
    # Chains are columns: the per-row reductions below then run along
    # the long axis, which NumPy does about twice as fast for few rows.
    x = np.repeat(start[:, None], n_samples, axis=1)
    b = b[:, None]
    # Chains whose rate to a row is ~0 divide by ~0 below; those ratios
    # never pass the rate masks, so their inf/nan values are dropped.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            directions = generator.standard_normal((n_samples, k)).T
            fractions = generator.random(n_samples)
            norms = np.sqrt(np.einsum("ij,ij->j", directions, directions))
            directions = directions / np.maximum(norms, _LINE_TOL)
            # Chord of the line x + t * u: each row a_i . (x + t u) <= b_i
            # bounds t on one side by slack / rate.
            rates = a @ directions
            ratios = (b - a @ x) / rates
            t_high = np.where(rates > _LINE_TOL, ratios, np.inf).min(
                axis=0, initial=np.inf
            )
            t_low = np.where(rates < -_LINE_TOL, ratios, -np.inf).max(
                axis=0, initial=-np.inf
            )
            np.minimum(t_low, 0.0, out=t_low)
            np.maximum(t_high, 0.0, out=t_high)
            width = t_high - t_low
            # A degenerate chord (flat polytope in this direction) or
            # direction leaves the chain where it is.
            stay = (width < _LINE_TOL) | (norms < _LINE_TOL)
            if not np.isfinite(width[~stay]).all():
                raise GeometryError(
                    "polytope is unbounded along a sampled direction"
                )
            shift = t_low + fractions * width
            shift[stay] = 0.0
            x += shift * directions
    return np.ascontiguousarray(x.T)

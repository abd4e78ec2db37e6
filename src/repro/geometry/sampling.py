"""Sampling utility vectors — uniformly on the simplex and inside polytopes.

Two samplers are provided:

* :func:`sample_simplex` — exact uniform samples on the utility simplex via
  the Dirichlet(1, ..., 1) construction.  Used to build training sets of
  utility vectors (Section V: "We randomly sampled 10,000 utility vectors
  from the utility space for training").
* :func:`hit_and_run` — an approximately uniform Markov-chain sampler over
  an arbitrary H-polytope ``{x : A x <= b}`` in reduced coordinates.  Used
  by algorithm EA to sample utility vectors inside the current range ``R``
  when constructing terminal polyhedra (Lemma 5 justifies sampling as a
  volume-sensitive discovery mechanism).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeometryError
from repro.utils.rng import RngLike, ensure_rng

#: Steps discarded before the first retained hit-and-run sample.
DEFAULT_BURN_IN = 50
#: Chain steps between retained samples.
DEFAULT_THIN = 5
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
    burn_in: int = DEFAULT_BURN_IN,
    thin: int = DEFAULT_THIN,
) -> np.ndarray:
    """Hit-and-run sampling over ``{x : A x <= b}`` from ``start``.

    At each step a random direction is drawn, the feasible chord through
    the current point is computed in closed form, and the next point is
    drawn uniformly on the chord.  The chain is uniform-ergodic on bounded
    full-dimensional polytopes.

    Each step draws ``standard_normal(k)`` from ``rng`` and then, unless
    the chord is degenerate, one ``uniform``.  The samples and the
    generator's final state are part of every EA transcript, so this
    order and the arithmetic are fixed bit for bit (``docs/geometry.md``).

    Parameters
    ----------
    a, b:
        H-representation of the polytope (reduced coordinates).
    start:
        A strictly interior starting point (e.g. the Chebyshev centre).
    n_samples:
        Number of retained samples.
    burn_in, thin:
        Mixing controls; the chain runs ``burn_in + n_samples * thin`` steps.

    Returns
    -------
    ``(n_samples, k)`` array of points inside the polytope.

    Raises
    ------
    ValueError
        On a start point of the wrong dimension, ``n_samples < 0``,
        ``burn_in < 0`` or ``thin < 1``.
    GeometryError
        If ``start`` is outside the polytope, or the polytope is unbounded
        along a sampled direction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(start, dtype=float).copy()
    if x.ndim != 1 or x.shape[0] != a.shape[1]:
        raise ValueError("start point dimension does not match constraints")
    slack = b - a @ x
    if np.any(slack < -1e-9):
        raise GeometryError("hit-and-run start point is outside the polytope")
    if n_samples < 0:
        raise ValueError(f"sample count must be >= 0, got {n_samples}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    generator = ensure_rng(rng)
    normal = generator.standard_normal
    uniform = generator.uniform
    k = x.shape[0]
    samples = np.empty((n_samples, k))
    collected = 0
    step = 0
    total_steps = burn_in + n_samples * thin
    # Rows with a near-zero rate divide by ~0 below; they never pass the
    # rate masks, so their inf/nan ratios are dropped unread.
    with np.errstate(divide="ignore", invalid="ignore"):
        while collected < n_samples and step < total_steps:
            step += 1
            direction = normal(k)
            norm = math.sqrt(direction.dot(direction))
            if norm < _LINE_TOL:
                continue
            direction /= norm
            # Chord of the line x + t * direction: each constraint
            # a_i . (x + t u) <= b_i bounds t on one side by slack / rate.
            rates = a @ direction
            ratios = (b - a @ x) / rates
            upper = ratios[rates > _LINE_TOL]
            lower = ratios[rates < -_LINE_TOL]
            t_high = upper.min() if upper.size else math.inf
            t_low = lower.max() if lower.size else -math.inf
            if not (math.isfinite(t_low) and math.isfinite(t_high)):
                raise GeometryError(
                    "polytope is unbounded along a sampled direction"
                )
            t_low = min(t_low, 0.0)
            t_high = max(t_high, 0.0)
            if t_high - t_low < _LINE_TOL:
                # Degenerate chord (flat polytope in this direction); retry.
                continue
            x += uniform(t_low, t_high) * direction
            if step > burn_in and (step - burn_in) % thin == 0:
                samples[collected] = x
                collected += 1
    if collected < n_samples:
        # Flat or near-degenerate region: pad with the last chain state so
        # callers always receive the requested count.
        samples[collected:] = x
    return samples

"""Tests for simplex and polytope samplers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import simplex
from repro.geometry.hyperplane import preference_halfspace
from repro.geometry.polytope import UtilityPolytope
from repro.geometry.sampling import (
    DEFAULT_BURN_IN,
    DEFAULT_THIN,
    hit_and_run,
    sample_simplex,
)


class TestSampleSimplex:
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_output_on_simplex(self, d, n):
        samples = sample_simplex(d, n, rng=0)
        assert samples.shape == (n, d)
        for row in samples:
            assert simplex.on_simplex(row, tol=1e-9)

    def test_deterministic_with_seed(self):
        a = sample_simplex(3, 5, rng=42)
        b = sample_simplex(3, 5, rng=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_simplex(3, 5, rng=1)
        b = sample_simplex(3, 5, rng=2)
        assert not np.allclose(a, b)

    def test_roughly_uniform_means(self):
        samples = sample_simplex(4, 20_000, rng=0)
        np.testing.assert_allclose(samples.mean(axis=0), np.full(4, 0.25), atol=0.02)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            sample_simplex(0, 3)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample_simplex(3, -1)


class TestHitAndRun:
    def _square(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0, 0.0, 1.0, 0.0])
        return a, b

    def test_samples_stay_inside(self):
        a, b = self._square()
        samples = hit_and_run(a, b, start=np.array([0.5, 0.5]), n_samples=100, rng=0)
        assert samples.shape == (100, 2)
        assert np.all(samples >= -1e-9)
        assert np.all(samples <= 1 + 1e-9)

    def test_covers_the_square(self):
        a, b = self._square()
        samples = hit_and_run(a, b, start=np.array([0.5, 0.5]), n_samples=2000, rng=1)
        # Mean near the centre and significant spread in both axes.
        np.testing.assert_allclose(samples.mean(axis=0), [0.5, 0.5], atol=0.05)
        assert np.all(samples.std(axis=0) > 0.2)

    def test_outside_start_rejected(self):
        a, b = self._square()
        with pytest.raises(GeometryError):
            hit_and_run(a, b, start=np.array([2.0, 0.5]), n_samples=5)

    def test_unbounded_polytope_rejected(self):
        a = np.array([[1.0, 0.0]])  # only x <= 1: unbounded
        b = np.array([1.0])
        with pytest.raises(GeometryError):
            hit_and_run(a, b, start=np.array([0.0, 0.0]), n_samples=5, rng=0)

    def test_zero_samples(self):
        a, b = self._square()
        samples = hit_and_run(a, b, start=np.array([0.5, 0.5]), n_samples=0, rng=0)
        assert samples.shape == (0, 2)

    def test_dimension_mismatch(self):
        a, b = self._square()
        with pytest.raises(ValueError):
            hit_and_run(a, b, start=np.array([0.5]), n_samples=5)

    def test_deterministic_with_seed(self):
        a, b = self._square()
        s1 = hit_and_run(a, b, start=np.array([0.5, 0.5]), n_samples=10, rng=7)
        s2 = hit_and_run(a, b, start=np.array([0.5, 0.5]), n_samples=10, rng=7)
        np.testing.assert_array_equal(s1, s2)

    @pytest.mark.parametrize(
        "burn_in, thin, name", [(-10, 5, "burn_in"), (0, 0, "thin"), (0, -1, "thin")]
    )
    def test_bad_mixing_controls_rejected(self, burn_in, thin, name):
        # Either control would silently change the chain length; the
        # check comes before any draw.
        a, b = self._square()
        generator = np.random.default_rng(3)
        before = generator.bit_generator.state
        with pytest.raises(ValueError, match=name):
            hit_and_run(
                a, b, np.array([0.5, 0.5]), 5, rng=generator,
                burn_in=burn_in, thin=thin,
            )
        assert generator.bit_generator.state == before


_LINE_TOL = 1e-12


def _reference_hit_and_run(
    a, b, start, n_samples, rng=None, burn_in=DEFAULT_BURN_IN, thin=DEFAULT_THIN
):
    """The straightforward chain loop ``hit_and_run`` must match bit for bit.

    One NumPy expression per step of the algorithm, with the chord in its
    own helper: the specification of the samples and of the RNG draws.
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
    generator = np.random.default_rng(rng)
    k = x.shape[0]
    samples = np.empty((n_samples, k))
    collected = 0
    step = 0
    total_steps = burn_in + n_samples * max(thin, 1)
    while collected < n_samples and step < total_steps:
        step += 1
        direction = generator.standard_normal(k)
        norm = float(np.linalg.norm(direction))
        if norm < _LINE_TOL:
            continue
        direction /= norm
        t_low, t_high = _reference_chord(a, b, x, direction)
        if t_high - t_low < _LINE_TOL:
            continue
        x = x + generator.uniform(t_low, t_high) * direction
        if step > burn_in and (step - burn_in) % max(thin, 1) == 0:
            samples[collected] = x
            collected += 1
    if collected < n_samples:
        samples[collected:] = x
    return samples


def _reference_chord(a, b, x, direction):
    rates = a @ direction
    slack = b - a @ x
    t_low, t_high = -np.inf, np.inf
    positive = rates > _LINE_TOL
    negative = rates < -_LINE_TOL
    if np.any(positive):
        t_high = float(np.min(slack[positive] / rates[positive]))
    if np.any(negative):
        t_low = float(np.max(slack[negative] / rates[negative]))
    if not np.isfinite(t_low) or not np.isfinite(t_high):
        raise GeometryError("polytope is unbounded along a sampled direction")
    return min(t_low, 0.0), max(t_high, 0.0)


def _outcome(sampler, a, b, start, n_samples, seed, **controls):
    """What one run leaves behind: its samples or error, and the RNG state."""
    generator = np.random.default_rng(seed)
    try:
        result = sampler(a, b, start, n_samples, rng=generator, **controls)
    except (GeometryError, ValueError) as exc:
        result = (type(exc), str(exc))
    else:
        assert result.shape == (n_samples, len(start))
        result = result.tobytes()
    return result, generator.bit_generator.state


def _assert_bit_identical(a, b, start, n_samples, seed, **controls):
    ours = _outcome(hit_and_run, a, b, start, n_samples, seed, **controls)
    reference = _outcome(
        _reference_hit_and_run, a, b, start, n_samples, seed, **controls
    )
    assert ours == reference


@st.composite
def _narrowed_ranges(draw):
    """A reduced simplex cut by random preference half-spaces: the ranges
    EA samples, as ``(A, b, interior start)``."""
    d = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = UtilityPolytope.simplex(d)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        p, q = rng.uniform(0.05, 1.0, size=(2, d))
        if np.allclose(p, q):
            continue
        candidate = poly.with_halfspace(preference_halfspace(p, q))
        if not candidate.is_empty() and candidate.chebyshev_center()[1] > 1e-9:
            poly = candidate
    a, b = poly.constraints
    start = simplex.reduce_point(poly.chebyshev_center()[0])
    return a, b, start


@st.composite
def _thin_slabs(draw):
    """A unit box with one side squeezed below the chord tolerance: most
    or all steps hit the degenerate-chord retry and the tail is padding."""
    k = draw(st.integers(min_value=1, max_value=5))
    width = draw(st.sampled_from([1e-13, 5e-13, 1e-11]))
    a = np.vstack([np.eye(k), -np.eye(k)])
    b = np.concatenate([np.ones(k), np.zeros(k)])
    b[0] = width
    start = np.full(k, 0.5)
    start[0] = width / 2
    return a, b, start


_chain_controls = {
    "n_samples": st.integers(min_value=0, max_value=64),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "burn_in": st.integers(min_value=0, max_value=60),
    "thin": st.integers(min_value=1, max_value=8),
}


class TestHitAndRunBitIdentity:
    """``hit_and_run`` returns the reference's samples, byte for byte, and
    leaves the generator in the reference's state."""

    @given(polytope=_narrowed_ranges(), **_chain_controls)
    @settings(max_examples=60, deadline=None)
    def test_narrowed_ranges(self, polytope, n_samples, seed, burn_in, thin):
        a, b, start = polytope
        _assert_bit_identical(
            a, b, start, n_samples, seed, burn_in=burn_in, thin=thin
        )

    @given(slab=_thin_slabs(), **_chain_controls)
    @settings(max_examples=30, deadline=None)
    def test_thin_slabs(self, slab, n_samples, seed, burn_in, thin):
        a, b, start = slab
        _assert_bit_identical(
            a, b, start, n_samples, seed, burn_in=burn_in, thin=thin
        )

    @given(
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_unbounded_raises_the_same(self, k, seed):
        # Only x_0 <= 1: every chord is unbounded on at least one side.
        a = np.zeros((1, k))
        a[0, 0] = 1.0
        _assert_bit_identical(a, np.ones(1), np.zeros(k), 5, seed)

    @given(
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_outside_start_raises_the_same(self, k, seed):
        a, b = simplex.simplex_constraints(k + 1)
        _assert_bit_identical(a, b, np.full(k, 2.0), 5, seed)

    def test_default_controls(self):
        a, b = simplex.simplex_constraints(4)
        start = simplex.reduce_point(simplex.simplex_centroid(4))
        _assert_bit_identical(a, b, start, 64, 11)

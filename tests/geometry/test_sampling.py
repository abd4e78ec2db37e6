"""Tests for simplex and polytope samplers."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyRegionError, GeometryError
from repro.geometry import simplex
from repro.geometry.hyperplane import preference_halfspace
from repro.geometry.range import ExactRange
from repro.geometry.sampling import DEFAULT_STEPS, hit_and_run, sample_simplex
from tests.geometry.test_polytope import system


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

    @pytest.mark.parametrize("steps", [0, -1])
    def test_bad_mixing_controls_rejected(self, steps):
        # A bad chain length is rejected before any draw.
        a, b = self._square()
        generator = np.random.default_rng(3)
        before = generator.bit_generator.state
        with pytest.raises(ValueError, match="steps"):
            hit_and_run(a, b, np.array([0.5, 0.5]), 5, rng=generator, steps=steps)
        assert generator.bit_generator.state == before

    @pytest.mark.parametrize("n_samples, start", [(-1, [0.5, 0.5]), (5, [0.5])])
    def test_value_errors_draw_nothing(self, n_samples, start):
        a, b = self._square()
        generator = np.random.default_rng(3)
        before = generator.bit_generator.state
        with pytest.raises(ValueError):
            hit_and_run(a, b, np.array(start), n_samples, rng=generator)
        assert generator.bit_generator.state == before


def _outcome(a, b, start, n_samples, seed, **controls):
    """What one run leaves behind: its samples or error, and the RNG state."""
    generator = np.random.default_rng(seed)
    try:
        result = hit_and_run(a, b, start, n_samples, rng=generator, **controls)
    except (GeometryError, ValueError) as exc:
        result = (type(exc), str(exc))
    else:
        assert result.shape == (n_samples, len(start))
        result = result.tobytes()
    return result, generator.bit_generator.state


def _state_after_draws(seed, n_samples, k, steps):
    """The generator state after ``steps`` steps of the documented draws:
    ``standard_normal((n_samples, k))`` then ``random(n_samples)``."""
    generator = np.random.default_rng(seed)
    for _ in range(steps):
        generator.standard_normal((n_samples, k))
        generator.random(n_samples)
    return generator.bit_generator.state


def _assert_specified(a, b, start, n_samples, seed, steps):
    """Same seed, same bytes and state; the state is the documented
    draws'; every sample lies inside the polytope within 1e-9."""
    first = _outcome(a, b, start, n_samples, seed, steps=steps)
    assert _outcome(a, b, start, n_samples, seed, steps=steps) == first
    assert first[1] == _state_after_draws(seed, n_samples, len(start), steps)
    samples = np.frombuffer(first[0]).reshape(n_samples, len(start))
    assert np.all(samples @ a.T <= b + 1e-9)


@st.composite
def _narrowed_ranges(draw):
    """A reduced simplex cut by random preference half-spaces: the ranges
    EA samples, as ``(A, b, interior start)``."""
    d = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kept = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        p, q = rng.uniform(0.05, 1.0, size=(2, d))
        if np.allclose(p, q):
            continue
        halfspace = preference_halfspace(p, q)
        try:
            candidate = ExactRange.from_halfspaces(d, kept + [halfspace])
        except EmptyRegionError:
            continue
        if candidate.chebyshev_center()[1] > 1e-9:
            kept.append(halfspace)
    urange = ExactRange.from_halfspaces(d, kept)
    a, b = system(urange)
    start = simplex.reduce_point(urange.chebyshev_center()[0])
    return a, b, start


@st.composite
def _thin_slabs(draw):
    """A unit box with one side squeezed below the chord tolerance: most
    or all chains meet degenerate chords and stay put."""
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
    "steps": st.integers(min_value=1, max_value=80),
}


class TestHitAndRunBitIdentity:
    """``hit_and_run`` is a pure function of its inputs and the seed, and
    consumes exactly the documented draws whatever the geometry."""

    @given(polytope=_narrowed_ranges(), **_chain_controls)
    @settings(max_examples=60, deadline=None)
    def test_narrowed_ranges(self, polytope, n_samples, seed, steps):
        a, b, start = polytope
        _assert_specified(a, b, start, n_samples, seed, steps)

    @given(slab=_thin_slabs(), **_chain_controls)
    @settings(max_examples=30, deadline=None)
    def test_thin_slabs(self, slab, n_samples, seed, steps):
        a, b, start = slab
        _assert_specified(a, b, start, n_samples, seed, steps)

    @given(
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_unbounded_raises_the_same(self, k, seed):
        # Only x_0 <= 1: every chord is unbounded on at least one side,
        # so the first step's draws are made and then the call raises.
        a = np.zeros((1, k))
        a[0, 0] = 1.0
        result, state = _outcome(a, np.ones(1), np.zeros(k), 5, seed)
        assert result[0] is GeometryError
        assert state == _state_after_draws(seed, 5, k, 1)
        assert _outcome(a, np.ones(1), np.zeros(k), 5, seed) == (result, state)

    @given(
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_outside_start_raises_the_same(self, k, seed):
        # The start is checked before any draw.
        a, b = simplex.simplex_constraints(k + 1)
        result, state = _outcome(a, b, np.full(k, 2.0), 5, seed)
        assert result[0] is GeometryError
        assert state == _state_after_draws(seed, 5, k, 0)

    def test_default_controls(self):
        a, b = simplex.simplex_constraints(4)
        start = simplex.reduce_point(np.full(4, 0.25))
        assert DEFAULT_STEPS == 55
        default = _outcome(a, b, start, 64, 11)
        assert default == _outcome(a, b, start, 64, 11, steps=DEFAULT_STEPS)
        _assert_specified(a, b, start, 64, 11, DEFAULT_STEPS)


def _serial_chain(a, b, start, n_samples, rng, burn_in=50, thin=5):
    """The sampler ``hit_and_run`` replaced: one chain, thinned.

    It took ``burn_in`` steps and then kept every ``thin``-th point, so
    its 64 samples were 370 steps of one chain.  Kept as the quality
    yardstick: the chains side by side must be no worse.
    """
    x = np.array(start, dtype=float)
    samples = np.empty((n_samples, x.shape[0]))
    for step in range(1, burn_in + n_samples * thin + 1):
        direction = rng.standard_normal(x.shape[0])
        direction /= np.linalg.norm(direction)
        rates = a @ direction
        ratios = (b - a @ x) / rates
        t_high = max(ratios[rates > 1e-12].min(), 0.0)
        t_low = min(ratios[rates < -1e-12].max(), 0.0)
        if t_high - t_low >= 1e-12:
            x = x + rng.uniform(t_low, t_high) * direction
        if step > burn_in and (step - burn_in) % thin == 0:
            samples[(step - burn_in) // thin - 1] = x
    return samples


def _user_range(d, seed, cuts=3):
    """A range as a consistent user leaves it: ``cuts`` random questions,
    each answered in favour of one hidden utility vector."""
    rng = np.random.default_rng(seed)
    utility = rng.dirichlet(np.ones(d))
    spaces = []
    for _ in range(cuts):
        p, q = rng.uniform(0.05, 1.0, size=(2, d))
        if utility @ p < utility @ q:
            p, q = q, p
        spaces.append(preference_halfspace(p, q))
    return ExactRange.from_halfspaces(d, spaces)


def _exact_moments(urange, draws=100_000):
    """Mean and sd of the uniform distribution on ``urange`` (reduced
    coordinates), by rejection from exact simplex samples."""
    a, b = system(urange)
    reduced = sample_simplex(urange.dimension, draws, rng=0)[:, :-1]
    inside = reduced[np.all(reduced @ a.T <= b, axis=1)]
    assert inside.shape[0] > 5_000
    return inside.mean(axis=0), inside.std(axis=0)


def _start(urange, rule):
    """The chains' start in ``ExactRange.sample``: the Chebyshev centre
    before the range holds its vertices, the mean of the unrounded
    vertices once it does."""
    if rule == "chebyshev":
        return simplex.reduce_point(urange.chebyshev_center()[0])
    urange.vertices()
    return urange.get_state()["reduced"].mean(axis=0)


def _side_by_side(a, b, start, n_samples, rng):
    return hit_and_run(a, b, start, n_samples, rng=rng)


@functools.lru_cache(maxsize=None)
def _errors(d, sampler, rule, ranges=6, calls=20):
    """Mean over six user ranges of (per-call error of a 64-sample mean,
    error of all calls' pooled mean); each error is the largest gap to
    the exact mean over the coordinates, in units of their sd."""
    per_call, pooled = [], []
    for seed in range(ranges):
        urange = _user_range(d, seed)
        a, b = system(urange)
        start = _start(urange, rule)
        mean, sd = _exact_moments(urange)
        generator = np.random.default_rng(0)
        batches = [sampler(a, b, start, 64, generator) for _ in range(calls)]
        per_call.append(
            np.mean([np.max(np.abs(s.mean(axis=0) - mean) / sd) for s in batches])
        )
        pooled.append(
            np.max(np.abs(np.vstack(batches).mean(axis=0) - mean) / sd)
        )
    return float(np.mean(per_call)), float(np.mean(pooled))


#: Pooled-mean error (in sd, averaged over the six ranges) that the
#: serial chain meets, per d: it measures 0.05, 0.11 and 0.36.
_POOLED_BOUND = {3: 0.1, 6: 0.2, 10: 0.4}


class TestHitAndRunQuality:
    """Side-by-side chains against exact uniform moments, with the serial
    chain (from the Chebyshev centre, as it ran) as the yardstick;
    ``docs/geometry.md`` tabulates the numbers."""

    @pytest.mark.parametrize("d", [3, 6, 10])
    def test_pooled_means_within_serial_bound(self, d):
        # From the vertex mean, as EA samples.  From the Chebyshev centre
        # at d = 10 the 55-step chains keep a start bias of 0.66 sd
        # (docs/geometry.md).
        bound = _POOLED_BOUND[d]
        assert _errors(d, _serial_chain, "chebyshev")[1] < bound
        assert _errors(d, _side_by_side, "vertex_mean")[1] < bound

    @pytest.mark.parametrize("rule", ["chebyshev", "vertex_mean"])
    @pytest.mark.parametrize("d", [3, 6, 10])
    def test_per_call_error_no_worse_than_serial_chain(self, d, rule):
        serial = _errors(d, _serial_chain, "chebyshev")[0]
        assert _errors(d, _side_by_side, rule)[0] <= serial

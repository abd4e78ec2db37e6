"""Tests for the incremental utility-range abstraction.

The load-bearing property is *clip == rebuild*: an
:class:`~repro.geometry.range.ExactRange` that maintains its vertex set
incrementally must round to exactly the vertex set the from-scratch
enumeration of :meth:`~repro.geometry.range.ExactRange.from_halfspaces`
produces after the same answer sequence — otherwise the refactor silently changes
every algorithm built on top of it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, EmptyRegionError
from repro.geometry import lp, sampling, simplex
from repro.geometry.hyperplane import PreferenceHalfspace, preference_halfspace
from repro.geometry.range import (
    CERT_TOL,
    PRUNE_ABOVE,
    SPLIT_TOL,
    AmbientRange,
    ExactRange,
    UpdatePreview,
    prefetch_updates,
)


def random_halfspaces(d: int, count: int, seed: int) -> list:
    """Deterministic random preference half-spaces in dimension ``d``."""
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(count):
        a, b = rng.uniform(0.01, 1.0, size=(2, d))
        if not np.allclose(a, b):
            spaces.append(preference_halfspace(a, b))
    return spaces


def consistent(d: int, halfspaces: list) -> list:
    """The half-spaces kept by checking each against the ones before."""
    kept: list = []
    for halfspace in halfspaces:
        try:
            ExactRange.from_halfspaces(d, kept + [halfspace])
        except EmptyRegionError:
            continue
        kept.append(halfspace)
    return kept


def reference_vertices(d: int, halfspaces: list) -> np.ndarray:
    """The from-scratch path: feasibility-check each step, enumerate once."""
    return ExactRange.from_halfspaces(d, consistent(d, halfspaces)).vertices()


class TestRangeConfig:
    """The range options left: the ``PRUNE_ABOVE`` constant and the cap."""

    def test_defaults(self):
        assert PRUNE_ABOVE == 24
        # No cap by default: every applied half-space is kept.
        urange = AmbientRange(4)
        applied = sum(
            urange.update(halfspace)
            for halfspace in random_halfspaces(4, 30, seed=8)
        )
        assert len(urange.halfspaces) == applied

    def test_rejects_bad_cap(self):
        with pytest.raises(ConfigurationError):
            AmbientRange(3, max_halfspaces=0)


class TestExactRangeBasics:
    def test_starts_at_simplex(self):
        urange = ExactRange(3)
        vertices = urange.vertices()
        assert vertices.shape == (3, 3)
        np.testing.assert_allclose(vertices.sum(axis=1), np.ones(3), atol=1e-9)

    def test_rejects_low_dimension(self):
        with pytest.raises(ConfigurationError):
            ExactRange(1)

    def test_rejects_mismatched_halfspace(self):
        urange = ExactRange(3)
        halfspace = random_halfspaces(4, 1, seed=0)[0]
        with pytest.raises(ConfigurationError):
            urange.update(halfspace)

    def test_update_narrows_and_counts(self):
        urange = ExactRange(4)
        urange.vertices()  # trigger the initial enumeration
        applied = sum(
            urange.update(halfspace)
            for halfspace in random_halfspaces(4, 4, seed=1)
        )
        stats = urange.stats
        assert stats.updates == 4
        assert stats.rejected == 4 - applied
        assert stats.clips + stats.rebuilds - 1 >= applied
        assert len(urange.halfspaces) == applied

    def test_interior_point_is_contained(self):
        urange = ExactRange(3)
        for halfspace in random_halfspaces(3, 3, seed=2):
            urange.update(halfspace)
        assert urange.contains(urange.chebyshev_center()[0], tol=1e-7)

    def test_sample_stays_inside(self):
        urange = ExactRange(3)
        for halfspace in random_halfspaces(3, 2, seed=3):
            urange.update(halfspace)
        samples = urange.sample(16, rng=0)
        assert samples.shape == (16, 3)
        for sample in samples:
            assert urange.contains(sample, tol=1e-6)

    def test_matches_polytope_sample_bitwise(self):
        """Hit-and-run through the range runs on the from-scratch
        H-representation: from the Chebyshev centre while no vertex set
        is held, and from the mean of the unrounded vertices (the
        state's ``reduced``) once it is."""
        spaces = random_halfspaces(3, 3, seed=4)
        fresh = ExactRange.from_halfspaces(3, spaces)
        urange = ExactRange(3)
        for halfspace in spaces:
            assert urange.update(halfspace)
        a, b = fresh.get_state()["a"], fresh.get_state()["b"]
        assert np.array_equal(urange.get_state()["a"], a)
        assert np.array_equal(urange.get_state()["b"], b)
        center, radius = lp.chebyshev_center(a, b)
        expected = simplex.lift_points(
            sampling.hit_and_run(a, b, center, 8, rng=7)
        )
        assert np.array_equal(fresh.sample(8, rng=7), expected)
        start = urange.get_state()["reduced"].mean(axis=0)
        expected = simplex.lift_points(
            sampling.hit_and_run(a, b, start, 8, rng=7)
        )
        assert np.array_equal(urange.sample(8, rng=7), expected)
        ours = urange.chebyshev_center()
        assert np.array_equal(ours[0], simplex.lift_point(center))
        assert ours[1] == radius


def _same_state(left: dict, right: dict) -> bool:
    """Range states equal key by key (arrays compared exactly)."""
    if left.keys() != right.keys():
        return False
    for key, value in left.items():
        other = right[key]
        if isinstance(value, dict):
            if not _same_state(value, other):
                return False
        elif isinstance(value, np.ndarray) or isinstance(other, np.ndarray):
            if not np.array_equal(value, other):
                return False
        elif value != other:
            return False
    return True


class TestInfeasiblePolicy:
    """A half-space that would empty ``R`` is dropped, never raised."""

    def _assert_dropped(self, kind):
        # ``a`` dominates ``b``, so "b preferred" empties any range; the
        # forward answer is redundant and always applies.
        rng = np.random.default_rng(5)
        b = rng.uniform(0.05, 0.8, size=4)
        a = b + 0.1
        forward = preference_halfspace(a, b)
        backward = preference_halfspace(b, a)
        urange = kind(4)
        assert urange.update(forward)
        before = urange.get_state()
        assert urange.update(backward) is False
        after = urange.get_state()
        assert urange.halfspaces == (forward,)
        assert after["stats"]["rejected"] == before["stats"]["rejected"] + 1
        del before["stats"], after["stats"]
        assert _same_state(before, after)

    def test_drop_policy_keeps_state(self):
        self._assert_dropped(ExactRange)

    def test_ambient_drop_policy(self):
        self._assert_dropped(AmbientRange)


class TestClipMatchesRebuild:
    """The tentpole property: incremental clips == from-scratch enumeration."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_sequences(self, d):
        for seed in range(3):
            spaces = random_halfspaces(d, 12, seed=100 * d + seed)
            urange = ExactRange(d)
            for halfspace in spaces:
                urange.update(halfspace)
            assert np.array_equal(
                urange.vertices(), reference_vertices(d, spaces)
            )

    @pytest.mark.parametrize("d", [3, 4])
    def test_long_sequence_exercises_prune(self, d):
        # > PRUNE_ABOVE constraints: the H-system must prune identically.
        spaces = random_halfspaces(d, 30, seed=11 * d)
        urange = ExactRange(d)
        for halfspace in spaces:
            urange.update(halfspace)
        assert np.array_equal(urange.vertices(), reference_vertices(d, spaces))

    def test_contradictory_sequence(self):
        # Opposite answers drive the range to (near) emptiness; the
        # surviving vertex set must still match the reference path.
        rng = np.random.default_rng(17)
        spaces = []
        for _ in range(6):
            a, b = rng.uniform(0.05, 1.0, size=(2, 4))
            spaces.append(preference_halfspace(a, b))
            spaces.append(preference_halfspace(b, a))
        urange = ExactRange(4)
        for halfspace in spaces:
            urange.update(halfspace)
        assert np.array_equal(urange.vertices(), reference_vertices(4, spaces))
        assert urange.stats.rejected > 0

    def test_near_parallel_cuts(self):
        # Nearly parallel planes produce sliver faces — the classic
        # degenerate-clip case; fallbacks must keep the sets identical.
        base = np.array([0.9, 0.5, 0.3])
        spaces = []
        for k in range(6):
            other = base + 1e-4 * (k + 1) * np.array([1.0, -1.0, 0.5])
            spaces.append(preference_halfspace(base, other))
        urange = ExactRange(3)
        for halfspace in spaces:
            urange.update(halfspace)
        assert np.array_equal(urange.vertices(), reference_vertices(3, spaces))

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=15),
    )
    def test_property_random_clip_equals_rebuild(self, d, seed, count):
        """Seeded property sweep over dimensions and sequence lengths."""
        spaces = random_halfspaces(d, count, seed=seed)
        urange = ExactRange(d)
        for halfspace in spaces:
            urange.update(halfspace)
        assert np.array_equal(urange.vertices(), reference_vertices(d, spaces))


class TestFromHalfspaces:
    def test_lazy_construction(self):
        # Keep only a consistent subset so the construction is feasible.
        spaces = consistent(4, random_halfspaces(4, 8, seed=6))
        urange = ExactRange.from_halfspaces(4, spaces)
        # Only the feasibility LP ran; no enumeration yet.
        assert urange.stats.rebuilds == 0
        clipped = ExactRange(4)
        for halfspace in spaces:
            assert clipped.update(halfspace)
        assert np.array_equal(urange.vertices(), clipped.vertices())

    def test_inconsistent_raises_even_when_dropping(self):
        # b + 0.1 dominates b, so "b preferred" is infeasible on its own.
        rng = np.random.default_rng(7)
        b = rng.uniform(0.05, 0.8, size=3)
        a = b + 0.1
        spaces = [preference_halfspace(a, b), preference_halfspace(b, a)]
        with pytest.raises(EmptyRegionError):
            ExactRange.from_halfspaces(3, spaces)

    def test_high_dimension_sampling(self):
        # Sampling-only workloads must not enumerate vertices.
        spaces = random_halfspaces(12, 6, seed=8)
        urange = ExactRange.from_halfspaces(12, spaces)
        samples = urange.sample(8, rng=0)
        assert samples.shape == (8, 12)
        assert urange.stats.rebuilds == 0


class TestAmbientRange:
    def test_surrogates_match_lp_helpers(self):
        spaces = random_halfspaces(6, 5, seed=9)
        urange = AmbientRange(6)
        for halfspace in spaces:
            urange.update(halfspace)
        kept = list(urange.halfspaces)
        normals = np.stack([np.arange(6, dtype=float) - 2.5, np.ones(6)])
        # No surrogate solved yet, so no witnesses: LP maxima throughout.
        margins = urange.split_margin(normals)
        assert margins.shape == (2,)
        assert np.array_equal(
            margins, lp.ambient_split_margins(kept, 6, normals)
        )
        center, radius = urange.inner_sphere()
        ref_center, ref_radius = lp.ambient_inner_sphere(kept, 6)
        assert np.array_equal(center, ref_center) and radius == ref_radius
        e_min, e_max = urange.bounds()
        ref_min, ref_max, _ = lp.ambient_bounds(kept, 6)
        assert np.array_equal(e_min, ref_min) and np.array_equal(e_max, ref_max)
        # Witnesses now certify: a certified row is a lower bound on the
        # LP maximum that still clears CERT_TOL.
        certified = urange.split_margin(normals)
        assert certified[1] >= CERT_TOL
        assert np.all(
            (certified == margins)
            | ((certified >= CERT_TOL) & (certified <= margins + 1e-9))
        )

    def test_interior_point_is_sphere_center(self):
        # The inner-sphere centre is a point of the range.
        spaces = random_halfspaces(4, 3, seed=5)
        urange = AmbientRange(4)
        for halfspace in spaces:
            urange.update(halfspace)
        center, radius = urange.inner_sphere()
        assert radius > 0
        assert np.all(center >= 0) and center.sum() == pytest.approx(1.0)
        for halfspace in urange.halfspaces:
            assert halfspace.contains(center, tol=1e-9)

    def test_working_set_cap_rotates_oldest(self):
        spaces = random_halfspaces(5, 8, seed=10)
        urange = AmbientRange(5, max_halfspaces=3)
        applied = [h for h in spaces if urange.update(h)]
        assert len(urange.halfspaces) == 3
        assert urange.halfspaces == tuple(applied[-3:])

    def test_cap_applied_before_feasibility(self):
        # With a cap, an answer contradicting only *rotated-out*
        # constraints is accepted: feasibility is judged on the capped
        # trial list (matching the old SinglePass working-set semantics).
        # The strict cycle u1 >= u2 >= u3 >= 1.2 u1 is empty as a whole
        # but every two-constraint subset has interior.
        base = np.full(3, 0.5)
        cycle = [
            np.array([0.2, -0.2, 0.0]),   # u1 >= u2
            np.array([0.0, 0.2, -0.2]),   # u2 >= u3
            np.array([-0.3, 0.0, 0.25]),  # u3 >= 1.2 u1
        ]
        spaces = [preference_halfspace(base + n, base) for n in cycle]
        uncapped = AmbientRange(3)
        for halfspace in spaces[:2]:
            assert uncapped.update(halfspace)
        assert not uncapped.update(spaces[2])
        capped = AmbientRange(3, max_halfspaces=2)
        for halfspace in spaces:
            assert capped.update(halfspace)
        assert capped.halfspaces == tuple(spaces[1:])


def narrowed_ambient(
    d: int, answers: int, seed: int, cap: int | None = None
) -> AmbientRange:
    """An :class:`AmbientRange` after ``answers`` random updates, with
    its witness set filled the way AA fills it each round."""
    urange = AmbientRange(d, max_halfspaces=cap)
    for halfspace in random_halfspaces(d, answers, seed):
        urange.update(halfspace)
    urange.inner_sphere()
    urange.bounds()
    return urange


def random_normals(d: int, k: int, seed: int) -> np.ndarray:
    """``k`` candidate-plane normals ``p_i - p_j`` in dimension ``d``."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.01, 1.0, size=(2, k, d))
    return a - b


class TestWitnessCertificates:
    """Witness points decide split margins and update feasibility exactly
    as the LPs they replace."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 8),
        answers=st.integers(0, 10),
        k=st.integers(1, 12),
        cap=st.sampled_from([None, 2, 4]),
        seed=st.integers(0, 2**16),
    )
    def test_decisions_match_lp(self, d, answers, k, cap, seed):
        urange = narrowed_ambient(d, answers, seed, cap)
        kept = list(urange.halfspaces)
        normals = random_normals(d, k, seed + 1)
        normals = np.vstack([normals, -normals])
        expected = lp.ambient_split_margins(kept, d, normals)
        margins = urange.split_margin(normals)
        assert np.array_equal(margins > SPLIT_TOL, expected > SPLIT_TOL)
        _, certified = urange._certify(normals)
        assert np.all(margins[certified] >= CERT_TOL)
        assert np.all(margins[certified] <= expected[certified] + 1e-9)
        # Certified rows run no LP.
        solves = lp.solve_count()
        urange.split_margin(normals[certified])
        assert lp.solve_count() == solves

    def test_typical_round_is_certified(self):
        # Without this the property above could hold vacuously.
        urange = narrowed_ambient(8, 10, seed=3)
        normals = random_normals(8, 5, seed=4)
        normals = np.vstack([normals, -normals])
        expected = lp.ambient_split_margins(list(urange.halfspaces), 8, normals)
        _, certified = urange._certify(normals)
        # Here every side the LP puts past CERT_TOL has a witness.
        assert certified.any()
        assert np.array_equal(certified, expected >= CERT_TOL)

    def test_update_skips_feasibility_lp_when_certified(self):
        urange = narrowed_ambient(5, 6, seed=7)
        normal = random_normals(5, 1, seed=8)[0]
        halfspace = PreferenceHalfspace(normal)
        if not urange._certifies(halfspace):
            halfspace = PreferenceHalfspace(-normal)
        assert urange._certifies(halfspace)
        solves = lp.solve_count()
        assert urange.update(halfspace)
        assert lp.solve_count() == solves

    def test_feasibility_optimiser_joins_witnesses(self):
        urange = AmbientRange(3)
        answered = PreferenceHalfspace(np.array([1.0, -1.0, 0.0]))
        assert not urange._certifies(answered)
        assert urange.update(answered)
        (point,) = urange._witnesses["feasible"]
        assert float(point @ answered.normal) >= -lp.FEASIBILITY_TOL
        # A later answer that point clears by CERT_TOL runs no LP.
        normal = np.zeros(3)
        normal[np.argmax(point)], normal[np.argmin(point)] = 1.0, -1.0
        follow = PreferenceHalfspace(normal)
        assert float(point @ follow.normal) >= CERT_TOL
        solves = lp.solve_count()
        assert urange.update(follow)
        assert lp.solve_count() == solves

    def test_contradictory_answer_dropped_with_witnesses(self):
        base = AmbientRange(3)
        answered = PreferenceHalfspace(np.array([1.0, -1.0, 0.0]))
        assert base.update(answered)
        base.inner_sphere()
        base.bounds()
        before = base.get_state()
        witnesses = dict(base._witnesses)
        assert witnesses
        rejected = base.stats.rejected
        # u . (-n - 0.01) < 0 everywhere on R = {u . n >= 0}.
        assert not base.update(PreferenceHalfspace(-answered.normal - 0.01))
        assert base.stats.rejected == rejected + 1
        after = base.get_state()
        after["stats"]["updates"] -= 1
        after["stats"]["rejected"] -= 1
        assert _same_state(after, before)
        # The range did not change, so its witnesses still hold.
        assert base._witnesses.keys() == witnesses.keys()

    def test_update_and_set_state_drop_witnesses(self):
        urange = narrowed_ambient(4, 5, seed=11)
        state = urange.get_state()
        assert urange._witnesses
        assert urange.update(PreferenceHalfspace(np.array([0.1, 0.0, 0.0, -0.1])))
        assert not urange._witnesses
        urange.inner_sphere()
        assert urange._witnesses
        urange.set_state(state)
        assert not urange._witnesses
        # Never part of the state.
        assert "witnesses" not in state

    def test_witness_breaking_a_row_certifies_nothing(self, monkeypatch):
        # A bounds optimiser 2e-4 outside one row of R still passes the
        # solver's post-check (sqrt(1e-9) * 10 ~ 3.2e-4), so witness
        # soundness must come from the range's own re-check.
        answered = PreferenceHalfspace(np.array([1.0, -1.0, 0.0]))
        # On the simplex, 2e-4 across the plane u1 = u2.
        bad = np.array([1 / 3 - 1e-4, 1 / 3 + 1e-4, 1 / 3])
        assert float(bad @ answered.normal) == pytest.approx(-2e-4)

        monkeypatch.setattr(
            lp, "solve_stacked",
            lambda systems: [
                lp.LPResult(x=bad.copy(), value=float(system.c @ bad))
                for system in systems
            ],
        )
        urange = AmbientRange(3)
        assert urange.update(answered)
        urange.bounds()
        monkeypatch.undo()
        assert not urange._witnesses
        # The bad point would have certified both of these.
        flipped = -answered.normal
        assert float(bad @ flipped) >= CERT_TOL
        contradiction = PreferenceHalfspace(flipped - 5e-5)
        assert float(bad @ contradiction.normal) >= CERT_TOL
        solves = lp.solve_count()
        (margin,) = urange.split_margin(flipped[None, :])
        assert margin <= SPLIT_TOL
        assert lp.solve_count() > solves
        assert not urange.update(contradiction)


def in_range(points: np.ndarray, halfspaces) -> np.ndarray:
    """Which rows of ``points`` lie in the ambient range within
    ``FEASIBILITY_TOL`` (the witness check of ``AmbientRange``)."""
    tol = lp.FEASIBILITY_TOL
    valid = (points >= -tol).all(axis=1)
    valid &= np.abs(points.sum(axis=1) - 1.0) <= tol
    if halfspaces:
        normals = np.array([h.normal for h in halfspaces])
        valid &= (points @ normals.T >= -tol).all(axis=1)
    return valid


class TestBoundProbeReuse:
    """``bounds()`` re-solves only the probes a new half-space cuts."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(3, 8),
        first=st.integers(0, 6),
        added=st.integers(0, 4),
        cap=st.sampled_from([None, 3, 6]),
        seed=st.integers(0, 2**16),
    )
    def test_reused_bounds_match_fresh_solve(self, d, first, added, cap, seed):
        spaces = random_halfspaces(d, first + added, seed)
        urange = AmbientRange(d, max_halfspaces=cap)
        for halfspace in spaces[:first]:
            urange.update(halfspace)
        urange.bounds()
        for halfspace in spaces[first:]:
            urange.update(halfspace)
        kept = list(urange.halfspaces)
        stale = urange._stale_probes(kept)
        e_min, e_max = urange.bounds()
        ref_min, ref_max, _ = lp.ambient_bounds(kept, d)
        np.testing.assert_allclose(e_min, ref_min, rtol=0, atol=1e-12)
        np.testing.assert_allclose(e_max, ref_max, rtol=0, atol=1e-12)
        reused = urange._bound_probes.optimisers[~stale]
        assert in_range(reused, kept).all()

    def test_reuse_solves_only_cut_probes(self):
        urange = narrowed_ambient(8, 4, seed=17)
        before = urange._bound_probes
        new = next(
            h for h in random_halfspaces(8, 12, seed=18)
            if lp.ambient_is_feasible(list(urange.halfspaces) + [h], 8)
        )
        assert urange.update(new)
        cut = before.optimisers @ new.normal < 0.0
        stale = urange._stale_probes(list(urange.halfspaces))
        assert np.array_equal(stale, cut)
        # Not vacuous: some probes carry over and some are re-solved.
        assert 0 < stale.sum() < 16
        cache = lp.LPCache()
        with lp.use_cache(cache):
            urange.bounds()
        assert cache.misses == stale.sum()
        after = urange._bound_probes
        # A reused probe keeps its value and optimiser bit for bit.
        assert np.array_equal(after.values[~stale], before.values[~stale])
        assert np.array_equal(
            after.optimisers[~stale], before.optimisers[~stale]
        )

    def test_unchanged_set_reuses_every_probe(self):
        urange = narrowed_ambient(4, 3, seed=19)
        first = urange.bounds()
        # A contradiction of the first answer is rejected.
        (answer, *_) = urange.halfspaces
        assert not urange.update(PreferenceHalfspace(-answer.normal - 0.01))
        solves = lp.solve_count()
        second = urange.bounds()
        assert lp.solve_count() == solves
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_rotation_resolves_every_probe(self):
        spaces = random_halfspaces(5, 10, seed=23)
        urange = AmbientRange(5, max_halfspaces=3)
        applied = [h for h in spaces if urange.update(h)]
        assert len(applied) > 3
        urange.bounds()
        base = urange._bound_probes.halfspaces
        # Rotating the oldest answer out relaxes the range: the old
        # optimisers need not be optimal any more.
        new = next(
            h for h in random_halfspaces(5, 20, seed=24)
            if urange.update(h)
        )
        assert urange.halfspaces[0] is base[1]
        assert urange.halfspaces[-1] is new
        assert urange._stale_probes(list(urange.halfspaces)).all()

    def test_probes_round_trip_through_state(self):
        urange = narrowed_ambient(6, 5, seed=27)
        state = urange.get_state()
        assert state["bounds_base"] == len(urange.halfspaces)
        restored = AmbientRange(6)
        restored.set_state(state)
        for key in ("values", "optimisers"):
            assert np.array_equal(
                getattr(restored._bound_probes, key),
                getattr(urange._bound_probes, key),
            )
        for halfspace in random_halfspaces(6, 3, seed=28):
            assert restored.update(halfspace) == urange.update(halfspace)
        kept = list(urange.halfspaces)
        assert np.array_equal(
            restored._stale_probes(list(restored.halfspaces)),
            urange._stale_probes(kept),
        )
        got, want = restored.bounds(), urange.bounds()
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_state_without_probes_restores_with_none(self):
        urange = narrowed_ambient(4, 4, seed=29)
        state = urange.get_state()
        for key in ("bounds_base", "bounds_values", "bounds_optimisers"):
            del state[key]
        restored = AmbientRange(4)
        restored.set_state(state)
        assert restored._bound_probes is None
        assert restored._stale_probes(list(restored.halfspaces)).all()
        # A range that never solved its bounds writes none either.
        fresh = AmbientRange(4).get_state()
        assert fresh["bounds_base"] is None
        assert fresh["bounds_values"] is None


class TestBackendSeam:
    """Range LPs are visible to ``lp.solve_count()`` and the LP cache."""

    def test_per_range_backend_counts_solves(self):
        # Without this the "no LP ran" checks below would be vacuous.
        for urange, work in (
            (AmbientRange(4), AmbientRange.inner_sphere),
            (ExactRange(3), ExactRange.chebyshev_center),
        ):
            solves_before = lp.solve_count()
            work(urange)
            assert lp.solve_count() > solves_before

    def test_cache_hits_attributed(self):
        cache = lp.LPCache()
        urange = AmbientRange(4)
        with lp.use_cache(cache):
            first = urange.bounds()
            hits, solves = cache.hits, lp.solve_count()
            # A twin range: the range itself would reuse its own probes.
            second = AmbientRange(4).bounds()
        assert cache.hits == hits + 2 * urange.dimension
        assert lp.solve_count() == solves
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_clip_avoids_emptiness_solves(self):
        urange = ExactRange(4)
        urange.vertices()
        solves = lp.solve_count()
        for halfspace in random_halfspaces(4, 6, seed=13):
            assert urange.update(halfspace)
        assert urange.stats.clips == 6
        # Feasibility was read off the vertex signs: no LP ran.
        assert lp.solve_count() == solves


class TestStateCompatibility:
    """States written before the range options became arguments restore."""

    @pytest.mark.parametrize("kind", [ExactRange, AmbientRange])
    def test_legacy_config_and_stats_keys_restore(self, kind):
        spaces = random_halfspaces(4, 8, seed=21)
        make = (
            (lambda: AmbientRange(4, max_halfspaces=3))
            if kind is AmbientRange
            else (lambda: ExactRange(4))
        )
        original = make()
        for halfspace in spaces[:-1]:
            original.update(halfspace)
        legacy = original.get_state()
        legacy["config"] = {
            "prune_above": 24,
            "on_infeasible": "drop",
            "max_halfspaces": 3 if kind is AmbientRange else None,
        }
        legacy["stats"] = dict(
            legacy["stats"],
            empties_avoided=4,
            cache_hits=2,
            backend_solves=9,
            solves_avoided=6,
        )
        restored = make()
        restored.set_state(legacy)
        assert restored.stats == original.stats
        assert _same_state(restored.get_state(), original.get_state())
        if isinstance(original, ExactRange):
            assert np.array_equal(restored.vertices(), original.vertices())
        # The next update continues bit-identically.
        assert restored.update(spaces[-1]) == original.update(spaces[-1])
        assert _same_state(restored.get_state(), original.get_state())
        if isinstance(original, ExactRange):
            assert np.array_equal(restored.vertices(), original.vertices())
        else:
            got, want = restored.bounds(), original.bounds()
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestPrefetchUpdates:
    """Batch priming must be invisible except for speed."""

    def _twin_ambient(self, d=5, answers=6, seed=31, uncertified=False):
        spaces = random_halfspaces(d, answers * 4, seed=seed)
        plain = AmbientRange(d)
        primed = AmbientRange(d)
        for halfspace in spaces[: answers - 1]:
            plain.update(halfspace)
            primed.update(halfspace)
        # Pick a final half-space whose trial stays feasible, so the
        # update really applies (and its bound probes are prefetchable);
        # with ``uncertified``, one no witness certifies, so the update
        # runs its feasibility probe.
        kept = list(primed.halfspaces)
        for candidate in spaces[answers - 1 :]:
            if uncertified and primed._certifies(candidate):
                continue
            if lp.ambient_is_feasible(kept + [candidate], d):
                return plain, primed, candidate
        raise AssertionError("no feasible final half-space found")

    def test_ambient_prefetch_is_bit_identical(self):
        plain, primed, new = self._twin_ambient()
        with lp.use_cache(lp.LPCache()):
            prefetch_updates([UpdatePreview(primed, new, bounds=True)])
            assert primed.update(new) == plain.update(new)
            primed_bounds = primed.bounds()
        plain_bounds = plain.bounds()
        assert np.array_equal(primed_bounds[0], plain_bounds[0])
        assert np.array_equal(primed_bounds[1], plain_bounds[1])
        assert primed.halfspaces == plain.halfspaces

    def test_ambient_prefetch_primes_cache(self):
        _, primed, new = self._twin_ambient(uncertified=True)
        cache = lp.LPCache()
        with lp.use_cache(cache):
            prefetch_updates([UpdatePreview(primed, new, bounds=True)])
            hits_before = cache.hits
            primed.update(new)
            primed.bounds()
            # Feasibility probe plus all 2d bound probes replay as hits.
            assert cache.hits == hits_before + 1 + 2 * primed.dimension

    def test_ambient_prefetch_without_cache_is_noop(self):
        _, primed, new = self._twin_ambient()
        solves_before = lp.solve_count()
        prefetch_updates([UpdatePreview(primed, new, bounds=True)])
        assert lp.solve_count() == solves_before
        assert primed.update(new)

    def test_infeasible_trial_prefetch_matches(self):
        rng = np.random.default_rng(5)
        b = rng.uniform(0.05, 0.8, size=4)
        a = b + 0.1
        forward = preference_halfspace(a, b)
        backward = preference_halfspace(b, a)
        plain = AmbientRange(4)
        primed = AmbientRange(4)
        plain.update(forward)
        primed.update(forward)
        with lp.use_cache(lp.LPCache()):
            prefetch_updates([UpdatePreview(primed, backward, bounds=True)])
            assert primed.update(backward) == plain.update(backward) == False  # noqa: E712
        assert primed.halfspaces == plain.halfspaces

    def test_exact_prefetch_is_bit_identical(self):
        spaces = random_halfspaces(4, 7, seed=12)
        plain = ExactRange(4)
        primed = ExactRange(4)
        for halfspace in spaces[:-1]:
            plain.update(halfspace)
            primed.update(halfspace)
        plain.vertices(), primed.vertices()
        prefetch_updates([UpdatePreview(primed, spaces[-1])])
        assert primed._clip_memo is not None
        assert primed.update(spaces[-1]) == plain.update(spaces[-1])
        assert np.array_equal(primed.vertices(), plain.vertices())
        # The memo is one-shot: consumed by the update.
        assert primed._clip_memo is None

    def test_exact_memo_survives_wrong_halfspace(self):
        # A memo stashed for one half-space must not corrupt an update
        # with a different one (exact fingerprint check).
        spaces = random_halfspaces(5, 8, seed=13)
        plain = ExactRange(5)
        primed = ExactRange(5)
        for halfspace in spaces[:-2]:
            plain.update(halfspace)
            primed.update(halfspace)
        plain.vertices(), primed.vertices()
        prefetch_updates([UpdatePreview(primed, spaces[-1])])
        assert primed.update(spaces[-2]) == plain.update(spaces[-2])
        assert np.array_equal(primed.vertices(), plain.vertices())

    def test_mixed_wave_prefetch(self):
        # One prefetch call over both range kinds, several sessions each.
        waves = []
        for seed in (40, 41, 42):
            spaces = random_halfspaces(4, 6, seed=seed)
            exact = ExactRange(4)
            ambient = AmbientRange(4)
            ref_exact = ExactRange(4)
            ref_ambient = AmbientRange(4)
            for halfspace in spaces[:-1]:
                for urange in (exact, ambient, ref_exact, ref_ambient):
                    urange.update(halfspace)
            exact.vertices(), ref_exact.vertices()
            waves.append((exact, ambient, ref_exact, ref_ambient, spaces[-1]))
        with lp.use_cache(lp.LPCache()):
            prefetch_updates(
                [
                    preview
                    for exact, ambient, _, _, new in waves
                    for preview in (
                        UpdatePreview(exact, new),
                        UpdatePreview(ambient, new, bounds=True),
                    )
                ]
            )
            for exact, ambient, ref_exact, ref_ambient, new in waves:
                assert exact.update(new) == ref_exact.update(new)
                assert np.array_equal(exact.vertices(), ref_exact.vertices())
                assert ambient.update(new) == ref_ambient.update(new)
                got, want = ambient.bounds(), ref_ambient.bounds()
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

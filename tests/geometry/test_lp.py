"""Tests for the LP toolkit (reduced- and ambient-space helpers)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.errors import EmptyRegionError
from repro.geometry import lp, simplex
from repro.geometry.hyperplane import preference_halfspace


def square_constraints() -> tuple[np.ndarray, np.ndarray]:
    """The unit square [0, 1]^2 as A x <= b."""
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    return a, b


class TestSolve:
    def test_minimises(self):
        a, b = square_constraints()
        result = lp.solve(np.array([1.0, 1.0]), a_ub=a, b_ub=b)
        assert result.value == pytest.approx(0.0)

    def test_maximise_wrapper(self):
        a, b = square_constraints()
        result = lp.maximize(np.array([1.0, 1.0]), a_ub=a, b_ub=b)
        assert result.value == pytest.approx(2.0)

    def test_variables_free_by_default(self):
        # min x s.t. x >= -5 should reach -5, not 0.
        result = lp.solve(
            np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([5.0])
        )
        assert result.value == pytest.approx(-5.0)

    def test_infeasible_raises(self):
        a = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
        with pytest.raises(lp.InfeasibleLP):
            lp.solve(np.array([1.0]), a_ub=a, b_ub=b)

    def test_unbounded_raises(self):
        with pytest.raises(lp.UnboundedLP):
            lp.solve(np.array([-1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))


class TestChebyshev:
    def test_square_center(self):
        a, b = square_constraints()
        center, radius = lp.chebyshev_center(a, b)
        np.testing.assert_allclose(center, [0.5, 0.5], atol=1e-8)
        assert radius == pytest.approx(0.5)

    def test_empty_raises(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([-1.0, -1.0])
        with pytest.raises(lp.InfeasibleLP):
            lp.chebyshev_center(a, b)

    def test_flat_polytope_zero_radius(self):
        # x_1 = 0.5 exactly.
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([0.5, -0.5, 1.0, 0.0])
        _, radius = lp.chebyshev_center(a, b)
        assert radius == pytest.approx(0.0, abs=1e-9)


class TestSupportAndRedundancy:
    def test_support_value(self):
        a, b = square_constraints()
        assert lp.support_value(a, b, np.array([1.0, -1.0])) == pytest.approx(1.0)

    def test_is_feasible(self):
        a, b = square_constraints()
        assert lp.is_feasible(a, b)

    def test_redundant_constraint_detected(self):
        a, b = square_constraints()
        a2 = np.vstack([a, [1.0, 0.0]])
        b2 = np.append(b, 2.0)  # x <= 2 is implied by x <= 1
        assert lp.constraint_is_redundant(a2, b2, index=4)

    def test_necessary_constraint_kept(self):
        a, b = square_constraints()
        assert not lp.constraint_is_redundant(a, b, index=0)


class TestAmbientHelpers:
    def test_feasible_empty_halfspace_list(self):
        assert lp.ambient_is_feasible([], 3)

    def test_infeasible_contradiction(self):
        h = preference_halfspace(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
        # h and its flip leave only the boundary; adding a shifted variant
        # that excludes the boundary empties the region.
        shifted = preference_halfspace(
            np.array([0.95, 0.1]), np.array([0.1, 0.9])
        )
        assert lp.ambient_is_feasible([h, h.flipped()], 2)  # boundary line
        # A genuinely empty system:
        strict_a = preference_halfspace(np.array([1.0, 0.2]), np.array([0.0, 0.9]))
        strict_b = preference_halfspace(np.array([0.0, 0.9]), np.array([1.0, 0.0]))
        del shifted
        feasible = lp.ambient_is_feasible([strict_a, strict_b], 2)
        # Verify against brute force over a dense simplex grid.
        grid = np.linspace(0, 1, 2001)
        us = np.column_stack([grid, 1 - grid])
        ok = np.all(us @ np.array([h.normal for h in (strict_a, strict_b)]).T >= -1e-12, axis=1)
        assert feasible == bool(ok.any())

    def test_bounds_of_full_simplex(self):
        e_min, e_max = lp.ambient_bounds([], 3)
        np.testing.assert_allclose(e_min, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(e_max, np.ones(3), atol=1e-9)

    def test_bounds_shrink_with_halfspace(self):
        h = preference_halfspace(np.array([1.0, 0.01]), np.array([0.01, 1.0]))
        e_min, e_max = lp.ambient_bounds([h], 2)
        # Prefers attribute 1: u_1 >= u_2 roughly, so u_1 >= ~0.5.
        assert e_min[0] >= 0.45
        assert e_max[1] <= 0.55

    def test_inner_sphere_of_simplex(self):
        center, radius = lp.ambient_inner_sphere([], 3)
        assert simplex.on_simplex(center, tol=1e-6)
        assert radius > 0.0
        # Centre of the 3-simplex inscribed sphere is the centroid.
        np.testing.assert_allclose(center, np.full(3, 1 / 3), atol=1e-6)

    def test_inner_sphere_respects_halfspaces(self):
        h = preference_halfspace(np.array([1.0, 0.01]), np.array([0.01, 1.0]))
        center, radius = lp.ambient_inner_sphere([h], 2)
        assert float(center @ h.normal) >= radius * 0.9

    def test_split_margin_signs(self):
        # Empty H: the range is the whole simplex; both directions reachable.
        w = np.array([1.0, -1.0])
        margins = lp.ambient_split_margins([], 2, np.stack([w, -w]))
        assert margins.shape == (2,)
        assert np.all(margins > 0)

    def test_split_margin_blocked_direction(self):
        h = preference_halfspace(np.array([1.0, 0.01]), np.array([0.01, 1.0]))
        # R now requires u . h.normal >= 0; the opposite direction's max is ~0.
        (margin,) = lp.ambient_split_margins([h], 2, -h.normal[None, :])
        assert margin <= 1e-9

    def test_bounds_empty_region_raises(self):
        h = preference_halfspace(np.array([1.0, 0.2]), np.array([0.0, 0.9]))
        g = preference_halfspace(np.array([0.0, 0.9]), np.array([1.0, 0.0]))
        if not lp.ambient_is_feasible([h, g], 2):
            with pytest.raises(EmptyRegionError):
                lp.ambient_bounds([h, g], 2)


class TestAmbientHighDimensions:
    """AA's LP machinery must stay healthy at the paper's d = 20+."""

    def test_inner_sphere_d20(self):
        center, radius = lp.ambient_inner_sphere([], 20)
        assert radius > 0
        assert abs(center.sum() - 1.0) < 1e-6

    def test_bounds_d20_unit_box(self):
        e_min, e_max = lp.ambient_bounds([], 20)
        np.testing.assert_allclose(e_min, np.zeros(20), atol=1e-8)
        np.testing.assert_allclose(e_max, np.ones(20), atol=1e-8)

    def test_split_margin_d20(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=20)
        (margin,) = lp.ambient_split_margins([], 20, w[None, :])
        assert margin >= -1e-9

    def test_constraints_accumulate_d20(self):
        rng = np.random.default_rng(1)
        spaces = []
        for _ in range(10):
            a, b = rng.uniform(0.01, 1.0, size=(2, 20))
            spaces.append(preference_halfspace(a, b))
            if not lp.ambient_is_feasible(spaces, 20):
                spaces.pop()
        _, radius = lp.ambient_inner_sphere(spaces, 20)
        assert radius >= 0


class TestLPCache:
    """Memoisation of solve() through an installed LPCache."""

    def test_identical_solve_is_cached(self):
        a, b = square_constraints()
        c = np.array([1.0, 1.0])
        cache = lp.LPCache()
        with lp.use_cache(cache):
            first = lp.solve(c, a_ub=a, b_ub=b)
            second = lp.solve(c, a_ub=a, b_ub=b)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.solves == 2
        assert cache.hit_rate == pytest.approx(0.5)
        assert len(cache) == 1
        assert second.value == first.value
        np.testing.assert_array_equal(second.x, first.x)

    def test_cached_result_is_a_copy(self):
        a, b = square_constraints()
        c = np.array([1.0, 1.0])
        cache = lp.LPCache()
        with lp.use_cache(cache):
            first = lp.solve(c, a_ub=a, b_ub=b)
            first.x[:] = 99.0  # a caller scribbling on its result
            second = lp.solve(c, a_ub=a, b_ub=b)
        assert not np.array_equal(second.x, first.x)

    def test_different_systems_miss(self):
        a, b = square_constraints()
        cache = lp.LPCache()
        with lp.use_cache(cache):
            lp.solve(np.array([1.0, 1.0]), a_ub=a, b_ub=b)
            lp.solve(np.array([1.0, 2.0]), a_ub=a, b_ub=b)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_failures_are_cached(self):
        a = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # infeasible: x <= -1 and x >= 1
        cache = lp.LPCache()
        with lp.use_cache(cache):
            with pytest.raises(lp.InfeasibleLP):
                lp.solve(np.array([1.0]), a_ub=a, b_ub=b)
            with pytest.raises(lp.InfeasibleLP):
                lp.solve(np.array([1.0]), a_ub=a, b_ub=b)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_no_cache_without_context(self):
        a, b = square_constraints()
        cache = lp.LPCache()
        lp.solve(np.array([1.0, 1.0]), a_ub=a, b_ub=b)
        assert cache.solves == 0
        assert lp.active_cache() is None

    def test_nesting_restores_previous_cache(self):
        outer, inner = lp.LPCache(), lp.LPCache()
        with lp.use_cache(outer):
            with lp.use_cache(inner):
                assert lp.active_cache() is inner
            assert lp.active_cache() is outer
        assert lp.active_cache() is None

    def test_key_distinguishes_bounds(self):
        c = np.array([1.0])
        key_free = lp.constraint_system_key(c, None, None, None, None, None)
        key_box = lp.constraint_system_key(
            c, None, None, None, None, [(0.0, 1.0)]
        )
        assert key_free != key_box

    def test_eviction_caps_entries(self):
        a, b = square_constraints()
        cache = lp.LPCache(max_entries=2)
        with lp.use_cache(cache):
            for k in range(4):
                lp.solve(np.array([1.0, float(k)]), a_ub=a, b_ub=b)
        assert len(cache) == 2
        assert cache.misses == 4

    def test_eviction_is_lru_not_fifo(self):
        # A hit refreshes recency: after inserting A and B, touching A
        # and inserting C must evict B (the least recently *used*), not
        # A (the oldest insertion).  FIFO eviction would throw away the
        # hot simplex-startup entries every fresh session replays.
        a, b = square_constraints()
        c_a = np.array([1.0, 0.0])
        c_b = np.array([0.0, 1.0])
        c_c = np.array([1.0, 1.0])
        cache = lp.LPCache(max_entries=2)
        with lp.use_cache(cache):
            lp.solve(c_a, a_ub=a, b_ub=b)  # insert A
            lp.solve(c_b, a_ub=a, b_ub=b)  # insert B
            lp.solve(c_a, a_ub=a, b_ub=b)  # hit A -> A most recent
            lp.solve(c_c, a_ub=a, b_ub=b)  # insert C -> evicts B, keeps A
            assert cache.hits == 1
            lp.solve(c_a, a_ub=a, b_ub=b)  # still resident
            assert cache.hits == 2
            lp.solve(c_b, a_ub=a, b_ub=b)  # evicted -> miss
        assert cache.hits == 2
        assert cache.misses == 4
        assert len(cache) == 2

    def test_eviction_order_pinned(self):
        # The same scenario observed through the store itself.
        a, b = square_constraints()
        systems = {
            name: np.array(coefficients)
            for name, coefficients in (
                ("A", [1.0, 0.0]), ("B", [0.0, 1.0]), ("C", [1.0, 1.0]),
            )
        }
        keys = {
            name: lp.constraint_system_key(c, a, b, None, None, lp._FREE)
            for name, c in systems.items()
        }
        cache = lp.LPCache(max_entries=2)
        with lp.use_cache(cache):
            lp.solve(systems["A"], a_ub=a, b_ub=b)
            lp.solve(systems["B"], a_ub=a, b_ub=b)
            lp.solve(systems["A"], a_ub=a, b_ub=b)
            lp.solve(systems["C"], a_ub=a, b_ub=b)
        assert set(cache._store) == {keys["A"], keys["C"]}

    def test_record_existing_key_refreshes_recency(self):
        cache = lp.LPCache(max_entries=2)
        result = lp.LPResult(x=np.zeros(1), value=0.0)
        cache.store(b"k1", result)
        cache.store(b"k2", result)
        cache.store(b"k1", result)  # rewrite -> k1 most recent
        cache.store(b"k3", result)  # evicts k2
        assert set(cache._store) == {b"k1", b"k3"}


class TestCacheContextIsolation:
    """use_cache installation is context-local, not process-global."""

    def test_threads_do_not_stomp_each_other(self):
        import threading

        a, b = square_constraints()
        caches = [lp.LPCache(), lp.LPCache()]
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def worker(i: int) -> None:
            try:
                with lp.use_cache(caches[i]):
                    barrier.wait(timeout=10)
                    # Both threads are inside use_cache now; each must
                    # still see only its own cache.
                    assert lp.active_cache() is caches[i]
                    objective = np.array([1.0, float(i)])
                    lp.solve(objective, a_ub=a, b_ub=b)
                    lp.solve(objective, a_ub=a, b_ub=b)
                    barrier.wait(timeout=10)
                    assert lp.active_cache() is caches[i]
                assert lp.active_cache() is None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        for cache in caches:
            # Each thread's two identical solves landed in its own cache:
            # one miss, one hit, no cross-thread contamination.
            assert cache.misses == 1
            assert cache.hits == 1
        assert lp.active_cache() is None


class TestCacheKeyCanonicalisation:
    """The key must depend on the numbers, not on how they are spelled."""

    C = np.array([1.0, 2.0])
    A = np.array([[1.0, 1.0], [-1.0, 0.5]])
    B = np.array([1.0, 0.0])

    def _key(self, bounds):
        return lp.constraint_system_key(self.C, self.A, self.B, bounds=bounds)

    def test_scalar_pair_does_not_crash(self):
        # Regression: repr-keyed bounds crashed on a shared scalar pair.
        assert isinstance(self._key((0.0, None)), bytes)

    def test_scalar_pair_equals_expanded(self):
        assert self._key((0.0, None)) == self._key([(0.0, None), (0.0, None)])

    def test_default_bounds_equal_explicit_nonnegative(self):
        # linprog semantics: bounds=None means x >= 0 for every variable.
        assert self._key(None) == self._key((0.0, None))
        assert self._key(None) == self._key([(0.0, None)] * 2)

    def test_numpy_scalars_equal_python_floats(self):
        # Regression: numpy 2.x reprs np.float64(0.0) differently from 0.0,
        # which silently split the cache by answer dtype.
        plain = self._key([(0.0, 1.0), (0.5, None)])
        numpied = self._key(
            [(np.float64(0.0), np.float64(1.0)), (np.float64(0.5), None)]
        )
        assert plain == numpied

    def test_list_vs_tuple_bounds_equal(self):
        assert self._key([(0.0, 1.0), (0.0, 1.0)]) == self._key(
            ((0.0, 1.0), (0.0, 1.0))
        )
        assert self._key([[0.0, 1.0], [0.0, 1.0]]) == self._key(
            [(0.0, 1.0), (0.0, 1.0)]
        )

    def test_contiguity_is_irrelevant(self):
        f_order = np.asfortranarray(self.A)
        assert not f_order.flags["C_CONTIGUOUS"]
        assert lp.constraint_system_key(
            self.C, self.A, self.B
        ) == lp.constraint_system_key(self.C, f_order, self.B)

    def test_different_bounds_differ(self):
        assert self._key((0.0, None)) != self._key((0.0, 1.0))
        assert self._key(None) != self._key((None, None))

    @given(
        lo=st.floats(0.0, 1.0, allow_nan=False),
        hi=st.floats(2.0, 4.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_spelling_invariance(self, lo, hi):
        variants = [
            (lo, hi),
            [lo, hi],
            (np.float64(lo), np.float64(hi)),
            [(lo, hi), (lo, hi)],
            [(np.float64(lo), hi), [lo, np.float64(hi)]],
            np.array([[lo, hi], [lo, hi]]),
        ]
        keys = {self._key(v) for v in variants}
        assert len(keys) == 1

    def test_expand_bounds_shapes(self):
        assert lp.expand_bounds(None, 3) == [(0.0, None)] * 3
        assert lp.expand_bounds((1.0, 2.0), 3) == [(1.0, 2.0)] * 3
        assert lp.expand_bounds([(None, 1.0), (0.5, None)], 2) == [
            (None, 1.0),
            (0.5, None),
        ]
        expanded = lp.expand_bounds([(np.float64(0.5), None)], 1)
        assert type(expanded[0][0]) is float


def _bounded_system(seed: int, d: int = 3) -> lp.LPSystem:
    rng = np.random.default_rng(seed)
    a = np.vstack([rng.uniform(-1.0, 1.0, size=(4, d)), np.eye(d)])
    b = np.concatenate([rng.uniform(0.5, 2.0, size=4), np.ones(d)])
    return lp.LPSystem(
        c=rng.uniform(-1.0, 1.0, size=d),
        a_ub=a,
        b_ub=b,
        a_eq=None,
        b_eq=None,
        bounds=(0.0, None),
    )


def _infeasible_system(d: int = 2) -> lp.LPSystem:
    a = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([-np.ones(d), -np.ones(d)])  # x <= -1 and x >= 1
    return lp.LPSystem(
        c=np.ones(d), a_ub=a, b_ub=b, a_eq=None, b_eq=None, bounds=(None, None)
    )


def _unbounded_system(d: int = 2) -> lp.LPSystem:
    return lp.LPSystem(
        c=-np.ones(d),
        a_ub=None,
        b_ub=None,
        a_eq=None,
        b_eq=None,
        bounds=(0.0, None),
    )


class TestSolveMany:
    def test_matches_sequential_bitwise(self):
        systems = [_bounded_system(seed) for seed in range(32)]
        batched = lp.solve_many(systems)
        solo = lp.ScipyHighsBackend()
        for system, outcome in zip(systems, batched):
            assert isinstance(outcome, lp.LPResult)
            expected = solo.solve_raw(
                system.c, system.a_ub, system.b_ub,
                system.a_eq, system.b_eq, system.bounds,
            )
            # Values must be bit-equal (they are what value-consuming
            # probes read); the optimiser point too on these
            # non-degenerate systems.
            assert outcome.value == expected.value
            assert np.array_equal(outcome.x, expected.x)

    def test_mixed_batch_isolates_failures(self):
        systems = [
            _bounded_system(1),
            _infeasible_system(),
            _unbounded_system(),
            _bounded_system(2),
        ]
        outcomes = lp.solve_many(systems)
        assert isinstance(outcomes[0], lp.LPResult)
        assert isinstance(outcomes[1], lp.InfeasibleLP)
        assert isinstance(outcomes[2], (lp.UnboundedLP, lp.InfeasibleLP))
        assert isinstance(outcomes[3], lp.LPResult)
        # The healthy members must be unaffected by the poisoned stack.
        clean = lp.solve_many([systems[0], systems[3]])
        assert outcomes[0].value == clean[0].value
        assert np.array_equal(outcomes[0].x, clean[0].x)
        assert outcomes[3].value == clean[1].value
        assert np.array_equal(outcomes[3].x, clean[1].x)

    def test_all_infeasible_batch(self):
        outcomes = lp.solve_many([_infeasible_system(), _infeasible_system(3)])
        assert all(isinstance(o, lp.InfeasibleLP) for o in outcomes)

    def test_empty_batch(self):
        assert lp.solve_many([]) == []

    def test_singleton_batch(self):
        system = _bounded_system(7)
        (outcome,) = lp.solve_many([system])
        assert isinstance(outcome, lp.LPResult)

    def test_misses_are_stored_for_later_solve(self):
        cache = lp.LPCache()
        system = _bounded_system(11)
        with lp.use_cache(cache):
            (first,) = lp.solve_many([system])
            assert cache.misses == 1
            replay = lp.solve(
                system.c, a_ub=system.a_ub, b_ub=system.b_ub,
                bounds=system.bounds,
            )
            assert cache.hits == 1
        assert replay.value == first.value
        assert np.array_equal(replay.x, first.x)

    def test_hits_are_peeled_before_stacking(self):
        cache = lp.LPCache()
        primed = _bounded_system(21)
        fresh = _bounded_system(22)
        with lp.use_cache(cache):
            lp.solve_many([primed])
            solves_before = lp.active_backend().solves
            outcomes = lp.solve_many([primed, fresh])
            assert cache.hits == 1
            # Only the fresh system reached the solver.
            assert lp.active_backend().solves == solves_before + 1
        assert isinstance(outcomes[0], lp.LPResult)
        assert isinstance(outcomes[1], lp.LPResult)

    def test_cached_failures_replay_as_instances(self):
        cache = lp.LPCache()
        bad = _infeasible_system()
        with lp.use_cache(cache):
            (first,) = lp.solve_many([bad])
            (second,) = lp.solve_many([bad])
            assert cache.hits == 1
        assert isinstance(first, lp.InfeasibleLP)
        assert isinstance(second, lp.InfeasibleLP)
        assert str(second) == str(first)

    def test_cached_results_are_copies(self):
        cache = lp.LPCache()
        system = _bounded_system(31)
        with lp.use_cache(cache):
            (first,) = lp.solve_many([system])
            (second,) = lp.solve_many([system])
        assert first.x is not second.x
        first.x[0] = 123.0
        assert second.x[0] != 123.0

    @given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_property_batch_equals_sequential(self, seeds):
        systems = [_bounded_system(seed) for seed in seeds]
        batched = lp.solve_many(systems)
        solo = lp.ScipyHighsBackend()
        for system, outcome in zip(systems, batched):
            expected = solo.solve_raw(
                system.c, system.a_ub, system.b_ub,
                system.a_eq, system.b_eq, system.bounds,
            )
            assert outcome.value == expected.value

    def test_sequential_fallback_backend(self):
        # A backend without solve_many_raw still serves solve_many.
        systems = [_bounded_system(41), _infeasible_system()]
        with lp.use_backend(lp.ScipyHighsBackend()):
            outcomes = lp.solve_many(systems)
        assert isinstance(outcomes[0], lp.LPResult)
        assert isinstance(outcomes[1], lp.InfeasibleLP)


class TestSolveCounter:
    def test_count_solves_is_thread_safe(self):
        import threading

        backend = lp.ScipyHighsBackend()
        per_thread, threads = 2_000, 8

        def bump():
            for _ in range(per_thread):
                backend.count_solves()

        workers = [threading.Thread(target=bump) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert backend.solves == per_thread * threads


def _narrowed_halfspaces(rng: np.random.Generator, d: int, answers: int):
    """A feasible answer set: random preferences, contradictions skipped."""
    spaces: list = []
    for _ in range(answers):
        a, b = rng.uniform(0.05, 1.0, size=(2, d))
        trial = spaces + [preference_halfspace(a, b)]
        if lp.ambient_is_feasible(trial, d):
            spaces = trial
    return spaces


def _one_at_a_time_margins(spaces, d: int, normals: np.ndarray) -> np.ndarray:
    """Per-row ``max u . n`` through separate ``solve_raw`` calls."""
    a_ub, b_ub, a_eq, b_eq = lp._ambient_system(spaces, d)
    backend = lp.ScipyHighsBackend()
    margins = []
    for normal in normals:
        try:
            result = backend.solve_raw(
                -normal, a_ub, b_ub, a_eq, b_eq, lp._FREE
            )
        except lp.InfeasibleLP:
            margins.append(-np.inf)
        else:
            margins.append(-result.value)
    return np.array(margins)


class _FailingBackend(lp.ScipyHighsBackend):
    """Solves one system at a time; the listed calls raise instead."""

    name = "failing-test-backend"

    def __init__(self, failures: dict[int, lp.LPError]) -> None:
        super().__init__()
        self.failures = failures
        self.calls = 0

    def solve_raw(self, c, a_ub, b_ub, a_eq, b_eq, bounds):
        index = self.calls
        self.calls += 1
        if index in self.failures:
            raise self.failures[index]
        return super().solve_raw(c, a_ub, b_ub, a_eq, b_eq, bounds)


class TestAmbientSplitMargins:
    """The stacked margin probes against one-at-a-time solves."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 8),
        k=st.integers(1, 12),
        answers=st.integers(0, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_one_at_a_time(self, seed, d, k, answers):
        from repro.geometry.range import SPLIT_TOL

        rng = np.random.default_rng(seed)
        spaces = _narrowed_halfspaces(rng, d, answers)
        normals = rng.uniform(-1.0, 1.0, size=(k, d))
        # Learned normals flipped point out of R: margin ~0, rejected.
        for row, halfspace in zip(range(0, k, 3), spaces):
            normals[row] = -halfspace.normal
        stacked = lp.ambient_split_margins(spaces, d, normals)
        reference = _one_at_a_time_margins(spaces, d, normals)
        assert stacked.shape == (k,)
        np.testing.assert_array_equal(
            stacked > SPLIT_TOL, reference > SPLIT_TOL
        )
        np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-12)

    def test_empty_range_gives_minus_inf_rows(self):
        # u1 >= 2 u2 and u2 >= u1 leave only u = 0, off the simplex.
        spaces = [
            preference_halfspace(np.array([2.0, 0.0]), np.array([1.0, 2.0])),
            preference_halfspace(np.array([0.0, 1.0]), np.array([1.0, 0.0])),
        ]
        assert not lp.ambient_is_feasible(spaces, 2)
        normals = np.array([[1.0, -1.0], [-1.0, 1.0], [0.5, 0.25]])
        margins = lp.ambient_split_margins(spaces, 2, normals)
        assert margins.shape == (3,)
        assert np.all(margins == -np.inf)

    def test_first_failure_in_row_order_is_raised(self):
        normals = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 4))
        backend = _FailingBackend(
            {
                1: lp.InfeasibleLP("row 1 infeasible"),
                3: lp.LPError("row 3 failed"),
                4: lp.UnboundedLP("row 4 unbounded"),
            }
        )
        with lp.use_backend(backend):
            with pytest.raises(lp.LPError, match="row 3 failed"):
                lp.ambient_split_margins([], 4, normals)

    def test_infeasible_row_alone_is_minus_inf(self):
        normals = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        backend = _FailingBackend({1: lp.InfeasibleLP("row 1 infeasible")})
        with lp.use_backend(backend):
            margins = lp.ambient_split_margins([], 3, normals)
        assert margins[0] > 0
        assert margins[1] == -np.inf

    def test_second_call_served_from_cache(self):
        k, d = 7, 5
        rng = np.random.default_rng(8)
        spaces = _narrowed_halfspaces(rng, d, 6)
        normals = rng.uniform(-1.0, 1.0, size=(k, d))
        cache = lp.LPCache()
        with lp.use_cache(cache):
            first = lp.ambient_split_margins(spaces, d, normals)
            assert (cache.hits, cache.misses) == (0, k)
            solves = lp.active_backend().solves
            second = lp.ambient_split_margins(spaces, d, normals)
            assert (cache.hits, cache.misses) == (k, k)
            assert lp.active_backend().solves == solves
        np.testing.assert_array_equal(second, first)


# ---------------------------------------------------------------------------
# The direct HiGHS call against scipy.optimize.linprog
# ---------------------------------------------------------------------------

_BOUND_KINDS = ("none", "free", "nonnegative", "boxes", "scalar-pair")


def _random_system(
    seed: int, n: int, m: int, equality: bool, bound_kind: str,
    feasible: bool,
) -> lp.LPSystem:
    """A dense LP with ~20% zero entries.

    ``feasible`` places a simplex point inside every row, which every
    bound kind admits; otherwise the right-hand sides are random and the
    system is often infeasible or, with free variables, unbounded.
    """
    rng = np.random.default_rng(seed)
    a_ub = rng.normal(size=(m, n))
    a_ub[rng.random((m, n)) < 0.2] = 0.0
    point = rng.dirichlet(np.ones(n))
    if feasible:
        b_ub = a_ub @ point + rng.uniform(0.0, 1.0, size=m)
    else:
        b_ub = rng.normal(size=m) + rng.uniform(0.0, 2.0)
    bounds = {
        "none": None,
        "free": [(None, None)] * n,
        "nonnegative": [(0.0, None)] * n,
        "boxes": [(lo, lo + 2.0) for lo in rng.uniform(-1.0, 0.0, size=n)],
        "scalar-pair": (-1.0, 1.0),
    }[bound_kind]
    return lp.LPSystem(
        c=rng.normal(size=n),
        a_ub=a_ub if m else None,
        b_ub=b_ub if m else None,
        a_eq=np.ones((1, n)) if equality else None,
        b_eq=np.ones(1) if equality else None,
        bounds=bounds,
    )


def _outcome_from_linprog(result) -> np.ndarray | type[lp.LPError]:
    """``linprog``'s result in :func:`lp.solve`'s terms."""
    if result.status == 2:
        return lp.InfeasibleLP
    if result.status == 3:
        return lp.UnboundedLP
    if not result.success:
        return lp.LPError
    return np.asarray(result.x, dtype=float)


def _linprog_single(system: lp.LPSystem):
    return _outcome_from_linprog(linprog(
        system.c, A_ub=system.a_ub, b_ub=system.b_ub, A_eq=system.a_eq,
        b_eq=system.b_eq, bounds=system.bounds, method="highs",
    ))


def _linprog_stack(systems: list[lp.LPSystem]) -> list:
    """Per-system outcomes of ``linprog`` over ``block_diag`` stacks.

    Bisects a failed stack down to singletons, as
    :class:`lp.BatchLPBackend` does, so each member's reference is the
    ``linprog`` solve of the stack it ends up in.
    """
    if len(systems) == 1:
        return [_linprog_single(systems[0])]
    families = []
    for a_name, b_name in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
        if all(getattr(system, a_name) is None for system in systems):
            families += [None, None]
            continue
        families.append(sparse.block_diag([
            np.zeros((0, system.size)) if getattr(system, a_name) is None
            else getattr(system, a_name)
            for system in systems
        ], format="csc"))
        families.append(np.concatenate([
            np.zeros(0) if getattr(system, b_name) is None
            else getattr(system, b_name)
            for system in systems
        ]))
    bounds = []
    for system in systems:
        bounds += lp.expand_bounds(system.bounds, system.size)
    outcome = _outcome_from_linprog(linprog(
        np.concatenate([system.c for system in systems]),
        A_ub=families[0], b_ub=families[1],
        A_eq=families[2], b_eq=families[3],
        bounds=bounds, method="highs",
    ))
    if not isinstance(outcome, np.ndarray):
        mid = len(systems) // 2
        return _linprog_stack(systems[:mid]) + _linprog_stack(systems[mid:])
    offsets = np.cumsum([0] + [system.size for system in systems])
    return [outcome[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


def _assert_same_outcome(got, expected) -> None:
    """Same exception class, or byte-equal ``x``."""
    if isinstance(expected, np.ndarray):
        assert isinstance(got, lp.LPResult), got
        assert got.x.tobytes() == expected.tobytes()
    else:
        assert type(got) is expected


def _direct_single(system: lp.LPSystem):
    try:
        return lp.ScipyHighsBackend().solve_raw(
            system.c, system.a_ub, system.b_ub,
            system.a_eq, system.b_eq, system.bounds,
        )
    except lp.LPError as error:
        return error


class TestHighsMatchesLinprog:
    """``_highs_solve`` is ``linprog(method="highs")`` without the wrapper."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        m=st.integers(0, 35),
        equality=st.booleans(),
        bound_kind=st.sampled_from(_BOUND_KINDS),
        feasible=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_dense_systems_byte_equal(
        self, seed, n, m, equality, bound_kind, feasible
    ):
        system = _random_system(seed, n, m, equality, bound_kind, feasible)
        _assert_same_outcome(_direct_single(system), _linprog_single(system))

    @pytest.mark.parametrize(
        "system",
        [_infeasible_system(), _infeasible_system(4), _unbounded_system()],
        ids=["infeasible-2", "infeasible-4", "unbounded"],
    )
    def test_failures_match(self, system):
        expected = _linprog_single(system)
        assert expected in (lp.InfeasibleLP, lp.UnboundedLP)
        _assert_same_outcome(_direct_single(system), expected)

    def test_value_is_c_dot_x(self):
        system = _random_system(3, 6, 12, True, "boxes", True)
        result = _direct_single(system)
        assert result.value == float(np.dot(system.c, result.x))

    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=39),
        equality=st.booleans(),
        bound_kind=st.sampled_from(_BOUND_KINDS),
        shared=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_stacks_byte_equal(self, seeds, equality, bound_kind, shared):
        systems = [
            _random_system(seed, 9, 30, equality, bound_kind, True)
            for seed in seeds
        ]
        if shared:
            # Probe stacks over one range share its constraint arrays.
            systems = [
                dataclasses.replace(systems[0], c=system.c)
                for system in systems
            ]
        outcomes = lp.BatchLPBackend().solve_many_raw(systems)
        for got, expected in zip(outcomes, _linprog_stack(systems)):
            _assert_same_outcome(got, expected)

    def test_stack_with_infeasible_member_bisects(self):
        systems = [
            _random_system(seed, 9, 30, seed % 2 == 0, "nonnegative", True)
            for seed in range(7)
        ]
        infeasible = _random_system(99, 9, 30, True, "nonnegative", False)
        systems.insert(4, infeasible)
        expected = _linprog_stack(systems)
        assert expected[4] is lp.InfeasibleLP
        backend = lp.BatchLPBackend()
        outcomes = backend.solve_many_raw(systems)
        assert backend.solves > 1
        for got, want in zip(outcomes, expected):
            _assert_same_outcome(got, want)

    def test_post_check_rejects_violated_rows(self, monkeypatch):
        real_highs = lp._highs._Highs

        class ViolatingHighs:
            """A real solver that reports every row 1.0 above its value."""

            def __init__(self) -> None:
                self._inner = real_highs()

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def getSolution(self):
                solution = self._inner.getSolution()
                solution.row_value = [v + 1.0 for v in solution.row_value]
                return solution

        a, b = square_constraints()
        monkeypatch.setattr(lp._highs, "_Highs", ViolatingHighs)
        with pytest.raises(lp.LPError) as caught:
            lp.solve(np.array([1.0, 1.0]), a_ub=a, b_ub=b)
        assert type(caught.value) is lp.LPError
        assert "violates" in str(caught.value)

    def test_undecided_status_is_plain_lp_error(self, monkeypatch):
        real_highs = lp._highs._Highs
        undecided = lp._highs.HighsModelStatus.kUnboundedOrInfeasible

        class UndecidedHighs:
            """A real solver that reports infeasible-or-unbounded."""

            def __init__(self) -> None:
                self._inner = real_highs()

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def getModelStatus(self):
                return undecided

        a, b = square_constraints()
        monkeypatch.setattr(lp._highs, "_Highs", UndecidedHighs)
        with pytest.raises(lp.LPError) as caught:
            lp.solve(np.array([1.0, 1.0]), a_ub=a, b_ub=b)
        assert type(caught.value) is lp.LPError
        assert "infeasible or unbounded" in str(caught.value)

    def test_no_state_crosses_solves(self):
        first = _random_system(5, 8, 20, True, "free", True)
        second = _random_system(6, 8, 20, False, "boxes", True)
        a_then_b = [_direct_single(first), _direct_single(second)]
        b_then_a = [_direct_single(second), _direct_single(first)]
        assert a_then_b[0].x.tobytes() == b_then_a[1].x.tobytes()
        assert a_then_b[1].x.tobytes() == b_then_a[0].x.tobytes()

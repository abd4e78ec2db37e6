"""Tests for the LP toolkit (reduced- and ambient-space helpers)."""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing

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
        result = lp.solve(lp.LPSystem(np.array([1.0, 1.0]), a, b))
        assert result.value == pytest.approx(0.0)

    def test_maximise_wrapper(self):
        # support_value maximises by solving the negated objective.
        a, b = square_constraints()
        assert lp.support_value(a, b, np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_variables_free_by_default(self):
        # min x s.t. x >= -5 should reach -5, not 0.
        result = lp.solve(
            lp.LPSystem(np.array([1.0]), np.array([[-1.0]]), np.array([5.0]))
        )
        assert result.value == pytest.approx(-5.0)

    @pytest.mark.parametrize(
        "bounds",
        [np.zeros((3, 2)), np.array([[0.0, np.nan], [0.0, 1.0]])],
        ids=["wrong-shape", "nan"],
    )
    def test_malformed_bounds_rejected(self, bounds):
        a, b = square_constraints()
        with pytest.raises(ValueError, match="bounds"):
            lp.solve(lp.LPSystem(np.array([1.0, 1.0]), a, b, bounds=bounds))

    def test_infeasible_raises(self):
        a = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
        with pytest.raises(lp.InfeasibleLP):
            lp.solve(lp.LPSystem(np.array([1.0]), a, b))

    def test_unbounded_raises(self):
        with pytest.raises(lp.UnboundedLP):
            lp.solve(
                lp.LPSystem(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]))
            )


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
        e_min, e_max, _ = lp.ambient_bounds([], 3)
        np.testing.assert_allclose(e_min, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(e_max, np.ones(3), atol=1e-9)

    def test_bounds_shrink_with_halfspace(self):
        h = preference_halfspace(np.array([1.0, 0.01]), np.array([0.01, 1.0]))
        e_min, e_max, _ = lp.ambient_bounds([h], 2)
        # Prefers attribute 1: u_1 >= u_2 roughly, so u_1 >= ~0.5.
        assert e_min[0] >= 0.45
        assert e_max[1] <= 0.55

    def test_bounds_optimisers_attain_the_bounds(self):
        h = preference_halfspace(
            np.array([0.9, 0.2, 0.4]), np.array([0.3, 0.6, 0.5])
        )
        e_min, e_max, optimisers = lp.ambient_bounds([h], 3)
        assert optimisers.shape == (6, 3)
        # Rows min_0, max_0, min_1, ...: each a point of R at its bound.
        assert np.array_equal(optimisers[0::2].diagonal(), e_min)
        assert np.array_equal(optimisers[1::2].diagonal(), e_max)
        assert np.all(optimisers @ h.normal >= -1e-9)
        np.testing.assert_allclose(optimisers.sum(axis=1), 1.0, atol=1e-9)

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
        e_min, e_max, _ = lp.ambient_bounds([], 20)
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
            first = lp.solve(lp.LPSystem(c, a, b))
            second = lp.solve(lp.LPSystem(c, a, b))
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.solves == 2
        assert len(cache) == 1
        assert second.value == first.value
        np.testing.assert_array_equal(second.x, first.x)

    def test_cached_result_is_a_copy(self):
        a, b = square_constraints()
        c = np.array([1.0, 1.0])
        cache = lp.LPCache()
        with lp.use_cache(cache):
            first = lp.solve(lp.LPSystem(c, a, b))
            first.x[:] = 99.0  # a caller scribbling on its result
            second = lp.solve(lp.LPSystem(c, a, b))
        assert not np.array_equal(second.x, first.x)

    def test_different_systems_miss(self):
        a, b = square_constraints()
        cache = lp.LPCache()
        with lp.use_cache(cache):
            lp.solve(lp.LPSystem(np.array([1.0, 1.0]), a, b))
            lp.solve(lp.LPSystem(np.array([1.0, 2.0]), a, b))
        assert cache.hits == 0
        assert cache.misses == 2

    def test_failures_are_cached(self):
        a = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # infeasible: x <= -1 and x >= 1
        cache = lp.LPCache()
        with lp.use_cache(cache):
            with pytest.raises(lp.InfeasibleLP):
                lp.solve(lp.LPSystem(np.array([1.0]), a, b))
            with pytest.raises(lp.InfeasibleLP):
                lp.solve(lp.LPSystem(np.array([1.0]), a, b))
        assert cache.hits == 1
        assert cache.misses == 1

    def test_no_cache_without_context(self):
        a, b = square_constraints()
        cache = lp.LPCache()
        lp.solve(lp.LPSystem(np.array([1.0, 1.0]), a, b))
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
        key_free = lp.LPSystem(c).key()
        key_box = lp.LPSystem(c, bounds=np.array([[0.0, 1.0]])).key()
        assert key_free != key_box

    def test_eviction_caps_entries(self, monkeypatch):
        a, b = square_constraints()
        monkeypatch.setattr(lp, "_CACHE_ENTRIES", 2)
        cache = lp.LPCache()
        with lp.use_cache(cache):
            for k in range(4):
                lp.solve(lp.LPSystem(np.array([1.0, float(k)]), a, b))
        assert len(cache) == 2
        assert cache.misses == 4

    def test_eviction_is_lru_not_fifo(self, monkeypatch):
        # A hit refreshes recency: after inserting A and B, touching A
        # and inserting C must evict B (the least recently *used*), not
        # A (the oldest insertion).  FIFO eviction would throw away the
        # hot simplex-startup entries every fresh session replays.
        a, b = square_constraints()
        c_a = np.array([1.0, 0.0])
        c_b = np.array([0.0, 1.0])
        c_c = np.array([1.0, 1.0])
        monkeypatch.setattr(lp, "_CACHE_ENTRIES", 2)
        cache = lp.LPCache()
        with lp.use_cache(cache):
            lp.solve(lp.LPSystem(c_a, a, b))  # insert A
            lp.solve(lp.LPSystem(c_b, a, b))  # insert B
            lp.solve(lp.LPSystem(c_a, a, b))  # hit A -> A most recent
            lp.solve(lp.LPSystem(c_c, a, b))  # insert C -> evicts B, keeps A
            assert cache.hits == 1
            lp.solve(lp.LPSystem(c_a, a, b))  # still resident
            assert cache.hits == 2
            lp.solve(lp.LPSystem(c_b, a, b))  # evicted -> miss
        assert cache.hits == 2
        assert cache.misses == 4
        assert len(cache) == 2

    def test_eviction_order_pinned(self, monkeypatch):
        # The same scenario observed through the store itself.
        a, b = square_constraints()
        systems = {
            name: np.array(coefficients)
            for name, coefficients in (
                ("A", [1.0, 0.0]), ("B", [0.0, 1.0]), ("C", [1.0, 1.0]),
            )
        }
        keys = {
            name: lp.LPSystem(c, a, b).key()
            for name, c in systems.items()
        }
        monkeypatch.setattr(lp, "_CACHE_ENTRIES", 2)
        cache = lp.LPCache()
        with lp.use_cache(cache):
            lp.solve(lp.LPSystem(systems["A"], a, b))
            lp.solve(lp.LPSystem(systems["B"], a, b))
            lp.solve(lp.LPSystem(systems["A"], a, b))
            lp.solve(lp.LPSystem(systems["C"], a, b))
        assert set(cache._store) == {keys["A"], keys["C"]}

    def test_record_existing_key_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(lp, "_CACHE_ENTRIES", 2)
        cache = lp.LPCache()
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
                    lp.solve(lp.LPSystem(objective, a, b))
                    lp.solve(lp.LPSystem(objective, a, b))
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
    """The key must depend on the numbers, not on how they are laid out."""

    C = np.array([1.0, 2.0])
    A = np.array([[1.0, 1.0], [-1.0, 0.5]])
    B = np.array([1.0, 0.0])

    def _key(self, bounds):
        return lp.LPSystem(self.C, self.A, self.B, bounds=bounds).key()

    def test_contiguity_is_irrelevant(self):
        f_order = np.asfortranarray(self.A)
        assert not f_order.flags["C_CONTIGUOUS"]
        assert lp.LPSystem(self.C, self.A, self.B).key() == (
            lp.LPSystem(self.C, f_order, self.B).key()
        )

    def test_different_bounds_differ(self):
        nonnegative = np.array([[0.0, np.inf], [0.0, np.inf]])
        box = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert self._key(nonnegative) != self._key(box)
        assert self._key(None) != self._key(nonnegative)

    def test_default_bounds_equal_explicit_free(self):
        free = np.array([[-np.inf, np.inf], [-np.inf, np.inf]])
        assert self._key(None) == self._key(free)

    @given(
        lo=st.floats(0.0, 1.0, allow_nan=False),
        hi=st.floats(2.0, 4.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_spelling_invariance(self, lo, hi):
        rows = np.array([[lo, hi], [lo, hi]])
        frozen = rows.copy()
        frozen.setflags(write=False)
        variants = [
            rows,
            frozen,
            np.asfortranarray(rows),
            np.tile([lo, hi], (2, 1)),
            np.array([[lo, 0.0, hi], [lo, 0.0, hi]])[:, ::2],
        ]
        keys = {self._key(v) for v in variants}
        assert len(keys) == 1


class TestPinnedCacheKeys:
    """``LPSystem.key()`` digests of the systems the helpers submit.

    A key change means a changed system or a changed hash; either can
    split or merge cache entries, which moves the LP counters that the
    CI gate and the benchmark ladder compare exactly.
    """

    A = np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]]
    )
    B = np.array([1.0, 0.0, 1.0, 0.0, 1.5])
    HALFSPACES = (
        ((0.9, 0.2, 0.4), (0.3, 0.6, 0.5)),
        ((0.1, 0.8, 0.3), (0.5, 0.4, 0.2)),
    )

    def _halfspaces(self):
        return [
            preference_halfspace(np.array(a), np.array(b))
            for a, b in self.HALFSPACES
        ]

    @staticmethod
    def _submitted_key(monkeypatch, call) -> str:
        """The key of the one system ``call`` hands the raw solver."""
        keys: list[str] = []
        real_solve_raw = lp.solve_raw

        def recording(system):
            keys.append(system.key().hex())
            return real_solve_raw(system)

        with monkeypatch.context() as patch:
            patch.setattr(lp, "solve_raw", recording)
            call()
        (key,) = keys
        return key

    def test_free_system(self):
        system = lp.LPSystem(np.array([1.0, 2.0]), self.A, self.B)
        assert system.key().hex() == (
            "9112d6f0a7db8e1c513e1edd7800efbc3ebdf9af6993bb946bedb5e7920c5f23"
        )

    def test_chebyshev_system(self, monkeypatch):
        key = self._submitted_key(
            monkeypatch, lambda: lp.chebyshev_center(self.A, self.B)
        )
        assert key == (
            "0c248a809884f9dcadd640294838a922bb7604ed819c7b920bc3b06d2f63510d"
        )

    def test_inner_sphere_system(self, monkeypatch):
        key = self._submitted_key(
            monkeypatch,
            lambda: lp.ambient_inner_sphere(self._halfspaces(), 3),
        )
        assert key == (
            "f968231a46a7173d84b57b943102882db41734984bf5676779ad911b9dfd748f"
        )

    def test_ambient_bounds_probe(self):
        probe = lp.ambient_bounds_systems(self._halfspaces(), 3)[3]
        assert probe.key().hex() == (
            "e643ad93a1d3e889a55fb3d2733902762e6c9aa23f87bc7f51130754660f99d2"
        )

    def test_split_margin_probe(self, monkeypatch):
        normal = np.array([[0.5, -0.25, -0.25]])
        key = self._submitted_key(
            monkeypatch,
            lambda: lp.ambient_split_margins(self._halfspaces(), 3, normal),
        )
        assert key == (
            "5ab5eacc41aac8d2229efd8f8e93cded7992647803ead2a1dced422af6d22b27"
        )


def _nonnegative(n: int) -> np.ndarray:
    """``(n, 2)`` bounds ``x >= 0``."""
    return np.tile([0.0, np.inf], (n, 1))


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
        bounds=_nonnegative(d),
    )


def _infeasible_system(d: int = 2) -> lp.LPSystem:
    a = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([-np.ones(d), -np.ones(d)])  # x <= -1 and x >= 1
    return lp.LPSystem(
        c=np.ones(d), a_ub=a, b_ub=b, a_eq=None, b_eq=None, bounds=None
    )


def _unbounded_system(d: int = 2) -> lp.LPSystem:
    return lp.LPSystem(
        c=-np.ones(d),
        a_ub=None,
        b_ub=None,
        a_eq=None,
        b_eq=None,
        bounds=_nonnegative(d),
    )


class TestSolveMany:
    def test_matches_sequential_bitwise(self):
        systems = [_bounded_system(seed) for seed in range(32)]
        batched = lp.solve_many(systems)
        for system, outcome in zip(systems, batched):
            assert isinstance(outcome, lp.LPResult)
            expected = lp.solve_raw(system)
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
            replay = lp.solve(system)
            assert cache.hits == 1
        assert replay.value == first.value
        assert np.array_equal(replay.x, first.x)

    def test_hits_are_peeled_before_stacking(self):
        cache = lp.LPCache()
        primed = _bounded_system(21)
        fresh = _bounded_system(22)
        with lp.use_cache(cache):
            lp.solve_many([primed])
            solves_before = lp.solve_count()
            outcomes = lp.solve_many([primed, fresh])
            assert cache.hits == 1
            # Only the fresh system reached the solver.
            assert lp.solve_count() == solves_before + 1
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
        for system, outcome in zip(systems, batched):
            assert outcome.value == lp.solve_raw(system).value


class TestSolveCounter:
    def test_count_solves_is_thread_safe(self):
        import sys
        import threading

        per_thread, threads = 2_000, 8
        before = lp.solve_count()

        def bump():
            for _ in range(per_thread):
                lp._count_solve()

        workers = [threading.Thread(target=bump) for _ in range(threads)]
        interval = sys.getswitchinterval()
        # Switch threads as often as the interpreter allows.
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert lp.solve_count() == before + per_thread * threads


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
    base = lp.ambient_feasibility_system(spaces, d)
    margins = []
    for normal in normals:
        try:
            result = lp.solve_raw(dataclasses.replace(base, c=-normal))
        except lp.InfeasibleLP:
            margins.append(-np.inf)
        else:
            margins.append(-result.value)
    return np.array(margins)


def _fail_calls(monkeypatch, failures: dict[int, lp.LPError]) -> None:
    """Solve one system per HiGHS run; the listed calls raise instead."""
    real_solve_raw = lp.solve_raw
    calls = itertools.count()

    def solve_raw(system):
        index = next(calls)
        if index in failures:
            raise failures[index]
        return real_solve_raw(system)

    monkeypatch.setattr(lp, "solve_raw", solve_raw)
    # Stacks of one reach solve_raw directly, in row order.
    monkeypatch.setattr(lp, "_MAX_STACK", 1)


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

    def test_first_failure_in_row_order_is_raised(self, monkeypatch):
        normals = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 4))
        _fail_calls(
            monkeypatch,
            {
                1: lp.InfeasibleLP("row 1 infeasible"),
                3: lp.LPError("row 3 failed"),
                4: lp.UnboundedLP("row 4 unbounded"),
            },
        )
        with pytest.raises(lp.LPError, match="row 3 failed"):
            lp.ambient_split_margins([], 4, normals)

    def test_infeasible_row_alone_is_minus_inf(self, monkeypatch):
        normals = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        _fail_calls(monkeypatch, {1: lp.InfeasibleLP("row 1 infeasible")})
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
            solves = lp.solve_count()
            second = lp.ambient_split_margins(spaces, d, normals)
            assert (cache.hits, cache.misses) == (k, k)
            assert lp.solve_count() == solves
        np.testing.assert_array_equal(second, first)


# ---------------------------------------------------------------------------
# The direct HiGHS call against scipy.optimize.linprog
# ---------------------------------------------------------------------------

_BOUND_KINDS = ("free", "nonnegative", "boxes", "shared-box", "radius")


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
    lows = rng.uniform(-1.0, 0.0, size=n)
    radius = np.tile([-np.inf, np.inf], (n, 1))
    radius[-1, 0] = 0.0
    bounds = {
        "free": None,
        "nonnegative": _nonnegative(n),
        "boxes": np.column_stack([lows, lows + 2.0]),
        "shared-box": np.tile([-1.0, 1.0], (n, 1)),
        "radius": radius,
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


def _linprog_bounds(system: lp.LPSystem) -> list:
    """``system``'s bounds in ``linprog``'s spelling: ``None`` for open
    sides, every variable spelled out (``linprog`` reads a missing spec
    as ``x >= 0``)."""
    if system.bounds is None:
        return [(None, None)] * system.size
    return [
        (None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
        for lo, hi in system.bounds.tolist()
    ]


def _linprog_single(system: lp.LPSystem):
    return _outcome_from_linprog(linprog(
        system.c, A_ub=system.a_ub, b_ub=system.b_ub, A_eq=system.a_eq,
        b_eq=system.b_eq, bounds=_linprog_bounds(system), method="highs",
    ))


def _linprog_stack(systems: list[lp.LPSystem]) -> list:
    """Per-system outcomes of ``linprog`` over ``block_diag`` stacks.

    Bisects a failed stack down to singletons, as
    :func:`lp.solve_stacked` does, so each member's reference is the
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
        bounds += _linprog_bounds(system)
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
        return lp.solve_raw(system)
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
        outcomes = lp.solve_stacked(systems)
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
        solves_before = lp.solve_count()
        outcomes = lp.solve_stacked(systems)
        assert lp.solve_count() - solves_before > 1
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
            lp.solve(lp.LPSystem(np.array([1.0, 1.0]), a, b))
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
            lp.solve(lp.LPSystem(np.array([1.0, 1.0]), a, b))
        assert type(caught.value) is lp.LPError
        assert "infeasible or unbounded" in str(caught.value)

    def test_no_state_crosses_solves(self):
        first = _random_system(5, 8, 20, True, "free", True)
        second = _random_system(6, 8, 20, False, "boxes", True)
        a_then_b = [_direct_single(first), _direct_single(second)]
        b_then_a = [_direct_single(second), _direct_single(first)]
        assert a_then_b[0].x.tobytes() == b_then_a[1].x.tobytes()
        assert a_then_b[1].x.tobytes() == b_then_a[0].x.tobytes()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
class TestForkSafety:
    def test_child_forked_while_counter_lock_is_held_can_solve(self):
        # Dispatcher workers fork from a thread while other threads may
        # be inside the solve counter's lock.
        a, b = square_constraints()

        def child():
            lp.solve(lp.LPSystem(np.array([1.0, 0.0]), a, b))

        with lp._solves_lock:
            process = multiprocessing.get_context("fork").Process(
                target=child
            )
            process.start()
            process.join(timeout=20)
            hung = process.is_alive()
            if hung:
                process.kill()
                process.join(timeout=5)
        assert not hung
        assert process.exitcode == 0

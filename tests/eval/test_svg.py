"""Tests for SVG rendering of utility ranges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EmptyRegionError, GeometryError
from repro.eval.svg import barycentric_to_page, render_range, save_range_svg
from repro.geometry.hyperplane import preference_halfspace
from repro.geometry.range import ExactRange


class TestBarycentric:
    def test_corners_map_to_page_corners(self):
        x1, y1 = barycentric_to_page(np.array([1.0, 0.0, 0.0]))
        x2, y2 = barycentric_to_page(np.array([0.0, 1.0, 0.0]))
        assert y1 == y2  # both on the bottom edge
        assert x1 < x2

    def test_centroid_maps_inside(self):
        x, y = barycentric_to_page(np.full(3, 1 / 3))
        assert 0 < x < 480
        assert 0 < y < 440

    def test_non_normalised_vector_accepted(self):
        a = barycentric_to_page(np.array([2.0, 2.0, 2.0]))
        b = barycentric_to_page(np.full(3, 1 / 3))
        assert a == pytest.approx(b)

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            barycentric_to_page(np.zeros(3))


class TestRenderRange:
    def test_full_simplex_renders_polygon(self):
        svg = render_range(ExactRange(3))
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 2  # outline + range
        assert "</svg>" in svg

    def test_narrowed_range_still_polygon(self):
        poly = ExactRange.from_halfspaces(3, [
            preference_halfspace(
                np.array([0.9, 0.1, 0.2]), np.array([0.1, 0.9, 0.2])
            )
        ])
        svg = render_range(poly, title="after one answer")
        assert "after one answer" in svg

    def test_samples_and_truth_drawn(self):
        poly = ExactRange(3)
        samples = poly.sample(10, rng=0)
        svg = render_range(poly, samples=samples, truth=np.full(3, 1 / 3))
        assert svg.count("<circle") >= 11
        assert "u*" in svg

    def test_wrong_dimension_rejected(self):
        with pytest.raises(GeometryError):
            render_range(ExactRange(4))

    def test_save_writes_file(self, tmp_path):
        path = save_range_svg(ExactRange(3), tmp_path / "r.svg")
        assert path.exists()
        assert path.read_text().startswith("<svg")

    def test_flat_range_renders_line_or_point(self):
        h = preference_halfspace(
            np.array([0.6, 0.4, 0.5]), np.array([0.4, 0.6, 0.5])
        )
        try:
            flat = ExactRange.from_halfspaces(3, [h, h.flipped()])
        except EmptyRegionError:
            pytest.skip("flat region degenerated to empty")
        svg = render_range(flat)
        assert "<line" in svg or "<circle" in svg or svg.count("<polygon") == 2

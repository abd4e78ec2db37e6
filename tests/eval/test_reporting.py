"""Tests for plain-text table formatting."""

from __future__ import annotations

import pytest

from repro.eval.reporting import format_cell, format_table


class TestFormatCell:
    def test_float_three_decimals(self):
        assert format_cell(1.23456) == "1.235"

    def test_large_float_one_decimal(self):
        assert format_cell(123.456) == "123.5"

    def test_nan_dash(self):
        assert format_cell(float("nan")) == "-"

    def test_int_passthrough(self):
        assert format_cell(42) == "42"

    def test_bool_passthrough(self):
        assert format_cell(True) == "True"

    def test_string_passthrough(self):
        assert format_cell("EA") == "EA"


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["method", "rounds"], [["EA", 5.0], ["AA", 10.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("method")
        # All rows have the same width.
        assert len({len(line) for line in lines}) == 1

    def test_title_prepended(self):
        table = format_table(["a"], [[1]], title="Figure 9")
        assert table.splitlines()[0] == "Figure 9"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        table = format_table(["a", "b"], [])
        assert "a" in table

"""Exporters and BENCH snapshots: stable, machine-readable artifacts."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.obs.export import (
    aggregate_report,
    chrome_trace,
    merge_aggregate_reports,
    summary_lines,
    write_aggregate,
    write_chrome_trace,
)
from repro.obs.snapshot import (
    SCHEMA_VERSION,
    load_snapshot,
    machine_info,
    snapshot_path,
    write_snapshot,
)
from repro.obs.tracer import Tracer


def _worked_tracer() -> Tracer:
    """A tracer with a small, known span tree and counters."""
    tracer = Tracer()
    with tracer.span("engine.run", sessions=2):
        with tracer.span("engine.wave", wave=1):
            with tracer.span("lp.solve/chebyshev/miss"):
                pass
            with tracer.span("lp.solve/chebyshev/hit"):
                pass
    tracer.counter("lp.cache.hits")
    return tracer


class TestAggregateReport:
    def test_structure(self):
        report = aggregate_report(_worked_tracer())
        assert set(report) == {
            "spans",
            "counters",
            "spans_recorded",
            "dropped_spans",
        }
        assert report["spans_recorded"] == 4
        assert report["dropped_spans"] == 0
        assert report["counters"] == {"lp.cache.hits": 1}
        assert report["spans"]["lp.solve/chebyshev/hit"]["calls"] == 1

    def test_span_keys_sorted(self):
        report = aggregate_report(_worked_tracer())
        assert list(report["spans"]) == sorted(report["spans"])


class TestMergeAggregateReports:
    """Cross-process folding of per-worker reports (dispatch obs)."""

    def test_sums_spans_counters_and_phases(self):
        left = aggregate_report(_worked_tracer())
        right = aggregate_report(_worked_tracer())
        merged = merge_aggregate_reports([left, right])
        assert merged["workers"] == 2
        assert merged["spans_recorded"] == 8
        assert merged["dropped_spans"] == 0
        assert merged["counters"] == {"lp.cache.hits": 2}
        hit = merged["spans"]["lp.solve/chebyshev/hit"]
        assert hit["calls"] == 2
        assert hit["total_seconds"] == pytest.approx(
            left["spans"]["lp.solve/chebyshev/hit"]["total_seconds"]
            + right["spans"]["lp.solve/chebyshev/hit"]["total_seconds"]
        )

    def test_disjoint_span_names_union(self):
        solo = Tracer()
        with solo.span("engine.run"):
            pass
        merged = merge_aggregate_reports(
            [aggregate_report(_worked_tracer()), aggregate_report(solo)]
        )
        assert "engine.run" in merged["spans"]
        assert "lp.solve/chebyshev/hit" in merged["spans"]
        assert list(merged["spans"]) == sorted(merged["spans"])

    def test_empty_input_merges_to_empty_report(self):
        merged = merge_aggregate_reports([])
        assert merged == {
            "spans": {},
            "counters": {},
            "spans_recorded": 0,
            "dropped_spans": 0,
            "workers": 0,
        }

    def test_accepts_generators(self):
        reports = (
            aggregate_report(_worked_tracer()) for _ in range(3)
        )
        assert merge_aggregate_reports(reports)["workers"] == 3


class TestChromeTrace:
    def test_event_structure(self):
        trace = chrome_trace(_worked_tracer())
        events = trace["traceEvents"]
        # One metadata event plus one complete event per recorded span.
        assert events[0]["ph"] == "M"
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == 4
        names = [event["name"] for event in complete]
        # Depth-first: parents precede their children.
        assert names[0] == "engine.run"
        assert names[1] == "engine.wave"
        for event in complete:
            assert event["dur"] >= 0.0
            assert event["ts"] >= 0.0
        tagged = complete[0]
        assert tagged["args"] == {"sessions": "2"}
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["spans_recorded"] == 4

    def test_write_is_valid_json(self, tmp_path):
        path = write_chrome_trace(_worked_tracer(), tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert "traceEvents" in data

    def test_write_aggregate(self, tmp_path):
        path = write_aggregate(_worked_tracer(), tmp_path / "agg.json")
        data = json.loads(path.read_text())
        assert data["counters"] == {"lp.cache.hits": 1}


class TestSummaryLines:
    def test_empty_tracer(self):
        assert summary_lines(Tracer()) == ["no spans recorded"]

    def test_rows_and_header(self):
        lines = summary_lines(_worked_tracer(), top=2)
        assert lines[0].startswith("span")
        assert len(lines) == 3  # header + top 2


class TestSnapshots:
    def test_directory_target_names_file(self, tmp_path):
        assert (
            snapshot_path(tmp_path, "serve")
            == tmp_path / "BENCH_serve.json"
        )

    def test_explicit_json_path_used_as_is(self, tmp_path):
        target = tmp_path / "custom.json"
        assert snapshot_path(target, "serve") == target

    def test_roundtrip(self, tmp_path):
        written = write_snapshot(
            tmp_path,
            "unit",
            config={"sessions": 4},
            timings={"wall_seconds": 1.5},
            counters={"rounds": np.int64(25), "rate": np.float64(0.25)},
            notes="hello",
        )
        assert written.name == "BENCH_unit.json"
        data = load_snapshot(written)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["name"] == "unit"
        assert data["config"] == {"sessions": 4}
        # numpy scalars land as plain JSON numbers.
        assert data["counters"] == {"rounds": 25, "rate": 0.25}
        assert data["notes"] == "hello"
        assert "machine" in data and "created_at" in data

    def test_keys_are_sorted_in_file(self, tmp_path):
        written = write_snapshot(
            tmp_path, "sorted", counters={"b": 1, "a": 2}
        )
        text = written.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_rejects_future_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION + 1}))
        with pytest.raises(ValueError, match="schema_version"):
            load_snapshot(path)

    def test_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a BENCH snapshot"):
            load_snapshot(path)

    def test_machine_info_fields(self):
        info = machine_info()
        assert set(info) >= {"platform", "python", "numpy", "scipy"}

    def test_machine_info_records_cores(self):
        info = machine_info()
        assert info["cpu_count"] == os.cpu_count()
        if hasattr(os, "sched_getaffinity"):
            assert info["affinity"] == sorted(os.sched_getaffinity(0))
        else:
            assert info["affinity"] is None

    def test_machine_info_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert machine_info()["affinity"] is None

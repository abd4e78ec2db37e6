"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _resolve_dataset, build_parser, main
from repro.errors import ReproError


class TestResolveDataset:
    def test_synthetic_spec(self):
        ds = _resolve_dataset("anti:500:3")
        assert ds.dimension == 3

    def test_bad_synthetic_spec(self):
        with pytest.raises(ReproError):
            _resolve_dataset("anti:500")

    def test_unknown_name(self):
        with pytest.raises(ReproError):
            _resolve_dataset("no-such-dataset")

    def test_csv_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,1\n2,3\n")
        ds = _resolve_dataset(str(path))
        assert ds.dimension == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info", "car"])
        assert args.dataset == "car"

    def test_train_defaults(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "car", "--out", "x.npz"]
        )
        assert args.algorithm == "EA"
        assert args.epsilon == pytest.approx(0.1)


class TestCommands:
    def test_info_prints_summary(self, capsys):
        code = main(["info", "anti:400:3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "points:" in out
        assert "skyline:" in out

    def test_info_unknown_dataset_error_code(self, capsys):
        code = main(["info", "bogus"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_train_and_search(self, tmp_path, capsys):
        out_path = tmp_path / "agent.npz"
        code = main(
            [
                "train",
                "--dataset", "anti:400:3",
                "--episodes", "3",
                "--updates", "1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        code = main(["search", str(out_path), "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended:" in out

    def test_compare_prints_table(self, capsys):
        code = main(
            [
                "compare",
                "--dataset", "anti:400:3",
                "--epsilon", "0.2",
                "--methods", "UH-Random", "SinglePass",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "UH-Random" in out
        assert "SinglePass" in out


class TestTrainAA:
    def test_train_aa_and_reload(self, tmp_path, capsys):
        out_path = tmp_path / "aa_agent.npz"
        code = main(
            [
                "train",
                "--algorithm", "AA",
                "--dataset", "anti:300:3",
                "--episodes", "2",
                "--updates", "1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        from repro.rl.serialization import load_agent

        agent = load_agent(out_path)
        assert agent.family == "aa"


class TestProfileCommand:
    def test_profile_writes_trace_and_snapshot(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        aggregate_path = tmp_path / "agg.json"
        code = main(
            [
                "profile",
                "--dataset", "anti:250:3",
                "--sessions", "2",
                "--episodes", "1",
                "--out", str(trace_path),
                "--aggregate", str(aggregate_path),
                "--snapshot", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chrome trace written to" in out
        trace = json.loads(trace_path.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "engine.tick" in names
        assert any(name.startswith("lp.solve/") for name in names)
        assert any(name.startswith("range.") for name in names)
        aggregate = json.loads(aggregate_path.read_text())
        assert aggregate["spans_recorded"] > 0
        snapshot = json.loads((tmp_path / "BENCH_profile.json").read_text())
        assert snapshot["schema_version"] == 1
        assert snapshot["obs"]["spans"]


class TestServeBenchSnapshot:
    def test_snapshot_flag_writes_bench_file(self, tmp_path, capsys):
        import json

        code = main(
            [
                "serve-bench",
                "--dataset", "anti:250:3",
                "--sessions", "2",
                "--algorithm", "EA",
                "--episodes", "1",
                "--snapshot", str(tmp_path),
            ]
        )
        assert code == 0
        assert "snapshot written to" in capsys.readouterr().out
        snapshot = json.loads(
            (tmp_path / "BENCH_serve_bench.json").read_text()
        )
        assert snapshot["counters"]["rounds_total"] > 0
        assert snapshot["config"]["sessions"] == 2
        assert snapshot["config"]["engine"] == "continuous"
        # No tracer installed: the obs section is empty, by design.
        assert snapshot["obs"] == {}


class TestRobustnessCommand:
    def test_matrix_prints_and_writes_snapshot(self, tmp_path, capsys):
        import json

        code = main(
            [
                "robustness",
                "--dataset", "anti:250:3",
                "--families", "uh-random",
                "--user-models", "oracle", "abstaining",
                "--seeds", "2",
                "--max-rounds", "40",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "robustness matrix" in out
        assert "snapshot written to" in out
        snapshot = json.loads(
            (tmp_path / "BENCH_robustness.json").read_text()
        )
        assert snapshot["name"] == "robustness"
        assert snapshot["counters"]["total.rounds"] > 0
        assert snapshot["counters"]["uh-random.abstaining.abstentions"] >= 0

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["robustness", "--dataset", "car"]
        )
        assert args.handler.__name__ == "_cmd_robustness"
        assert args.seeds == 4
        assert "oracle" in args.user_models
        assert args.families == ["uh-random", "uh-simplex"]

    def test_serve_bench_accepts_user_model(self):
        args = build_parser().parse_args(
            ["serve-bench", "--dataset", "car", "--user-model", "drifting"]
        )
        assert args.user_model == "drifting"


class TestServeBenchHttp:
    def test_http_flag_runs_loadgen_and_writes_snapshot(
        self, tmp_path, capsys
    ):
        import json

        code = main(
            [
                "serve-bench",
                "--dataset", "anti:250:3",
                "--http",
                "--sessions", "4",
                "--concurrency", "4",
                "--mode", "oracle",
                "--snapshot", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4 sessions completed, 0 failed" in out
        assert "latency: p50" in out
        snapshot = json.loads(
            (tmp_path / "BENCH_serve_http.json").read_text()
        )
        assert snapshot["counters"]["completed"] == 4
        assert snapshot["counters"]["failed"] == 0
        assert snapshot["config"]["mode"] == "oracle"

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["serve-bench", "--dataset", "car", "--http"]
        )
        assert args.http is True
        assert args.mode == "interactive"
        assert args.family == "uh-random"
        assert args.host is None and args.port is None


class TestServerParser:
    def test_server_parses(self):
        args = build_parser().parse_args(
            [
                "server",
                "--dataset", "anti:500:3",
                "--port", "9000",
                "--store", "runs/",
                "--agent", "a.npz",
                "--agent", "b.npz",
            ]
        )
        assert args.port == 9000
        assert args.store == "runs/"
        assert args.agent == ["a.npz", "b.npz"]
        assert args.handler.__name__ == "_cmd_server"

    @pytest.mark.parametrize("procs", ["0", "2"])
    def test_bad_engine_option_is_an_error(self, procs, capsys):
        code = main(
            [
                "server",
                "--dataset", "anti:200:3",
                "--port", "0",
                "--max-rounds", "0",
                "--procs", procs,
            ]
        )
        assert code == 2
        assert "error: max_rounds must be >= 1" in capsys.readouterr().err

"""Tests of the ladder benchmark itself: ``python -m pytest benchmarks/ladder -q``.

Every workload runs for real, shrunk through its function arguments to
batches of two sessions and a two-episode agent, so a renamed call
site, a lost metric or a broken check fails here before it skews a
measurement.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    name: dataclasses.replace(
        workload, batch=2, warmup=1, episodes=min(workload.episodes, 2)
    )
    for name, workload in workloads.WORKLOADS.items()
}

def _current(layer: layers.Layer) -> object:
    owner, name = layer.owner()
    return vars(owner)[name]


#: Every wrapped name as the program defines it, before any patching.
ORIGINALS = {layer.name: _current(layer) for layer in layers.LAYERS}


def _measure(name: str, trace: bool, tmp: Path) -> dict:
    report = workloads.measure(TINY[name], 0, 0.0, trace, tmp / name)
    run.add_parent_metrics(report, [report["setup"]], trace, 1024.0)
    return report


@pytest.fixture(scope="module")
def untraced(tmp_path_factory: pytest.TempPathFactory) -> dict:
    tmp = tmp_path_factory.mktemp("untraced")
    return {name: _measure(name, False, tmp) for name in TINY}


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> dict:
    tmp = tmp_path_factory.mktemp("traced")
    return {name: _measure(name, True, tmp) for name in TINY}


def test_workloads_match_benchmark_json() -> None:
    assert [w["name"] for w in run.spec()["workloads"]] == list(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(
    trace: bool, untraced: dict, traced: dict
) -> None:
    units = run.declared(trace)
    for name, report in (traced if trace else untraced).items():
        line = run.result_line(report, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"], (name, report["checks"])
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {
            metric: value["unit"] for metric, value in line["metrics"].items()
        } == units
        for metric, value in line["metrics"].items():
            assert math.isfinite(value["value"]), (name, metric)


@pytest.mark.parametrize("layer", layers.LAYERS, ids=lambda l: l.name)
def test_wrapped_layers_fire_on_their_predicted_workloads(
    layer: layers.Layer, traced: dict
) -> None:
    for name, report in traced.items():
        metrics = report["metrics"]
        if layer.name == "server.handle":
            fired = sum(
                metrics[f"server.handle.{endpoint}.total_frac"]
                for endpoint in layers.ENDPOINTS
            )
        else:
            fired = metrics[f"{layer.name}.calls"]
        assert (fired > 0) == (name in layer.fires_on), (layer.name, name)


def test_traced_runs_restore_the_originals(traced: dict) -> None:
    assert traced
    with pytest.raises(RuntimeError), layers.patched():
        raise RuntimeError("a failing traced batch")
    for layer in layers.LAYERS:
        assert _current(layer) is ORIGINALS[layer.name], layer.name


def test_dispatch_outcomes_equal_the_single_process_ones(
    untraced: dict,
) -> None:
    digests = {
        untraced[name]["details"]["outcome_digest"]
        for name in ("ea-lowd", "ea-dispatch")
    }
    assert len(digests) == 1


def test_a_tampered_recommendation_trips_the_checks(tmp_path: Path) -> None:
    setup = workloads.Setup.build(TINY["ea-lowd"], tmp_path)
    inputs = workloads.streams(0, 3)[1].take(2)
    try:
        outcomes = setup.runtime.serve(inputs).outcomes
    finally:
        setup.runtime.close()
    assert workloads.regret_failures(setup, inputs, outcomes) == []
    assert workloads.replay_failures(setup, inputs, outcomes) == []
    points = setup.dataset.points
    worst = int(np.argmin(points @ inputs[0].utility))
    outcomes[0] = dataclasses.replace(
        outcomes[0], index=worst, point=points[worst], status="completed"
    )
    assert len(workloads.regret_failures(setup, inputs, outcomes)) == 1
    assert len(workloads.replay_failures(setup, inputs, outcomes)) == 1


def test_without_the_program_it_fails_without_a_result(
    tmp_path: Path,
) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ladder")
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload",
         "ea-lowd", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


STEADY = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.2, 9.8]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "REGRESSION"),
        (STEADY, [x + 2.0 for x in STEADY], "gain"),
        # Too few pairs to claim the same gain.
        (STEADY[:9], [x + 2.0 for x in STEADY[:9]], "same"),
        ([10.0, 10.1, 9.9], [10.05, 9.95, 10.0], "same"),
        ([10.0, 14.0, 7.0], [10.0, 13.0, 8.0], "unresolved"),
    ],
)
def test_compare_applies_the_bound_and_the_win_rule(
    a: list, b: list, expected: str
) -> None:
    row = compare.verdict(a, b, bound=0.1, higher_is_better=True)
    assert row["verdict"] == expected
    flipped = compare.verdict(
        [1 / x for x in a], [1 / x for x in b], bound=0.1,
        higher_is_better=False,
    )
    assert flipped["verdict"] == expected


def test_compare_reads_ladder_reports(tmp_path: Path, untraced: dict) -> None:
    report = {"seed": 0, "workloads": untraced}
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(report))
    assert compare.main([str(path), "--", str(path)]) == 0

"""Tests of the benchmark itself, each workload at a tiny config.

The tiny configs are far too small for fluxtem's statistical --check
contracts, so these tests assert what the benchmark reports, not the
verdicts; only the optics checks, which are deterministic, must pass.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracer

TINY = {
    "scaling": ["scaling.repetitions=8", "scaling.k_list=1,2"],
    "optics": ["optics.n=128"],
    "protocol": ["optics.n=128", "protocol.repetitions=50"],
    "image": ["image.shape=16", "optics.n=128", "image.repetitions=2"],
}
SEED = 7


@pytest.fixture(scope="module")
def spec():
    return bench.load_spec()


def _fluxtem_functions() -> dict:
    """Every function object reachable from fluxtem's modules, class dicts and dispatch table."""
    import fluxtem.cli
    from fluxtem.detector import DetectorModel

    found = {}
    for name, module in list(sys.modules.items()):
        if name == "fluxtem" or name.startswith("fluxtem."):
            for key, obj in vars(module).items():
                if inspect.isfunction(obj):
                    found[(name, key)] = obj
    for key, obj in vars(DetectorModel).items():
        found[("DetectorModel", key)] = obj
    for key, obj in fluxtem.cli._COMMANDS.items():
        found[("_COMMANDS", key)] = obj
    return found


def _assert_metrics(result: dict, spec_metrics: list[dict]) -> dict:
    report = bench.result_json(spec_metrics, result)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in spec_metrics] == list(report["metrics"])
    for m in spec_metrics:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
    assert report["attempted"] >= 1
    json.dumps(report)
    return report


@pytest.mark.parametrize("workload", sorted(TINY))
def test_timed_run_reports_every_end_to_end_metric(workload, spec, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "MIN_RUNS", 2)
    result = bench.measure(workload, SEED, 0.0, tmp_path, TINY[workload])
    report = _assert_metrics(result, spec["end_to_end"])
    assert report["attempted"] == 2
    for m in spec["end_to_end"]:
        assert report["metrics"][m["name"]]["value"] > 0
    if workload == "optics":
        assert report["failed"] == 0 and report["correct"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_runs_repeat_counts_and_restore_fluxtem(workload, spec, tmp_path):
    bench.import_fluxtem()
    before = _fluxtem_functions()
    first = bench.trace(workload, SEED, 0.0, tmp_path, TINY[workload], spans_path=tmp_path / "spans.csv")
    second = bench.trace(workload, SEED, 0.0, tmp_path, TINY[workload])
    after = _fluxtem_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    _assert_metrics(first, spec["per_layer"])
    assert first["counts_repeat"] and second["counts_repeat"]
    counts = [m["name"] for m in spec["per_layer"] if not bench.is_time(m["name"]) and m["unit"] != "ratio"]
    for name in counts:
        assert first["metrics"].get(name, 0) == second["metrics"].get(name, 0), name
    assert first["metrics"]["cli.command.calls"] == 1
    assert (tmp_path / "spans.csv").read_text().startswith("run,id,parent,name,start_s,end_s\n")
    if workload == "optics":
        assert first["failed"] == 0


def test_every_per_layer_metric_is_measured_by_some_workload(spec, tmp_path):
    seen = set()
    for workload, extra in TINY.items():
        result = bench.trace(workload, SEED, 0.0, tmp_path, extra)
        seen |= {name for name, value in result["metrics"].items() if value != 0}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in seen and m["name"] != "trace.overhead_s"]
    assert not missing


def test_command_span_equals_the_sum_of_self_times(tmp_path):
    fluxtem = bench.import_fluxtem()
    tr = tracer.Tracer("protocol")
    with tr:
        code = fluxtem.cli.main(bench.command_args("protocol", SEED, tmp_path / "out", TINY["protocol"]))
    assert code == 0
    assert tr.self_time_gap() <= bench.SELF_TIME_TOLERANCE_S
    names = {span[0] for span in tr.spans}
    assert {"cli.command", "protocol.run_group", "streams.derive", "config.load_config"} <= names
    metrics = tr.metrics()
    assert metrics["protocol.run_group.calls"] == 50
    assert metrics["streams.derive.calls"] == 50


def test_failure_rules():
    assert bench.checks_pass(0, "CHECK a: PASS (x)\nCHECK b: PASS (y)\n")
    assert not bench.checks_pass(0, "CHECK a: PASS (x)\nCHECK b: FAIL (y)\n")
    assert not bench.checks_pass(4, "CHECK a: PASS (x)\n")
    assert not bench.checks_pass(0, "no verdicts\n")
    assert bench.odd_ones(["h", "h", "g"]) == [False, False, True]
    assert bench.odd_ones(["h"]) == [False]
    assert bench.odd_ones(["h", "g"]) == [True, True]


def test_fails_without_result_outside_a_source_checkout(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "optics", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""BENCHMARK.json, the printed metric names and the run contract agree."""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import harness
import run
from analyze import Analyze
from faultsim import FSIM, PSIM

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_match_the_harness(declared):
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(harness.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(harness.LAYER_METRICS)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_benchmark_json_shape(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in declared[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_printed_metric_names_match(declared):
    e2e = harness.e2e_metrics({m["name"]: 1.0 for m in declared["end_to_end"]})
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert all(v["unit"] == m["unit"]
               for v, m in zip(e2e.values(), declared["end_to_end"]))
    layers = harness.layer_metrics({})
    assert list(layers) == [m["name"] for m in declared["per_layer"]]
    with pytest.raises(KeyError):
        harness.layer_metrics({"not.a.metric": 1.0})


def test_workload_layer_names_are_declared(declared):
    names = {m["name"] for m in declared["per_layer"]}
    for workload in (Analyze(), FSIM, PSIM):
        assert set(workload.span_metrics.values()) <= names
    for span in ("circuit.parse", "kernel.compile", "faults.universe"):
        assert f"{span}_s" in names
    for backend in ("python", "numpy"):
        for suffix in ("fault_sim_words_s", "calls", "first_block_s"):
            assert f"backends.{backend}.{suffix}" in names


def test_run_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, the run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_plan_runs_every_key_and_fills_the_time():
    nominal = {"big": 6.0, "mid": 1.0, "small": 0.1}
    ops = harness.plan_ops(tuple(nominal), nominal, 10.0)
    counts = {key: sum(1 for k, _ in ops if k == key) for key in nominal}
    assert counts["big"] == 1 < counts["mid"] < counts["small"]
    assert harness.plan_ops(("small",), nominal, 100.0) \
        == [("small", rep) for rep in range(harness.MAX_REPEATS)]
    assert sum(nominal[k] for k, _ in ops) <= 10.0
    # Rounds: every key's first repetition comes before any second one.
    assert [k for k, rep in ops if rep == 0] == list(nominal)
    assert ops == harness.plan_ops(tuple(nominal), nominal, 10.0)
    # A budget below one pass still runs every key once.
    assert [k for k, _ in harness.plan_ops(tuple(nominal), nominal, 1.0)] \
        == list(nominal)


def test_throughput_is_the_geometric_mean_of_median_rates():
    work = {"a": 100.0, "b": 10.0}
    times = {"a": [4.0, 1.0, 2.0], "b": [10.0]}
    # rates 100/2 and 10/10
    assert harness.throughput(work, times) == pytest.approx(50 ** 0.5)


def test_calibration_removes_a_uniform_slowdown():
    timeline = [("a", 0.20, 0.005, 0.006), ("b", 0.10, 0.005, 0.005),
                ("a", 0.25, 0.006, 0.006), ("b", 0.12, 0.004, 0.005)]
    slow = [(key, 1.6 * t, 1.6 * before, 1.6 * after)
            for key, t, before, after in timeline]
    fast, slowed = harness.calibrated_times(timeline), harness.calibrated_times(slow)
    assert fast.keys() == slowed.keys() == {"a", "b"}
    for key in fast:
        assert slowed[key] == pytest.approx(fast[key])
    # At the reference speed, reference seconds are seconds.
    ref = [("a", 0.3, harness.PROBE_REF_S, harness.PROBE_REF_S)]
    assert harness.calibrated_times(ref) == {"a": [pytest.approx(0.3)]}

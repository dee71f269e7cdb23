"""Each oracle accepts a correct result and fires on a corrupted one."""

import copy
import dataclasses

import pytest

import accuracy
import oracles


@pytest.fixture(scope="module")
def c17_analysis():
    from repro.api import AnalysisEngine

    engine = AnalysisEngine("c17", "paper")
    report = engine.analyze(0.5)
    return (report, engine.raw_signal_probabilities(0.5),
            engine.raw_detection_probabilities(0.5), len(engine.faults))


def test_analyze_oracle_accepts_correct_report(c17_analysis):
    assert oracles.check_analyze(*c17_analysis) == []


def test_analyze_oracle_fires_on_probability_outside_unit_interval(c17_analysis):
    report, signal, detection, n = c17_analysis
    detection = dict(detection)
    detection[next(iter(detection))] = 1.5
    assert oracles.check_analyze(report, signal, detection, n)
    signal = dict(signal)
    signal[next(iter(signal))] = float("nan")
    assert oracles.check_analyze(report, signal, dict(c17_analysis[2]), n)


def test_analyze_oracle_fires_on_wrong_fault_count(c17_analysis):
    report, signal, detection, n = c17_analysis
    assert oracles.check_analyze(report, signal, detection, n + 1)


def test_analyze_oracle_fires_on_decreasing_test_length(c17_analysis):
    report, signal, detection, n = c17_analysis
    lengths = dict(report.test_lengths)
    lengths[(1.0, 0.999)] = lengths[(1.0, 0.95)] - 1
    bad = dataclasses.replace(report, test_lengths=lengths)
    assert oracles.check_analyze(bad, signal, detection, n)


def test_analyze_oracle_fires_on_unexplained_unreachable_length(c17_analysis):
    report, signal, detection, n = c17_analysis
    lengths = dict(report.test_lengths)
    lengths[(1.0, 0.999)] = None
    bad = dataclasses.replace(report, test_lengths=lengths)
    assert oracles.check_analyze(bad, signal, detection, n)


def test_analyze_oracle_accepts_length_beyond_the_search_bound(c17_analysis):
    report, signal, detection, n = c17_analysis
    tiny = dict(detection)
    tiny[next(iter(tiny))] = 1e-30
    # Only d = 1.0 keeps the hard fault, which needs ~10^31 patterns.
    lengths = {key: None if key[0] == 1.0 else n
               for key, n in report.test_lengths.items()}
    unreachable = dataclasses.replace(report, test_lengths=lengths)
    assert oracles.check_analyze(unreachable, signal, tiny, n) == []


@pytest.fixture(scope="module")
def c17_faultsim():
    from repro.api import AnalysisEngine

    engine = AnalysisEngine("c17", "paper")
    patterns = engine.generate_patterns(300, 0.5, seed=3)
    faults = engine.faults[:10]
    expected = oracles.expected_detection(engine.circuit, patterns, faults)
    runs = {
        dropped: engine.fault_simulate(
            patterns, faults, drop_detected=dropped, block_size=64
        ).raw.records
        for dropped in (True, False)
    }
    return runs, expected


def test_faultsim_oracle_accepts_correct_runs(c17_faultsim):
    runs, expected = c17_faultsim
    for dropped, records in runs.items():
        assert oracles.check_faultsim(records, expected, dropped) == []


def test_faultsim_oracle_fires_on_wrong_first_detection(c17_faultsim):
    runs, expected = c17_faultsim
    records = copy.deepcopy(runs[True])
    fault = next(f for f in expected if expected[f][0] is not None)
    records[fault].first_detect += 1
    assert oracles.check_faultsim(records, expected, True)


def test_faultsim_oracle_fires_on_wrong_detection_count(c17_faultsim):
    runs, expected = c17_faultsim
    fault = next(f for f in expected if expected[f][0] is not None)
    records = copy.deepcopy(runs[False])
    records[fault].detect_count -= 1
    assert oracles.check_faultsim(records, expected, False)
    records = copy.deepcopy(runs[True])
    records[fault].detect_count = expected[fault][1] + 1
    assert oracles.check_faultsim(records, expected, True)


def test_result_oracle_ignores_timings_and_fires_on_values():
    from repro.api import AnalysisEngine

    report = AnalysisEngine("c17", "paper").analyze().to_dict()
    same = copy.deepcopy(report)
    same["provenance"]["timings"] = {"signal": 123.0}
    assert oracles.check_same_result(same, report, "cold") == []
    changed = copy.deepcopy(report)
    changed["min_detection"] += 1e-9
    assert oracles.check_same_result(changed, report, "cold")


def test_in_process_result_matches_its_own_payload():
    from repro.circuit.writer import format_bench
    from repro.circuits.library import build

    body = {"bench": format_bench(build("c17")), "config": "paper"}
    first = oracles.in_process_result(body)
    assert oracles.check_same_result(oracles.in_process_result(body), first, "x") == []


def test_accuracy_reference_check_fires_on_changed_universe():
    from repro.api import AnalysisEngine

    references = accuracy.load_references()
    faults = AnalysisEngine("alu", "paper").faults
    assert accuracy.check_reference("alu", faults, references["alu"]) == []
    assert accuracy.check_reference("alu", faults[1:], references["alu"])
    assert accuracy.check_reference("alu", list(reversed(faults)), references["alu"])


def test_accuracy_stats_move_with_the_reference():
    stats = accuracy.table1_stats([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
    assert stats["merr"] == 0.0 and stats["delta"] == 0.0
    worse = accuracy.table1_stats([0.1, 0.5, 0.9], [0.2, 0.5, 0.9])
    assert worse["delta"] > 0.0 and worse["merr"] == pytest.approx(0.1)

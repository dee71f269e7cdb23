"""Tests for repro.api.engine: stage memoization and result provenance."""

from __future__ import annotations

import pytest

from repro.api import AnalysisEngine, ProtestConfig
from repro.circuits import c17
from repro.errors import EstimationError
from repro.faults import Fault, fault_universe


@pytest.fixture
def engine():
    return AnalysisEngine(c17(), ProtestConfig.preset("paper"))


def _count_calls(engine):
    """Wrap the expensive stage entry points with call counters."""
    counts = {"signal": 0, "observability": 0, "detection": 0}
    signal_run = engine.detector.signal_estimator.run
    obs_run = engine.detector.observability_analyzer.run
    det_run = engine.detector.run_with

    def counted_signal(*args, **kwargs):
        counts["signal"] += 1
        return signal_run(*args, **kwargs)

    def counted_obs(*args, **kwargs):
        counts["observability"] += 1
        return obs_run(*args, **kwargs)

    def counted_det(*args, **kwargs):
        counts["detection"] += 1
        return det_run(*args, **kwargs)

    engine.detector.signal_estimator.run = counted_signal
    engine.detector.observability_analyzer.run = counted_obs
    engine.detector.run_with = counted_det
    return counts


def test_analyze_chain_estimates_each_stage_once(engine):
    """analyze -> test_length -> expected_coverage: one estimation total."""
    counts = _count_calls(engine)
    engine.analyze()
    engine.test_length(0.98, 0.98)
    engine.test_length(0.95, 1.0)
    engine.expected_coverage(500)
    assert counts == {"signal": 1, "observability": 1, "detection": 1}
    info = engine.cache_info()
    assert info["detection_runs"] == 1
    assert info["detection_hits"] == 3


def test_equivalent_prob_specs_share_one_cache_entry(engine):
    """None, scalar 0.5 and an explicit map resolve to the same key."""
    counts = _count_calls(engine)
    engine.detection_probabilities(None)
    engine.detection_probabilities(0.5)
    engine.detection_probabilities({name: 0.5 for name in c17().inputs})
    assert counts["signal"] == 1
    assert engine.cache_info()["cached_input_tuples"] == 1


def test_different_input_tuple_recomputes(engine):
    counts = _count_calls(engine)
    engine.detection_probabilities(0.5)
    engine.detection_probabilities(0.75)
    assert counts == {"signal": 2, "observability": 2, "detection": 2}
    assert engine.cache_info()["cached_input_tuples"] == 2


def test_fault_subset_reuses_stages(engine):
    counts = _count_calls(engine)
    engine.detection_probabilities()
    subset = [Fault("G22", None, 0), Fault("G22", None, 1)]
    result = engine.detection_probabilities(faults=subset)
    assert set(result.probabilities) == set(subset)
    assert counts["signal"] == 1
    assert counts["observability"] == 1


def test_clear_cache_forces_recomputation(engine):
    counts = _count_calls(engine)
    engine.detection_probabilities()
    engine.clear_cache()
    engine.detection_probabilities()
    assert counts["detection"] == 2


def test_engine_accepts_circuit_and_preset_names():
    engine = AnalysisEngine("c17", "fast")
    assert engine.circuit.name == "c17"
    assert engine.config.name == "fast"
    report = engine.analyze(confidences=(0.95,), fractions=(1.0,))
    assert report.provenance.config_name == "fast"


def test_results_carry_provenance(engine):
    report = engine.analyze()
    assert report.provenance.circuit == "c17"
    assert report.provenance.config_hash == engine.config.config_hash
    assert "detection" in report.provenance.timings
    assert report.provenance.timings["testlen"] > 0.0
    # A second analyze is served from cache and says so; the test
    # lengths are not cached and are timed again.
    again = engine.analyze()
    assert "detection" in again.provenance.cached
    assert "testlen" in again.provenance.timings
    assert "testlen" in engine.test_length(0.95).provenance.timings


def test_test_length_matches_facade_values(engine):
    result = engine.test_length(0.95)
    harder = engine.test_length(0.999)
    assert result.reachable and harder.reachable
    assert harder.n_patterns > result.n_patterns
    assert result.n_faults == len(fault_universe(c17()))


def test_test_length_validates_arguments(engine):
    with pytest.raises(EstimationError):
        engine.test_length(confidence=1.5)
    with pytest.raises(EstimationError):
        engine.test_length(fraction=0.0)


def test_test_length_none_for_undetectable():
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder("redundant")
    a = b.input("a")
    one = b.const1("one")
    b.output(b.and_("y", a, one))
    engine = AnalysisEngine(b.build())
    result = engine.test_length(0.95, 1.0)
    assert result.n_patterns is None
    assert not result.reachable


def test_fault_simulate_result(engine):
    patterns = engine.generate_patterns(256, seed=3)
    result = engine.fault_simulate(patterns)
    assert result.n_patterns == 256
    assert 0.9 < result.coverage <= 1.0
    assert result.curve[256] == result.coverage
    assert result.raw.coverage() == result.coverage
    # Predicted and simulated coverage agree, as in the facade test.
    assert abs(engine.expected_coverage(256) - result.coverage) < 0.1


def test_optimize_uses_config_seed():
    engine_a = AnalysisEngine(c17(), ProtestConfig(seed=1))
    engine_b = AnalysisEngine(c17(), ProtestConfig(seed=1))
    result_a = engine_a.optimize(n_ref=256, max_rounds=2)
    result_b = engine_b.optimize(n_ref=256, max_rounds=2)
    assert result_a.probabilities == result_b.probabilities

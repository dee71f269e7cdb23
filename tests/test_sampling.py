"""Tests for repro.sampling and its engine/sweep/CLI integration."""

from __future__ import annotations

import json

import pytest

from sim_reference import ReferenceFaultSimulator, reference_simulate

from repro.api import (
    AnalysisEngine,
    CrossValidationResult,
    IntervalEstimate,
    ProtestConfig,
    SampledReport,
    SweepResult,
    run_sweep,
)
from repro.backends import get_backend
from repro.circuits.library import build
from repro.errors import EstimationError
from repro.faults.model import fault_universe
from repro.faults.simulator import FaultSimulator
from repro.logicsim.patterns import PatternSet
from repro.sampling import (
    MonteCarloEstimator,
    SamplingPlan,
    clopper_pearson_interval,
    patterns_for_halfwidth,
    stratified_fault_sample,
    wilson_halfwidth,
    wilson_interval,
    z_quantile,
)
from repro.sampling.montecarlo import _block_seeds


SAMPLED = ProtestConfig.preset("sampled")


# -- interval mathematics ---------------------------------------------------------


def test_z_quantile_known_values():
    assert z_quantile(0.95) == pytest.approx(1.959964, abs=1e-5)
    assert z_quantile(0.99) == pytest.approx(2.575829, abs=1e-5)


def test_wilson_interval_textbook_value():
    low, high = wilson_interval(2, 10, 0.95)
    assert low == pytest.approx(0.05668, abs=1e-4)
    assert high == pytest.approx(0.50984, abs=1e-4)


def test_clopper_pearson_textbook_value():
    # Standard reference: k=2, n=10 at 95% -> (0.02521, 0.55610).
    low, high = clopper_pearson_interval(2, 10, 0.95)
    assert low == pytest.approx(0.02521, abs=1e-4)
    assert high == pytest.approx(0.55610, abs=1e-4)


def test_interval_edge_counts():
    for method in (wilson_interval, clopper_pearson_interval):
        low, high = method(0, 50, 0.99)
        assert low == 0.0 and 0.0 < high < 0.25
        low, high = method(50, 50, 0.99)
        assert high == 1.0 and 0.75 < low < 1.0


def test_clopper_pearson_contains_wilson_center():
    # CP is conservative: it always covers the point estimate.
    for k, n in ((0, 20), (3, 20), (10, 20), (20, 20)):
        low, high = clopper_pearson_interval(k, n, 0.99)
        assert low <= k / n <= high


def test_patterns_for_halfwidth_is_the_worst_case_boundary():
    n = patterns_for_halfwidth(0.02, 0.99)
    assert wilson_halfwidth(n // 2, n, 0.99) <= 0.02
    assert wilson_halfwidth((n - 1) // 2, n - 1, 0.99) > 0.02


def test_interval_validation():
    with pytest.raises(EstimationError):
        wilson_interval(5, 0)
    with pytest.raises(EstimationError):
        wilson_interval(11, 10)
    with pytest.raises(EstimationError):
        wilson_interval(1, 10, confidence=1.0)


def test_interval_estimate_round_trip_and_excess():
    iv = IntervalEstimate.from_counts(25, 100, 0.99, "wilson")
    again = IntervalEstimate.from_dict(iv.to_dict())
    assert again == iv
    assert iv.contains(iv.estimate)
    assert iv.excess(iv.low - 0.1) == pytest.approx(0.1)
    assert iv.excess(iv.high + 0.2) == pytest.approx(0.2)
    assert iv.contains(iv.high + 0.05, tolerance=0.1)


# -- the Monte-Carlo estimator -----------------------------------------------------


def test_sampled_intervals_cover_exact_probabilities_on_c17():
    """Every true detection probability lies inside its 99% interval."""
    circuit = build("c17")
    mc = MonteCarloEstimator(
        circuit, plan=SamplingPlan(max_patterns=8192, seed=42)
    )
    sample = mc.sample_detection_probabilities()
    assert sample.converged
    exhaustive = PatternSet.exhaustive(circuit.inputs)
    reference = FaultSimulator(circuit, mc.faults).run(
        exhaustive, block_size=exhaustive.n_patterns, drop_detected=False
    )
    for fault in mc.faults:
        truth = (
            reference.records[fault].detect_count / exhaustive.n_patterns
        )
        assert sample.intervals[fault].contains(truth), str(fault)


def test_sampling_is_seed_deterministic():
    circuit = build("c17")
    plan = SamplingPlan(max_patterns=2048, seed=7)
    first = MonteCarloEstimator(circuit, plan=plan)
    second = MonteCarloEstimator(circuit, plan=plan)
    a = first.sample_detection_probabilities()
    b = second.sample_detection_probabilities()
    assert a.intervals == b.intervals
    assert a.history == b.history
    other = MonteCarloEstimator(
        circuit, plan=SamplingPlan(max_patterns=2048, seed=8)
    ).sample_detection_probabilities()
    assert other.intervals != a.intervals


def _reference_block_counts(circuit, plan, salt, history, count_block):
    """Replay a sample's seeded block stream through ``count_block``."""
    seeds = _block_seeds(plan.seed, salt)
    counts = {}
    done = 0
    for n_total, _halfwidth in history:
        patterns = PatternSet.random(
            circuit.inputs, n_total - done, None, next(seeds)
        )
        for key, count in count_block(patterns).items():
            counts[key] = counts.get(key, 0) + count
        done = n_total
    return {
        key: IntervalEstimate.from_counts(
            count, done, plan.confidence_level, plan.interval_method
        )
        for key, count in counts.items()
    }


def test_sampling_matches_reference():
    circuit = build("c17")
    plan = SamplingPlan(max_patterns=1024, block_size=256, seed=3)
    estimator = MonteCarloEstimator(circuit, plan=plan)
    sample = estimator.sample_detection_probabilities()
    reference = ReferenceFaultSimulator(circuit)

    def detections(patterns):
        records = reference.records(
            estimator.faults, patterns, patterns.n_patterns, False
        )
        return {fault: record[0] for fault, record in records.items()}

    assert sample.intervals == _reference_block_counts(
        circuit, plan, "detection", sample.history, detections
    )

    signal = estimator.sample_signal_probabilities()

    def ones(patterns):
        values = reference_simulate(circuit, patterns)
        return {node: word.bit_count() for node, word in values.items()}

    assert signal.intervals == _reference_block_counts(
        circuit, plan, "signal", signal.history, ones
    )


needs_numpy = pytest.mark.skipif(
    not get_backend("numpy").is_available(), reason="numpy not installed"
)


@needs_numpy
@pytest.mark.parametrize("name", ["c17", "parity8", "alu", "comp8"])
def test_numpy_and_python_backends_sample_seed_identically(name):
    """Same seed, same counts, same intervals, same history — per backend."""
    circuit = build(name)
    plan = SamplingPlan(max_patterns=2048, seed=11)
    python = MonteCarloEstimator(circuit, plan=plan, backend="python")
    numpy = MonteCarloEstimator(circuit, plan=plan, backend="numpy")
    a = python.sample_detection_probabilities()
    b = numpy.sample_detection_probabilities()
    assert a.intervals == b.intervals
    assert a.history == b.history
    assert a.first_detect == b.first_detect
    assert a.coverage == b.coverage
    sa = python.sample_signal_probabilities()
    sb = numpy.sample_signal_probabilities()
    assert sa.intervals == sb.intervals
    assert sa.history == sb.history


@needs_numpy
@pytest.mark.parametrize("name", ["c17", "parity8", "alu", "mult4"])
def test_cross_validation_zero_flags_on_numpy_backend(name):
    """The backend oracle: the numpy engine stays flag-free where the
    python engine does, with byte-identical canonical reports."""
    config = SAMPLED.replace(max_patterns=8192, seed=20260729)
    python_engine = AnalysisEngine(name, config.replace(backend="python"))
    numpy_engine = AnalysisEngine(name, config.replace(backend="numpy"))
    python_validation = python_engine.cross_validate()
    numpy_validation = numpy_engine.cross_validate()
    assert numpy_validation.ok, numpy_validation.to_text()
    assert not numpy_validation.flagged
    assert numpy_validation.strict_agreement == \
        python_validation.strict_agreement
    assert numpy_validation.max_excess == python_validation.max_excess
    # Reports are deterministic across backends (config hash differs by
    # the backend knob, which is the point of recording it).
    py_report = python_engine.sampled_detection_probabilities()
    np_report = numpy_engine.sampled_detection_probabilities()
    assert py_report.detection == np_report.detection
    assert py_report.provenance.backend == "python"
    assert np_report.provenance.backend == "numpy"


def test_stopping_rule_respects_max_patterns():
    circuit = build("c17")
    sample = MonteCarloEstimator(
        circuit,
        plan=SamplingPlan(target_halfwidth=0.005, max_patterns=512, seed=1),
    ).sample_detection_probabilities()
    assert sample.n_patterns == 512
    assert not sample.converged
    assert sample.max_halfwidth > 0.005


def test_stopping_rule_stops_early_when_target_reached():
    circuit = build("c17")
    sample = MonteCarloEstimator(
        circuit,
        plan=SamplingPlan(
            target_halfwidth=0.05, max_patterns=1 << 16, seed=1
        ),
    ).sample_detection_probabilities()
    assert sample.converged
    assert sample.n_patterns < 1 << 14
    assert sample.history[-1][1] <= 0.05


def test_signal_probability_sampling_matches_half_on_inputs():
    circuit = build("maj5")
    sample = MonteCarloEstimator(
        circuit, plan=SamplingPlan(max_patterns=8192, seed=5)
    ).sample_signal_probabilities()
    for name in circuit.inputs:
        assert sample[name].contains(0.5)


def test_stratified_fault_sample_properties():
    circuit = build("alu")
    universe = fault_universe(circuit)
    sub = stratified_fault_sample(universe, 40, seed=9)
    assert len(sub) == 40
    assert len(set(sub)) == 40
    assert set(sub) <= set(universe)
    # Proportional allocation: stems vs branches within one of the total.
    stems = sum(1 for f in sub if f.is_stem)
    expected = 40 * sum(1 for f in universe if f.is_stem) / len(universe)
    assert abs(stems - expected) <= 1.0
    assert stratified_fault_sample(universe, 40, seed=9) == sub
    assert stratified_fault_sample(universe, len(universe) + 5, seed=9) == universe


def test_sampling_plan_validation():
    with pytest.raises(EstimationError):
        SamplingPlan(target_halfwidth=0.0)
    with pytest.raises(EstimationError):
        SamplingPlan(confidence_level=1.5)
    with pytest.raises(EstimationError):
        SamplingPlan(max_patterns=0)
    with pytest.raises(EstimationError):
        SamplingPlan(interval_method="bayes")
    with pytest.raises(EstimationError):
        SamplingPlan(fault_sample=0)


# -- engine integration ------------------------------------------------------------


def test_engine_sampled_stage_caching_contract():
    engine = AnalysisEngine(
        "c17", SAMPLED.replace(max_patterns=1024, seed=2)
    )
    engine.sampled_analyze()
    engine.sampled_detection_probabilities()
    engine.raw_sampled_detection_probabilities()
    engine.cross_validate()
    info = engine.cache_info()
    assert info["sampling_runs"] == 1
    assert info["sampling_hits"] == 3
    assert info["detection_runs"] == 1  # cross_validate's analytic side


def test_engine_sampled_report_contents():
    engine = AnalysisEngine(
        "maj5", SAMPLED.replace(max_patterns=2048, seed=11)
    )
    report = engine.sampled_analyze(confidences=(0.95,), fractions=(1.0,))
    assert report.circuit_name == engine.circuit.name
    assert report.n_faults == len(engine.faults)
    assert report.test_lengths[(1.0, 0.95)] > 0
    assert report.coverage.n_samples == report.n_faults
    # Full-universe grading: the coverage proportion is exact for the
    # sampled patterns — no fault-sampling randomness to bound.
    assert report.coverage.method == "exact"
    assert report.coverage.low == report.coverage.high == report.coverage.estimate
    assert report.convergence[-1][0] == report.n_patterns
    assert report.provenance.config_hash == engine.config.config_hash
    assert report.provenance.timings["testlen"] > 0.0
    text = report.to_text()
    assert "Monte-Carlo grading of" in text
    assert "[" in text  # intervals rendered


def test_engine_sampled_fault_subsample():
    engine = AnalysisEngine(
        "alu",
        SAMPLED.replace(max_patterns=1024, seed=4, fault_sample=50),
    )
    report = engine.sampled_detection_probabilities()
    assert report.n_faults == 50
    assert report.n_universe == len(engine.faults)
    # Subsampled grading: coverage carries a real fault-sampling interval.
    assert report.coverage.method == "wilson"
    assert report.coverage.low < report.coverage.high
    validation = engine.cross_validate()
    assert validation.n_checked == 50
    # The analytic side graded the subsample only (memoized like every
    # stage) — the full-universe detection cache was never populated.
    info = engine.cache_info()
    assert info["detection_runs"] == 1
    assert not engine._detection_cache
    engine.cross_validate()
    assert engine.cache_info()["detection_hits"] == 1


def test_sampled_report_round_trip():
    engine = AnalysisEngine(
        "c17", SAMPLED.replace(max_patterns=1024, seed=6)
    )
    report = engine.sampled_analyze()
    again = SampledReport.from_json(report.to_json())
    assert again.detection == report.detection
    assert again.coverage == report.coverage
    assert again.test_lengths == report.test_lengths
    assert again.convergence == report.convergence
    assert again.to_canonical_json() == report.to_canonical_json()


def test_cross_validation_tree_exact_circuit_is_inside():
    """On an XOR tree the analytic pipeline has no reconvergence error,
    so its estimates sit inside the 99% intervals up to a
    quarter-halfwidth seed margin (the CI smoke oracle)."""
    engine = AnalysisEngine(
        "parity8", SAMPLED.replace(max_patterns=8192, seed=20260729)
    )
    validation = engine.cross_validate(tolerance=0.005)
    assert validation.ok
    assert validation.strict_agreement > 0.9
    assert validation.mean_excess < 0.001


def test_cross_validation_flags_known_estimator_error():
    """With zero tolerance the sampler exposes the paper's estimator
    error (Table 1 reports up to 0.48); the default tolerance absorbs
    exactly that envelope."""
    engine = AnalysisEngine(
        "alu", SAMPLED.replace(max_patterns=8192, seed=20260729)
    )
    strict = engine.cross_validate(tolerance=0.0)
    assert not strict.ok
    assert strict.strict_agreement < 1.0
    assert strict.max_excess > 0.02
    assert 0.0 < strict.mean_excess <= strict.max_excess
    default = engine.cross_validate()
    assert default.ok
    # Same distributions either way: tolerance only moves the flag line.
    assert default.mean_excess == strict.mean_excess
    with pytest.raises(EstimationError):
        engine.cross_validate(tolerance=-0.1)


@pytest.mark.parametrize(
    "name",
    ["c17", "maj5", "dec4", "ladder8", "mux16", "parity8", "parity32",
     "alu", "mult4", "comp8", "sn7485"],
)
def test_cross_validation_library_default_tolerance(name):
    """The permanent oracle: zero flags at the documented tolerance,
    converged at the 0.02 halfwidth target, on the library circuits."""
    engine = AnalysisEngine(
        name, SAMPLED.replace(max_patterns=8192, seed=20260729)
    )
    validation = engine.cross_validate()
    assert validation.ok, validation.to_text()
    # Distribution-level oracle (catches mid-range backend breakage the
    # per-fault flag is structurally blind to).
    assert validation.mean_excess <= 0.25
    report = engine.sampled_detection_probabilities()
    assert report.converged
    assert report.max_halfwidth <= 0.02


def test_cross_validation_round_trip():
    engine = AnalysisEngine(
        "c17", SAMPLED.replace(max_patterns=1024, seed=1)
    )
    validation = engine.cross_validate(tolerance=0.0)
    again = CrossValidationResult.from_json(validation.to_json())
    assert again.flagged == validation.flagged
    assert again.strict_agreement == validation.strict_agreement
    assert "cross-validation of c17" in validation.to_text()


def test_sampled_signal_probabilities_cached():
    engine = AnalysisEngine(
        "c17", SAMPLED.replace(max_patterns=1024, seed=2)
    )
    first = engine.sampled_signal_probabilities()
    second = engine.sampled_signal_probabilities()
    assert first == second
    assert set(first) == set(engine.circuit.nodes)
    info = engine.cache_info()
    assert info["signal_sampling_runs"] == 1
    assert info["signal_sampling_hits"] == 1


# -- sweep integration -------------------------------------------------------------


def test_run_sweep_accepts_sampled_configs():
    config = SAMPLED.replace(max_patterns=1024, seed=3, name="mc")
    result = run_sweep(
        ["c17", "maj5"], [config], workers=1,
        confidences=(0.95,), fractions=(1.0,),
    )
    assert all(run.ok for run in result.runs)
    for run in result.runs:
        assert isinstance(run.report, SampledReport)
        assert run.report.test_lengths[(1.0, 0.95)] > 0
    table = result.to_table()
    assert "mc" in table
    again = SweepResult.from_json(result.to_json())
    assert isinstance(again.runs[0].report, SampledReport)
    assert again.runs[0].report.detection == result.runs[0].report.detection


def test_run_sweep_mixed_methods_round_trip():
    sampled = SAMPLED.replace(max_patterns=1024, seed=3, name="mc")
    result = run_sweep(
        ["c17"], ["paper", sampled], workers=1,
        confidences=(0.95,), fractions=(1.0,),
    )
    kinds = [run.report.to_dict()["kind"] for run in result.runs]
    assert kinds == ["testability_report", "sampled_report"]
    again = SweepResult.from_json(result.to_json())
    assert [type(run.report).__name__ for run in again.runs] == [
        "TestabilityReport", "SampledReport",
    ]


def test_run_sweep_seed_determinism_across_executors():
    """Satellite: process-pool and inline sweeps serialize identically
    (volatile wall-clock bookkeeping aside) for the same config seed."""
    config = SAMPLED.replace(max_patterns=1024, seed=99, name="mc")
    kwargs = dict(
        configs=[config], workers=2, confidences=(0.95,), fractions=(1.0,)
    )
    via_process = run_sweep(["c17", "maj5"], executor="process", **kwargs)
    via_inline = run_sweep(["c17", "maj5"], executor="inline", **kwargs)
    assert (
        via_process.to_canonical_json() == via_inline.to_canonical_json()
    )


# -- CLI ---------------------------------------------------------------------------


def test_cli_sample_json(capsys):
    from repro.cli import main

    assert main([
        "sample", "c17", "--json", "--max-patterns", "1024",
        "--target-halfwidth", "0.05", "--seed", "7",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "sampled_report"
    assert payload["n_patterns"] <= 1024
    assert payload["faults"]
    assert {"estimate", "low", "high"} <= set(payload["faults"][0])


def test_cli_sample_cross_validate_exit_codes(capsys):
    from repro.cli import main

    # Default tolerance: no flags, exit 0.
    assert main([
        "sample", "parity8", "--max-patterns", "8192",
        "--seed", "20260729", "--cross-validate",
    ]) == 0
    out = capsys.readouterr().out
    assert "cross-validation of parity8" in out


def test_cli_sweep_executor_flag(capsys):
    from repro.cli import main

    assert main([
        "sweep", "c17", "maj5", "--executor", "inline",
        "-e", "0.95", "-d", "1.0",
    ]) == 0
    assert "sweep results" in capsys.readouterr().out


def test_cli_sweep_method_sampled(capsys):
    from repro.cli import main

    assert main([
        "sweep", "c17", "--executor", "inline", "--method", "sampled",
        "--json", "-e", "0.95", "-d", "1.0",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["report"]["kind"] == "sampled_report"

"""Tests for the parallel-pattern fault simulator."""

from __future__ import annotations

import pytest

from sim_reference import ReferenceFaultSimulator

from repro.circuit import CircuitBuilder
from repro.circuits import c17, parity_tree
from repro.errors import SimulationError
from repro.faults import Fault, FaultSimulator, fault_universe
from repro.logicsim import PatternSet, simulate


@pytest.mark.parametrize("factory", [c17, lambda: parity_tree(6)])
def test_event_driven_matches_naive(factory):
    circuit = factory()
    patterns = PatternSet.exhaustive(circuit.inputs)
    faults = fault_universe(circuit)
    simulator = FaultSimulator(circuit, faults)
    reference = ReferenceFaultSimulator(circuit)
    good = simulate(circuit, patterns)
    for fault in faults:
        fast = simulator.detection_word(fault, good, patterns.mask)
        slow = reference.detection_word(fault, patterns)
        assert fast == slow, str(fault)


def test_run_counts_and_first_detection():
    circuit = c17()
    patterns = PatternSet.exhaustive(circuit.inputs)
    simulator = FaultSimulator(circuit)
    result = simulator.run(patterns, block_size=7)  # odd block size on purpose
    good = simulate(circuit, patterns)
    for fault, record in result.records.items():
        word = simulator.detection_word(fault, good, patterns.mask)
        assert record.detect_count == word.bit_count()
        if word:
            assert record.first_detect == (word & -word).bit_length() - 1
        else:
            assert record.first_detect is None


def test_c17_exhaustive_full_coverage():
    circuit = c17()
    simulator = FaultSimulator(circuit)
    result = simulator.run(PatternSet.exhaustive(circuit.inputs))
    assert result.coverage() == 1.0  # c17 has no redundant faults


def test_detection_probabilities_exact_on_exhaustive():
    circuit = c17()
    simulator = FaultSimulator(circuit)
    patterns = PatternSet.exhaustive(circuit.inputs)
    probs = simulator.detection_probabilities(patterns)
    # G22 s-a-0: counted directly from its detection word.
    good = simulate(circuit, patterns)
    fault = Fault("G22", None, 0)
    word = simulator.detection_word(fault, good, patterns.mask)
    assert probs[fault] == word.bit_count() / patterns.n_patterns


def test_drop_detected_keeps_first_detect_exact():
    circuit = c17()
    patterns = PatternSet.random(circuit.inputs, 512, seed=2)
    simulator = FaultSimulator(circuit)
    full = simulator.run(patterns, block_size=64, drop_detected=False)
    dropped = simulator.run(patterns, block_size=64, drop_detected=True)
    for fault in simulator.faults:
        assert (
            full.records[fault].first_detect
            == dropped.records[fault].first_detect
        )


def test_dropped_counts_refuse_probability_query():
    circuit = c17()
    patterns = PatternSet.random(circuit.inputs, 128, seed=2)
    simulator = FaultSimulator(circuit)
    result = simulator.run(patterns, block_size=32, drop_detected=True)
    with pytest.raises(SimulationError, match="lower bounds"):
        result.detection_probabilities()


def test_coverage_at_monotone():
    circuit = c17()
    patterns = PatternSet.random(circuit.inputs, 256, seed=9)
    result = FaultSimulator(circuit).run(patterns)
    curve = result.coverage_curve([1, 4, 16, 64, 256])
    assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))
    assert curve[-1] == result.coverage()


def test_undetected_listing():
    b = CircuitBuilder("blocked")
    x, y = b.inputs("x", "y")
    n1 = b.and_("n1", x, y)
    n2 = b.or_("n2", n1, x)  # n1 s-a-0 partially masked
    b.output(n2)
    circuit = b.build()
    result = FaultSimulator(circuit).run(PatternSet.exhaustive(circuit.inputs))
    undetected = result.undetected()
    assert all(
        result.records[f].first_detect is None for f in undetected
    )


def test_fault_validation_errors():
    circuit = c17()
    with pytest.raises(SimulationError, match="unknown node"):
        FaultSimulator(circuit, [Fault("nope", None, 0)])
    with pytest.raises(SimulationError, match="not a gate"):
        FaultSimulator(circuit, [Fault("G1", 0, 0)])
    with pytest.raises(SimulationError, match="out of range"):
        FaultSimulator(circuit, [Fault("G10", 5, 0)])


def test_empty_pattern_set_rejected():
    circuit = c17()
    empty = PatternSet(circuit.inputs, 0, {n: 0 for n in circuit.inputs})
    with pytest.raises(SimulationError, match="empty"):
        FaultSimulator(circuit).run(empty)


def test_block_size_validation():
    circuit = c17()
    patterns = PatternSet.random(circuit.inputs, 16, seed=0)
    with pytest.raises(SimulationError, match="positive"):
        FaultSimulator(circuit).run(patterns, block_size=0)


def test_input_stem_fault_on_output_node():
    """A fault on a node that is simultaneously a PO must self-detect."""
    b = CircuitBuilder("wire")
    a = b.input("a")
    y = b.buf("y", a)
    b.output(y)
    circuit = b.build()
    patterns = PatternSet.exhaustive(circuit.inputs)
    result = FaultSimulator(circuit).run(patterns)
    for fault, record in result.records.items():
        assert record.detect_count == 1  # one of the two patterns detects

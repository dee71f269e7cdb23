"""Tests for the PROTEST signal-probability estimator (paper §2)."""

from __future__ import annotations

import pytest

from repro.circuit import CircuitBuilder
from repro.circuits import and_or_ladder, c17, sn74181
from repro.circuits.library import build
from repro.errors import EstimationError
from repro.probability import (
    EstimatorParams,
    SignalProbabilityEstimator,
    exact_signal_probabilities,
)


def test_params_validation():
    with pytest.raises(EstimationError):
        EstimatorParams(maxvers=-1)
    with pytest.raises(EstimationError):
        EstimatorParams(maxlist=0)
    with pytest.raises(EstimationError):
        EstimatorParams(candidate_cap=0)


def test_tree_rule_exact_on_trees(tree_circuit):
    estimate = SignalProbabilityEstimator(tree_circuit).run(
        {"a": 0.3, "b": 0.7, "c": 0.2, "d": 0.9}
    )
    exact = exact_signal_probabilities(
        tree_circuit, {"a": 0.3, "b": 0.7, "c": 0.2, "d": 0.9}
    )
    for node in tree_circuit.nodes:
        assert estimate[node] == pytest.approx(exact[node], abs=1e-12)


def test_conditioning_exact_on_single_reconvergence(reconvergent_circuit):
    estimate = SignalProbabilityEstimator(reconvergent_circuit).run()
    exact = exact_signal_probabilities(reconvergent_circuit)
    assert estimate["k"] == pytest.approx(exact["k"], abs=1e-12)
    # The tree rule is wrong here — the conditioning is doing real work.
    tree = SignalProbabilityEstimator(
        reconvergent_circuit, EstimatorParams(maxvers=0)
    ).run()
    assert abs(tree["k"] - exact["k"]) > 0.05


def test_xor_pair_captured_by_fill_in(xor_pair_circuit):
    """Zero covariance but full correlation: the fill-in selection works."""
    estimate = SignalProbabilityEstimator(xor_pair_circuit).run()
    exact = exact_signal_probabilities(xor_pair_circuit)
    assert estimate["k"] == pytest.approx(exact["k"], abs=1e-12)


def test_weighted_inputs(reconvergent_circuit):
    probs = {"x": 0.9, "y": 0.25, "z": 0.6}
    estimate = SignalProbabilityEstimator(reconvergent_circuit).run(probs)
    exact = exact_signal_probabilities(reconvergent_circuit, probs)
    assert estimate["k"] == pytest.approx(exact["k"], abs=1e-12)


def test_degenerate_input_probabilities(reconvergent_circuit):
    estimate = SignalProbabilityEstimator(reconvergent_circuit).run(
        {"x": 0.0, "y": 1.0, "z": 0.5}
    )
    assert estimate["k"] == 0.0
    estimate = SignalProbabilityEstimator(reconvergent_circuit).run(
        {"x": 1.0, "y": 1.0, "z": 1.0}
    )
    assert estimate["k"] == 1.0


def test_maxvers_monotone_improvement_on_alu():
    """Average error against exact must not grow with MAXVERS."""
    circuit = sn74181()
    exact = exact_signal_probabilities(circuit, max_inputs=14)
    errors = []
    for maxvers in (0, 2, 4):
        estimate = SignalProbabilityEstimator(
            circuit, EstimatorParams(maxvers=maxvers)
        ).run()
        avg = sum(
            abs(estimate[n] - exact[n]) for n in circuit.nodes
        ) / circuit.n_nodes
        errors.append(avg)
    assert errors[0] > errors[1] >= errors[2] * 0.7  # allow mild noise
    assert errors[2] < 0.02


def test_probabilities_stay_in_unit_interval():
    circuit = and_or_ladder(9)
    estimate = SignalProbabilityEstimator(circuit).run(0.3)
    for node, p in estimate.items():
        assert 0.0 <= p <= 1.0, node


def test_mapping_interface():
    circuit = c17()
    estimate = SignalProbabilityEstimator(circuit).run()
    assert len(estimate) == circuit.n_nodes
    assert set(estimate) == set(circuit.nodes)
    assert estimate.as_dict() == {n: estimate[n] for n in estimate}
    assert estimate.input_probs == {n: 0.5 for n in circuit.inputs}


def test_conditioned_gate_count_reported():
    circuit = c17()
    estimate = SignalProbabilityEstimator(circuit).run()
    assert estimate.conditioned_gates > 0
    tree = SignalProbabilityEstimator(
        circuit, EstimatorParams(maxvers=0)
    ).run()
    assert tree.conditioned_gates == 0


def test_incremental_update_matches_full_run():
    circuit = sn74181()
    estimator = SignalProbabilityEstimator(circuit)
    base = estimator.run()
    changed = {name: 0.5 for name in circuit.inputs}
    changed["A0"] = 0.8125
    changed["M"] = 0.25
    updated = estimator.update(base, changed)
    full = estimator.run(changed)
    for node in circuit.nodes:
        assert updated[node] == pytest.approx(full[node], abs=1e-12), node


def test_incremental_update_no_change_returns_same():
    circuit = c17()
    estimator = SignalProbabilityEstimator(circuit)
    base = estimator.run()
    assert estimator.update(base, dict(base.input_probs)) is base


def test_joining_points_cached_per_gate():
    circuit = c17()
    estimator = SignalProbabilityEstimator(circuit)
    estimator.run()
    first = estimator.joining_points_of("G22")
    assert first == estimator.joining_points_of("G22")
    assert "G11" in first or "G16" in first or first  # non-empty


def test_c17_close_to_exact():
    circuit = c17()
    exact = exact_signal_probabilities(circuit)
    estimate = SignalProbabilityEstimator(circuit).run()
    for node in circuit.nodes:
        assert estimate[node] == pytest.approx(exact[node], abs=0.07), node


@pytest.mark.parametrize("name", ["c17", "alu", "c432"])
def test_update_recomputes_conditioned_gates(name):
    """update() re-derives every recomputed gate's conditioning flag:
    with all inputs at 1.0 nothing varies, so nothing is conditioned."""
    circuit = build(name)
    estimator = SignalProbabilityEstimator(circuit)
    previous = estimator.run(0.5)
    assert previous.conditioned_gates > 0
    updated = estimator.update(previous, 1.0)
    fresh = SignalProbabilityEstimator(circuit).run(1.0)
    assert fresh.conditioned_gates == 0
    assert updated.conditioned_gates == fresh.conditioned_gates
    assert updated.conditioned_nodes == fresh.conditioned_nodes
    assert dict(updated) == dict(fresh)

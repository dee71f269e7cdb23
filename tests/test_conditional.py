"""Tests for the one-level conditional evaluator (on compiled node ids)."""

from __future__ import annotations

import pytest

from repro.circuit import CircuitBuilder
from repro.kernel import compile_circuit
from repro.probability.conditional import ConditionalEvaluator


def build_chain():
    b = CircuitBuilder("chain")
    x, y = b.inputs("x", "y")
    n1 = b.and_("n1", x, y)
    n2 = b.not_("n2", n1)
    b.output(n2)
    return b.build()


def base_probs(circuit, values=None):
    """Tree-rule probabilities as a base estimate."""
    from repro.circuit.types import gate_probability

    probs = dict(values or {})
    for node in circuit.nodes:
        if circuit.is_input(node):
            probs.setdefault(node, 0.5)
        else:
            gate = circuit.gates[node]
            probs[node] = gate_probability(
                gate.gtype, [probs[s] for s in gate.inputs], gate.table
            )
    return probs


def evaluator_for(circuit, depth):
    """An evaluator over the tree-rule base plus a name -> id helper."""
    compiled = compile_circuit(circuit)
    evaluator = ConditionalEvaluator(compiled, depth)
    base = base_probs(circuit)
    evaluator.load([base[name] for name in compiled.names])
    evaluator.begin_pass()
    return evaluator, compiled.index.__getitem__, base


def test_condition_on_ancestor():
    evaluator, ix, _base = evaluator_for(build_chain(), depth=None)
    # P(n1 | x=1) = p_y, P(n1 | x=0) = 0.
    assert evaluator.probability(ix("n1"), {ix("x"): 1.0}) == pytest.approx(0.5)
    assert evaluator.probability(ix("n1"), {ix("x"): 0.0}) == 0.0
    # Through the inverter.
    assert evaluator.probability(ix("n2"), {ix("x"): 0.0}) == 1.0


def test_condition_on_self():
    evaluator, ix, _base = evaluator_for(build_chain(), depth=None)
    assert evaluator.probability(ix("n1"), {ix("n1"): 1.0}) == 1.0
    assert evaluator.probability(ix("n1"), {ix("n1"): 0.0}) == 0.0


def test_unrelated_condition_returns_base():
    evaluator, ix, base = evaluator_for(build_chain(), depth=None)
    # y's value does not affect x.
    assert evaluator.probability(ix("x"), {ix("y"): 1.0}) == base["x"]


def test_depth_bound_cuts_influence():
    evaluator, ix, base = evaluator_for(build_chain(), depth=1)
    # n2 is 2 levels from x; with depth=1 the condition is out of range.
    assert evaluator.probability(ix("n2"), {ix("x"): 0.0}) == base["n2"]


def test_influence_sign():
    evaluator, ix, _base = evaluator_for(build_chain(), depth=None)
    assert evaluator.influence(ix("n1"), ix("x")) == pytest.approx(0.5)
    assert evaluator.influence(ix("n2"), ix("x")) == pytest.approx(-0.5)


def test_multi_condition_chain():
    b = CircuitBuilder("two")
    x, y, z = b.inputs("x", "y", "z")
    n1 = b.or_("n1", x, y)
    n2 = b.and_("n2", n1, z)
    b.output(n2)
    evaluator, ix, _base = evaluator_for(b.build(), depth=None)
    # P(n2 | x=0, z=1) = P(y) = 0.5; P(n2 | x=1, z=1) = 1.
    assert evaluator.probability(
        ix("n2"), {ix("x"): 0.0, ix("z"): 1.0}
    ) == pytest.approx(0.5)
    assert evaluator.probability(
        ix("n2"), {ix("x"): 1.0, ix("z"): 1.0}
    ) == pytest.approx(1.0)


def test_replay_restores_the_working_copy():
    """Every query leaves ``work`` equal to ``base`` (the undo log)."""
    b = CircuitBuilder("two")
    x, y, z = b.inputs("x", "y", "z")
    n1 = b.or_("n1", x, y)
    n2 = b.and_("n2", n1, z)
    b.output(n2)
    evaluator, ix, _base = evaluator_for(b.build(), depth=None)
    evaluator.probability(ix("n2"), {ix("x"): 0.0, ix("z"): 1.0})
    evaluator.influence(ix("n2"), ix("y"))
    assert evaluator.work == evaluator.base

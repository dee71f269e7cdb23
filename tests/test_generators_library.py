"""Tests for the parametric generators and the circuit registry."""

from __future__ import annotations

import pytest

from repro.circuits import (
    REGISTRY,
    and_or_ladder,
    build,
    c17,
    decoder,
    majority,
    mux_tree,
    names,
    parity_tree,
    random_dag,
)
from repro.errors import ReproError
from repro.logicsim import PatternSet, simulate
from tests.conftest import bits_to_int


def test_c17_structure():
    circuit = c17()
    assert circuit.n_gates == 6
    assert circuit.outputs == ("G22", "G23")


def test_parity_tree_function():
    circuit = parity_tree(7)
    ps = PatternSet.exhaustive(circuit.inputs)
    values = simulate(circuit, ps)
    out = circuit.outputs[0]
    for j in range(ps.n_patterns):
        vec = ps.vector(j)
        parity = sum(vec.values()) % 2
        assert (values[out] >> j) & 1 == parity


def test_parity_tree_rejects_width_one():
    with pytest.raises(ValueError):
        parity_tree(1)


def test_decoder_one_hot():
    circuit = decoder(3)
    ps = PatternSet.exhaustive(circuit.inputs)
    values = simulate(circuit, ps)
    for j in range(ps.n_patterns):
        vec = ps.vector(j)
        sel = bits_to_int(vec, ["S0", "S1", "S2"])
        hot = [
            row for row in range(8) if (values[f"O{row}"] >> j) & 1
        ]
        assert hot == [sel]


def test_mux_tree_selects():
    circuit = mux_tree(2)
    ps = PatternSet.exhaustive(circuit.inputs)
    values = simulate(circuit, ps)
    for j in range(ps.n_patterns):
        vec = ps.vector(j)
        sel = bits_to_int(vec, ["S0", "S1"])
        assert (values["Y"] >> j) & 1 == vec[f"D{sel}"]


def test_majority_function():
    circuit = majority(5)
    ps = PatternSet.exhaustive(circuit.inputs)
    values = simulate(circuit, ps)
    out = circuit.outputs[0]
    for j in range(ps.n_patterns):
        vec = ps.vector(j)
        assert (values[out] >> j) & 1 == (1 if sum(vec.values()) >= 3 else 0)


def test_majority_validation():
    with pytest.raises(ValueError):
        majority(4)


def test_and_or_ladder_reconverges():
    from signal_reference import ReferenceTopology

    from repro.circuit import Topology

    circuit = and_or_ladder(6)
    assert Topology(circuit).fanout_degree("X") >= 2
    assert ReferenceTopology(circuit).reconvergent_gates() != []


def test_random_dag_deterministic():
    a = random_dag(4, 20, seed=5)
    b = random_dag(4, 20, seed=5)
    assert a.nodes == b.nodes
    assert {g.name: g.inputs for g in a.gates.values()} == {
        g.name: g.inputs for g in b.gates.values()
    }


def test_random_dag_all_logic_observable():
    from repro.circuit import Topology, validate

    circuit = random_dag(5, 40, seed=11)
    assert not any(i.code == "dangling-gate" for i in validate(circuit))


def test_random_dag_with_luts():
    circuit = random_dag(4, 30, seed=3, lut_fraction=0.4)
    ps = PatternSet.exhaustive(circuit.inputs)
    simulate(circuit, ps)  # must evaluate without error


def test_registry_builds_everything():
    for name in names():
        circuit = build(name)
        assert circuit.n_gates > 0, name


def test_registry_unknown_name():
    with pytest.raises(ReproError, match="unknown circuit"):
        build("nonesuch")


def test_registry_paper_circuits_present():
    assert {"alu", "mult", "div", "comp"} <= set(REGISTRY)

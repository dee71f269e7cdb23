"""Unit tests for structural analysis (levels, cones, joining points).

Joining points, depth-bounded fan-in and forward cones are estimator
queries on compiled ids; their expected sets are pinned here on the
name-walking reference in ``signal_reference.py``, which the parity
suite ties to the library.
"""

from __future__ import annotations

import pytest

from signal_reference import ReferenceTopology

from repro.circuit import CircuitBuilder, Topology
from repro.circuits import c17
from repro.kernel import compile_circuit
from repro.probability.conditional import ConditionalEvaluator
from repro.probability.estimator import SignalProbabilityEstimator


def build_diamond():
    """x fans out into two paths that reconverge at k."""
    b = CircuitBuilder("diamond")
    x, y, z = b.inputs("x", "y", "z")
    a = b.and_("a", x, y)
    c = b.and_("c", x, z)
    k = b.or_("k", a, c)
    b.output(k)
    return b.build()


def test_levels():
    circuit = build_diamond()
    topo = Topology(circuit)
    assert topo.level["x"] == 0
    assert topo.level["a"] == 1
    assert topo.level["k"] == 2
    assert topo.depth == 2


def test_branches_and_fanout_degree():
    circuit = build_diamond()
    topo = Topology(circuit)
    assert set(topo.branches["x"]) == {("a", 0), ("c", 0)}
    assert topo.fanout_degree("x") == 2
    assert topo.fanout_degree("k") == 1  # primary output only
    assert topo.is_stem("x")
    assert not topo.is_stem("y")


def test_tfo():
    circuit = build_diamond()
    topo = Topology(circuit)
    assert set(topo.tfo("x")) == {"a", "c", "k"}
    assert set(topo.tfo("y")) == {"a", "k"}
    assert topo.tfo("k") == ()


def test_tfi():
    circuit = build_diamond()
    topo = Topology(circuit)
    assert topo.tfi("k") == frozenset({"k", "a", "c", "x", "y", "z"})
    assert topo.tfi("a") == frozenset({"a", "x", "y"})


def test_bounded_tfi_depth():
    circuit = build_diamond()
    topo = ReferenceTopology(circuit)
    assert topo.bounded_tfi("k", 0) == {"k"}
    assert topo.bounded_tfi("k", 1) == {"k", "a", "c"}
    assert topo.bounded_tfi("k", 2) == {"k", "a", "c", "x", "y", "z"}
    assert topo.bounded_tfi("k", None) == set(Topology(circuit).tfi("k"))


def test_joining_points_diamond():
    circuit = build_diamond()
    topo = ReferenceTopology(circuit)
    gate = circuit.gates["k"]
    assert topo.joining_points(gate.inputs) == ["x"]
    # Depth counts edges back from the gate *inputs*: 1 step reaches x,
    # 0 steps sees only the inputs themselves.
    assert topo.joining_points(gate.inputs, max_depth=1) == ["x"]
    assert topo.joining_points(gate.inputs, max_depth=0) == []


def test_joining_points_repeated_signal():
    b = CircuitBuilder("dup")
    a = b.input("a")
    k = b.and_("k", a, a)
    b.output(k)
    circuit = b.build()
    topo = ReferenceTopology(circuit)
    assert topo.joining_points(circuit.gates["k"].inputs) == ["a"]
    # The estimator's id-based query keeps the same per-pin semantics.
    assert SignalProbabilityEstimator(circuit).joining_points_of("k") == ["a"]


def test_no_joining_points_in_tree(tree_circuit):
    topo = ReferenceTopology(tree_circuit)
    estimator = SignalProbabilityEstimator(tree_circuit)
    for gate in tree_circuit.gates.values():
        assert topo.joining_points(gate.inputs) == []
        assert estimator.joining_points_of(gate.name) == []


def test_reconvergent_gates_c17():
    circuit = c17()
    topo = ReferenceTopology(circuit)
    reconv = set(topo.reconvergent_gates())
    # G16 and G19 share stem G11; G22/G23 reconverge through G11 and G16.
    assert "G22" in reconv
    assert "G23" in reconv
    assert "G10" not in reconv


def test_forward_cone_within():
    circuit = build_diamond()
    topo = ReferenceTopology(circuit)
    allowed = {"x", "a", "c", "k"}
    cone = topo.forward_cone_within(["x"], allowed)
    assert set(cone) == {"a", "c", "k"}
    assert cone[-1] == "k"  # topological: the reconvergence comes last
    # Restricting the region prunes the cone.
    cone = topo.forward_cone_within(["x"], {"x", "a"})
    assert cone == ["a"]
    assert topo.forward_cone_within(["k"], allowed) == []


def test_bounded_tfi_is_cached_per_node_and_depth():
    circuit = c17()
    topo = ReferenceTopology(circuit)
    first = topo.bounded_tfi("G22", 2)
    assert topo.bounded_tfi("G22", 2) is first  # memoized
    assert isinstance(first, frozenset)
    assert topo.bounded_tfi("G22", 1) is not first  # distinct depth key
    # Unbounded queries are cached under the None key too.
    assert topo.bounded_tfi("G22", None) is topo.bounded_tfi("G22", None)
    assert topo.bounded_tfi("G22", None) == Topology(circuit).tfi("G22")


@pytest.mark.parametrize("depth", [0, 1, 2, None])
def test_kernel_region_matches_bounded_tfi(depth):
    circuit = c17()
    compiled = compile_circuit(circuit)
    evaluator = ConditionalEvaluator(compiled, depth)
    topo = ReferenceTopology(circuit)
    for node in circuit.nodes:
        region = {compiled.names[i] for i in evaluator.region(
            compiled.index[node]
        )}
        assert region == topo.bounded_tfi(node, depth), node

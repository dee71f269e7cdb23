"""Structural analysis by node name: fan-out, levels and cones.

The estimator's depth-bounded fan-in, joining-point and forward-cone
queries run on compiled node ids (:mod:`repro.probability.conditional`);
this module serves the name-level views the observability, fault-list
and baseline analyses walk.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.circuit.netlist import Circuit, Pin

__all__ = ["Topology"]


class Topology:
    """Derived structural views over a :class:`Circuit`.

    The object is cheap to construct (one pass over the gates); expensive
    cone queries are computed lazily and cached.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        #: Consumers of each node as ``(gate_name, pin_index)`` pairs.
        self.branches: Dict[str, Tuple[Pin, ...]] = {}
        branches: Dict[str, List[Pin]] = {node: [] for node in circuit.nodes}
        for gate in circuit.gates.values():
            for pin, src in enumerate(gate.inputs):
                branches[src].append((gate.name, pin))
        self.branches = {node: tuple(pins) for node, pins in branches.items()}
        #: Topological position of every node.
        self.topo_index: Dict[str, int] = {
            node: i for i, node in enumerate(circuit.nodes)
        }
        self.level: Dict[str, int] = self._compute_levels()
        self._tfo_cache: Dict[str, Tuple[str, ...]] = {}
        self._tfi_cache: Dict[str, FrozenSet[str]] = {}

    # -- elementary views -------------------------------------------------------

    def _compute_levels(self) -> Dict[str, int]:
        level: Dict[str, int] = {}
        circuit = self.circuit
        for node in circuit.nodes:
            if circuit.is_input(node):
                level[node] = 0
            else:
                gate = circuit.gates[node]
                level[node] = 1 + max(
                    (level[src] for src in gate.inputs), default=0
                )
        return level

    @property
    def depth(self) -> int:
        """Logic depth of the circuit (maximal level)."""
        return max(self.level.values(), default=0)

    def fanout_degree(self, node: str) -> int:
        """Number of fan-out branches (gate input pins) plus 1 if a PO."""
        extra = 1 if self.circuit.is_output(node) else 0
        return len(self.branches[node]) + extra

    def is_stem(self, node: str) -> bool:
        """True when the node has more than one fan-out branch."""
        return self.fanout_degree(node) > 1

    # -- cones --------------------------------------------------------------------

    def tfo(self, node: str) -> Tuple[str, ...]:
        """Transitive fan-out of ``node`` (excluding it), topologically sorted."""
        cached = self._tfo_cache.get(node)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [gate for gate, _pin in self.branches[node]]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(gate for gate, _pin in self.branches[current])
        cone = tuple(sorted(seen, key=self.topo_index.__getitem__))
        self._tfo_cache[node] = cone
        return cone

    def tfi(self, node: str) -> FrozenSet[str]:
        """Transitive fan-in of ``node`` (including it)."""
        cached = self._tfi_cache.get(node)
        if cached is not None:
            return cached
        circuit = self.circuit
        seen: Set[str] = {node}
        stack = [node]
        while stack:
            current = stack.pop()
            if circuit.is_input(current):
                continue
            for src in circuit.gates[current].inputs:
                if src not in seen:
                    seen.add(src)
                    stack.append(src)
        result = frozenset(seen)
        self._tfi_cache[node] = result
        return result

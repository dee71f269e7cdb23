"""Name-walking reference for the signal-probability estimator.

A deliberately independent second implementation of the PROTEST
estimator (paper §2, formula (2)): it walks the netlist by node *name*
over dict-of-sets fan-in/fan-out views, where the library runs on
compiled node ids with flat arrays and an undo log.  The parity tests
(``test_signal_parity.py``, ``test_kernel_parity.py``) require the two
to agree *exactly* (``==``) on every signal probability, on the
conditioned-gate count and on the work counters.

It is frozen on purpose: the structural queries (depth-bounded fan-in,
joining points, forward cone within a region) are the plain graph
walks the estimator was first written with, so a change to the
library's id-based versions cannot silently move both sides.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set

from repro.circuit.types import gate_probability
from repro.logicsim.patterns import resolve_input_probs
from repro.probability.estimator import EstimatorParams


class ReferenceTopology:
    """Depth-bounded fan-in, joining points and forward cones by name."""

    def __init__(self, circuit) -> None:
        self.circuit = circuit
        branches: Dict[str, List[tuple]] = {n: [] for n in circuit.nodes}
        for gate in circuit.gates.values():
            for pin, src in enumerate(gate.inputs):
                branches[src].append((gate.name, pin))
        self.branches = {n: tuple(pins) for n, pins in branches.items()}
        self.topo_index = {n: i for i, n in enumerate(circuit.nodes)}
        self._bounded: Dict[tuple, FrozenSet[str]] = {}

    def bounded_tfi(self, node: str, max_depth: "int | None") -> FrozenSet[str]:
        """Fan-in of ``node`` up to ``max_depth`` edges back (inclusive)."""
        key = (node, max_depth)
        cached = self._bounded.get(key)
        if cached is not None:
            return cached
        circuit = self.circuit
        seen = {node}
        frontier = [node]
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            next_frontier = []
            for current in frontier:
                if circuit.is_input(current):
                    continue
                for src in circuit.gates[current].inputs:
                    if src not in seen:
                        seen.add(src)
                        next_frontier.append(src)
            frontier = next_frontier
        cached = frozenset(seen)
        self._bounded[key] = cached
        return cached

    def joining_points(
        self, nodes: Sequence[str], max_depth: "int | None" = None
    ) -> List[str]:
        """Nodes with >= 2 fan-out pins in the fan-in of >= 2 distinct pins.

        Counted per pin, so a gate fed twice from one signal makes that
        signal (and its fan-in) its own joining point.  Topological order.
        """
        if len(nodes) < 2:
            return []
        hits: Dict[str, int] = {}
        for node in nodes:
            for x in self.bounded_tfi(node, max_depth):
                hits[x] = hits.get(x, 0) + 1
        result = [
            x for x, count in hits.items()
            if count >= 2 and len(self.branches[x]) >= 2
        ]
        result.sort(key=self.topo_index.__getitem__)
        return result

    def is_reconvergent(self, gate_name: str,
                        max_depth: "int | None" = None) -> bool:
        gate = self.circuit.gates[gate_name]
        return bool(self.joining_points(gate.inputs, max_depth))

    def reconvergent_gates(self, max_depth: "int | None" = None) -> List[str]:
        return [
            name for name in self.circuit.gates
            if self.is_reconvergent(name, max_depth)
        ]

    def forward_cone_within(
        self, sources: Iterable[str], allowed: Set[str]
    ) -> List[str]:
        """Gates reachable from ``sources`` while staying in ``allowed``."""
        stack = [s for s in sources if s in allowed]
        cone: Set[str] = set()
        while stack:
            current = stack.pop()
            for gate_name, _pin in self.branches[current]:
                if gate_name not in cone and gate_name in allowed:
                    cone.add(gate_name)
                    stack.append(gate_name)
        return sorted(cone, key=self.topo_index.__getitem__)


class ReferenceSignalEstimator:
    """The formula (2) estimator over names; counts its own work.

    ``influence_evals`` counts computed (not memoized) ``influence``
    values and ``cone_elems`` the gate evaluations of conditional cone
    replays — the same quantities the library reports as
    ``protest_estimator_work_total``.
    """

    def __init__(self, circuit, params: "EstimatorParams | None" = None):
        self.circuit = circuit
        self.params = params or EstimatorParams()
        self.topology = ReferenceTopology(circuit)
        self.influence_evals = 0
        self.cone_elems = 0
        self._influence: Dict[tuple, float] = {}
        self._cones: Dict[tuple, List[str]] = {}

    def run(self, input_probs=None):
        """``(probabilities, conditioned gate names)`` for an input spec."""
        probs = dict(resolve_input_probs(self.circuit.inputs, input_probs))
        self._influence = {}
        conditioned = set()
        for node in self.circuit.nodes:
            if node in probs:
                continue
            probs[node], used = self._gate(self.circuit.gates[node], probs)
            if used:
                conditioned.add(node)
        return probs, conditioned

    def update(self, previous, previous_conditioned, input_probs):
        """Recompute the fan-out of the changed inputs only."""
        resolved = resolve_input_probs(self.circuit.inputs, input_probs)
        probs = dict(previous)
        conditioned = set(previous_conditioned)
        self._influence = {}
        dirty = {
            name for name in self.circuit.inputs
            if resolved[name] != previous[name]
        }
        for name in dirty:
            probs[name] = resolved[name]
        for node in self.circuit.nodes:
            gate = self.circuit.gates.get(node)
            if gate is None or not dirty.intersection(gate.inputs):
                continue
            dirty.add(node)
            probs[node], used = self._gate(gate, probs)
            if used:
                conditioned.add(node)
            else:
                conditioned.discard(node)
        return probs, conditioned

    # -- formula (2) --------------------------------------------------------

    def _gate(self, gate, probs):
        operands = [probs[src] for src in gate.inputs]
        tree = gate_probability(gate.gtype, operands, gate.table)
        if gate.arity < 2 or self.params.maxvers == 0:
            return tree, False
        joining = self.topology.joining_points(gate.inputs, self.params.maxlist)
        if not joining:
            return tree, False
        selected = self._select(gate, joining, probs)
        if not selected:
            return tree, False
        return self._conditioned(gate, selected, probs), True

    def _select(self, gate, joining, probs):
        cap = self.params.candidate_cap
        candidates = joining[-cap:] if len(joining) > cap else joining
        inputs = list(dict.fromkeys(gate.inputs))
        scored = []
        for x in candidates:
            variance = probs[x] * (1.0 - probs[x])
            if variance <= 0.0:
                continue
            influences = [self.influence(a, x, probs) for a in inputs]
            if len(inputs) == 1:
                score = variance * abs(influences[0])
            else:
                score = 0.0
                for i in range(len(influences)):
                    for j in range(i + 1, len(influences)):
                        score += abs(influences[i] * influences[j])
                score *= variance
            scored.append((score, x))
        scored.sort(key=lambda item: (-item[0], item[1]))
        selected = [x for score, x in scored if score > 0.0]
        if len(selected) < self.params.maxvers:
            chosen = set(selected)
            for x in reversed(candidates):
                if x not in chosen and probs[x] * (1.0 - probs[x]) > 0.0:
                    selected.append(x)
                    chosen.add(x)
                if len(selected) >= self.params.maxvers:
                    break
        return selected[: self.params.maxvers]

    def _conditioned(self, gate, selected, probs):
        order = sorted(selected, key=self.topology.topo_index.__getitem__)
        conditions: Dict[str, int] = {}

        def descend(index, weight):
            if weight <= 0.0:
                return 0.0
            if index == len(order):
                cond = [
                    self.probability(src, conditions, probs)
                    for src in gate.inputs
                ]
                return weight * gate_probability(gate.gtype, cond, gate.table)
            node = order[index]
            p_one = self.probability(node, conditions, probs)
            p_one = min(max(p_one, 0.0), 1.0)
            acc = 0.0
            for value, branch in ((1, p_one), (0, 1.0 - p_one)):
                if branch <= 0.0:
                    continue
                conditions[node] = value
                acc += descend(index + 1, weight * branch)
                del conditions[node]
            return acc

        return min(max(descend(0, 1.0), 0.0), 1.0)

    # -- one-level conditioning ---------------------------------------------

    def probability(self, target: str, conditions: Mapping[str, int],
                    base: Mapping[str, float]) -> float:
        """``P(target | conditions)``: re-evaluate the cone by name."""
        if target in conditions:
            return float(conditions[target])
        allowed = self.topology.bounded_tfi(target, self.params.maxlist)
        relevant = [node for node in conditions if node in allowed]
        if not relevant:
            return base[target]
        key = (target, frozenset(relevant))
        cone = self._cones.get(key)
        if cone is None:
            cone = self.topology.forward_cone_within(relevant, allowed)
            self._cones[key] = cone
        values = {node: float(v) for node, v in conditions.items()}
        gates = self.circuit.gates
        for name in cone:
            if name in conditions:
                continue
            gate = gates[name]
            values[name] = gate_probability(
                gate.gtype,
                [values.get(src, base[src]) for src in gate.inputs],
                gate.table,
            )
            self.cone_elems += 1
        return values.get(target, base[target])

    def influence(self, target: str, node: str,
                  base: Mapping[str, float]) -> float:
        """``P(target | node=1) - P(target | node=0)``, memoized per pass."""
        key = (target, node)
        if key in self._influence:
            return self._influence[key]
        self.influence_evals += 1
        allowed = self.topology.bounded_tfi(target, self.params.maxlist)
        if node not in allowed:
            value = 0.0
        else:
            value = (self.probability(target, {node: 1}, base)
                     - self.probability(target, {node: 0}, base))
        self._influence[key] = value
        return value

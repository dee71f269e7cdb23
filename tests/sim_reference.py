"""Name-walking reference for packed simulation and fault simulation.

A deliberately independent second implementation of true-value
simulation and single stuck-at fault simulation: it walks the netlist
by node *name* over plain dicts with its own gate semantics, where the
library runs compiled node ids, the kernel's opcode tables
(``repro.kernel.ops``) and ``PACKED_DISPATCH`` through a pluggable
evaluation backend.  The parity tests (``test_kernel_parity.py``,
``test_fault_simulator.py``, ``test_sampling.py``) require the two to
agree *exactly* (``==``) on every node word, detection word and
per-fault record.

It is frozen on purpose, like ``signal_reference.py``: the gate rules
below are written out independently of ``repro.circuit.types``, and a
detection word is the output difference of a full resimulation of the
fault's forward cone, so a change to the library's event-driven
propagation or fault injection cannot silently move both sides.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.circuit.types import GateType


def _lut(operands: List[int], mask: int, table: int) -> int:
    """Sum of products over the table's true minterms (input 0 = LSB)."""
    word = 0
    for minterm in range(1 << len(operands)):
        if not (table >> minterm) & 1:
            continue
        term = mask
        for pin, operand in enumerate(operands):
            term &= operand if (minterm >> pin) & 1 else ~operand
        word |= term
    return word & mask


_GATES = {
    GateType.AND: lambda ops, mask, table: reduce(int.__and__, ops, mask),
    GateType.OR: lambda ops, mask, table: reduce(int.__or__, ops, 0),
    GateType.NAND: lambda ops, mask, table: ~reduce(int.__and__, ops, mask),
    GateType.NOR: lambda ops, mask, table: ~reduce(int.__or__, ops, 0),
    GateType.XOR: lambda ops, mask, table: reduce(int.__xor__, ops, 0),
    GateType.XNOR: lambda ops, mask, table: ~reduce(int.__xor__, ops, 0),
    GateType.NOT: lambda ops, mask, table: ~ops[0],
    GateType.BUF: lambda ops, mask, table: ops[0],
    GateType.CONST0: lambda ops, mask, table: 0,
    GateType.CONST1: lambda ops, mask, table: mask,
    GateType.LUT: _lut,
}


def reference_gate(gate, operands: List[int], mask: int) -> int:
    """One gate's packed output word over ``mask``'s pattern width."""
    return _GATES[gate.gtype](operands, mask, gate.table) & mask


def reference_simulate(
    circuit, patterns, overrides: "Mapping[str, int] | None" = None
) -> Dict[str, int]:
    """Packed value of every node; ``overrides`` force nodes to words.

    A forced gate is not evaluated, so its fan-out sees the forced word
    (stem fault injection).
    """
    mask = patterns.mask
    values = {name: patterns.words[name] & mask for name in circuit.inputs}
    forced = {node: word & mask for node, word in (overrides or {}).items()}
    values.update(forced)
    for node in circuit.nodes:
        if node in values:
            continue
        gate = circuit.gates[node]
        values[node] = reference_gate(
            gate, [values[src] for src in gate.inputs], mask
        )
    return values


class ReferenceFaultSimulator:
    """Full-cone resimulation of single stuck-at faults, by name.

    ``detection_word`` re-evaluates *every* gate in the fault site's
    forward cone with the fault injected (no event-driven skipping) and
    compares the primary outputs against the fault-free words.
    """

    def __init__(self, circuit) -> None:
        self.circuit = circuit
        consumers: Dict[str, List[str]] = {n: [] for n in circuit.nodes}
        for gate in circuit.gates.values():
            for src in gate.inputs:
                consumers[src].append(gate.name)
        self._consumers = consumers
        self._order = {n: i for i, n in enumerate(circuit.nodes)}
        self._cones: Dict[str, List[str]] = {}

    def _cone(self, node: str) -> List[str]:
        """Gates reachable from ``node`` (exclusive), topological order."""
        cone = self._cones.get(node)
        if cone is None:
            seen = set()
            stack = [node]
            while stack:
                for consumer in self._consumers[stack.pop()]:
                    if consumer not in seen:
                        seen.add(consumer)
                        stack.append(consumer)
            cone = sorted(seen, key=self._order.__getitem__)
            self._cones[node] = cone
        return cone

    def detection_word(self, fault, patterns,
                       good: "Mapping[str, int] | None" = None) -> int:
        """Bit *j* set when pattern *j* detects ``fault`` at an output."""
        circuit = self.circuit
        mask = patterns.mask
        if good is None:
            good = reference_simulate(circuit, patterns)
        stuck = mask if fault.value else 0
        faulty: Dict[str, int] = {}
        if fault.pin is None:
            faulty[fault.node] = stuck
        else:
            gate = circuit.gates[fault.node]
            operands = [good[src] for src in gate.inputs]
            operands[fault.pin] = stuck
            faulty[fault.node] = reference_gate(gate, operands, mask)
        for node in self._cone(fault.node):
            gate = circuit.gates[node]
            faulty[node] = reference_gate(
                gate, [faulty.get(src, good[src]) for src in gate.inputs],
                mask,
            )
        detect = 0
        for out in circuit.outputs:
            detect |= faulty.get(out, good[out]) ^ good[out]
        return detect & mask

    def records(
        self,
        faults: Iterable,
        patterns,
        block_size: int,
        drop_detected: bool,
    ) -> Dict[object, Tuple[int, "int | None", int]]:
        """``fault -> (detect_count, first_detect, simulated_patterns)``.

        Patterns are consumed in blocks of ``block_size``; with
        ``drop_detected`` a fault stops being simulated after the block
        that first detects it.  Patterns are independent bit lanes, so a
        block's detection word is the matching slice of the fault's
        detection word over the whole set.
        """
        good = reference_simulate(self.circuit, patterns)
        words = {
            fault: self.detection_word(fault, patterns, good)
            for fault in faults
        }
        records = {fault: [0, None, 0] for fault in words}
        n = patterns.n_patterns
        for offset in range(0, n, block_size):
            width = min(block_size, n - offset)
            for fault, record in records.items():
                if drop_detected and record[1] is not None:
                    continue
                record[2] += width
                block = (words[fault] >> offset) & ((1 << width) - 1)
                record[0] += block.bit_count()
                if block and record[1] is None:
                    record[1] = offset + (block & -block).bit_length() - 1
        return {fault: tuple(record) for fault, record in records.items()}

"""Serialization of circuits to the ISCAS-85/89 ``.bench`` format."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.circuit.types import GateType
from repro.errors import CircuitError
from repro.resilience.atomic import atomic_write

__all__ = ["format_bench", "save_bench"]

_BENCH_NAMES = {
    GateType.AND: "AND",
    GateType.OR: "OR",
    GateType.NAND: "NAND",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.NOT: "NOT",
    GateType.BUF: "BUFF",
    GateType.CONST0: "CONST0",
    GateType.CONST1: "CONST1",
}


def format_bench(
    circuit: Circuit,
    flipflops: Sequence[Tuple[str, str]] = (),
) -> str:
    """Serialize to ``.bench`` text.

    LUT gates have no ``.bench`` counterpart and raise
    :class:`~repro.errors.CircuitError`; use the SDL writer for those.

    ``flipflops`` re-sequentializes a combinational extraction: each
    ``(q, d)`` pair must name a pseudo primary input ``q`` and its data
    node ``d`` (as reported by
    :class:`~repro.circuit.io.NetlistInfo`); ``q`` is emitted as a
    ``q = DFF(d)`` state element instead of an ``INPUT`` declaration,
    and ``d`` loses the ``OUTPUT`` declaration the cut added — the
    ISCAS-89 shape :func:`repro.circuit.io.read_bench` round-trips.
    """
    q_nodes = {q for q, _d in flipflops}
    d_nodes = {d for _q, d in flipflops}
    for q, d in flipflops:
        if not circuit.is_input(q):
            raise CircuitError(
                f"flip-flop output {q!r} is not a primary input of the "
                "combinational extraction"
            )
        if not circuit.has_node(d):
            raise CircuitError(f"flip-flop data node {d!r} does not exist")
    lines = [f"# {circuit.name}"]
    for node in circuit.inputs:
        if node not in q_nodes:
            lines.append(f"INPUT({node})")
    for node in circuit.outputs:
        if node not in d_nodes:
            lines.append(f"OUTPUT({node})")
    for q, d in flipflops:
        lines.append(f"{q} = DFF({d})")
    for node in circuit.nodes:
        if circuit.is_input(node):
            continue
        gate = circuit.gates[node]
        type_name = _BENCH_NAMES.get(gate.gtype)
        if type_name is None:
            raise CircuitError(
                f"gate {gate.name!r}: {gate.gtype} cannot be written to "
                ".bench; use SDL instead"
            )
        lines.append(f"{gate.name} = {type_name}({', '.join(gate.inputs)})")
    return "\n".join(lines) + "\n"


def save_bench(circuit: Circuit, path: str) -> None:
    """Write a circuit to a ``.bench`` file."""
    atomic_write(path, lambda handle: handle.write(format_bench(circuit)))

"""PROTEST-style structure description language (SDL).

The original PROTEST "compiles a structure description language for
circuits" (paper §7).  The exact syntax is not recoverable from the scan, so
this module defines a small, line-oriented language in its spirit::

    circuit ALU
    input  A0 A1 A2 A3
    output F0 F1
    n1 = and A0 A1        ; gates: and or nand nor xor xnor not buf
    n2 = not n1
    F0 = or n2 A2
    F1 = lut 0x8 A2 A3    ; arbitrary boolean function by truth table
    end

* ``;`` and ``#`` start comments.
* Multi-word declarations may be repeated (several ``input`` lines).
* ``end`` is optional.

:func:`parse_sdl` and :func:`format_sdl` round-trip every circuit built by
this library.
"""

from __future__ import annotations

from typing import List

from repro.circuit.netlist import Circuit, Gate
from repro.circuit.types import GateType
from repro.errors import ParseError
from repro.resilience.atomic import atomic_write

__all__ = ["parse_sdl", "format_sdl", "load_sdl", "save_sdl"]

_GATE_NAMES = {
    "and": GateType.AND,
    "or": GateType.OR,
    "nand": GateType.NAND,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUF,
    "const0": GateType.CONST0,
    "const1": GateType.CONST1,
    "lut": GateType.LUT,
}


def parse_sdl(text: str) -> Circuit:
    """Parse SDL source text into a :class:`Circuit`."""
    name = "sdl"
    inputs: List[str] = []
    outputs: List[str] = []
    gates: List[Gate] = []
    saw_circuit = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        if head == "circuit":
            if len(tokens) != 2:
                raise ParseError("'circuit' takes exactly one name", lineno)
            if saw_circuit:
                raise ParseError("duplicate 'circuit' declaration", lineno)
            name = tokens[1]
            saw_circuit = True
        elif head == "input":
            if len(tokens) < 2:
                raise ParseError("'input' requires at least one node", lineno)
            inputs.extend(tokens[1:])
        elif head == "output":
            if len(tokens) < 2:
                raise ParseError("'output' requires at least one node", lineno)
            outputs.extend(tokens[1:])
        elif head == "end":
            break
        elif len(tokens) >= 3 and tokens[1] == "=":
            gates.append(_parse_gate(tokens, lineno))
        else:
            raise ParseError(f"cannot parse {line!r}", lineno)
    if not outputs:
        raise ParseError("circuit declares no outputs")
    return Circuit(name, inputs, outputs, gates)


def _parse_gate(tokens: List[str], lineno: int) -> Gate:
    target = tokens[0]
    type_name = tokens[2].lower()
    gtype = _GATE_NAMES.get(type_name)
    if gtype is None:
        raise ParseError(f"unknown gate type {type_name!r}", lineno)
    operands = tokens[3:]
    table = 0
    if gtype is GateType.LUT:
        if not operands:
            raise ParseError("lut requires a truth table", lineno)
        try:
            table = int(operands[0], 0)
        except ValueError:
            raise ParseError(
                f"invalid lut truth table {operands[0]!r}", lineno
            ) from None
        operands = operands[1:]
    return Gate(target, gtype, tuple(operands), table)


def format_sdl(circuit: Circuit) -> str:
    """Serialize a circuit to SDL text (inverse of :func:`parse_sdl`)."""
    lines = [f"circuit {circuit.name}"]
    if circuit.inputs:
        lines.append("input " + " ".join(circuit.inputs))
    lines.append("output " + " ".join(circuit.outputs))
    for node in circuit.nodes:
        if circuit.is_input(node):
            continue
        gate = circuit.gates[node]
        if gate.gtype is GateType.LUT:
            body = f"lut {gate.table:#x} " + " ".join(gate.inputs)
        else:
            body = gate.gtype.value.lower()
            if gate.inputs:
                body += " " + " ".join(gate.inputs)
        lines.append(f"{gate.name} = {body}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_sdl(path: str) -> Circuit:
    """Read and parse an SDL file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sdl(handle.read())


def save_sdl(circuit: Circuit, path: str) -> None:
    """Write a circuit to an SDL file."""
    atomic_write(path, lambda handle: handle.write(format_sdl(circuit)))

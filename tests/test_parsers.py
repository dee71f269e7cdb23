"""Unit tests for the .bench and SDL parsers / writers."""

from __future__ import annotations

import pytest

from repro.circuit import (
    GateType,
    format_bench,
    format_sdl,
    parse_bench,
    parse_sdl,
)
from repro.circuit.io import load_bench
from repro.circuit.sdl import load_sdl, save_sdl
from repro.circuit.writer import save_bench
from repro.circuits import c17, sn74181
from repro.errors import CircuitError, ParseError
from repro.logicsim import PatternSet, simulate

BENCH_TEXT = """
# a comment
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y  = NOT(n1)
"""


def test_parse_bench_basic():
    circuit = parse_bench(BENCH_TEXT, "demo")
    assert circuit.inputs == ("a", "b")
    assert circuit.outputs == ("y",)
    assert circuit.gate("n1").gtype is GateType.NAND
    assert circuit.gate("y").gtype is GateType.NOT


def test_parse_bench_case_insensitive_types():
    circuit = parse_bench("INPUT(a)\nOUTPUT(y)\ny = nand(a, a)\n")
    assert circuit.gate("y").gtype is GateType.NAND


def test_parse_bench_aliases():
    circuit = parse_bench(
        "INPUT(a)\nOUTPUT(y)\nn = INV(a)\ny = BUFF(n)\n"
    )
    assert circuit.gate("n").gtype is GateType.NOT
    assert circuit.gate("y").gtype is GateType.BUF


def test_parse_bench_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_bench("INPUT(a)\nthis is garbage\n")


def test_parse_bench_cuts_dff_by_default():
    circuit = parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
    assert "q" in circuit.inputs      # state output -> pseudo-PI
    assert "a" in circuit.outputs     # data node -> pseudo-PO


def test_parse_bench_rejects_dff_in_reject_mode():
    with pytest.raises(ParseError, match="DFF"):
        parse_bench(
            "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n", sequential="reject"
        )


def test_parse_bench_rejects_unknown_gate():
    with pytest.raises(ParseError, match="unknown gate type"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")


def test_parse_bench_requires_output():
    with pytest.raises(ParseError, match="no OUTPUT"):
        parse_bench("INPUT(a)\n")


def test_parse_bench_malformed_args():
    with pytest.raises(ParseError, match="malformed"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, , a)\n")


def test_bench_roundtrip_c17():
    circuit = c17()
    text = format_bench(circuit)
    back = parse_bench(text, circuit.name)
    assert back.inputs == circuit.inputs
    assert back.outputs == circuit.outputs
    assert set(back.gates) == set(circuit.gates)
    # Functional identity over the full input space.
    ps = PatternSet.exhaustive(circuit.inputs)
    v1 = simulate(circuit, ps)
    v2 = simulate(back, ps)
    for out in circuit.outputs:
        assert v1[out] == v2[out]


def test_bench_file_io(tmp_path):
    path = str(tmp_path / "c17.bench")
    save_bench(c17(), path)
    circuit = load_bench(path)
    assert circuit.name == "c17"
    assert circuit.n_gates == 6


SDL_TEXT = """
circuit demo
input a b       ; two inputs
output y
n1 = and a b
n2 = lut 0x6 a b    # xor via LUT
y = or n1 n2
end
"""


def test_parse_sdl_basic():
    circuit = parse_sdl(SDL_TEXT)
    assert circuit.name == "demo"
    assert circuit.inputs == ("a", "b")
    assert circuit.gate("n2").gtype is GateType.LUT
    assert circuit.gate("n2").table == 6


def test_sdl_roundtrip_preserves_function():
    circuit = parse_sdl(SDL_TEXT)
    back = parse_sdl(format_sdl(circuit))
    ps = PatternSet.exhaustive(circuit.inputs)
    v1 = simulate(circuit, ps)
    v2 = simulate(back, ps)
    assert v1["y"] == v2["y"]


def test_sdl_roundtrip_alu():
    circuit = sn74181()
    back = parse_sdl(format_sdl(circuit))
    assert back.inputs == circuit.inputs
    assert back.outputs == circuit.outputs
    assert set(back.gates) == set(circuit.gates)


def test_sdl_errors():
    with pytest.raises(ParseError, match="unknown gate type"):
        parse_sdl("circuit x\ninput a\noutput y\ny = frobnicate a\n")
    with pytest.raises(ParseError, match="truth table"):
        parse_sdl("circuit x\ninput a\noutput y\ny = lut zz a\n")
    with pytest.raises(ParseError, match="no outputs"):
        parse_sdl("circuit x\ninput a\n")
    with pytest.raises(ParseError, match="duplicate 'circuit'"):
        parse_sdl("circuit x\ncircuit y\n")
    with pytest.raises(ParseError, match="exactly one name"):
        parse_sdl("circuit x y\n")


def test_sdl_file_io(tmp_path):
    path = str(tmp_path / "demo.sdl")
    save_sdl(parse_sdl(SDL_TEXT), path)
    circuit = load_sdl(path)
    assert circuit.name == "demo"


def test_bench_writer_rejects_lut():
    circuit = parse_sdl(SDL_TEXT)
    with pytest.raises(CircuitError, match="cannot be written"):
        format_bench(circuit)


def test_sdl_end_stops_parsing():
    circuit = parse_sdl(
        "circuit x\ninput a\noutput a\nend\nthis would be garbage\n"
    )
    assert circuit.name == "x"

"""Parity suite: compiled kernel vs. legacy interpreters vs. backends.

The compiled flat-array kernel (:mod:`repro.kernel`) must be *bit-identical*
to the legacy per-gate interpreters for packed simulation and fault
simulation, and the estimator pipeline must equal (``==``) the
name-walking reference in ``signal_reference.py``.  Every test here runs
both paths on the same inputs — randomized DAGs (with LUTs) plus the
paper's bundled circuits — and compares exhaustively.

The same contract extends to the evaluation backends
(:mod:`repro.backends`): the numpy word engine must produce bit-identical
simulation words, fault-detection words and sampled block counts to the
pure-python engine on **every** library circuit (the two largest grade a
deterministic fault slice to keep the suite seconds-scale).
"""

from __future__ import annotations

import random

import pytest

from signal_reference import ReferenceSignalEstimator

from repro.api import AnalysisEngine
from repro.backends import get_backend
from repro.circuit.types import (
    GateType,
    PACKED_DISPATCH,
    eval_bool,
    eval_packed,
)
from repro.circuits.generators import random_dag
from repro.circuits.library import LARGE_NAMES, build, names as library_names
from repro.errors import CircuitError
from repro.faults.simulator import FaultSimulator
from repro.kernel import CompiledCircuit, compile_circuit
from repro.logicsim.patterns import PatternSet
from repro.logicsim.simulator import simulate

BUNDLED = ("alu", "mult", "comp")

RANDOM_SEEDS = (1, 7, 42)

needs_numpy = pytest.mark.skipif(
    not get_backend("numpy").is_available(), reason="numpy not installed"
)

#: Circuits whose full fault universe is too large for per-test grading
#: (library.LARGE_NAMES) get a deterministic fault slice; stride 13 still
#: covers every site family, the 13.9k-gate s15850 takes a harder stride
#: to keep the suite seconds-scale.
FAULT_SLICE_STRIDE = {"s15850": 223}


def _fault_slice(name, faults):
    if name in LARGE_NAMES:
        return faults[::FAULT_SLICE_STRIDE.get(name, 13)]
    return faults


def _random_circuits():
    for seed in RANDOM_SEEDS:
        yield random_dag(6, 40, seed=seed, lut_fraction=0.2)


# -- compiled artifact ---------------------------------------------------------


def test_compile_cache_returns_same_artifact():
    circuit = build("alu")
    first = compile_circuit(circuit)
    assert compile_circuit(circuit) is first
    assert isinstance(first, CompiledCircuit)
    # Flat arrays are structurally consistent.
    assert len(first.names) == first.n_nodes == len(first.opcodes)
    assert len(first.arg_start) == first.n_nodes + 1
    assert first.arg_start[-1] == len(first.arg_flat)
    assert len(first.plan) == circuit.n_gates


def test_engine_shares_one_compiled_artifact():
    engine = AnalysisEngine("alu", "fast")
    assert engine.compiled is compile_circuit(engine.circuit)


# -- eval_packed dispatch table (all gate types, incl. table-driven) -----------


@pytest.mark.parametrize("gtype", list(GateType))
def test_dispatch_table_matches_truth_semantics(gtype):
    arities = {
        GateType.NOT: [1], GateType.BUF: [1],
        GateType.CONST0: [0], GateType.CONST1: [0],
        GateType.LUT: [1, 2, 3],
    }.get(gtype, [2, 3])
    assert gtype in PACKED_DISPATCH
    for arity in arities:
        tables = range(1 << (1 << arity)) if gtype is GateType.LUT else (0,)
        for table in tables:
            for minterm in range(1 << arity):
                operands = [(minterm >> i) & 1 for i in range(arity)]
                got = eval_bool(gtype, operands, table)
                # Packed evaluation over a 2-pattern word must agree
                # per-bit with the scalar result.
                packed = eval_packed(
                    gtype, [op * 0b11 for op in operands], 0b11, table
                )
                assert packed in (0, 0b11)
                assert (packed & 1) == got


def test_eval_packed_rejects_unknown_gate_type():
    with pytest.raises(CircuitError):
        eval_packed("NOPE", [1], 1)


# -- true-value simulation -----------------------------------------------------


@pytest.mark.parametrize("name", BUNDLED)
def test_simulate_parity_bundled(name):
    circuit = build(name)
    patterns = PatternSet.random(circuit.inputs, 257, seed=11)
    kernel = simulate(circuit, patterns, use_kernel=True)
    legacy = simulate(circuit, patterns, use_kernel=False)
    assert kernel == legacy


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_simulate_parity_random_dags(seed):
    circuit = random_dag(6, 40, seed=seed, lut_fraction=0.2)
    patterns = PatternSet.exhaustive(circuit.inputs)
    kernel = simulate(circuit, patterns, use_kernel=True)
    legacy = simulate(circuit, patterns, use_kernel=False)
    assert kernel == legacy


def test_simulate_parity_with_overrides():
    circuit = build("alu")
    patterns = PatternSet.random(circuit.inputs, 64, seed=5)
    gate = next(iter(circuit.gates))
    overrides = {gate: 0x5A5A, circuit.inputs[0]: 0}
    kernel = simulate(circuit, patterns, overrides, use_kernel=True)
    legacy = simulate(circuit, patterns, overrides, use_kernel=False)
    assert kernel == legacy


# -- fault simulation ----------------------------------------------------------


def _assert_fault_parity(circuit, patterns, block_size, drop):
    kernel = FaultSimulator(circuit, use_kernel=True).run(
        patterns, block_size=block_size, drop_detected=drop
    )
    legacy = FaultSimulator(circuit, use_kernel=False).run(
        patterns, block_size=block_size, drop_detected=drop
    )
    assert kernel.records.keys() == legacy.records.keys()
    for fault, krec in kernel.records.items():
        lrec = legacy.records[fault]
        assert krec.detect_count == lrec.detect_count, fault
        assert krec.first_detect == lrec.first_detect, fault
        assert krec.simulated_patterns == lrec.simulated_patterns, fault


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("drop", [False, True])
def test_fault_sim_parity_bundled(name, drop):
    circuit = build(name)
    patterns = PatternSet.random(circuit.inputs, 96, seed=23)
    # Odd block size exercises partial lane groups in the last block.
    _assert_fault_parity(circuit, patterns, block_size=40, drop=drop)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
@pytest.mark.parametrize("drop", [False, True])
def test_fault_sim_parity_random_dags(seed, drop):
    circuit = random_dag(6, 40, seed=seed, lut_fraction=0.2)
    patterns = PatternSet.exhaustive(circuit.inputs)
    _assert_fault_parity(circuit, patterns, block_size=17, drop=drop)


def test_detection_word_parity_single_faults():
    circuit = build("alu")
    patterns = PatternSet.random(circuit.inputs, 48, seed=3)
    good = simulate(circuit, patterns)
    kernel_sim = FaultSimulator(circuit, use_kernel=True)
    legacy_sim = FaultSimulator(circuit, use_kernel=False)
    for fault in kernel_sim.faults:
        assert kernel_sim.detection_word(fault, good, patterns.mask) == \
            legacy_sim.detection_word(fault, good, patterns.mask), fault


# -- estimator / analyze() end-to-end ------------------------------------------


@pytest.mark.parametrize("name", BUNDLED)
def test_analyze_parity_bundled(name):
    kernel_engine = AnalysisEngine(name, "paper", use_kernel=True)
    legacy_engine = AnalysisEngine(name, "paper", use_kernel=False)
    kernel_report = kernel_engine.analyze()
    legacy_report = legacy_engine.analyze()
    # Signal probabilities: identical to the name-walking reference.
    circuit = kernel_engine.circuit
    reference, conditioned = ReferenceSignalEstimator(
        circuit, kernel_engine.config.estimator_params()
    ).run()
    kernel_signal = kernel_engine.raw_signal_probabilities()
    assert dict(kernel_signal) == reference
    assert kernel_signal.conditioned_nodes == conditioned
    assert dict(legacy_engine.raw_signal_probabilities()) == reference
    # Detection probabilities and the derived report agree exactly.
    assert kernel_engine.raw_detection_probabilities() == \
        legacy_engine.raw_detection_probabilities()
    assert kernel_report.test_lengths == legacy_report.test_lengths
    assert kernel_report.n_faults == legacy_report.n_faults
    assert kernel_report.min_detection == legacy_report.min_detection


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_signal_probability_parity_random_dags(seed):
    circuit = random_dag(6, 40, seed=seed, lut_fraction=0.2)
    engine = AnalysisEngine(circuit, "paper")
    reference, conditioned = ReferenceSignalEstimator(
        circuit, engine.config.estimator_params()
    ).run()
    signal = engine.raw_signal_probabilities()
    assert dict(signal) == reference
    assert signal.conditioned_nodes == conditioned


def test_kernel_engine_cache_contract_still_holds():
    engine = AnalysisEngine("alu", "paper")
    engine.analyze()
    engine.test_length(0.98)
    engine.expected_coverage(500)
    info = engine.cache_info()
    assert info["signal_runs"] == 1
    assert info["observability_runs"] == 1
    assert info["detection_runs"] == 1


# -- cross-backend parity (python vs numpy word engine) ------------------------


def _backend_fault_records(circuit, faults, patterns, backend, drop=False):
    simulator = FaultSimulator(circuit, faults, backend=backend)
    result = simulator.run(patterns, block_size=33, drop_detected=drop)
    return {
        fault: (r.detect_count, r.first_detect, r.simulated_patterns)
        for fault, r in result.records.items()
    }


@needs_numpy
@pytest.mark.parametrize("name", sorted(library_names()))
def test_numpy_backend_simulate_parity_library(name):
    circuit = build(name)
    patterns = PatternSet.random(circuit.inputs, 193, seed=13)
    python = simulate(circuit, patterns, backend="python")
    numpy = simulate(circuit, patterns, backend="numpy")
    assert python == numpy


@needs_numpy
@pytest.mark.parametrize("name", sorted(library_names()))
def test_numpy_backend_fault_sim_parity_library(name):
    circuit = build(name)
    simulator = FaultSimulator(circuit)
    faults = _fault_slice(name, simulator.faults)
    patterns = PatternSet.random(circuit.inputs, 77, seed=29)
    python = _backend_fault_records(circuit, faults, patterns, "python")
    numpy = _backend_fault_records(circuit, faults, patterns, "numpy")
    assert python == numpy


@needs_numpy
@pytest.mark.parametrize("name", sorted(library_names()))
def test_numpy_backend_sample_block_parity_library(name):
    circuit = build(name)
    patterns = PatternSet.random(circuit.inputs, 321, seed=17)
    python_backend = get_backend("python")
    numpy_backend = get_backend("numpy")
    python_counts = python_backend.sample_block(
        compile_circuit(circuit, python_backend), patterns
    )
    numpy_counts = numpy_backend.sample_block(
        compile_circuit(circuit, numpy_backend), patterns
    )
    assert list(python_counts) == list(numpy_counts)


@needs_numpy
@pytest.mark.parametrize("seed", RANDOM_SEEDS)
@pytest.mark.parametrize("drop", [False, True])
def test_numpy_backend_fault_sim_parity_random_luts(seed, drop):
    circuit = random_dag(6, 40, seed=seed, lut_fraction=0.3)
    patterns = PatternSet.exhaustive(circuit.inputs)
    faults = FaultSimulator(circuit).faults
    python = _backend_fault_records(circuit, faults, patterns, "python", drop)
    numpy = _backend_fault_records(circuit, faults, patterns, "numpy", drop)
    assert python == numpy


@needs_numpy
def test_numpy_backend_detection_words_bitexact():
    """Raw per-fault detection *words* (not just counts) are identical."""
    circuit = build("alu")
    simulator = FaultSimulator(circuit)
    patterns = PatternSet.random(circuit.inputs, 100, seed=5)
    python_backend = get_backend("python")
    numpy_backend = get_backend("numpy")
    py_compiled = compile_circuit(circuit, python_backend)
    np_compiled = compile_circuit(circuit, numpy_backend)
    py_words = python_backend.fault_sim_words(
        py_compiled, python_backend.make_scratch(py_compiled),
        simulator.faults, patterns.words, patterns.mask, patterns.n_patterns,
    )
    np_words = numpy_backend.fault_sim_words(
        np_compiled,
        numpy_backend.make_scratch(np_compiled, simulator.faults),
        simulator.faults, patterns.words, patterns.mask, patterns.n_patterns,
    )
    assert py_words == np_words


@needs_numpy
def test_numpy_backend_simulate_with_overrides_matches():
    circuit = build("alu")
    patterns = PatternSet.random(circuit.inputs, 64, seed=5)
    gate = next(iter(circuit.gates))
    overrides = {gate: 0x5A5A, circuit.inputs[0]: 0}
    python = simulate(circuit, patterns, overrides, backend="python")
    numpy = simulate(circuit, patterns, overrides, backend="numpy")
    assert python == numpy


@needs_numpy
def test_numpy_backend_partial_and_growing_blocks():
    """Session padding (narrow blocks) and rebuilds (wider blocks) agree."""
    circuit = build("mult")
    faults = FaultSimulator(circuit).faults
    patterns = PatternSet.random(circuit.inputs, 150, seed=3)
    python_sim = FaultSimulator(circuit, faults, backend="python")
    numpy_sim = FaultSimulator(circuit, faults, backend="numpy")
    for block_size in (70, 150, 9):  # shrink, grow, shrink again
        py = python_sim.run(patterns, block_size=block_size)
        np_ = numpy_sim.run(patterns, block_size=block_size)
        for fault, record in py.records.items():
            other = np_.records[fault]
            assert record.detect_count == other.detect_count, (block_size, fault)
            assert record.first_detect == other.first_detect, (block_size, fault)


# -- dispatch-family drift guard -----------------------------------------------
#
# The kernel re-implements the packed/tree-rule gate semantics over flat
# arrays (kernel/ops.py) next to the value-sequence family in
# circuit/types.py.  Compare the families directly, per gate type, arity,
# table and minterm, so a semantics fix in one cannot silently diverge
# the other.


@pytest.mark.parametrize("gtype", list(GateType))
def test_kernel_ops_match_types_dispatch(gtype):
    from repro.circuit.types import gate_probability
    from repro.kernel.ops import float_op, overlay_op, packed_op

    arities = {
        GateType.NOT: [1], GateType.BUF: [1],
        GateType.CONST0: [0], GateType.CONST1: [0],
        GateType.LUT: [1, 2],
    }.get(gtype, [2, 3])
    mask = 0b11
    for arity in arities:
        tables = range(1 << (1 << arity)) if gtype is GateType.LUT else (0,)
        args = tuple(range(arity))
        for table in tables:
            for minterm in range(1 << arity):
                bits = [(minterm >> i) & 1 for i in range(arity)]
                values = [b * mask for b in bits]
                want = PACKED_DISPATCH[gtype](values, mask, table)
                assert packed_op(gtype, arity)(values, args, mask, table) \
                    == want
                # Overlay gather: all operands stamped -> read the overlay.
                stamp = [1] * arity
                assert overlay_op(gtype, arity)(
                    values, stamp, 1, [0] * arity, args, mask, table
                ) == want
                # Overlay gather: nothing stamped -> read the good array.
                assert overlay_op(gtype, arity)(
                    [0] * arity, stamp, 2, values, args, mask, table
                ) == want
                # Float family vs. the tree rule on 0/1 probabilities.
                probs = [float(b) for b in bits]
                assert float_op(gtype, arity)(probs, args, table) == \
                    gate_probability(gtype, probs, table)
            # ... and bit-identical on fractional ones (the arity-2
            # variants unroll the tree rule's fold).
            rng = random.Random(arity)
            for _ in range(50):
                probs = [rng.random() for _ in range(arity)]
                assert float_op(gtype, arity)(probs, args, table) == \
                    gate_probability(gtype, probs, table)

"""Bit-parallel true-value simulation.

Evaluates every node of a combinational circuit over a whole
:class:`~repro.logicsim.patterns.PatternSet` at once; node values are packed
words (bit *j* = value under pattern *j*).

Evaluation runs on the compiled flat-array kernel
(:mod:`repro.kernel`), compiled once per circuit and shared with the
fault simulator and the estimator.  The independent name-walking
reference the parity tests compare against lives in
``tests/sim_reference.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.kernel import compile_circuit
from repro.logicsim.patterns import PatternSet
from repro.telemetry.profiling import active_profiler

__all__ = ["simulate", "simulate_outputs", "node_probabilities"]


def simulate(
    circuit: Circuit,
    patterns: PatternSet,
    overrides: "Mapping[str, int] | None" = None,
    backend=None,
) -> Dict[str, int]:
    """Simulate and return the packed value of every node.

    ``overrides`` forces the given nodes to fixed packed words (used for
    stem fault injection); forced gate nodes are not evaluated.
    ``backend`` selects the evaluation engine behind the compiled
    kernel (an :class:`~repro.backends.EvalBackend`, a registered name,
    ``"auto"``, or ``None`` for the pure-python default); every backend
    returns bit-identical words.
    """
    _check_inputs(circuit, patterns)
    mask = patterns.mask
    if overrides:
        for node in overrides:
            if not circuit.has_node(node):
                raise SimulationError(f"override on unknown node {node!r}")
    from repro.backends import resolve_backend

    resolved = resolve_backend(backend, circuit,
                               block_bits=patterns.n_patterns)
    compiled = compile_circuit(circuit, resolved)
    profiler = active_profiler()
    if profiler is None:
        values = resolved.simulate_words(compiled, patterns.words, mask,
                                         overrides)
    else:
        # Profiler-only phase (no span): true-value simulation sits
        # inside hot loops and must stay span-free when unobserved.
        with profiler.phase(f"backend.simulate_words.{resolved.name}"):
            values = resolved.simulate_words(compiled, patterns.words,
                                             mask, overrides)
    return compiled.values_as_dict(values)


def simulate_outputs(
    circuit: Circuit,
    patterns: PatternSet,
) -> Dict[str, int]:
    """Simulate and return only the primary output words."""
    values = simulate(circuit, patterns)
    return {node: values[node] for node in circuit.outputs}


def node_probabilities(
    circuit: Circuit,
    patterns: PatternSet,
    nodes: "Iterable[str] | None" = None,
    backend=None,
) -> Dict[str, float]:
    """Empirical 1-probability of nodes over a pattern set.

    This is the Monte-Carlo reference the paper calls ``P_SIM`` when applied
    to fault detection; for plain nodes it estimates the signal probability.
    """
    if patterns.n_patterns == 0:
        raise SimulationError("cannot estimate probabilities from 0 patterns")
    values = simulate(circuit, patterns, backend=backend)
    selected = list(nodes) if nodes is not None else list(circuit.nodes)
    return {
        node: values[node].bit_count() / patterns.n_patterns
        for node in selected
    }


def _check_inputs(circuit: Circuit, patterns: PatternSet) -> None:
    missing = [name for name in circuit.inputs if name not in patterns.words]
    if missing:
        raise SimulationError(
            f"pattern set lacks inputs {missing[:5]!r} of circuit "
            f"{circuit.name!r}"
        )

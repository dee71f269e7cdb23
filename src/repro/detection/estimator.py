"""Fault detection probability estimation (paper §3).

Combines the signal probabilities with the observability model:

* ``x`` stuck-at-0 is detected when the fault-free line carries 1 *and*
  the change is observed: ``P = p_x * s(x)`` (the paper's ``x^0``);
* ``x`` stuck-at-1 dually: ``P = (1 - p_x) * s(x)`` (``x^1``).

Stem faults use the stem observability, branch faults the pin
observability of their gate input.

The default pin model is ``boolean_difference``: on unate gates (AND, OR,
NAND, NOR — the original tool's gate library) it is *identical* to the
paper's independent-cofactor formula, and it is the correct generalization
when XOR/XNOR appear as primitive gates, as they do in our adder-based
netlists.  The literal formula remains available as
``pin_model="independent"`` and is compared in the model-ablation bench.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.circuit.netlist import Circuit
from repro.circuit.topology import Topology
from repro.errors import EstimationError
from repro.faults.model import Fault, fault_universe
from repro.detection.observability import Observabilities, ObservabilityAnalyzer
from repro.probability.estimator import (
    EstimatorParams,
    SignalProbabilities,
    SignalProbabilityEstimator,
)

__all__ = ["DetectionProbabilityEstimator", "detection_probability"]


def detection_probability(
    fault: Fault,
    circuit: Circuit,
    signal_probs: Mapping[str, float],
    observabilities: Observabilities,
) -> float:
    """Estimated detection probability of one fault."""
    if fault.pin is None:
        line_prob = signal_probs[fault.node]
        observability = observabilities.stem(fault.node)
    else:
        gate = circuit.gates[fault.node]
        source = gate.inputs[fault.pin]
        line_prob = signal_probs[source]
        observability = observabilities.pin(fault.node, fault.pin)
    excitation = line_prob if fault.value == 0 else 1.0 - line_prob
    return excitation * observability


class DetectionProbabilityEstimator:
    """One-stop estimator: signal probabilities -> observability -> P_f."""

    def __init__(
        self,
        circuit: Circuit,
        params: "EstimatorParams | None" = None,
        stem_model: str = "chain",
        pin_model: str = "boolean_difference",
        topology: "Topology | None" = None,
    ) -> None:
        self.circuit = circuit
        self.topology = topology or Topology(circuit)
        self.signal_estimator = SignalProbabilityEstimator(circuit, params)
        self.observability_analyzer = ObservabilityAnalyzer(
            circuit, stem_model, pin_model, self.topology
        )

    def run(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        faults: "Iterable[Fault] | None" = None,
        signal_probs: "SignalProbabilities | None" = None,
    ) -> Dict[Fault, float]:
        """Estimate detection probabilities for a fault list.

        ``faults`` defaults to the full uncollapsed universe.  A
        pre-computed ``signal_probs`` (e.g. from an incremental update)
        short-circuits the signal-probability stage.
        """
        signal_probs, observabilities = self.stages(input_probs, signal_probs)
        return self.run_with(signal_probs, observabilities, faults)

    def stages(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        signal_probs: "SignalProbabilities | None" = None,
    ) -> "tuple[SignalProbabilities, Observabilities]":
        """The two expensive intermediate artifacts, separately reusable.

        Callers that sweep many fault subsets or (d, e) requirements at one
        input tuple compute the stages once and feed them to
        :meth:`run_with` — the cache-friendly split the
        :class:`repro.api.AnalysisEngine` memoizes around.
        """
        if signal_probs is None:
            signal_probs = self.signal_estimator.run(input_probs)
        elif input_probs is not None:
            raise EstimationError(
                "pass either input_probs or signal_probs, not both"
            )
        observabilities = self.observability_analyzer.run(signal_probs)
        return signal_probs, observabilities

    def run_with(
        self,
        signal_probs: "SignalProbabilities | Mapping[str, float]",
        observabilities: Observabilities,
        faults: "Iterable[Fault] | None" = None,
    ) -> Dict[Fault, float]:
        """Per-fault detection probabilities from precomputed stages."""
        fault_list: List[Fault] = (
            list(faults) if faults is not None else fault_universe(self.circuit)
        )
        return {
            fault: detection_probability(
                fault, self.circuit, signal_probs, observabilities
            )
            for fault in fault_list
        }

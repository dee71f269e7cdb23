"""``analyze``: cold analytic analysis of the paper's and ISCAS circuits.

For each circuit a fresh ``AnalysisEngine(circuit, "paper")`` runs
``analyze()`` at a seeded input-probability vector: signal
probabilities, observabilities, detection probabilities and six test
lengths.  This is the paper's core path.  ``throughput`` is the
geometric mean over circuits of gates per second of ``analyze()`` wall
time.
"""

from __future__ import annotations

import time
from typing import Dict, List

import inputs
import oracles
from corpus import CorpusWorkload
from tracing import maybe_span


class Analyze(CorpusWorkload):
    name = "analyze"
    # The paper's circuits (alu, mult, comp, div) and the vendored ISCAS
    # netlists, costliest first.  s15850 and mul24 are left out: one
    # analysis costs 6-8 s and 1.7-2.6 s, so a run fits a single timing
    # of each, and that timing swings with the host's speed by more than
    # the benchmark's bound allows.
    keys = (
        "div", "c6288", "c7552", "mult", "c5315", "comp", "c2670",
        "c1355", "c1908", "c3540", "c880", "c432", "s1196", "c499", "alu",
    )
    nominal_s = {
        "div": 1.03, "c7552": 0.6, "c6288": 0.61, "mult": 0.19,
        "comp": 0.16, "c2670": 0.15, "c5315": 0.19, "c1355": 0.12,
        "c1908": 0.1, "c3540": 0.06, "c880": 0.05, "c432": 0.04,
        "s1196": 0.03, "c499": 0.02, "alu": 0.02,
    }
    root = "api.analyze"
    span_metrics = {
        "probability.signal": "probability.signal_s",
        "detection.observability": "detection.observability_s",
        "detection.detection": "detection.detection_s",
        "testlen.length": "testlen.length_s",
        "faults.universe": "faults.universe_op_s",
    }

    def setup(self, seed: int, tracer) -> None:
        from repro.api import ProtestConfig
        from repro.circuits.library import build
        from repro.faults.model import fault_universe
        from repro.kernel import compile_circuit

        config = ProtestConfig.preset("paper")
        self.circuits, self.universe, self.vectors = {}, {}, {}
        for name in self.keys:
            with maybe_span(tracer, "circuit.parse"):
                circuit = build(name)
            with maybe_span(tracer, "kernel.compile"):
                compile_circuit(circuit)
            with maybe_span(tracer, "faults.universe"):
                self.universe[name] = len(fault_universe(
                    circuit, include_branches=config.include_branches,
                    only_fanout_stems=config.only_fanout_stems,
                ))
            self.circuits[name] = circuit
            self.vectors[name] = inputs.probability_vector(
                seed, name, circuit.inputs
            )

    def work(self, key: str) -> float:
        return self.circuits[key].n_gates

    def op(self, key: str, pass_index: int, tracer):
        from repro.api import AnalysisEngine

        engine = AnalysisEngine(self.circuits[key], "paper")
        cone_before = engine.cone_cache_info()
        with maybe_span(tracer, self.root, circuit=key):
            start = time.perf_counter()
            report = engine.analyze(self.vectors[key])
            elapsed = time.perf_counter() - start
        return elapsed, (engine, report, cone_before)

    def check(self, key: str, pass_index: int, ctx) -> List[str]:
        engine, report, _ = ctx
        vector = self.vectors[key]
        return oracles.check_analyze(
            report,
            engine.raw_signal_probabilities(vector),
            engine.raw_detection_probabilities(vector),
            self.universe[key],
        )

    def targets(self):
        import repro.api.engine as engine_module
        from repro.detection.estimator import DetectionProbabilityEstimator
        from repro.detection.observability import ObservabilityAnalyzer
        from repro.probability.estimator import SignalProbabilityEstimator

        return [
            (SignalProbabilityEstimator, "run", "probability.signal"),
            (ObservabilityAnalyzer, "run", "detection.observability"),
            (DetectionProbabilityEstimator, "run_with", "detection.detection"),
            (engine_module, "required_test_length", "testlen.length"),
            (engine_module, "fault_universe", "faults.universe"),
        ]

    def counts(self, key: str, ctx) -> Dict[str, float]:
        engine, report, before = ctx
        after = engine.cone_cache_info()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        signal = engine.raw_signal_probabilities(self.vectors[key])
        return {
            "probability.conditioned_gates": signal.conditioned_gates,
            "faults.n_faults": report.n_faults,
            "testlen.unreachable": sum(
                1 for n in report.test_lengths.values() if n is None
            ),
            "kernel.cone_hits": hits,
            "kernel.cone_misses": misses,
            "kernel.cone_evictions": after["evictions"] - before["evictions"],
        }

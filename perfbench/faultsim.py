"""``fsim`` and ``psim``: fault simulation of seeded random pattern sets.

* ``fsim`` grades a test set with fault dropping (paper §7, Table 6)
  through ``engine.fault_simulate`` at the default 1024-pattern blocks;
  ``backend="auto"`` resolves to the python word engine there, and the
  live-fault set shrinks as faults are detected.  ``throughput`` is
  the geometric mean over circuits of patterns graded per second.
* ``psim`` counts detections without dropping (the paper's ``P_SIM``)
  at 16384-pattern blocks on circuits of at least 1024 gates, where
  ``"auto"`` resolves to the numpy engine.  ``throughput`` is the
  geometric mean over circuits of faults x patterns per second.

Each ``fault_simulate`` call builds a new ``FaultSimulator``, so the
first block of every call includes the backend's cold plan build; a
``psim`` call is a single block.
"""

from __future__ import annotations

import time
from typing import Dict, List

import inputs
import oracles
from corpus import CorpusWorkload
from tracing import maybe_span

#: Pattern sets generated per circuit at set-up; pass ``i`` uses set
#: ``i mod PATTERN_SETS``.
PATTERN_SETS = 3
#: Faults per operation re-checked against the single-fault path.
ORACLE_FAULTS = 8


class FaultSim(CorpusWorkload):
    root = "api.fault_simulate"
    span_metrics = {
        "faults.simulate": "faults.simulate_s",
        "backends.python.fault_sim_words": "backends.python.fault_sim_words_s",
        "backends.numpy.fault_sim_words": "backends.numpy.fault_sim_words_s",
    }

    def __init__(self, name, nominal_s, n_patterns, block_size,
                 drop_detected):
        self.name = name
        self.keys = tuple(nominal_s)
        self.nominal_s = nominal_s
        self.n_patterns = n_patterns
        self.block_size = block_size
        self.drop_detected = drop_detected

    def setup(self, seed: int, tracer) -> None:
        from repro.api import AnalysisEngine
        from repro.backends import resolve_backend
        from repro.circuits.library import build
        from repro.kernel import compile_circuit

        self.seed = seed
        self.engines, self.patterns = {}, {}
        for name in self.keys:
            with maybe_span(tracer, "circuit.parse"):
                engine = AnalysisEngine(build(name), "paper")
            with maybe_span(tracer, "kernel.compile"):
                compile_circuit(engine.circuit, resolve_backend(
                    engine.config.backend, engine.circuit,
                    block_bits=self.block_size,
                ))
            with maybe_span(tracer, "faults.universe"):
                _ = engine.faults
            self.engines[name] = engine
            self.patterns[name] = [
                engine.generate_patterns(
                    self.n_patterns, 0.5,
                    seed=inputs.pattern_seed(seed, self.name, name, k),
                )
                for k in range(PATTERN_SETS)
            ]

    def work(self, key: str) -> float:
        if self.drop_detected:
            return self.n_patterns
        return self.n_patterns * len(self.engines[key].faults)

    def op(self, key: str, pass_index: int, tracer):
        engine = self.engines[key]
        patterns = self.patterns[key][pass_index % PATTERN_SETS]
        with maybe_span(tracer, self.root, circuit=key):
            start = time.perf_counter()
            result = engine.fault_simulate(
                patterns, drop_detected=self.drop_detected,
                block_size=self.block_size,
            )
            elapsed = time.perf_counter() - start
        return elapsed, result

    def check(self, key: str, pass_index: int, result) -> List[str]:
        engine = self.engines[key]
        patterns = self.patterns[key][pass_index % PATTERN_SETS]
        problems = []
        if result.n_patterns != self.n_patterns:
            problems.append(f"{result.n_patterns} patterns graded")
        if result.n_faults != len(engine.faults):
            problems.append(f"{result.n_faults} faults graded")
        sample = inputs.fault_sample(
            self.seed, f"{self.name}:{key}:{pass_index}", engine.faults,
            ORACLE_FAULTS,
        )
        expected = oracles.expected_detection(engine.circuit, patterns, sample)
        return problems + oracles.check_faultsim(
            result.raw.records, expected, self.drop_detected
        )

    def targets(self):
        from repro.backends import get_backend
        from repro.faults.simulator import FaultSimulator

        return [(FaultSimulator, "run", "faults.simulate")] + [
            (get_backend(name), "fault_sim_words",
             f"backends.{name}.fault_sim_words")
            for name in ("python", "numpy")
        ]

    def layers_from_spans(self, spans: List[dict]) -> Dict[str, float]:
        values = super().layers_from_spans(spans)
        # The first backend call of each simulator run builds its plans.
        runs = [s for s in spans if s["name"] == "faults.simulate"]
        for run in runs:
            calls = sorted(
                (s for s in spans if s["parent"] == run["id"]),
                key=lambda s: s["start"],
            )
            for call in calls:
                backend = call["name"].split(".")[1]
                key = f"backends.{backend}.calls"
                values[key] = values.get(key, 0) + 1
            if calls:
                first = calls[0]
                backend = first["name"].split(".")[1]
                key = f"backends.{backend}.first_block_s"
                values[key] = values.get(key, 0.0) + first["end"] - first["start"]
        return values

    def counts(self, key: str, result) -> Dict[str, float]:
        records = result.raw.records.values()
        live = 0
        for start in range(0, self.n_patterns, self.block_size):
            if self.drop_detected:
                live += sum(
                    1 for r in records
                    if r.first_detect is None or r.first_detect >= start
                )
            else:
                live += len(result.raw.records)
        return {
            "faults.n_faults": result.n_faults,
            "faults.live_fault_blocks": live,
            "_detected": result.n_detected,
        }

    def extra_traced(self, key: str, pass_index: int, tracer) -> None:
        """True-value simulation of the same patterns, block by block."""
        from repro.logicsim import simulate

        engine = self.engines[key]
        patterns = self.patterns[key][pass_index % PATTERN_SETS]
        with tracer.span("logicsim.good_sim", circuit=key):
            for start in range(0, self.n_patterns, self.block_size):
                block = patterns.slice(start, start + self.block_size)
                simulate(engine.circuit, block, backend=engine.config.backend)


# Circuits with their nominal seconds per operation, costliest first
# (see Analyze.keys).  Circuits whose single call costs more than about
# a second are left out (fsim: div ~2 s and mul24 ~3.4 s, psim: c6288
# ~2.8 s, div ~6.5 s and mul24 ~18 s, each whatever the pattern count):
# a run fits too few timings of them, and their fastest timing then
# swings with the host's speed by more than the benchmark's bound.
FSIM = FaultSim(
    "fsim", {"c6288": 0.65, "c7552": 0.42, "c5315": 0.33, "c2670": 0.26,
             "comp": 0.24},
    n_patterns=32768, block_size=1024, drop_detected=True,
)
PSIM = FaultSim(
    "psim", {"c5315": 0.55, "c7552": 0.33},
    n_patterns=16384, block_size=16384, drop_detected=False,
)

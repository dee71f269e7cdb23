"""Parallel-pattern single-fault simulation.

For every fault the simulator injects the stuck value and propagates the
*difference* region through the fan-out cone, over a whole block of
packed patterns at once.  Per fault it records

* the number of detecting patterns (``P_SIM = count / N``, the paper's
  simulation reference of §4), and
* the index of the first detecting pattern (for the coverage-growth curves
  of Table 6).

``drop_detected=True`` skips already-detected faults in later blocks (the
classical fault dropping), which leaves first-detection indices exact but
makes detection *counts* lower bounds.

Block propagation runs on a pluggable evaluation backend
(:mod:`repro.backends`) over the compiled kernel (:mod:`repro.kernel`):
the ``"python"`` backend packs faults into big-int lanes and propagates
the merged difference region, the ``"numpy"`` backend sweeps
register-allocated fan-out-cone programs over word matrices — every
backend produces bit-identical detection words.  The single-fault
:meth:`FaultSimulator.detection_word` primitive (ATPG, the exact
enumerator) always runs on the packed python kernel regardless of
backend.  The parity tests compare both against the full-resimulation
reference in ``tests/sim_reference.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.faults.model import Fault, fault_universe
from repro.kernel import compile_circuit
from repro.logicsim.patterns import PatternSet
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.profiling import phase_if_active
from repro.telemetry.tracing import span

__all__ = ["FaultSimulator", "FaultSimResult", "FaultRecord"]

_SIM_RUNS = REGISTRY.counter(
    "protest_faultsim_runs_total",
    "Fault-simulation runs per evaluation backend",
    ("backend",),
)
_SIM_FAULT_PATTERNS = REGISTRY.counter(
    "protest_backend_fault_patterns_total",
    "Fault x pattern evaluations per evaluation backend",
    ("backend",),
)
_SIM_SECONDS = REGISTRY.counter(
    "protest_backend_seconds_total",
    "Wall-clock seconds spent in fault simulation per backend",
    ("backend",),
)




@dataclasses.dataclass
class FaultRecord:
    """Per-fault outcome of a simulation run."""

    fault: Fault
    detect_count: int = 0
    first_detect: Optional[int] = None
    simulated_patterns: int = 0

    @property
    def detected(self) -> bool:
        return self.first_detect is not None

    @property
    def detection_probability(self) -> float:
        """Empirical detection probability (``P_SIM``)."""
        if self.simulated_patterns == 0:
            return 0.0
        return self.detect_count / self.simulated_patterns


class FaultSimResult:
    """Aggregate outcome of a fault-simulation run."""

    def __init__(
        self,
        records: Dict[Fault, FaultRecord],
        n_patterns: int,
        dropped: bool,
    ) -> None:
        self.records = records
        self.n_patterns = n_patterns
        self.dropped = dropped

    @property
    def faults(self) -> List[Fault]:
        return list(self.records)

    def coverage(self) -> float:
        """Fraction of faults detected by the whole pattern set."""
        if not self.records:
            return 0.0
        detected = sum(1 for r in self.records.values() if r.detected)
        return detected / len(self.records)

    def coverage_at(self, n: int) -> float:
        """Fault coverage after the first ``n`` patterns."""
        if not self.records:
            return 0.0
        detected = sum(
            1
            for r in self.records.values()
            if r.first_detect is not None and r.first_detect < n
        )
        return detected / len(self.records)

    def coverage_curve(self, checkpoints: Sequence[int]) -> List[float]:
        """Coverage after each checkpoint pattern count (Table 6 rows)."""
        return [self.coverage_at(n) for n in checkpoints]

    def detection_probabilities(self) -> Dict[Fault, float]:
        """``P_SIM`` per fault; exact only without fault dropping."""
        if self.dropped:
            raise SimulationError(
                "detection counts are lower bounds after fault dropping; "
                "re-run with drop_detected=False for P_SIM"
            )
        return {
            fault: record.detection_probability
            for fault, record in self.records.items()
        }

    def undetected(self) -> List[Fault]:
        return [f for f, r in self.records.items() if not r.detected]


class FaultSimulator:
    """Stuck-at fault simulator for one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        faults: "Iterable[Fault] | None" = None,
        backend=None,
    ) -> None:
        from repro.backends import resolve_backend

        self.circuit = circuit
        self._gates = circuit.gates
        self.faults: List[Fault] = (
            list(faults) if faults is not None else fault_universe(circuit)
        )
        for fault in self.faults:
            self._check_fault(fault)
        self._backend = resolve_backend(backend, circuit)
        self._compiled = compile_circuit(circuit, self._backend)
        self._scratch = self._backend.make_scratch(self._compiled, self.faults)
        # Version-stamped overlay scratch of the single-fault
        # detection_word path (owned per simulator so one compiled
        # artifact can serve concurrent simulators).
        n = self._compiled.n_nodes
        self._faulty = [0] * n
        self._stamp = [0] * n
        self._version = 0
        self._spec_cache: Dict[Fault, tuple] = {}
        self._last_good: "Mapping[str, int] | None" = None
        self._last_good_arr: "List[int] | None" = None

    @property
    def backend(self):
        """The active block-evaluation backend."""
        return self._backend

    def _check_fault(self, fault: Fault) -> None:
        if fault.pin is None:
            if not self.circuit.has_node(fault.node):
                raise SimulationError(f"fault on unknown node {fault.node!r}")
            return
        gate = self._gates.get(fault.node)
        if gate is None:
            raise SimulationError(
                f"branch fault on {fault.node!r}, which is not a gate"
            )
        if fault.pin >= gate.arity:
            raise SimulationError(
                f"branch fault pin {fault.pin} out of range for "
                f"{fault.node!r} (arity {gate.arity})"
            )

    # -- main entry point -------------------------------------------------------

    def run(
        self,
        patterns: PatternSet,
        block_size: int = 1024,
        drop_detected: bool = False,
    ) -> FaultSimResult:
        """Simulate all faults against all patterns.

        Patterns are processed in blocks of ``block_size``; within a block
        the propagation is bit-parallel.
        """
        if patterns.n_patterns == 0:
            raise SimulationError("empty pattern set")
        if block_size < 1:
            raise SimulationError("block_size must be positive")
        backend_name = self._backend.name
        records = {fault: FaultRecord(fault) for fault in self.faults}
        evaluated = 0
        with span(
            "faultsim.run",
            circuit=self.circuit.name,
            backend=backend_name,
            faults=len(self.faults),
            patterns=patterns.n_patterns,
        ) as run_span:
            offset = 0
            while offset < patterns.n_patterns:
                stop = min(offset + block_size, patterns.n_patterns)
                block = patterns.slice(offset, stop)
                mask = block.mask
                alive = [
                    fault
                    for fault in self.faults
                    if not (drop_detected and records[fault].detected)
                ]
                if alive:
                    with span(
                        "backend.fault_sim_words",
                        backend=backend_name,
                        faults=len(alive),
                        patterns=block.n_patterns,
                    ), phase_if_active(backend_name):
                        detect_words = self._backend.fault_sim_words(
                            self._compiled, self._scratch, alive,
                            block.words, mask, block.n_patterns,
                        )
                    evaluated += len(alive) * block.n_patterns
                    for fault in alive:
                        record = records[fault]
                        record.simulated_patterns += block.n_patterns
                        detect = detect_words.get(fault, 0)
                        if detect:
                            record.detect_count += detect.bit_count()
                            if record.first_detect is None:
                                first = (detect & -detect).bit_length() - 1
                                record.first_detect = offset + first
                offset = stop
            run_span.set("fault_patterns", evaluated)
        _SIM_RUNS.labels(backend=backend_name).inc()
        _SIM_FAULT_PATTERNS.labels(backend=backend_name).inc(evaluated)
        _SIM_SECONDS.labels(backend=backend_name).inc(run_span.duration)
        return FaultSimResult(records, patterns.n_patterns, drop_detected)

    def detection_probabilities(
        self, patterns: PatternSet, block_size: int = 4096
    ) -> Dict[Fault, float]:
        """Convenience: exact ``P_SIM`` map over the given pattern set."""
        result = self.run(patterns, block_size=block_size, drop_detected=False)
        return result.detection_probabilities()

    # -- single-fault propagation -------------------------------------------------

    def detection_word(
        self,
        fault: Fault,
        good: Mapping[str, int],
        mask: int,
    ) -> int:
        """Detection word of one fault over one block (bit per pattern).

        ``good`` are fault-free packed node values (from
        :func:`repro.logicsim.simulate`); bit *j* of the result is set when
        pattern *j* detects the fault at some primary output.
        """
        # Callers (ATPG, the exact enumerator) loop many faults over one
        # good mapping: convert it to a flat array once.  The strong
        # reference keeps the id stable while memoized.
        if self._last_good is not good:
            self._last_good_arr = self._compiled.values_from_dict(good)
            self._last_good = good
        return self._kernel_detection_word(
            self._fault_spec(fault), self._last_good_arr, mask
        )

    # -- compiled-kernel propagation ------------------------------------------------

    def _fault_spec(self, fault: Fault) -> tuple:
        """Precompiled per-fault injection data.

        ``(site index, pin, stuck-at-one?, site is output?, cone plan
        entries, site operand indices or None)`` — everything the inner
        loop needs, resolved once per fault site.
        """
        spec = self._spec_cache.get(fault)
        if spec is None:
            compiled = self._compiled
            site = compiled.index[fault.node]
            args = compiled.args_of[site] if fault.pin is not None else None
            spec = (
                site,
                fault.pin,
                bool(fault.value),
                compiled.is_output[site],
                compiled.cone_entries(site),
                args,
            )
            self._spec_cache[fault] = spec
        return spec

    def _kernel_detection_word(
        self, spec: tuple, good: List[int], mask: int
    ) -> int:
        """Re-evaluate one fault's precompiled cone slice with one override."""
        site, pin, stuck_one, site_is_out, cone, site_args = spec
        forced = mask if stuck_one else 0
        compiled = self._compiled
        faulty = self._faulty
        stamp = self._stamp
        self._version = version = self._version + 1
        if pin is None:
            diff = good[site] ^ forced
            if not diff:
                return 0
            word = forced
        else:
            # Branch fault: the gate is re-evaluated with one input forced;
            # its own stem keeps the good value upstream.
            operands = [good[a] for a in site_args]
            operands[pin] = forced
            word = compiled.direct_fn[site](
                operands, mask, compiled.tables[site]
            )
            diff = word ^ good[site]
            if not diff:
                return 0
        faulty[site] = word
        stamp[site] = version
        detect = diff if site_is_out else 0
        for i, fn, args, table, is_out in cone:
            changed = False
            for a in args:
                if stamp[a] == version:
                    changed = True
                    break
            if not changed:
                continue
            word = fn(faulty, stamp, version, good, args, mask, table)
            if word == good[i]:
                continue
            faulty[i] = word
            stamp[i] = version
            if is_out:
                detect |= word ^ good[i]
        return detect & mask

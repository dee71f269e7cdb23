"""Regenerate ``data/references.json``, the references behind ``det_mae``.

Each accuracy circuit gets the detection count of every fault of its
``"paper"`` fault universe at uniform input probabilities:

* ``exhaustive`` — all ``2^n`` input patterns (alu, 14 inputs): the
  counts divided by ``2^n`` are the exact detection probabilities;
* ``psim`` — ``N`` fixed-seed random patterns without fault dropping
  (the paper's ``P_SIM``), N = 2^20, so the standard error of every
  reference is at most 0.0005.

Counts are stored in fault-universe order with a digest of that order,
so a change to the universe shows up as a failed accuracy check rather
than as a silently shifted error.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from accuracy import ACCURACY_CIRCUITS, REFERENCE_PATH, faults_digest  # noqa: E402

PSIM_PATTERNS = 1 << 20
PSIM_SEED = 1985
PSIM_BLOCK = 16384
EXHAUSTIVE_MAX_INPUTS = 16


def reference_counts(name: str) -> dict:
    from repro.api import AnalysisEngine
    from repro.faults.simulator import FaultSimulator
    from repro.logicsim.patterns import PatternSet

    engine = AnalysisEngine(name, "paper")
    circuit, faults = engine.circuit, engine.faults
    # The numpy engine is bit-identical to the python one and much
    # faster at these block widths.
    simulator = FaultSimulator(circuit, faults, backend="numpy")
    if len(circuit.inputs) <= EXHAUSTIVE_MAX_INPUTS:
        method, seed = "exhaustive", None
        patterns = PatternSet.exhaustive(circuit.inputs)
    else:
        method, seed = "psim", PSIM_SEED
        patterns = PatternSet.random(circuit.inputs, PSIM_PATTERNS, 0.5, seed)
    result = simulator.run(patterns, block_size=PSIM_BLOCK, drop_detected=False)
    return {
        "method": method,
        "n_patterns": patterns.n_patterns,
        "seed": seed,
        "input_probs": 0.5,
        "config": "paper",
        "n_faults": len(faults),
        "digest": faults_digest(faults),
        "counts": [result.records[f].detect_count for f in faults],
    }


def main() -> int:
    circuits = {}
    for name in ACCURACY_CIRCUITS:
        start = time.perf_counter()
        circuits[name] = reference_counts(name)
        entry = circuits[name]
        print(f"{name}: {entry['method']} N={entry['n_patterns']} "
              f"faults={entry['n_faults']} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    payload = {
        "description": "Detection counts per fault (fault-universe order) "
                       "at uniform inputs; probability = count / n_patterns. "
                       "Regenerate with perfbench/make_references.py.",
        "circuits": circuits,
    }
    tmp = REFERENCE_PATH.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(f'"description": {json.dumps(payload["description"])},\n')
        handle.write('"circuits": {\n')
        rows = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in circuits.items()]
        handle.write(",\n".join(rows))
        handle.write("\n}\n}\n")
    os.replace(tmp, REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Estimator accuracy against committed detection-probability references.

``det_mae`` is the mean absolute error of the analytic detection
probabilities (``AnalysisEngine(circuit, "paper")`` at uniform inputs)
over every fault of the accuracy circuits, against the references in
``data/references.json``.  The per-circuit Table 1 statistics of the
paper (``Merr``, ``delta``, ``Co``) explain it.  Everything here is
deterministic and runs outside the timed region of every workload.

The references are regenerated by ``make_references.py``; the JSON file
records the method, pattern count and seed of every circuit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Sequence, Tuple

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "data" / "references.json"

#: alu is small enough for exhaustive enumeration; the others use
#: high-N fixed-seed P_SIM, as the paper did for MULT.
ACCURACY_CIRCUITS = (
    "alu", "mult", "c432", "c499", "c880", "c1355", "c1908", "c3540", "s1196",
)


def fault_key(fault) -> str:
    return f"{fault.node}|{'' if fault.pin is None else fault.pin}|{fault.value}"


def faults_digest(faults: Sequence) -> str:
    """Order-sensitive digest of a fault list (references store counts only)."""
    text = "\n".join(fault_key(f) for f in faults)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_references(path: pathlib.Path = REFERENCE_PATH) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["circuits"]


def table1_stats(
    estimates: Sequence[float], references: Sequence[float]
) -> Dict[str, float]:
    """Merr, delta (mean |error|) and Co (Pearson) of two parallel series."""
    from repro.report.stats import accuracy_stats

    stats = accuracy_stats(list(estimates), list(references))
    return {
        "merr": stats.max_error,
        "delta": stats.mean_error,
        "co": stats.correlation,
    }


def check_reference(name: str, faults: Sequence, entry: dict) -> List[str]:
    """Failures when a reference no longer matches the program's universe."""
    if entry["digest"] != faults_digest(faults):
        return [f"accuracy {name}: fault universe differs from the reference"]
    if len(entry["counts"]) != len(faults):
        return [f"accuracy {name}: reference has {len(entry['counts'])} "
                f"counts for {len(faults)} faults"]
    return []


def evaluate(
    references: Dict[str, dict],
) -> Tuple[float, Dict[str, Dict[str, float]], List[str]]:
    """``(det_mae, per-circuit stats, failures)`` at uniform inputs."""
    from repro.api import AnalysisEngine

    total_error = 0.0
    total_faults = 0
    per_circuit: Dict[str, Dict[str, float]] = {}
    failures: List[str] = []
    for name in ACCURACY_CIRCUITS:
        engine = AnalysisEngine(name, "paper")
        faults = engine.faults
        entry = references[name]
        problems = check_reference(name, faults, entry)
        if problems:
            failures.extend(problems)
            continue
        detection = engine.raw_detection_probabilities(0.5)
        estimates = [detection[f] for f in faults]
        n = entry["n_patterns"]
        refs = [count / n for count in entry["counts"]]
        per_circuit[name] = table1_stats(estimates, refs)
        total_error += sum(abs(e - r) for e, r in zip(estimates, refs))
        total_faults += len(faults)
    det_mae = total_error / total_faults if total_faults else float("nan")
    return det_mae, per_circuit, failures

"""Correctness oracles; every check runs outside the timed region.

Each ``check_*`` function returns a list of problems (empty when the
result is correct).  A workload counts an operation with any problem as
one failed operation.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Tuple


def check_analyze(
    report, signal: Mapping[str, float], detection: Mapping[object, float],
    n_universe: int,
) -> List[str]:
    """Invariants of one ``AnalysisEngine.analyze()`` report.

    * every signal and detection probability lies in [0, 1];
    * ``n_faults`` equals the size of the fault universe;
    * for each fraction, test lengths do not decrease as confidence
      rises (``None``, unreachable, ranks above every finite length);
    * a length is ``None`` only when a kept fault has probability 0, or
      when formula (3) shows that even ``max_length`` patterns (the
      search bound of ``required_test_length``) miss the confidence.
    """
    import inspect
    import math

    from repro.testlen.length import (
        log_all_detected_probability,
        required_test_length,
        select_easiest_fraction,
    )

    bound = inspect.signature(required_test_length).parameters[
        "max_length"
    ].default

    problems = []
    outside = [p for p in list(signal.values()) + list(detection.values())
               if not 0.0 <= p <= 1.0]
    if outside:
        problems.append(f"{len(outside)} probabilities outside [0, 1]")
    if report.n_faults != n_universe:
        problems.append(
            f"n_faults {report.n_faults} != universe size {n_universe}"
        )
    by_fraction: Dict[float, List[Tuple[float, Optional[int]]]] = {}
    for (fraction, confidence), n in report.test_lengths.items():
        by_fraction.setdefault(fraction, []).append((confidence, n))
    for fraction, rows in by_fraction.items():
        rows.sort()
        for (c1, n1), (c2, n2) in zip(rows, rows[1:]):
            if n1 is None and n2 is not None or (
                n1 is not None and n2 is not None and n2 < n1
            ):
                problems.append(
                    f"test length falls from {n1} at e={c1} to {n2} at "
                    f"e={c2} (d={fraction})"
                )
    values = list(detection.values())
    for (fraction, confidence), n in report.test_lengths.items():
        if n is None:
            kept = select_easiest_fraction(values, fraction)
            if min(kept) > 0.0 and log_all_detected_probability(
                kept, bound
            ) >= math.log(confidence):
                problems.append(
                    f"test length None at d={fraction}, e={confidence} "
                    f"although {bound} patterns reach the confidence"
                )
    return problems


def expected_detection(circuit, patterns, faults) -> Dict[object, Tuple[Optional[int], int]]:
    """``{fault: (first detecting pattern, detecting patterns)}`` from the
    single-fault ``FaultSimulator.detection_word`` path over one block."""
    from repro.faults.simulator import FaultSimulator
    from repro.logicsim import simulate

    good = simulate(circuit, patterns)
    simulator = FaultSimulator(circuit, faults)
    expected = {}
    for fault in faults:
        word = simulator.detection_word(fault, good, patterns.mask)
        first = (word & -word).bit_length() - 1 if word else None
        expected[fault] = (first, word.bit_count())
    return expected


def check_faultsim(
    records: Mapping[object, object],
    expected: Mapping[object, Tuple[Optional[int], int]],
    dropped: bool,
) -> List[str]:
    """Sampled faults of a fault-simulation run against the reference.

    First-detection indices must match exactly.  Detection counts must
    match without fault dropping; with dropping they are lower bounds.
    """
    problems = []
    for fault, (first, count) in expected.items():
        record = records[fault]
        if record.first_detect != first:
            problems.append(
                f"{fault}: first detection {record.first_detect} != {first}"
            )
        elif (record.detect_count > count) if dropped else (
            record.detect_count != count
        ):
            problems.append(
                f"{fault}: {record.detect_count} detections, expected "
                f"{'at most ' if dropped else ''}{count}"
            )
    return problems


def canonical(payload) -> str:
    """Timing-stripped canonical JSON of a result payload."""
    from repro.api.results import canonical_payload

    normalized = json.loads(json.dumps(payload))
    return json.dumps(canonical_payload(normalized), sort_keys=True)


def check_same_result(result, reference, what: str) -> List[str]:
    if canonical(result) != canonical(reference):
        return [f"result differs from {what}"]
    return []


def in_process_result(body: Mapping[str, object]) -> dict:
    """The report an in-process ``AnalysisEngine`` gives for a job body."""
    from repro.api import AnalysisEngine, ProtestConfig
    from repro.circuit.io import parse_bench

    config = body["config"]
    if isinstance(config, Mapping):
        config = ProtestConfig.from_dict(config)
    engine = AnalysisEngine(parse_bench(body["bench"], name="uploaded"), config)
    if engine.config.method == "sampled":
        return engine.sampled_analyze().to_dict()
    return engine.analyze().to_dict()

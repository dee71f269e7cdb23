"""Serializable result objects of the analysis engine.

Every stage of the pipeline returns a rich result carrying the numbers
*and* their provenance — circuit name, config hash and per-stage wall-clock
timings — so sweep outputs can be archived, diffed and recombined without
re-running the estimators.  All results round-trip through
``to_dict()`` / ``from_dict()`` and serialize with ``to_json()``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.faults.model import Fault
from repro.report.tables import ascii_table, format_count
from repro.sampling.intervals import IntervalEstimate

__all__ = [
    "Provenance",
    "SignalProbResult",
    "DetectionResult",
    "TestLengthResult",
    "SimulationResult",
    "TestabilityReport",
    "IntervalEstimate",
    "SampledReport",
    "CrossValidationResult",
    "canonical_payload",
]

#: Wall-clock / cache bookkeeping keys dropped by :func:`canonical_payload`.
_VOLATILE_KEYS = frozenset({"timings", "elapsed", "cached"})


def canonical_payload(payload: Any) -> Any:
    """A copy of a ``to_dict`` payload with volatile bookkeeping removed.

    Strips wall-clock timings and cache annotations (which legitimately
    differ between two otherwise identical runs) so that two results
    computed from the same inputs — possibly under different executors —
    serialize byte-identically.
    """
    if isinstance(payload, Mapping):
        return {
            key: canonical_payload(value)
            for key, value in payload.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(payload, (list, tuple)):
        return [canonical_payload(item) for item in payload]
    return payload


@dataclasses.dataclass(frozen=True)
class Provenance:
    """Where a result came from and what it cost.

    ``timings`` maps stage names (``"signal"``, ``"observability"``,
    ``"detection"``, ...) to seconds; a stage served from the engine cache
    records ``0.0`` and shows up in ``cached`` instead.  ``backend``
    records which evaluation engine (:mod:`repro.backends`) actually ran
    — the *resolved* name, never ``"auto"`` — so sweep cells computed on
    different workers remain attributable.  Analytic stages always run
    on the python kernel (``"python"``) regardless of the configured
    backend; only packed-pattern stages (fault simulation, Monte-Carlo
    grading) record the engine that ran them.
    """

    circuit: str
    config_hash: str
    config_name: str = "custom"
    timings: Dict[str, float] = dataclasses.field(default_factory=dict)
    cached: Tuple[str, ...] = ()
    backend: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit,
            "config_hash": self.config_hash,
            "config_name": self.config_name,
            "timings": dict(self.timings),
            "cached": list(self.cached),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Provenance":
        return cls(
            circuit=data["circuit"],
            config_hash=data["config_hash"],
            config_name=data.get("config_name", "custom"),
            timings=dict(data.get("timings", {})),
            cached=tuple(data.get("cached", ())),
            backend=data.get("backend", ""),
        )


class _Serializable:
    """``to_json`` / ``from_json`` on top of the per-class dict codecs."""

    def to_dict(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_json(self, indent: "int | None" = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_canonical_json(self, indent: "int | None" = None) -> str:
        """Deterministic serialization: volatile bookkeeping stripped."""
        return json.dumps(
            canonical_payload(self.to_dict()), indent=indent, sort_keys=True
        )

    @classmethod
    def from_json(cls, payload: str):
        return cls.from_dict(json.loads(payload))


def _fault_to_dict(fault: Fault) -> Dict[str, Any]:
    return {"node": fault.node, "pin": fault.pin, "value": fault.value}


def _fault_from_dict(data: Mapping[str, Any]) -> Fault:
    return Fault(data["node"], data["pin"], data["value"])


@dataclasses.dataclass
class SignalProbResult(_Serializable):
    """Estimated 1-probability of every node (stage 1)."""

    provenance: Provenance
    input_probs: Dict[str, float]
    probabilities: Dict[str, float]
    conditioned_gates: int = 0

    def __getitem__(self, node: str) -> float:
        return self.probabilities[node]

    def __contains__(self, node: str) -> bool:
        return node in self.probabilities

    def __len__(self) -> int:
        return len(self.probabilities)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "signal_probabilities",
            "provenance": self.provenance.to_dict(),
            "input_probs": dict(self.input_probs),
            "probabilities": dict(self.probabilities),
            "conditioned_gates": self.conditioned_gates,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SignalProbResult":
        return cls(
            provenance=Provenance.from_dict(data["provenance"]),
            input_probs=dict(data["input_probs"]),
            probabilities=dict(data["probabilities"]),
            conditioned_gates=data.get("conditioned_gates", 0),
        )


@dataclasses.dataclass
class DetectionResult(_Serializable):
    """Estimated detection probability of every fault (stage 2)."""

    provenance: Provenance
    input_probs: Dict[str, float]
    probabilities: Dict[Fault, float]

    def __getitem__(self, fault: Fault) -> float:
        return self.probabilities[fault]

    def __len__(self) -> int:
        return len(self.probabilities)

    def values(self) -> List[float]:
        return list(self.probabilities.values())

    def hardest(self, n: int = 5) -> List[Tuple[Fault, float]]:
        """The ``n`` faults with the lowest detection probability."""
        ranked = sorted(self.probabilities.items(), key=lambda item: item[1])
        return ranked[:n]

    def min_detection(self) -> float:
        values = sorted(self.probabilities.values())
        return values[0] if values else 0.0

    def median_detection(self) -> float:
        values = sorted(self.probabilities.values())
        return values[len(values) // 2] if values else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "detection_probabilities",
            "provenance": self.provenance.to_dict(),
            "input_probs": dict(self.input_probs),
            "faults": [
                dict(_fault_to_dict(fault), p=p)
                for fault, p in self.probabilities.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DetectionResult":
        return cls(
            provenance=Provenance.from_dict(data["provenance"]),
            input_probs=dict(data["input_probs"]),
            probabilities={
                _fault_from_dict(rec): rec["p"] for rec in data["faults"]
            },
        )


@dataclasses.dataclass
class TestLengthResult(_Serializable):
    """Required random test length for one (d, e) requirement (stage 3).

    ``n_patterns is None`` means no finite test reaches the confidence —
    the fault set contains an undetectable fault (P_f = 0).
    """

    __test__ = False  # "Test" prefix: keep pytest from collecting this

    provenance: Provenance
    confidence: float
    fraction: float
    n_patterns: Optional[int]
    n_faults: int

    @property
    def reachable(self) -> bool:
        return self.n_patterns is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "test_length",
            "provenance": self.provenance.to_dict(),
            "confidence": self.confidence,
            "fraction": self.fraction,
            "n_patterns": self.n_patterns,
            "n_faults": self.n_faults,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TestLengthResult":
        return cls(
            provenance=Provenance.from_dict(data["provenance"]),
            confidence=data["confidence"],
            fraction=data["fraction"],
            n_patterns=data["n_patterns"],
            n_faults=data["n_faults"],
        )


@dataclasses.dataclass
class SimulationResult(_Serializable):
    """Fault-simulation outcome of one pattern set (stage 5).

    ``raw`` keeps the full :class:`~repro.faults.simulator.FaultSimResult`
    for in-process callers; it is not serialized.
    """

    provenance: Provenance
    n_patterns: int
    n_faults: int
    n_detected: int
    coverage: float
    curve: Dict[int, float] = dataclasses.field(default_factory=dict)
    raw: Any = dataclasses.field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "fault_simulation",
            "provenance": self.provenance.to_dict(),
            "n_patterns": self.n_patterns,
            "n_faults": self.n_faults,
            "n_detected": self.n_detected,
            "coverage": self.coverage,
            "curve": {str(n): c for n, c in self.curve.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        return cls(
            provenance=Provenance.from_dict(data["provenance"]),
            n_patterns=data["n_patterns"],
            n_faults=data["n_faults"],
            n_detected=data["n_detected"],
            coverage=data["coverage"],
            curve={int(n): c for n, c in data.get("curve", {}).items()},
        )


@dataclasses.dataclass
class TestabilityReport(_Serializable):
    """Summary of one full analysis run (printable and serializable).

    ``test_lengths`` maps ``(fraction, confidence)`` to the required
    pattern count, or ``None`` when the kept fault set contains an
    undetectable fault (rendered as ``"inf"`` by :meth:`to_text`).
    """

    __test__ = False  # "Test" prefix: keep pytest from collecting this

    circuit_name: str
    n_faults: int
    min_detection: float
    median_detection: float
    hardest_faults: List[Tuple[Fault, float]]
    test_lengths: Dict[Tuple[float, float], Optional[int]]
    provenance: Optional[Provenance] = None

    def to_text(self) -> str:
        lines = [
            f"PROTEST analysis of {self.circuit_name}",
            f"  faults analysed: {self.n_faults}",
            f"  min / median estimated P_f: "
            f"{self.min_detection:.3e} / {self.median_detection:.3e}",
            "  hardest faults:",
        ]
        for fault, p in self.hardest_faults:
            lines.append(f"    {str(fault):30s} P_f = {p:.3e}")
        rows = [
            [f"{d:.2f}", f"{e:.3f}",
             format_count(n) if n is not None else "inf"]
            for (d, e), n in sorted(self.test_lengths.items())
        ]
        lines.append(
            ascii_table(["d", "e", "N"], rows, title="  required test lengths")
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "testability_report",
            "circuit": self.circuit_name,
            "provenance": (
                self.provenance.to_dict() if self.provenance else None
            ),
            "n_faults": self.n_faults,
            "min_detection": self.min_detection,
            "median_detection": self.median_detection,
            "hardest_faults": [
                dict(_fault_to_dict(fault), p=p)
                for fault, p in self.hardest_faults
            ],
            "test_lengths": [
                {"fraction": d, "confidence": e, "n_patterns": n}
                for (d, e), n in sorted(self.test_lengths.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TestabilityReport":
        provenance = data.get("provenance")
        return cls(
            circuit_name=data["circuit"],
            n_faults=data["n_faults"],
            min_detection=data["min_detection"],
            median_detection=data["median_detection"],
            hardest_faults=[
                (_fault_from_dict(rec), rec["p"])
                for rec in data["hardest_faults"]
            ],
            test_lengths={
                (rec["fraction"], rec["confidence"]): rec["n_patterns"]
                for rec in data["test_lengths"]
            },
            provenance=(
                Provenance.from_dict(provenance) if provenance else None
            ),
        )


@dataclasses.dataclass
class SampledReport(_Serializable):
    """Monte-Carlo grading of one circuit (the sampled ``analyze``).

    Every detection probability is an :class:`IntervalEstimate` whose
    bounds hold at ``confidence_level``; ``coverage`` is the proportion
    of graded faults detected at least once by the sampled patterns.
    ``converged`` records whether the sequential stopping rule reached
    ``target_halfwidth`` before ``n_patterns`` hit the configured cap,
    and ``convergence`` keeps the per-block ``(n_patterns,
    max_halfwidth)`` trajectory.  ``test_lengths`` (filled by
    ``sampled_analyze``) maps ``(fraction, confidence)`` requirements to
    pattern counts derived from the sampled point estimates, ``None``
    when a kept fault was never detected.
    """

    circuit_name: str
    n_patterns: int
    n_faults: int
    n_universe: int
    converged: bool
    max_halfwidth: float
    target_halfwidth: float
    confidence_level: float
    interval_method: str
    seed: int
    detection: Dict[Fault, IntervalEstimate]
    coverage: IntervalEstimate
    test_lengths: Dict[Tuple[float, float], Optional[int]] = (
        dataclasses.field(default_factory=dict)
    )
    convergence: List[Tuple[int, float]] = dataclasses.field(
        default_factory=list
    )
    provenance: Optional[Provenance] = None

    def hardest(self, n: int = 5) -> List[Tuple[Fault, IntervalEstimate]]:
        """The ``n`` faults with the lowest sampled detection estimate."""
        ranked = sorted(
            self.detection.items(), key=lambda item: item[1].estimate
        )
        return ranked[:n]

    # Properties, mirroring the TestabilityReport fields, so sweep
    # consumers can read both report kinds uniformly.
    @property
    def min_detection(self) -> float:
        values = [iv.estimate for iv in self.detection.values()]
        return min(values) if values else 0.0

    @property
    def median_detection(self) -> float:
        values = sorted(iv.estimate for iv in self.detection.values())
        return values[len(values) // 2] if values else 0.0

    def to_text(self) -> str:
        lines = [
            f"Monte-Carlo grading of {self.circuit_name}",
            f"  faults graded: {self.n_faults}"
            + (
                f" (stratified sample of {self.n_universe})"
                if self.n_faults < self.n_universe
                else ""
            ),
            f"  patterns simulated: {self.n_patterns}"
            + ("" if self.converged else " (halfwidth target NOT reached)"),
            f"  interval: {self.interval_method} at "
            f"{100.0 * self.confidence_level:.1f}% confidence, "
            f"max halfwidth {self.max_halfwidth:.4f}",
            f"  fault coverage: {self.coverage.estimate:.3f}"
            + (
                ""
                if self.coverage.method == "exact"
                else f" [{self.coverage.low:.3f}, {self.coverage.high:.3f}]"
            ),
            "  hardest faults:",
        ]
        for fault, iv in self.hardest():
            lines.append(
                f"    {str(fault):30s} P_f = {iv.estimate:.4f} "
                f"[{iv.low:.4f}, {iv.high:.4f}]"
            )
        if self.test_lengths:
            rows = [
                [f"{d:.2f}", f"{e:.3f}",
                 format_count(n) if n is not None else "inf"]
                for (d, e), n in sorted(self.test_lengths.items())
            ]
            lines.append(
                ascii_table(
                    ["d", "e", "N"], rows,
                    title="  required test lengths (sampled estimates)",
                )
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "sampled_report",
            "circuit": self.circuit_name,
            "provenance": (
                self.provenance.to_dict() if self.provenance else None
            ),
            "n_patterns": self.n_patterns,
            "n_faults": self.n_faults,
            "n_universe": self.n_universe,
            "converged": self.converged,
            "max_halfwidth": self.max_halfwidth,
            "target_halfwidth": self.target_halfwidth,
            "confidence_level": self.confidence_level,
            "interval_method": self.interval_method,
            "seed": self.seed,
            "coverage": self.coverage.to_dict(),
            "faults": [
                dict(_fault_to_dict(fault), **iv.to_dict())
                for fault, iv in self.detection.items()
            ],
            "test_lengths": [
                {"fraction": d, "confidence": e, "n_patterns": n}
                for (d, e), n in sorted(self.test_lengths.items())
            ],
            "convergence": [
                {"n_patterns": n, "max_halfwidth": h}
                for n, h in self.convergence
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SampledReport":
        provenance = data.get("provenance")
        return cls(
            circuit_name=data["circuit"],
            n_patterns=data["n_patterns"],
            n_faults=data["n_faults"],
            n_universe=data["n_universe"],
            converged=data["converged"],
            max_halfwidth=data["max_halfwidth"],
            target_halfwidth=data["target_halfwidth"],
            confidence_level=data["confidence_level"],
            interval_method=data["interval_method"],
            seed=data["seed"],
            detection={
                _fault_from_dict(rec): IntervalEstimate.from_dict(rec)
                for rec in data["faults"]
            },
            coverage=IntervalEstimate.from_dict(data["coverage"]),
            test_lengths={
                (rec["fraction"], rec["confidence"]): rec["n_patterns"]
                for rec in data.get("test_lengths", [])
            },
            convergence=[
                (rec["n_patterns"], rec["max_halfwidth"])
                for rec in data.get("convergence", [])
            ],
            provenance=(
                Provenance.from_dict(provenance) if provenance else None
            ),
        )


@dataclasses.dataclass
class CrossValidationResult(_Serializable):
    """Analytic estimates checked against the sampled intervals.

    One entry of ``flagged`` per fault whose analytic detection
    probability falls outside its sampled interval widened by
    ``tolerance`` on each side.  ``strict_agreement`` is the fraction of
    faults whose analytic estimate lies inside the *raw* interval — with
    the paper's estimator this is well below 1 (its documented error
    envelope reaches 0.15-0.48, Table 1), which is exactly what the
    sampler makes visible.  Because a per-fault excess over [0, 1] can
    never exceed ``max(low, 1 - high)``, the tolerance-widened flag
    only fires on extreme-probability faults; ``mean_excess`` is the
    distribution-level companion metric that moves when a backend is
    broken wholesale even on mid-range faults — the bench oracle gates
    on both.
    """

    circuit_name: str
    n_checked: int
    tolerance: float
    confidence_level: float
    n_patterns: int
    strict_agreement: float
    max_excess: float
    mean_excess: float = 0.0
    flagged: List[Tuple[Fault, float, IntervalEstimate]] = (
        dataclasses.field(default_factory=list)
    )
    provenance: Optional[Provenance] = None

    @property
    def ok(self) -> bool:
        """No analytic estimate outside its tolerance-widened interval."""
        return not self.flagged

    def to_text(self) -> str:
        lines = [
            f"cross-validation of {self.circuit_name}: "
            f"{self.n_checked} faults, {self.n_patterns} patterns",
            f"  strictly inside the {100.0 * self.confidence_level:.1f}% "
            f"interval: {100.0 * self.strict_agreement:.1f}%",
            f"  excess over interval: max {self.max_excess:.4f}, "
            f"mean {self.mean_excess:.4f}",
            f"  flagged at tolerance {self.tolerance}: {len(self.flagged)}",
        ]
        for fault, analytic, iv in self.flagged[:10]:
            lines.append(
                f"    {str(fault):30s} analytic {analytic:.4f} vs "
                f"[{iv.low:.4f}, {iv.high:.4f}]"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "cross_validation",
            "circuit": self.circuit_name,
            "provenance": (
                self.provenance.to_dict() if self.provenance else None
            ),
            "n_checked": self.n_checked,
            "tolerance": self.tolerance,
            "confidence_level": self.confidence_level,
            "n_patterns": self.n_patterns,
            "strict_agreement": self.strict_agreement,
            "max_excess": self.max_excess,
            "mean_excess": self.mean_excess,
            "ok": self.ok,
            "flagged": [
                dict(
                    _fault_to_dict(fault),
                    analytic=analytic,
                    interval=iv.to_dict(),
                )
                for fault, analytic, iv in self.flagged
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CrossValidationResult":
        provenance = data.get("provenance")
        return cls(
            circuit_name=data["circuit"],
            n_checked=data["n_checked"],
            tolerance=data["tolerance"],
            confidence_level=data["confidence_level"],
            n_patterns=data["n_patterns"],
            strict_agreement=data["strict_agreement"],
            max_excess=data["max_excess"],
            mean_excess=data.get("mean_excess", 0.0),
            flagged=[
                (
                    _fault_from_dict(rec),
                    rec["analytic"],
                    IntervalEstimate.from_dict(rec["interval"]),
                )
                for rec in data.get("flagged", [])
            ],
            provenance=(
                Provenance.from_dict(provenance) if provenance else None
            ),
        )

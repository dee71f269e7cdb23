"""Monte-Carlo testability grading on the compiled circuit kernel.

The analytic estimator (cutting + conditional probabilities, paper §2-3)
is a heuristic with a documented error envelope (Table 1 reports max
errors of 0.15-0.48 on the evaluation circuits).  This module is its
independent statistical check: grade the same quantities by simulating
random pattern blocks on the :class:`~repro.kernel.CompiledCircuit` —
reusing the fault-parallel lane packing of the
:class:`~repro.faults.simulator.FaultSimulator` — and report every
number as an :class:`~repro.sampling.intervals.IntervalEstimate` whose
bounds hold at a requested confidence.

Sampling is *sequential*: pattern blocks are simulated until the widest
per-fault (or per-node) interval is narrower than ``target_halfwidth``,
or ``max_patterns`` is reached.  Because the interval halfwidth depends
on the counts only through ``successes`` at a given ``n``, the stopping
rule costs one interval evaluation per block (at the success count
closest to ``n/2``), not one per fault.

For very large fault lists :func:`stratified_fault_sample` grades a
proportional stratified subsample (stems/branches x stuck-at-0/1), which
keeps the per-block cost bounded while the coverage estimate stays an
unbiased proportion over the sampled faults.

Everything is seeded: the block seed stream is derived from one integer
seed via :class:`random.Random` over a string key (SHA-512 based, stable
across processes), so a run is byte-reproducible regardless of the
executor it runs under.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.circuit.netlist import Circuit
from repro.errors import (
    BackendFailure,
    EstimationError,
    ResilienceError,
    SimulationError,
)
from repro.faults.model import Fault, fault_universe
from repro.faults.simulator import FaultSimulator
from repro.logicsim.patterns import PatternSet
from repro.resilience.chaos import chaos_point
from repro.sampling.intervals import (
    INTERVAL_METHODS,
    IntervalEstimate,
    proportion_interval,
    wilson_halfwidth,
)
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.profiling import PhaseProfiler, phase_if_active
from repro.telemetry.tracing import span

_BLOCKS_TOTAL = REGISTRY.counter(
    "protest_sampling_blocks_total",
    "Monte-Carlo pattern blocks simulated",
    ("kind",),
)
_PATTERNS_TOTAL = REGISTRY.counter(
    "protest_sampling_patterns_total",
    "Random patterns drawn by the Monte-Carlo estimator",
    ("kind",),
)
_BLOCK_SECONDS = REGISTRY.histogram(
    "protest_sampling_block_seconds",
    "Latency of one sampled block (draw + simulate + intervals)",
    ("kind",),
)
_HALFWIDTH = REGISTRY.gauge(
    "protest_sampling_halfwidth",
    "Widest interval halfwidth after the most recent sampled block",
    ("kind",),
)

__all__ = [
    "DetectionSample",
    "MonteCarloEstimator",
    "SamplingPlan",
    "SamplingState",
    "SignalSample",
    "stratified_fault_sample",
]


@dataclasses.dataclass(frozen=True)
class SamplingPlan:
    """All knobs of one Monte-Carlo grading run.

    Attributes
    ----------
    target_halfwidth:
        Sequential stopping target: sampling stops once the *widest*
        interval is at most this wide on each side.
    confidence_level:
        Two-sided confidence of every reported interval.
    max_patterns:
        Hard cap on the number of simulated patterns; a run that hits it
        before reaching the target reports ``converged=False``.
    block_size:
        Patterns per sampling block (one stopping-rule evaluation per
        block).
    interval_method:
        ``"wilson"`` (default) or ``"clopper_pearson"``.
    seed:
        Root seed of the per-block pattern seed stream.
    fault_sample:
        When set and smaller than the fault universe, grade only a
        stratified subsample of this many faults.
    """

    target_halfwidth: float = 0.02
    confidence_level: float = 0.99
    max_patterns: int = 1 << 16
    block_size: int = 1024
    interval_method: str = "wilson"
    seed: int = 0
    fault_sample: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target_halfwidth < 0.5:
            raise EstimationError(
                f"target_halfwidth must be in (0, 0.5), "
                f"got {self.target_halfwidth}"
            )
        if not 0.0 < self.confidence_level < 1.0:
            raise EstimationError(
                f"confidence_level must be in (0, 1), "
                f"got {self.confidence_level}"
            )
        if self.max_patterns < 1:
            raise EstimationError(
                f"max_patterns must be positive, got {self.max_patterns}"
            )
        if self.block_size < 1:
            raise EstimationError(
                f"block_size must be positive, got {self.block_size}"
            )
        if self.interval_method not in INTERVAL_METHODS:
            raise EstimationError(
                f"interval_method must be one of {INTERVAL_METHODS}, "
                f"got {self.interval_method!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise EstimationError(f"seed must be an int, got {self.seed!r}")
        if self.fault_sample is not None and self.fault_sample < 1:
            raise EstimationError(
                f"fault_sample must be positive or None, "
                f"got {self.fault_sample}"
            )


def stratified_fault_sample(
    faults: Sequence[Fault], k: "int | None", seed: int = 0
) -> List[Fault]:
    """A proportional stratified subsample of ``k`` faults.

    Strata are (stem/branch) x (stuck-at value); allocation is
    proportional with largest-remainder rounding, and selection inside a
    stratum is a seeded ``random.sample`` over the stratum sorted by the
    fault's stable sort key — deterministic for a given seed.  With
    ``k`` ``None`` or not smaller than the universe, the input order is
    returned unchanged.
    """
    fault_list = list(faults)
    if k is None or k >= len(fault_list):
        return fault_list
    if k < 1:
        raise EstimationError(f"fault sample size must be positive, got {k}")
    strata: Dict[Tuple[bool, int], List[Fault]] = {}
    for fault in fault_list:
        strata.setdefault((fault.is_stem, fault.value), []).append(fault)
    keys = sorted(strata)
    total = len(fault_list)
    quotas = {key: k * len(strata[key]) / total for key in keys}
    counts = {key: int(quotas[key]) for key in keys}
    remainder = k - sum(counts.values())
    by_fraction = sorted(
        keys, key=lambda key: (quotas[key] - counts[key], key), reverse=True
    )
    for key in by_fraction[:remainder]:
        counts[key] += 1
    rng = random.Random(f"protest-fault-sample:{seed}")
    chosen: List[Fault] = []
    for key in keys:
        # Every allocation fits its stratum: the quota is < the stratum
        # size (k < total), so int(quota) + 1 never exceeds it, and
        # largest-remainder rounding makes the counts sum to exactly k.
        members = sorted(strata[key], key=lambda f: f.sort_key)
        chosen.extend(rng.sample(members, counts[key]))
    chosen.sort(key=lambda f: f.sort_key)
    return chosen


@dataclasses.dataclass
class SignalSample:
    """Sampled signal probabilities: one interval per node."""

    intervals: Dict[str, IntervalEstimate]
    n_patterns: int
    converged: bool
    max_halfwidth: float
    history: List[Tuple[int, float]]

    def __getitem__(self, node: str) -> IntervalEstimate:
        return self.intervals[node]


@dataclasses.dataclass
class DetectionSample:
    """Sampled detection probabilities plus the fault-coverage proportion.

    ``intervals`` has one entry per *graded* fault (the stratified
    subsample when one was requested); ``coverage`` is the proportion of
    graded faults detected at least once by the sampled patterns.  When
    the graded faults are a random subsample its interval bounds the
    universe-wide proportion over the fault-sampling randomness; when
    the full universe was graded there is no fault-sampling randomness
    and the interval is degenerate (``low == high == estimate``).
    ``history`` records the stopping-rule trajectory as ``(n_patterns,
    max_halfwidth)`` pairs per block.
    """

    intervals: Dict[Fault, IntervalEstimate]
    coverage: IntervalEstimate
    n_patterns: int
    converged: bool
    max_halfwidth: float
    n_universe: int
    history: List[Tuple[int, float]]
    first_detect: Dict[Fault, Optional[int]]

    def __getitem__(self, fault: Fault) -> IntervalEstimate:
        return self.intervals[fault]


@dataclasses.dataclass
class SamplingState:
    """Resumable counter state of one detection-sampling run.

    Everything the sequential loop accumulates, keyed portably: faults
    by their stable string form (``str(fault)``), the block trajectory
    as plain pairs.  Because the per-block seed stream is a pure
    function of ``(seed, block index)``, a run resumed from this state
    — same circuit, same plan — continues with exactly the patterns an
    uninterrupted run would have drawn next, so the final sample is
    **bit-identical** to never having stopped.  That property is what
    the job journal (:mod:`repro.resilience.journal`) persists per
    block, and what the service's crash-retry and restart-resume paths
    are verified against.
    """

    seed: int
    n_patterns: int
    counts: Dict[str, int]
    first: Dict[str, Optional[int]]
    history: List[Tuple[int, float]]

    @property
    def blocks_done(self) -> int:
        return len(self.history)

    def to_payload(self) -> Dict[str, object]:
        """A JSON-safe rendering (journal format v1)."""
        return {
            "version": 1,
            "seed": self.seed,
            "n_patterns": self.n_patterns,
            "counts": dict(self.counts),
            "first": dict(self.first),
            "history": [[n, hw] for n, hw in self.history],
        }

    @classmethod
    def from_payload(cls, data: Mapping[str, object]) -> "SamplingState":
        try:
            if data["version"] != 1:
                raise ResilienceError(
                    f"unknown sampling-state version {data['version']!r}"
                )
            return cls(
                seed=int(data["seed"]),              # type: ignore[arg-type]
                n_patterns=int(data["n_patterns"]),  # type: ignore[arg-type]
                counts={k: int(v) for k, v in data["counts"].items()},  # type: ignore[union-attr]
                first={
                    k: (None if v is None else int(v))
                    for k, v in data["first"].items()  # type: ignore[union-attr]
                },
                history=[(int(n), float(hw)) for n, hw in data["history"]],  # type: ignore[union-attr]
            )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ResilienceError(
                f"malformed sampling state: {error}"
            ) from error


def _block_seeds(seed: int, salt: str):
    """Deterministic, process-independent stream of per-block seeds."""
    rng = random.Random(f"protest-sampling:{salt}:{seed}")
    while True:
        yield rng.getrandbits(64)


class MonteCarloEstimator:
    """Statistical grading of one circuit under one sampling plan.

    Parameters mirror the analytic estimator's: a circuit, a fault list
    (defaulting to the full uncollapsed universe) and the plan.  All
    simulation runs on the shared compiled kernel through the selected
    evaluation ``backend`` (:mod:`repro.backends`; ``None`` is the
    pure-python engine).  Every backend produces bit-identical detection
    words and block counts, hence seed-identical samples.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: "Iterable[Fault] | None" = None,
        plan: "SamplingPlan | None" = None,
        backend=None,
        fallback: bool = True,
        profile: bool = False,
    ) -> None:
        self.circuit = circuit
        self.plan = plan if plan is not None else SamplingPlan()
        # Opt-in phase profiler (repro.telemetry.profiling): the two
        # sampling entry points activate it, so block spans and backend
        # word calls aggregate per phase.  Honours the telemetry
        # kill-switch; ``None`` keeps the hot loop on its no-op branch.
        self.profiler: "PhaseProfiler | None" = (
            PhaseProfiler() if profile else None
        )
        #: Degrade to the ``"python"`` engine when the selected backend
        #: raises mid-run (recorded in :attr:`degraded`); ``False``
        #: propagates the failure as :class:`BackendFailure` instead.
        self.fallback = fallback
        #: Degradation events: ``{"block", "backend", "error"}`` per
        #: mid-run fallback, in occurrence order.
        self.degraded: List[Dict[str, object]] = []
        from repro.backends import resolve_backend

        # "auto" resolves against this estimator's real workload shape:
        # blocks of ``plan.block_size`` patterns.
        self.backend = resolve_backend(
            backend, circuit, block_bits=self.plan.block_size
        )
        universe = list(faults) if faults is not None else fault_universe(circuit)
        self.fault_universe = universe
        self.faults = stratified_fault_sample(
            universe, self.plan.fault_sample, self.plan.seed
        )
        self._simulator: "FaultSimulator | None" = None

    @property
    def backend_name(self) -> str:
        """The resolved backend's name.

        After a mid-run degradation the name records the event
        truthfully as ``"<original>-><fallback>"`` (e.g.
        ``"numpy->python"``) — the string that ends up in
        ``Provenance.backend``, so a report computed on a degraded
        engine can never masquerade as a clean run.
        """
        if self.degraded:
            return f"{self.degraded[0]['backend']}->{self.backend.name}"
        return self.backend.name

    def _profiled(self):
        """Activation context of :attr:`profiler` (no-op when ``None``)."""
        if self.profiler is None:
            return contextlib.nullcontext()
        return self.profiler.activate()

    def profile_report(self) -> "Dict[str, object] | None":
        """The phase-profile payload, or ``None`` off ``profile=True``."""
        return None if self.profiler is None else self.profiler.to_payload()

    @property
    def simulator(self) -> FaultSimulator:
        if self._simulator is None:
            self._simulator = FaultSimulator(
                self.circuit, self.faults, backend=self.backend,
            )
        return self._simulator

    # -- block scheduling -----------------------------------------------------------

    def _blocks(self, done: int = 0):
        """Block sizes covering ``max_patterns`` exactly, lazily.

        ``done`` skips patterns already accumulated by a resumed run:
        the remaining sizes are exactly the sizes an uninterrupted run
        would still have ahead of it.
        """
        plan = self.plan
        remaining = plan.max_patterns - done
        while remaining > 0:
            size = min(plan.block_size, remaining)
            yield size
            remaining -= size

    def _block_counter(self):
        """Per-node one-counts of one pattern block, backend-dispatched.

        The block stream stays in the backend's word domain (the numpy
        engine counts bits on the value matrix without materializing
        python integers); every backend produces identical counts, so
        sampled results are seed-identical across backends.
        """
        from repro.kernel import compile_circuit

        backend = self.backend
        compiled = compile_circuit(self.circuit, backend)
        names = compiled.names

        backend_name = backend.name

        def counted(patterns):
            with span(
                "backend.sample_block",
                backend=backend_name, patterns=patterns.n_patterns,
            ), phase_if_active(backend_name):
                counts = backend.sample_block(compiled, patterns)
            return zip(names, counts)

        return counted

    def _interval(self, successes: int, n: int) -> IntervalEstimate:
        return IntervalEstimate.from_counts(
            successes, n, self.plan.confidence_level, self.plan.interval_method
        )

    def _worst_halfwidth(self, counts: "Iterable[int]", n: int) -> float:
        """Max interval halfwidth over all counts, in O(1) intervals.

        At fixed ``n`` the halfwidth is maximal for the success count
        closest to ``n/2`` (both Wilson and Clopper-Pearson widths are
        unimodal in the count), so only that one interval is evaluated.
        """
        worst = min(counts, key=lambda c: abs(2 * c - n))
        if self.plan.interval_method == "wilson":
            return wilson_halfwidth(worst, n, self.plan.confidence_level)
        low, high = proportion_interval(
            worst, n, self.plan.confidence_level, self.plan.interval_method
        )
        return (high - low) / 2.0

    # -- signal probabilities ---------------------------------------------------------

    def sample_signal_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> SignalSample:
        """Empirical 1-probability of every node, with intervals."""
        with self._profiled():
            return self._sample_signal_probabilities(input_probs)

    def _sample_signal_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> SignalSample:
        plan = self.plan
        inputs = self.circuit.inputs
        counts = {node: 0 for node in self.circuit.nodes}
        seeds = _block_seeds(plan.seed, "signal")
        n_total = 0
        history: List[Tuple[int, float]] = []
        max_halfwidth = 1.0
        block_counts = self._block_counter()
        block_index = 0
        for size in self._blocks():
            block_index += 1
            with span(
                "sampling.block",
                kind="signal",
                block=block_index,
                patterns=size,
            ) as block_span:
                patterns = PatternSet.random(
                    inputs, size, input_probs, next(seeds)
                )
                for node, count in block_counts(patterns):
                    counts[node] += count
                n_total += size
                max_halfwidth = self._worst_halfwidth(counts.values(), n_total)
                block_span.set("max_halfwidth", max_halfwidth)
            _BLOCKS_TOTAL.labels(kind="signal").inc()
            _PATTERNS_TOTAL.labels(kind="signal").inc(size)
            _BLOCK_SECONDS.labels(kind="signal").observe(block_span.duration)
            _HALFWIDTH.labels(kind="signal").set(max_halfwidth)
            history.append((n_total, max_halfwidth))
            if max_halfwidth <= plan.target_halfwidth:
                break
        return SignalSample(
            intervals={
                node: self._interval(count, n_total)
                for node, count in counts.items()
            },
            n_patterns=n_total,
            converged=max_halfwidth <= plan.target_halfwidth,
            max_halfwidth=max_halfwidth,
            history=history,
        )

    # -- detection probabilities ------------------------------------------------------

    def sample_detection_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        checkpoint: "Callable[[DetectionSample], object] | None" = None,
        state_hook: "Callable[[SamplingState], object] | None" = None,
        resume: "SamplingState | None" = None,
    ) -> DetectionSample:
        """Empirical detection probability of every graded fault.

        Each block is fault-simulated without dropping (counts stay
        exact); detection counts accumulate across blocks and the
        stopping rule checks the widest interval after every block.

        ``checkpoint``, when given, is called after every block with the
        *partial* :class:`DetectionSample` accumulated so far (the same
        object shape as the final return value; ``converged`` is only
        true on the block that satisfies the stopping rule).  Because
        the stopping rule is sequential, successive checkpoints carry
        non-increasing ``max_halfwidth`` — the property progressive
        result delivery (:mod:`repro.service`) relies on.  Exceptions
        raised by the checkpoint (cancellation, timeouts) propagate and
        abort the sampling loop; the return value of the callback is
        ignored.

        ``state_hook`` is the durability counterpart: it receives the
        raw :class:`SamplingState` after every block (before
        ``checkpoint``, so persisted state always covers the block a
        kill-at-checkpoint interrupts).  ``resume`` restarts the loop
        from such a state — seed-exact, so the final sample is
        bit-identical to an uninterrupted run (see
        :class:`SamplingState`).

        When the evaluation backend raises mid-run and :attr:`fallback`
        is enabled, the run **degrades**: the failed block is re-run on
        the ``"python"`` engine (identical counts by the backend parity
        contract), the event is recorded in :attr:`degraded`, and
        :attr:`backend_name` reports ``"<failed>->python"``.  With no
        fallback possible the failure surfaces as
        :class:`~repro.errors.BackendFailure`.
        """
        with self._profiled():
            return self._sample_detection(
                input_probs, checkpoint, state_hook, resume
            )

    def _sample_detection(
        self,
        input_probs: "float | Mapping[str, float] | None",
        checkpoint: "Callable[[DetectionSample], object] | None",
        state_hook: "Callable[[SamplingState], object] | None",
        resume: "SamplingState | None",
    ) -> DetectionSample:
        if not self.faults:
            raise SimulationError("no faults to grade")
        plan = self.plan
        inputs = self.circuit.inputs
        counts, first, n_total, history = self._initial_state(resume)
        max_halfwidth = history[-1][1] if history else 1.0
        if resume is not None and (
            max_halfwidth <= plan.target_halfwidth
            or n_total >= plan.max_patterns
        ):
            # The interrupted run had already stopped; nothing to redo.
            return self._detection_sample(
                counts, first, n_total, max_halfwidth, history
            )
        seeds = _block_seeds(plan.seed, "detection")
        for _ in range(len(history)):
            next(seeds)
        block_index = len(history)
        for size in self._blocks(n_total):
            block_index += 1
            with span(
                "sampling.block",
                kind="detection",
                block=block_index,
                patterns=size,
                backend=self.backend_name,
            ) as block_span:
                patterns = PatternSet.random(
                    inputs, size, input_probs, next(seeds)
                )
                result = self._run_block(patterns, size, block_index)
                for fault, record in result.records.items():
                    counts[fault] += record.detect_count
                    if first[fault] is None and record.first_detect is not None:
                        first[fault] = n_total + record.first_detect
                n_total += size
                max_halfwidth = self._worst_halfwidth(counts.values(), n_total)
                block_span.set("max_halfwidth", max_halfwidth)
            _BLOCKS_TOTAL.labels(kind="detection").inc()
            _PATTERNS_TOTAL.labels(kind="detection").inc(size)
            _BLOCK_SECONDS.labels(kind="detection").observe(block_span.duration)
            _HALFWIDTH.labels(kind="detection").set(max_halfwidth)
            history.append((n_total, max_halfwidth))
            if state_hook is not None:
                state_hook(SamplingState(
                    seed=plan.seed,
                    n_patterns=n_total,
                    counts={str(f): c for f, c in counts.items()},
                    first={str(f): v for f, v in first.items()},
                    history=list(history),
                ))
            if checkpoint is not None:
                checkpoint(
                    self._detection_sample(
                        counts, first, n_total, max_halfwidth, history
                    )
                )
            if max_halfwidth <= plan.target_halfwidth:
                break
        return self._detection_sample(
            counts, first, n_total, max_halfwidth, history
        )

    def _initial_state(self, resume: "SamplingState | None"):
        """Fresh or resumed accumulators, validated against this run."""
        if resume is None:
            return (
                {fault: 0 for fault in self.faults},
                {fault: None for fault in self.faults},
                0,
                [],
            )
        if resume.seed != self.plan.seed:
            raise ResilienceError(
                f"resume state was sampled under seed {resume.seed}, "
                f"this plan uses {self.plan.seed}"
            )
        keys = [str(fault) for fault in self.faults]
        if set(keys) != set(resume.counts) or set(keys) != set(resume.first):
            raise ResilienceError(
                "resume state does not cover this run's fault list "
                f"({len(resume.counts)} stored vs {len(keys)} graded)"
            )
        if resume.history and resume.history[-1][0] != resume.n_patterns:
            raise ResilienceError(
                "resume state is torn: history does not end at n_patterns"
            )
        counts = {f: resume.counts[str(f)] for f in self.faults}
        first = {f: resume.first[str(f)] for f in self.faults}
        return counts, first, resume.n_patterns, list(resume.history)

    def _run_block(self, patterns: PatternSet, size: int, index: int):
        """One fault-simulated block, with chaos seam and degradation."""
        try:
            chaos_point("sampling.block", block=index, backend=self.backend_name)
            return self.simulator.run(
                patterns, block_size=size, drop_detected=False
            )
        except Exception as error:
            self._degrade_or_raise(error, index)
            chaos_point("sampling.block", block=index, backend=self.backend_name)
            return self.simulator.run(
                patterns, block_size=size, drop_detected=False
            )

    def _degrade_or_raise(self, error: Exception, index: int) -> None:
        """Fall back to the python engine, or surface a BackendFailure.

        Degradation requires an enabled fallback and a backend that is
        not already the pure-python engine; the failed block is then
        re-run on ``"python"`` — bit-identical counts by the parity
        contract, so a degraded run continues the *same* statistical
        stream.
        """
        can_fall_back = self.fallback and self.backend.name != "python"
        if not can_fall_back:
            raise BackendFailure(
                f"evaluation backend {self.backend_name!r} failed at "
                f"block {index}: {type(error).__name__}: {error}"
            ) from error
        from repro.backends import get_backend

        self.degraded.append({
            "block": index,
            "backend": self.backend.name,
            "error": f"{type(error).__name__}: {error}",
        })
        self.backend = get_backend("python")
        self._simulator = None      # rebuilt lazily on the fallback engine

    def _detection_sample(
        self,
        counts: Dict[Fault, int],
        first: Dict[Fault, Optional[int]],
        n_total: int,
        max_halfwidth: float,
        history: List[Tuple[int, float]],
    ) -> DetectionSample:
        """Materialize the accumulated counts as a :class:`DetectionSample`."""
        detected = sum(1 for f in self.faults if first[f] is not None)
        n_graded = len(self.faults)
        if n_graded < len(self.fault_universe):
            # Subsample: the interval bounds the universe-wide coverage
            # over the fault-sampling randomness.
            coverage = self._interval(detected, n_graded)
        else:
            # Full universe: the proportion is exact for this pattern
            # set — no fault-sampling randomness to bound.
            coverage = IntervalEstimate(
                estimate=detected / n_graded,
                low=detected / n_graded,
                high=detected / n_graded,
                n_samples=n_graded,
                successes=detected,
                confidence=self.plan.confidence_level,
                method="exact",
            )
        return DetectionSample(
            intervals={
                fault: self._interval(count, n_total)
                for fault, count in counts.items()
            },
            coverage=coverage,
            n_patterns=n_total,
            converged=max_halfwidth <= self.plan.target_halfwidth,
            max_halfwidth=max_halfwidth,
            n_universe=len(self.fault_universe),
            history=list(history),
            first_detect=dict(first),
        )

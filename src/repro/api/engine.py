"""The cached analysis engine — one circuit, one config, memoized stages.

The paper's tool is a pipeline: signal probabilities → detection
probabilities → test length → optimized input probabilities → pattern
generation → fault simulation.  The engine owns the circuit and a
:class:`~repro.api.config.ProtestConfig` and memoizes each intermediate
artifact (topology, signal probabilities, observabilities, detection
probabilities) keyed by the normalized input-probability tuple, so a chain
like ::

    engine.analyze()          # estimates once
    engine.test_length(0.98)  # cache hit
    engine.expected_coverage(500)  # cache hit

runs every estimation stage exactly once.  ``cache_info()`` exposes the
hit/miss counters the tests assert on.
"""

from __future__ import annotations

import contextlib
import threading
import time
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

from repro.api.config import ProtestConfig
from repro.api.results import (
    CrossValidationResult,
    DetectionResult,
    IntervalEstimate,
    Provenance,
    SampledReport,
    SignalProbResult,
    SimulationResult,
    TestabilityReport,
    TestLengthResult,
)
from repro.circuit.netlist import Circuit
from repro.circuit.topology import Topology
from repro.detection.estimator import DetectionProbabilityEstimator
from repro.errors import EstimationError
from repro.faults.model import Fault, fault_universe
from repro.faults.simulator import FaultSimResult, FaultSimulator
from repro.kernel import CompiledCircuit, compile_circuit
from repro.logicsim.patterns import PatternSet
from repro.optimize.hillclimb import (
    OptimizationResult,
    optimize_input_probabilities,
)
from repro.probability.estimator import (
    SignalProbabilities,
    input_probs_key,
)
from repro.sampling.montecarlo import (
    DetectionSample,
    MonteCarloEstimator,
    SamplingState,
    SignalSample,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import (
    PhaseProfiler,
    active_profiler,
    peak_rss_bytes,
    phase_if_active,
)
from repro.telemetry.tracing import span
from repro.testlen.length import expected_coverage as _expected_coverage
from repro.testlen.length import required_test_length

__all__ = ["AnalysisEngine", "DEFAULT_CROSS_VALIDATION_TOLERANCE"]

#: Coverage-curve checkpoints recorded by :meth:`AnalysisEngine.fault_simulate`.
_CURVE_CHECKPOINTS = (10, 100, 1000, 10_000, 100_000)

#: Memoized pipeline stages, in order — the keys of ``cache_info()``.
_STAGES = (
    "signal", "observability", "detection", "sampling", "signal_sampling",
)

#: Default ``cross_validate`` tolerance.  The analytic estimator is a
#: heuristic with a documented error envelope: the paper's own Table 1
#: reports max detection-probability errors of 0.15 (ALU) and 0.48
#: (MULT), and this reproduction measures excesses up to ~0.60 on the
#: bundled circuits (comp_tree; see BENCH_perf.json "sampling").  The
#: default sits that envelope plus a few interval-halfwidths of seed
#: headroom above it, so a flag means disagreement *beyond* known model
#: error.  Note the structural limit: a per-fault excess over [0, 1]
#: cannot exceed ``max(low, 1 - high)``, so at this tolerance a flag
#: can only fire on extreme-probability faults — the per-fault flag
#: catches backends that break easy/hard faults wholesale, while
#: ``CrossValidationResult.mean_excess`` (gated by
#: ``benchmarks/bench_sampling.py``) and the tree-circuit strict check
#: (``tolerance=0.0``, exact where the estimator has no reconvergence
#: error) cover mid-range breakage.  ``strict_agreement`` always
#: reports the raw containment fraction.
DEFAULT_CROSS_VALIDATION_TOLERANCE = 0.7


class AnalysisEngine:
    """Probabilistic testability analysis with memoized pipeline stages.

    Parameters
    ----------
    circuit:
        A :class:`~repro.circuit.netlist.Circuit`, the name of a
        registered evaluation circuit (``"alu"``, ``"c17"``, ...), or a
        netlist file path (``.bench`` / ``.v`` / ``.sdl``, dispatched
        through :mod:`repro.circuit.io`; sequential ``.bench`` inputs
        are combinationally extracted).  Path strings also work as
        :func:`~repro.api.sweep.run_sweep` cells — they serialize to
        pool workers as plain strings.
    config:
        A :class:`ProtestConfig`, a preset name (``"paper"``, ``"fast"``,
        ``"accurate"``), or ``None`` for the paper preset.
    faults:
        Optional explicit fault list; defaults to the config-shaped
        uncollapsed stuck-at universe.
    use_kernel:
        When true (the default) the simulation and sampling stages run
        on the shared compiled flat-array kernel (:mod:`repro.kernel`)
        through the evaluation backend selected by ``config.backend``
        (:mod:`repro.backends`; ``"auto"`` picks the numpy word engine
        for large circuits when numpy is importable).  ``False`` selects
        the legacy simulation interpreters — the bit-identical parity
        reference.  The analytic stages always run the compiled
        estimator.
    registry:
        Optional shared :class:`~repro.telemetry.metrics.MetricsRegistry`
        for the stage counters (the service's job manager passes its
        own); defaults to a private per-engine registry.
    profile:
        When true, attach a
        :class:`~repro.telemetry.profiling.PhaseProfiler` that every
        computed stage activates — stage spans, backend word calls,
        estimator sub-phases and kernel level/opcode bins aggregate
        into :meth:`profile_report`.  Subject to the telemetry
        kill-switch (``PROTEST_TELEMETRY=0`` keeps the hot paths on
        their unprofiled no-op branch).

    Thread safety
    -------------
    One engine may be shared between threads: every stage cache (and its
    run/hit counters) is guarded by a single reentrant lock, held for
    the whole of a stage computation.  The lock is deliberately coarse —
    concurrent callers asking for the same uncached stage serialize and
    the second one takes a cache hit, so each stage still runs *exactly
    once* per input tuple and ``cache_info()`` counters stay consistent
    under contention (the property the service job engine and its
    stress test rely on).
    """

    def __init__(
        self,
        circuit: "Circuit | str",
        config: "ProtestConfig | str | None" = None,
        faults: "Iterable[Fault] | None" = None,
        use_kernel: bool = True,
        registry: "MetricsRegistry | None" = None,
        profile: bool = False,
    ) -> None:
        if isinstance(circuit, str):
            from repro.circuit.io import is_netlist_path, load_netlist

            if is_netlist_path(circuit):
                circuit = load_netlist(circuit)
            else:
                from repro.circuits.library import build

                circuit = build(circuit)
        self.circuit = circuit
        self.use_kernel = use_kernel
        self.config = ProtestConfig.coerce(config)
        # Guards every stage cache, the counters, and the lazily built
        # structure (topology, detector, sampler) — see "Thread safety".
        self._lock = threading.RLock()
        self._backend = None
        if use_kernel:
            # Fail fast on an unknown or unavailable backend name even
            # though analytic stages never dispatch through it — a typo
            # or a missing optional dependency must not silently run.
            _ = self.backend
        self._explicit_faults = list(faults) if faults is not None else None
        self._topology: "Topology | None" = None
        self._faults: "List[Fault] | None" = None
        self._detector: "DetectionProbabilityEstimator | None" = None
        # Stage caches, keyed by the normalized input-probability tuple.
        self._signal_cache: Dict[Tuple[float, ...], SignalProbabilities] = {}
        self._obs_cache: Dict[Tuple[float, ...], object] = {}
        self._detection_cache: Dict[Tuple[float, ...], Dict[Fault, float]] = {}
        self._sampler: "MonteCarloEstimator | None" = None
        self._sample_cache: Dict[Tuple[float, ...], DetectionSample] = {}
        self._signal_sample_cache: Dict[Tuple[float, ...], SignalSample] = {}
        # Analytic detection over the sampler's stratified subsample
        # (kept apart from the full-universe detection cache).
        self._subset_detection_cache: Dict[
            Tuple[float, ...], Dict[Fault, float]
        ] = {}
        # Stage run/hit counters and latencies live in a per-engine
        # telemetry registry: ``cache_info()`` reads it back, and the
        # process-wide /metrics merge picks it up through the registry
        # weak set (see repro.telemetry.metrics).  A private registry
        # dies with the engine, so long-lived owners (the service's
        # JobManager) pass their own to keep stage series scrapeable
        # after the per-job engine is gone — at the cost of cache_info
        # counters then being cumulative across engines.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._stage_events = self.metrics.counter(
            "protest_engine_stage_events_total",
            "Engine stage executions (event=run) and cache hits (event=hit)",
            ("stage", "event"),
        )
        self._stage_seconds = self.metrics.histogram(
            "protest_engine_stage_seconds",
            "Wall-clock seconds per computed (non-cached) engine stage",
            ("stage",),
        )
        self._stage_rss = self.metrics.gauge(
            "protest_stage_peak_rss_bytes",
            "Process peak RSS observed right after each computed stage",
            ("stage",),
        )
        self._cone_elems = self.metrics.gauge(
            "protest_cone_cache_resident_elems",
            "Elements resident across the kernel's cone caches "
            "(bounded by cone_cache_budget)",
        )
        self._cone_evictions = self.metrics.gauge(
            "protest_cone_cache_evictions",
            "Cone slices evicted from the kernel's bounded cone caches",
        )
        # Opt-in phase profiler (see repro.telemetry.profiling): every
        # computed stage activates it, so stage spans, backend word
        # calls, estimator sub-phases and kernel level/opcode bins all
        # aggregate here.  ``profile_report()`` renders the payload.
        self.profiler: "PhaseProfiler | None" = (
            PhaseProfiler() if profile else None
        )

    # -- lazily built structure ---------------------------------------------------

    @property
    def topology(self) -> Topology:
        with self._lock:
            if self._topology is None:
                self._topology = Topology(self.circuit)
            return self._topology

    @property
    def backend(self):
        """The nominally resolved evaluation backend (``None`` off-kernel).

        ``config.backend`` resolved for this circuit with no workload
        hint — ``"auto"`` picks by circuit size and numpy availability.
        Workload-shaped stages re-resolve with their block size
        (``"auto"`` only selects the numpy word engine for blocks wide
        enough to amortize it); the name that *actually ran* is
        recorded per result in ``provenance.backend``.
        """
        if not self.use_kernel:
            return None
        with self._lock:
            if self._backend is None:
                from repro.backends import resolve_backend

                self._backend = resolve_backend(
                    self.config.backend, self.circuit
                )
            return self._backend

    def _block_backend(self, block_size: int):
        """``config.backend`` resolved for a concrete block width."""
        if not self.use_kernel:
            return None
        from repro.backends import resolve_backend

        return resolve_backend(
            self.config.backend, self.circuit, block_bits=block_size
        )

    @property
    def backend_name(self) -> str:
        """The resolved backend's registry name (``"legacy"`` off-kernel)."""
        backend = self.backend
        return backend.name if backend is not None else "legacy"

    @property
    def compiled(self) -> CompiledCircuit:
        """The circuit's compiled flat-array form (one per circuit).

        All stages — simulation, fault simulation, the estimator's
        conditional cones — share this artifact via the module-level
        compile cache (keyed by circuit *and* backend identity), so it
        is built exactly once per (circuit, backend) pair.
        """
        return compile_circuit(self.circuit, self.backend)

    @property
    def faults(self) -> List[Fault]:
        with self._lock:
            if self._faults is None:
                if self._explicit_faults is not None:
                    self._faults = self._explicit_faults
                else:
                    self._faults = fault_universe(
                        self.circuit,
                        include_branches=self.config.include_branches,
                        only_fanout_stems=self.config.only_fanout_stems,
                    )
            return self._faults

    @property
    def detector(self) -> DetectionProbabilityEstimator:
        with self._lock:
            if self._detector is None:
                # Built inside the first stage that needs it; the phase
                # keeps the one-off structure build out of that stage's
                # self time under --profile.
                with phase_if_active("estimator.setup"):
                    self._detector = DetectionProbabilityEstimator(
                        self.circuit,
                        self.config.estimator_params(),
                        self.config.stem_model,
                        self.config.pin_model,
                        self.topology,
                    )
            return self._detector

    @property
    def sampler(self) -> MonteCarloEstimator:
        """The Monte-Carlo grader configured by this engine's config."""
        with self._lock:
            if self._sampler is None:
                # The sampler gets the config *spec*, not the nominal
                # instance: it resolves "auto" against its own block size.
                self._sampler = MonteCarloEstimator(
                    self.circuit,
                    self.faults,
                    self.config.sampling_plan(),
                    use_kernel=self.use_kernel,
                    backend=self.config.backend if self.use_kernel else None,
                )
            return self._sampler

    # -- cache plumbing -----------------------------------------------------------

    def _stage_hit(self, stage: str) -> None:
        self._stage_events.labels(stage=stage, event="hit").inc()

    def _stage_run(self, stage: str, seconds: float) -> None:
        self._stage_events.labels(stage=stage, event="run").inc()
        self._stage_seconds.labels(stage=stage).observe(seconds)
        # Memory accounting per computed stage: the process peak RSS
        # high-water mark and the kernel cone-cache occupancy, both as
        # gauges so /metrics and /stats track them between scrapes.
        rss = peak_rss_bytes()
        if rss:
            self._stage_rss.labels(stage=stage).set(rss)
        # An engine-owned profiler or one activated by the caller (the
        # CLI's --profile) both collect the memory section.
        profiler = self.profiler or active_profiler()
        cone = None
        if self.use_kernel:
            cone = self.cone_cache_info()
            self._cone_elems.set(cone["resident_elems"])
            self._cone_evictions.set(cone["evictions"])
        if profiler is not None:
            if rss:
                profiler.record_memory(f"peak_rss_bytes.{stage}", rss)
            if cone is not None:
                profiler.record_memory("cone_cache", cone)

    def cone_cache_info(self) -> Dict[str, int]:
        """Kernel cone-cache counters, summed across the circuit's live
        compiled artifacts (the analytic and word-backend compiles are
        distinct artifacts with distinct caches)."""
        from repro.kernel import compiled_artifacts

        totals = {"hits": 0, "misses": 0, "evictions": 0,
                  "resident_elems": 0, "resident_slices": 0,
                  "budget_elems": CompiledCircuit.cone_cache_budget}
        for artifact in compiled_artifacts(self.circuit):
            info = artifact.cache_info()
            for key in ("hits", "misses", "evictions", "resident_elems",
                        "resident_slices"):
                totals[key] += info[key]
        return totals

    @contextlib.contextmanager
    def _profiled(self):
        """Activate the engine's profiler (no-op without ``profile=True``)."""
        if self.profiler is None:
            yield
            return
        with self.profiler.activate():
            yield

    def profile_report(self) -> "Dict[str, object] | None":
        """The phase-profile payload, or ``None`` off ``profile=True``.

        Includes the self/cumulative phase table, collapsed-stack
        (flamegraph) lines, and the memory section (per-stage peak RSS,
        cone-cache occupancy).  Stages served from the engine's caches
        contribute nothing — the profile shows computed work only.
        """
        if self.profiler is None:
            return None
        if self.use_kernel:
            self.profiler.record_memory("cone_cache", self.cone_cache_info())
        return self.profiler.to_payload()

    def cache_info(self) -> Dict[str, object]:
        """Per-stage run/hit counters, cache sizes and the active backend.

        Read back from the engine's telemetry registry — the same series
        ``GET /metrics`` exposes as ``protest_engine_stage_events_total``.
        """
        info: Dict[str, object] = {}
        for stage in _STAGES:
            info[f"{stage}_runs"] = int(
                self._stage_events.value(stage=stage, event="run")
            )
            info[f"{stage}_hits"] = int(
                self._stage_events.value(stage=stage, event="hit")
            )
        with self._lock:
            info["cached_input_tuples"] = len(self._signal_cache)
        info["backend"] = self.backend_name
        info["peak_rss_bytes"] = peak_rss_bytes()
        if self.use_kernel:
            info["cone_cache"] = self.cone_cache_info()
        return info

    def clear_cache(self) -> None:
        with self._lock:
            self._signal_cache.clear()
            self._obs_cache.clear()
            self._detection_cache.clear()
            self._sample_cache.clear()
            self._signal_sample_cache.clear()
            self._subset_detection_cache.clear()

    def _key(
        self, input_probs: "float | Mapping[str, float] | None"
    ) -> Tuple[float, ...]:
        return input_probs_key(self.circuit.inputs, input_probs)

    def _signal_for(
        self, key: Tuple[float, ...]
    ) -> "tuple[SignalProbabilities, float, bool]":
        with self._lock:
            cached = self._signal_cache.get(key)
            if cached is not None:
                self._stage_hit("signal")
                return cached, 0.0, True
            probs = dict(zip(self.circuit.inputs, key))
            with self._profiled(), span(
                "engine.signal", circuit=self.circuit.name
            ) as stage:
                result = self.detector.signal_estimator.run(probs)
            self._signal_cache[key] = result
            self._stage_run("signal", stage.duration)
            return result, stage.duration, False

    def _stages_for(self, key: Tuple[float, ...]):
        """Signal probabilities + observabilities, memoized per key."""
        with self._lock:
            timings: Dict[str, float] = {}
            cached: List[str] = []
            signal, t_signal, signal_hit = self._signal_for(key)
            timings["signal"] = t_signal
            if signal_hit:
                cached.append("signal")
            obs = self._obs_cache.get(key)
            if obs is not None:
                self._stage_hit("observability")
                timings["observability"] = 0.0
                cached.append("observability")
            else:
                with self._profiled(), span(
                    "engine.observability", circuit=self.circuit.name
                ) as stage:
                    obs = self.detector.observability_analyzer.run(signal)
                timings["observability"] = stage.duration
                self._obs_cache[key] = obs
                self._stage_run("observability", stage.duration)
            return signal, obs, timings, cached

    def _detection_for(self, key: Tuple[float, ...]):
        """Full-universe detection probabilities, memoized per key."""
        with self._lock:
            cached_det = self._detection_cache.get(key)
            if cached_det is not None:
                self._stage_hit("detection")
                return cached_det, {"detection": 0.0}, ["detection"]
            signal, obs, timings, cached = self._stages_for(key)
            with self._profiled(), span(
                "engine.detection", circuit=self.circuit.name
            ) as stage:
                detection = self.detector.run_with(signal, obs, self.faults)
            timings["detection"] = stage.duration
            self._detection_cache[key] = detection
            self._stage_run("detection", stage.duration)
            return detection, timings, cached

    def _sample_for(
        self,
        key: Tuple[float, ...],
        checkpoint: "Callable[[SampledReport], object] | None" = None,
        state_hook: "Callable[[SamplingState], object] | None" = None,
        resume: "SamplingState | None" = None,
    ):
        """Monte-Carlo detection sample, memoized per input tuple.

        The same stage-caching contract as the analytic stages: a chain
        of ``sampled_analyze()`` → ``sampled_detection_probabilities()``
        → ``cross_validate()`` on one input tuple simulates exactly once.

        ``checkpoint`` receives a partial :class:`SampledReport` after
        every sampled block (see
        :meth:`MonteCarloEstimator.sample_detection_probabilities`); it
        never fires on a cache hit — a memoized sample is already final.
        A checkpoint exception (cancellation, timeout) propagates and
        nothing is cached, so an aborted run can never serve a partial
        sample to later callers.  ``state_hook`` and ``resume`` follow
        the same rule: neither fires nor applies on a cache hit (the
        memoized sample already *is* the bit-identical final answer).
        """
        with self._lock:
            cached = self._sample_cache.get(key)
            if cached is not None:
                self._stage_hit("sampling")
                return cached, {"sampling": 0.0}, ["sampling"]
            start = time.perf_counter()
            probs = dict(zip(self.circuit.inputs, key))
            inner = None
            if checkpoint is not None:
                def inner(partial):
                    checkpoint(self._sampled_report(
                        partial,
                        {"sampling": time.perf_counter() - start},
                        [],
                    ))
            with self._profiled(), span(
                "engine.sampling", circuit=self.circuit.name
            ) as stage:
                sample = self.sampler.sample_detection_probabilities(
                    probs, checkpoint=inner, state_hook=state_hook,
                    resume=resume,
                )
                stage.set("backend", self.sampler.backend_name)
                stage.set("n_patterns", sample.n_patterns)
            self._sample_cache[key] = sample
            self._stage_run("sampling", stage.duration)
            return sample, {"sampling": stage.duration}, []

    def _provenance(
        self,
        timings: Dict[str, float],
        cached: Sequence[str],
        backend: "str | None" = None,
    ) -> Provenance:
        # Provenance records what actually ran.  Packed-pattern stages
        # (fault sim, sampling) pass their resolved backend; the
        # analytic fallback is the python kernel — the conditional-cone
        # evaluator is not backend-dispatched, so an analytic report
        # must not claim the engine's nominally resolved backend.
        if backend is None:
            backend = "python"
        return Provenance(
            circuit=self.circuit.name,
            config_hash=self.config.config_hash,
            config_name=self.config.name,
            timings=timings,
            cached=tuple(cached),
            backend=backend,
        )

    # -- estimation ---------------------------------------------------------------

    def signal_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> SignalProbResult:
        """Estimated 1-probability of every node (paper §2)."""
        key = self._key(input_probs)
        signal, elapsed, hit = self._signal_for(key)
        provenance = self._provenance(
            {"signal": elapsed}, ["signal"] if hit else []
        )
        return SignalProbResult(
            provenance=provenance,
            input_probs=dict(signal.input_probs),
            probabilities=signal.as_dict(),
            conditioned_gates=signal.conditioned_gates,
        )

    def raw_signal_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> SignalProbabilities:
        """The estimator-native mapping (for in-process composition)."""
        return self._signal_for(self._key(input_probs))[0]

    def detection_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        faults: "Iterable[Fault] | None" = None,
    ) -> DetectionResult:
        """Estimated detection probability of every fault (paper §3)."""
        key = self._key(input_probs)
        if faults is None:
            detection, timings, cached = self._detection_for(key)
        else:
            signal, obs, timings, cached = self._stages_for(key)
            detection = self.detector.run_with(signal, obs, faults)
        return DetectionResult(
            provenance=self._provenance(timings, cached),
            input_probs=dict(zip(self.circuit.inputs, key)),
            probabilities=dict(detection),
        )

    def raw_detection_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        faults: "Iterable[Fault] | None" = None,
    ) -> Dict[Fault, float]:
        """Detection probabilities as a plain ``{Fault: p}`` dict."""
        key = self._key(input_probs)
        if faults is None:
            detection, _, _ = self._detection_for(key)
            return dict(detection)  # copy: the cached dict stays pristine
        signal, obs, _, _ = self._stages_for(key)
        return self.detector.run_with(signal, obs, faults)

    # -- test lengths -----------------------------------------------------------------

    def test_length(
        self,
        confidence: float = 0.95,
        fraction: float = 1.0,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> TestLengthResult:
        """Patterns for the easiest ``fraction`` at ``confidence`` (formula (3)).

        ``n_patterns`` is ``None`` when the kept fault set contains an
        undetectable fault (no finite test reaches the confidence) or the
        length overflows the search bound.
        """
        if not 0.0 < confidence < 1.0:
            raise EstimationError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if not 0.0 < fraction <= 1.0:
            raise EstimationError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        detection, timings, cached = self._detection_for(
            self._key(input_probs)
        )
        values = list(detection.values())
        lengths = self._test_lengths(
            values, (confidence,), (fraction,), timings
        )
        return TestLengthResult(
            provenance=self._provenance(timings, cached),
            confidence=confidence,
            fraction=fraction,
            n_patterns=lengths[(fraction, confidence)],
            n_faults=len(values),
        )

    def _test_lengths(
        self,
        values: Sequence[float],
        confidences: Sequence[float],
        fractions: Sequence[float],
        timings: Dict[str, float],
    ) -> Dict[Tuple[float, float], Optional[int]]:
        """Formula (3) per (fraction, confidence); ``None`` if unreachable.

        Records the stage as ``timings["testlen"]`` and an
        ``engine.testlen`` span / profiler phase.
        """
        lengths: Dict[Tuple[float, float], Optional[int]] = {}
        with self._profiled(), span(
            "engine.testlen", circuit=self.circuit.name
        ) as stage:
            for fraction in fractions:
                for confidence in confidences:
                    try:
                        n: "int | None" = required_test_length(
                            values, confidence, fraction
                        )
                    except EstimationError:
                        n = None
                    lengths[(fraction, confidence)] = n
        timings["testlen"] = stage.duration
        return lengths

    def expected_coverage(
        self,
        n_patterns: int,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> float:
        """Predicted fault coverage after ``n_patterns`` random patterns."""
        detection, _, _ = self._detection_for(self._key(input_probs))
        return _expected_coverage(list(detection.values()), n_patterns)

    # -- optimization -----------------------------------------------------------------

    def optimize(
        self,
        n_ref: int = 4096,
        grid: int = 16,
        max_rounds: int = 10,
        start: "float | Mapping[str, float] | None" = None,
        faults: "Iterable[Fault] | None" = None,
        **kwargs,
    ) -> OptimizationResult:
        """Optimize the input probabilities (paper §6, Table 4)."""
        kwargs.setdefault("seed", self.config.seed)
        return optimize_input_probabilities(
            self.circuit,
            n_ref=n_ref,
            grid=grid,
            max_rounds=max_rounds,
            start=start,
            params=self.config.estimator_params(),
            stem_model=self.config.stem_model,
            pin_model=self.config.pin_model,
            faults=faults if faults is not None else self.faults,
            **kwargs,
        )

    # -- patterns and simulation --------------------------------------------------------

    def generate_patterns(
        self,
        n_patterns: int,
        input_probs: "float | Mapping[str, float] | None" = None,
        seed: "int | None" = None,
    ) -> PatternSet:
        """Random pattern set realizing the given input probabilities."""
        if seed is None:
            seed = self.config.seed
        return PatternSet.random(
            self.circuit.inputs, n_patterns, input_probs, seed
        )

    def fault_simulate(
        self,
        patterns: PatternSet,
        faults: "Iterable[Fault] | None" = None,
        drop_detected: bool = True,
        block_size: int = 1024,
    ) -> SimulationResult:
        """Static fault simulation of a pattern set (paper §7)."""
        start = time.perf_counter()
        raw = self.raw_fault_simulate(
            patterns, faults, drop_detected=drop_detected,
            block_size=block_size,
        )
        elapsed = time.perf_counter() - start
        n = patterns.n_patterns
        checkpoints = [c for c in _CURVE_CHECKPOINTS if c < n] + [n]
        detected = sum(1 for r in raw.records.values() if r.detected)
        backend = self._block_backend(block_size)
        return SimulationResult(
            provenance=self._provenance(
                {"simulation": elapsed}, [],
                backend=backend.name if backend is not None else "legacy",
            ),
            n_patterns=n,
            n_faults=len(raw.records),
            n_detected=detected,
            coverage=raw.coverage(),
            curve={c: raw.coverage_at(c) for c in checkpoints},
            raw=raw,
        )

    def raw_fault_simulate(
        self,
        patterns: PatternSet,
        faults: "Iterable[Fault] | None" = None,
        drop_detected: bool = True,
        block_size: int = 1024,
    ) -> FaultSimResult:
        """The simulator-native result (for in-process composition)."""
        fault_list = list(faults) if faults is not None else self.faults
        simulator = FaultSimulator(
            self.circuit,
            fault_list,
            use_kernel=self.use_kernel,
            topology=self._topology,
            backend=self._block_backend(block_size),
        )
        with self._profiled():
            return simulator.run(
                patterns, block_size=block_size, drop_detected=drop_detected
            )

    # -- reporting --------------------------------------------------------------------

    def analyze(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        confidences: Sequence[float] = (0.95, 0.98, 0.999),
        fractions: Sequence[float] = (1.0, 0.98),
        hardest: int = 5,
    ) -> TestabilityReport:
        """One-shot analysis: detection probabilities plus test lengths.

        Unreachable requirements (undetectable faults in the kept set) are
        recorded as ``None`` in ``test_lengths``.
        """
        key = self._key(input_probs)
        detection, timings, cached = self._detection_for(key)
        ranked = sorted(detection.items(), key=lambda item: item[1])
        values = sorted(detection.values())
        lengths = self._test_lengths(values, confidences, fractions, timings)
        return TestabilityReport(
            circuit_name=self.circuit.name,
            n_faults=len(detection),
            min_detection=values[0] if values else 0.0,
            median_detection=values[len(values) // 2] if values else 0.0,
            hardest_faults=ranked[:hardest],
            test_lengths=lengths,
            provenance=self._provenance(timings, cached),
        )

    # -- Monte-Carlo grading ------------------------------------------------------

    def _sampled_report(
        self,
        sample: DetectionSample,
        timings: Dict[str, float],
        cached: Sequence[str],
        test_lengths: "Dict[Tuple[float, float], Optional[int]] | None" = None,
    ) -> SampledReport:
        config = self.config
        return SampledReport(
            circuit_name=self.circuit.name,
            n_patterns=sample.n_patterns,
            n_faults=len(sample.intervals),
            n_universe=sample.n_universe,
            converged=sample.converged,
            max_halfwidth=sample.max_halfwidth,
            target_halfwidth=config.target_halfwidth,
            confidence_level=config.confidence_level,
            interval_method=config.interval_method,
            seed=config.seed,
            detection=dict(sample.intervals),
            coverage=sample.coverage,
            test_lengths=dict(test_lengths) if test_lengths else {},
            convergence=list(sample.history),
            provenance=self._provenance(
                timings, cached, backend=self.sampler.backend_name
            ),
        )

    def sampled_detection_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        checkpoint: "Callable[[SampledReport], object] | None" = None,
        state_hook: "Callable[[SamplingState], object] | None" = None,
        resume: "SamplingState | None" = None,
    ) -> SampledReport:
        """Monte-Carlo graded detection probabilities, with intervals.

        The statistical counterpart of
        :meth:`detection_probabilities`: every fault's detection
        probability is sampled on the compiled kernel until the
        sequential stopping rule (``config.target_halfwidth`` /
        ``config.max_patterns``) is satisfied.

        ``checkpoint`` receives a partial :class:`SampledReport` after
        every sampled block — successive snapshots carry non-increasing
        ``max_halfwidth``, which is what lets the analysis service
        stream progressively tightening intervals.  It never fires when
        the sample is served from the stage cache, and an exception it
        raises aborts the run without caching (see :meth:`_sample_for`).

        ``state_hook`` and ``resume`` expose the estimator's
        checkpoint/resume seam (see
        :meth:`MonteCarloEstimator.sample_detection_probabilities`):
        the hook receives the raw
        :class:`~repro.sampling.montecarlo.SamplingState` per block, and
        ``resume`` continues an interrupted run seed-exactly.
        """
        sample, timings, cached = self._sample_for(
            self._key(input_probs), checkpoint,
            state_hook=state_hook, resume=resume,
        )
        return self._sampled_report(sample, timings, cached)

    def raw_sampled_detection_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> Dict[Fault, IntervalEstimate]:
        """Sampled intervals as a plain ``{Fault: IntervalEstimate}`` dict."""
        sample, _, _ = self._sample_for(self._key(input_probs))
        return dict(sample.intervals)

    def sampled_signal_probabilities(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> Dict[str, IntervalEstimate]:
        """Monte-Carlo graded signal probabilities (one interval per node).

        Memoized per input tuple like every other stage; the
        ``signal_sampling_runs`` / ``signal_sampling_hits`` counters in
        :meth:`cache_info` track it.
        """
        key = self._key(input_probs)
        with self._lock:
            cached = self._signal_sample_cache.get(key)
            if cached is None:
                probs = dict(zip(self.circuit.inputs, key))
                with self._profiled(), span(
                    "engine.signal_sampling", circuit=self.circuit.name
                ) as stage:
                    cached = self.sampler.sample_signal_probabilities(probs)
                self._signal_sample_cache[key] = cached
                self._stage_run("signal_sampling", stage.duration)
            else:
                self._stage_hit("signal_sampling")
            return dict(cached.intervals)

    def sampled_analyze(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        confidences: Sequence[float] = (0.95, 0.98, 0.999),
        fractions: Sequence[float] = (1.0, 0.98),
        checkpoint: "Callable[[SampledReport], object] | None" = None,
        state_hook: "Callable[[SamplingState], object] | None" = None,
        resume: "SamplingState | None" = None,
    ) -> SampledReport:
        """One-shot Monte-Carlo analysis (the sampled :meth:`analyze`).

        Test lengths are derived from the sampled *point estimates*; a
        kept fault that was never detected in the sample makes the
        requirement unreachable (``None``), exactly like an undetectable
        fault does on the analytic path.  ``checkpoint`` streams partial
        reports per sampled block (see
        :meth:`sampled_detection_probabilities`); snapshots carry no
        test lengths — those are derived once, from the final sample.
        ``state_hook``/``resume`` expose the estimator's
        checkpoint/resume seam, as in
        :meth:`sampled_detection_probabilities`.
        """
        sample, timings, cached = self._sample_for(
            self._key(input_probs), checkpoint,
            state_hook=state_hook, resume=resume,
        )
        values = sorted(iv.estimate for iv in sample.intervals.values())
        lengths = self._test_lengths(values, confidences, fractions, timings)
        return self._sampled_report(sample, timings, cached, lengths)

    def cross_validate(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
        tolerance: float = DEFAULT_CROSS_VALIDATION_TOLERANCE,
    ) -> CrossValidationResult:
        """Check the analytic estimates against the sampled intervals.

        Runs both pipelines (each memoized per input tuple) and flags
        every fault whose analytic detection probability falls outside
        its sampled interval widened by ``tolerance``.  With the default
        tolerance — sized to the estimator's documented error envelope
        (see :data:`DEFAULT_CROSS_VALIDATION_TOLERANCE`) — a flag means
        an implementation bug, which makes this the permanent
        correctness oracle for alternative kernel backends.
        ``strict_agreement`` additionally records the fraction of
        analytic estimates inside the raw interval.
        """
        if tolerance < 0.0:
            raise EstimationError(
                f"tolerance must be non-negative, got {tolerance}"
            )
        key = self._key(input_probs)
        sample, s_timings, s_cached = self._sample_for(key)
        if len(self.sampler.faults) < len(self.faults):
            detection, det_timings, det_cached = self._subset_detection_for(
                key
            )
        else:
            detection, det_timings, det_cached = self._detection_for(key)
        timings = dict(det_timings)
        timings.update(s_timings)
        cached = list(det_cached) + list(s_cached)
        flagged = []
        inside = 0
        max_excess = 0.0
        total_excess = 0.0
        checked = 0
        for fault, interval in sample.intervals.items():
            analytic = detection[fault]
            checked += 1
            excess = interval.excess(analytic)
            max_excess = max(max_excess, excess)
            total_excess += excess
            if excess == 0.0:
                inside += 1
            if excess > tolerance:
                flagged.append((fault, analytic, interval))
        flagged.sort(key=lambda item: -item[2].excess(item[1]))
        return CrossValidationResult(
            circuit_name=self.circuit.name,
            n_checked=checked,
            tolerance=tolerance,
            confidence_level=self.config.confidence_level,
            n_patterns=sample.n_patterns,
            strict_agreement=inside / checked if checked else 1.0,
            max_excess=max_excess,
            mean_excess=total_excess / checked if checked else 0.0,
            flagged=flagged,
            provenance=self._provenance(
                timings, cached, backend=self.sampler.backend_name
            ),
        )

    def _subset_detection_for(self, key: Tuple[float, ...]):
        """Analytic detection over the sampler's stratified subsample.

        Grades only the faults the sampler graded — instead of paying
        for the full universe the subsample was configured to avoid —
        and memoizes per input tuple under the shared detection
        counters.
        """
        with self._lock:
            cached_det = self._subset_detection_cache.get(key)
            if cached_det is not None:
                self._stage_hit("detection")
                return cached_det, {"detection": 0.0}, ["detection"]
            signal, obs, timings, cached = self._stages_for(key)
            with self._profiled(), span(
                "engine.detection", circuit=self.circuit.name, subset=True
            ) as stage:
                detection = self.detector.run_with(
                    signal, obs, self.sampler.faults
                )
            timings["detection"] = stage.duration
            self._subset_detection_cache[key] = detection
            self._stage_run("detection", stage.duration)
            return detection, timings, cached

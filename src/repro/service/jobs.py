"""The job engine: queued analyses on a bounded worker pool.

A :class:`JobManager` owns a priority queue of :class:`Job` records and
``workers`` daemon threads that execute them on the existing analysis
machinery — :class:`~repro.api.engine.AnalysisEngine` for single-circuit
jobs, :func:`~repro.api.sweep.run_sweep` for batch jobs — sharing one
:class:`~repro.service.cache.ArtifactCache` so repeated payloads reuse
interned circuits (and therefore compiled kernels) and finished report
payloads.

Lifecycle::

    queued -> running -> done
                      -> failed     (structured {"type", "message",
                                     "transient", "attempts", "cause"})
                      -> cancelled  (client DELETE, or revoked while queued)
                      -> queued     (transient failure, retried with backoff)

Sampled jobs additionally publish **progressive snapshots**: the
engine's per-block checkpoint (see
:meth:`AnalysisEngine.sampled_analyze`) appends a summary row per
sampled block and keeps the latest full partial
:class:`~repro.api.results.SampledReport` payload, so clients polling
``GET /jobs/<id>`` watch ``max_halfwidth`` shrink monotonically while
the job runs.  The same checkpoint enforces cancellation and the
per-job wall-clock budget (:class:`~repro.errors.JobCancelled` /
:class:`~repro.errors.JobTimeout` abort the sampling loop between
blocks); analytic stages are not preemptible mid-stage, so for them
both are best-effort boundaries (checked before the stage runs, and
between sweep cells).

Fault tolerance (:mod:`repro.resilience`):

* **Retries** — a job failing with a *transient* error (a worker crash,
  a broken executor, an injected transient fault) goes back to the
  queue with exponential backoff + deterministic jitter, up to the
  :class:`~repro.resilience.policy.RetryPolicy` budget; every attempt
  is logged on the job.  Permanent errors (a parse error, a timeout, an
  estimation failure) fail immediately with the structured payload.
* **Worker crash detection** — each worker thread runs under a watchdog
  (:meth:`JobManager._worker_main`): a ``BaseException`` unwinding the
  loop (a :class:`~repro.resilience.chaos.ChaosKill`, a real thread
  death) replenishes the pool slot with a fresh thread and routes the
  orphaned job through the retry path as
  :class:`~repro.errors.WorkerCrashed`.
* **Checkpoint/resume** — sampled jobs persist their
  :class:`~repro.sampling.montecarlo.SamplingState` to the
  :class:`~repro.resilience.journal.JobJournal` once per block, keyed
  by the same content identity as the artifact cache.  A retried,
  resubmitted, or restarted (``--journal``) job resumes seed-exactly
  from the last completed block — the final report is bit-identical to
  an uninterrupted run.
* **Admission control** — with ``max_queue`` set, a submit that finds
  the queue full raises :class:`~repro.errors.QueueFull` (HTTP 429 +
  ``Retry-After``) instead of accepting unbounded work.
* **Degradation accounting** — sampled jobs that fell back from a
  failing backend to the ``"python"`` engine mid-run are counted and
  surface in :meth:`health` as status ``"degraded"``; their provenance
  records the event as ``"<failed>->python"``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import os
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import __version__
from repro.api.config import ProtestConfig
from repro.api.engine import AnalysisEngine
from repro.api.sweep import run_sweep
from repro.circuit.io import parse_bench, parse_verilog
from repro.errors import (
    JobCancelled,
    JobTimeout,
    QueueFull,
    ReproError,
    ResilienceError,
    ServiceError,
    WorkerCrashed,
)
from repro.probability.estimator import input_probs_key
from repro.resilience.atomic import atomic_write
from repro.resilience.chaos import ChaosKill, chaos_point
from repro.resilience.journal import JobJournal
from repro.resilience.policy import RetryPolicy, error_payload
from repro.sampling.montecarlo import SamplingState
from repro.service.cache import ArtifactCache
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import peak_rss_bytes
from repro.telemetry.tracing import (
    SpanContext,
    current_context,
    export_chrome_trace,
    span,
    use_context,
)

__all__ = ["Job", "JobManager", "JOB_STATES"]

#: Every state a job can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")


class Job:
    """One queued analysis.  Mutable state is guarded by the manager lock."""

    def __init__(
        self,
        job_id: str,
        kind: str,
        payload: Dict[str, Any],
        config: ProtestConfig,
        input_probs,
        priority: int,
        timeout: Optional[float],
        profile: bool = False,
    ) -> None:
        self.id = job_id
        self.kind = kind                      # "analyze" | "sweep"
        self.payload = payload                # kind-specific request body
        self.config = config
        self.input_probs = input_probs
        self.priority = priority
        self.timeout = timeout
        #: Request a phase profile of this job's engine run; the payload
        #: (table + collapsed stacks + memory) lands in the job status.
        self.profile = profile
        self.profile_payload: Optional[Dict[str, Any]] = None
        self.state = "queued"
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.deadline: Optional[float] = None      # monotonic, set at start
        self.cancel_event = threading.Event()
        self.circuit_name: Optional[str] = payload.get("circuit")
        self.circuit_hash: Optional[str] = None
        self.from_cache = False
        self.circuit_interned = False
        self.error: Optional[Dict[str, Any]] = None
        # Span context captured at submission (the HTTP request's), and
        # the trace id the job actually ran under — set by the worker.
        self.trace: Optional[Dict[str, str]] = None
        self.trace_id: Optional[str] = None
        self.snapshots: List[Dict[str, Any]] = []
        self.latest_snapshot: Optional[Dict[str, Any]] = None
        self.result: Optional[Dict[str, Any]] = None
        # -- resilience bookkeeping -----------------------------------
        self.attempts = 0                     # executions started
        self.retries: List[Dict[str, Any]] = []   # one entry per retry
        self.resumed = False                  # continued from the journal
        self.degraded: Optional[str] = None   # "numpy->python" etc.

    # -- views (call under the manager lock) ---------------------------------

    def elapsed(self) -> float:
        if self.started is None:
            return 0.0
        end = self.finished if self.finished is not None else time.time()
        return end - self.started

    def status_dict(self) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` body: status plus the latest snapshot."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "circuit": self.circuit_name,
            "circuit_hash": self.circuit_hash,
            "config_name": self.config.name,
            "config_hash": self.config.config_hash,
            "method": self.config.method,
            "priority": self.priority,
            "timeout": self.timeout,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "elapsed": self.elapsed(),
            "from_cache": self.from_cache,
            "trace_id": self.trace_id,
            "error": self.error,
            "attempts": self.attempts,
            "retries": list(self.retries),
            "resumed": self.resumed,
            "degraded": self.degraded,
            "n_snapshots": len(self.snapshots),
            "snapshots": list(self.snapshots),
            "snapshot": self.latest_snapshot,
            "profile": self.profile_payload,
        }

    def summary_dict(self) -> Dict[str, Any]:
        """The ``GET /jobs`` row: status without snapshot payloads."""
        summary = self.status_dict()
        del summary["snapshots"]
        del summary["snapshot"]
        del summary["profile"]
        return summary


class JobManager:
    """Priority-ordered job queue on a bounded worker-thread pool.

    Parameters
    ----------
    workers:
        Worker-thread count.  Crashed workers are replenished, so the
        pool size is an invariant, not a best effort.
    cache:
        Shared :class:`ArtifactCache` (one is created when omitted).
    default_timeout:
        Per-attempt wall-clock budget applied to jobs submitted without
        their own ``timeout``.
    retry:
        The :class:`RetryPolicy` for transient failures; the default
        grants 3 attempts with exponential backoff.  ``max_attempts=1``
        disables retries.
    max_queue:
        Bound on the number of *queued* jobs; a submit beyond it raises
        :class:`~repro.errors.QueueFull` (mapped to HTTP 429).  ``None``
        (default) leaves admission unbounded.
    journal:
        The checkpoint :class:`JobJournal`.  Defaults to an in-memory
        journal (crash-retry resume within this manager); pass a
        file-backed one to survive service restarts.
    registry:
        The :class:`MetricsRegistry` carrying this manager's queue,
        retry and throughput series (one is created when omitted); an
        omitted ``cache`` shares it, so ``GET /metrics`` renders queue
        and cache series from one place.
    trace_dir:
        When set, every job that reaches a terminal state writes its
        trace as Chrome trace-event JSON to
        ``<trace_dir>/trace-<job_id>.json`` (``protest serve
        --trace-dir``).
    """

    def __init__(
        self,
        workers: int = 2,
        cache: "ArtifactCache | None" = None,
        default_timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        max_queue: "int | None" = None,
        journal: "JobJournal | None" = None,
        registry: "MetricsRegistry | None" = None,
        trace_dir: "str | None" = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be positive, got {workers}")
        if default_timeout is not None and default_timeout <= 0:
            raise ServiceError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        if max_queue is not None and max_queue < 1:
            raise ServiceError(
                f"max_queue must be positive or None, got {max_queue}"
            )
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.cache = (
            cache if cache is not None
            else ArtifactCache(registry=self.metrics)
        )
        self.default_timeout = default_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_queue = max_queue
        self.journal = journal if journal is not None else JobJournal()
        self.trace_dir = trace_dir
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        self.started = time.time()
        self._started_mono = time.monotonic()
        self._log = get_logger("service.jobs")
        # Reentrant: cancel()/shutdown() finish jobs while already
        # holding the lock; the worker loop finishes them without it.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue: List[Tuple[int, int, str]] = []   # (-priority, order, id)
        self._delayed: List[Tuple[float, int, str]] = []  # (ready, order, id)
        self._seq = itertools.count()
        self._order = itertools.count()       # heap tie-breaker stream
        self._jobs: Dict[str, Job] = {}
        self._stopping = False
        # The job each worker thread is executing, by thread ident —
        # what the crash watchdog consults to find the orphaned job.
        self._running: Dict[int, Job] = {}
        # Queue/retry/crash accounting and per-backend throughput live
        # in the telemetry registry; stats()/health() read them back and
        # GET /metrics renders them directly.
        self._submitted_total = self.metrics.counter(
            "protest_jobs_submitted_total", "Jobs accepted into the queue"
        )
        self._finished_total = self.metrics.counter(
            "protest_jobs_finished_total",
            "Jobs that reached a terminal state",
            ("state",),
        )
        self._retries_total = self.metrics.counter(
            "protest_job_retries_total",
            "Transient job failures sent back to the queue with backoff",
        )
        self._crashes_total = self.metrics.counter(
            "protest_worker_crashes_total",
            "Worker threads that died and were replenished",
        )
        self._resumes_total = self.metrics.counter(
            "protest_job_resumes_total",
            "Sampled jobs resumed from a journal checkpoint",
        )
        self._degraded_total = self.metrics.counter(
            "protest_degraded_jobs_total",
            "Jobs whose sampling fell back to the python engine mid-run",
        )
        self._rejected_total = self.metrics.counter(
            "protest_jobs_rejected_total",
            "Submissions rejected by admission control (queue full)",
        )
        self._queue_depth_gauge = self.metrics.gauge(
            "protest_job_queue_depth",
            "Jobs currently in state queued (including retry backoff)",
        )
        self._job_seconds = self.metrics.histogram(
            "protest_job_seconds",
            "Wall-clock seconds from job start to terminal state",
            ("kind",),
        )
        self._report_jobs = self.metrics.counter(
            "protest_job_reports_total",
            "Finished analyze reports per resolved backend",
            ("backend",),
        )
        self._report_patterns = self.metrics.counter(
            "protest_job_patterns_total",
            "Patterns behind finished reports per resolved backend",
            ("backend",),
        )
        self._report_seconds = self.metrics.counter(
            "protest_job_report_seconds_total",
            "Seconds behind finished reports per resolved backend",
            ("backend",),
        )
        self._workers = [
            threading.Thread(
                target=self._worker_main, args=(i,),
                name=f"protest-job-worker-{i}", daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        circuit: "str | None" = None,
        bench: "str | None" = None,
        verilog: "str | None" = None,
        sweep: "Mapping[str, Any] | None" = None,
        config: "ProtestConfig | str | Mapping[str, Any] | None" = None,
        input_probs=None,
        priority: int = 0,
        timeout: "float | None" = None,
        profile: bool = False,
    ) -> Job:
        """Enqueue a job and return its (queued) :class:`Job` record.

        Exactly one of ``circuit`` (a registered library name), ``bench``
        (ISCAS-85/89 ``.bench`` source text; sequential netlists are
        combinationally extracted), ``verilog`` (structural Verilog
        source text) or ``sweep`` (a ``run_sweep`` request:
        ``{"circuits": [...], "presets": [...], ...}``) selects the
        work.  Request-shape problems raise :class:`ServiceError` here
        (the HTTP layer maps them to 400); problems with the *content*
        — an unknown circuit name, unparseable netlist text, estimation
        failures — surface later as a ``failed`` job with a structured
        error body, so one bad payload can never take down the service.
        With ``max_queue`` set, a full queue raises
        :class:`~repro.errors.QueueFull` (429 + ``Retry-After``).

        ``profile=True`` runs the job's engine under a
        :class:`~repro.telemetry.profiling.PhaseProfiler`; the profile
        payload appears in the job status (and, with ``trace_dir`` set,
        as ``profile-<job_id>.json``).  A report served from the cache
        carries no profile — nothing was executed.
        """
        chosen = [x for x in (circuit, bench, verilog, sweep)
                  if x is not None]
        if len(chosen) != 1:
            raise ServiceError(
                "exactly one of 'circuit', 'bench', 'verilog' or 'sweep' "
                "is required"
            )
        if circuit is not None and not isinstance(circuit, str):
            raise ServiceError(f"'circuit' must be a name, got {circuit!r}")
        if bench is not None and not isinstance(bench, str):
            raise ServiceError("'bench' must be .bench source text")
        if verilog is not None and not isinstance(verilog, str):
            raise ServiceError("'verilog' must be Verilog source text")
        if sweep is not None:
            if not isinstance(sweep, Mapping):
                raise ServiceError("'sweep' must be an object")
            if not sweep.get("circuits"):
                raise ServiceError("'sweep' requires a 'circuits' list")
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError(f"priority must be an int, got {priority!r}")
        if not isinstance(profile, bool):
            raise ServiceError(f"profile must be a bool, got {profile!r}")
        if timeout is None:
            timeout = self.default_timeout
        elif timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {timeout}")
        try:
            if isinstance(config, Mapping):
                config = ProtestConfig.from_dict(config)
            else:
                config = ProtestConfig.coerce(config)
        except ReproError as error:
            raise ServiceError(f"invalid config: {error}") from error
        if sweep is not None:
            kind = "sweep"
            payload: Dict[str, Any] = dict(sweep)
        elif bench is not None:
            kind = "analyze"
            payload = {"bench": bench, "circuit": "uploaded"}
        elif verilog is not None:
            kind = "analyze"
            payload = {"verilog": verilog, "circuit": "uploaded"}
        else:
            kind = "analyze"
            payload = {"circuit": circuit}
        with self._cond:
            if self._stopping:
                raise ServiceError("the job manager is shutting down")
            if self.max_queue is not None:
                depth = self._queued_depth()
                if depth >= self.max_queue:
                    self._rejected_total.inc()
                    self._log.warning(
                        "submission rejected: queue full",
                        extra={"depth": depth, "max_queue": self.max_queue},
                    )
                    raise QueueFull(
                        f"queue is full ({depth} jobs queued, "
                        f"limit {self.max_queue})",
                        retry_after=max(1.0, self.retry.base_delay),
                    )
            job_id = f"j{next(self._seq):06d}"
            job = Job(
                job_id, kind, payload, config, input_probs, priority,
                timeout, profile=profile,
            )
            # Capture the submitter's span context (the HTTP request's),
            # so the worker's spans nest under it across the thread hop.
            context = current_context()
            if context is not None:
                job.trace = context.to_payload()
            self._jobs[job_id] = job
            heapq.heappush(
                self._queue, (-priority, next(self._order), job_id)
            )
            self._submitted_total.inc()
            self._queue_depth_gauge.set(self._queued_depth())
            self._log.debug(
                "job submitted",
                extra={
                    "job": job_id, "job_kind": kind,
                    "circuit": job.circuit_name, "priority": priority,
                },
            )
            self._cond.notify()
            return job

    def _queued_depth(self) -> int:
        """Jobs in state ``"queued"`` (call under the lock)."""
        return sum(1 for job in self._jobs.values() if job.state == "queued")

    def uptime_seconds(self) -> float:
        """Seconds since this manager started."""
        return time.monotonic() - self._started_mono

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(f"unknown job {job_id!r}") from None

    def status(self, job_id: str) -> Dict[str, Any]:
        job = self.get(job_id)
        with self._lock:
            return job.status_dict()

    def result(self, job_id: str) -> "Dict[str, Any] | None":
        job = self.get(job_id)
        with self._lock:
            return job.result

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                job.summary_dict()
                for _, job in sorted(self._jobs.items())
            ]

    def wait(self, job_id: str, timeout: "float | None" = None) -> Job:
        """Block until the job reaches a terminal state (or ``timeout``)."""
        job = self.get(job_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while job.state not in TERMINAL_STATES:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._cond.wait(remaining)
            return job

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; returns the (possibly terminal) status.

        A queued job is cancelled immediately; a running sampled or
        sweep job aborts at its next checkpoint / cell boundary; a job
        already in a terminal state is left untouched.  A cancelled
        sampled job keeps its journal checkpoint — resubmitting the
        same work resumes instead of restarting.
        """
        job = self.get(job_id)
        with self._cond:
            job.cancel_event.set()
            if job.state == "queued":
                self._finish(
                    job, "cancelled",
                    error=error_payload(
                        JobCancelled("cancelled while queued"), job.attempts
                    ),
                )
            return job.status_dict()

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body: liveness plus truthful degradation.

        ``status`` is ``"ok"`` (all clear), ``"degraded"`` (a sampled
        job fell back from a failing backend, or a worker crashed —
        results are still correct, capacity or performance may not be),
        or ``"draining"`` (shutdown in progress; submissions are
        rejected).
        """
        crashes = int(self._crashes_total.value())
        degraded = int(self._degraded_total.value())
        with self._lock:
            if self._stopping:
                status = "draining"
            elif degraded > 0 or crashes > 0:
                status = "degraded"
            else:
                status = "ok"
            return {
                "status": status,
                "workers": len(self._workers),
                "queue_depth": self._queued_depth(),
                "worker_crashes": crashes,
                "degraded_jobs": degraded,
                "uptime_seconds": round(self.uptime_seconds(), 3),
                "version": __version__,
            }

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` body: queue, states, cache, throughput.

        Counters are read back from the telemetry registry — the same
        series ``GET /metrics`` renders — plus a full registry snapshot
        under ``"telemetry"``.
        """
        throughput: Dict[str, Dict[str, float]] = {}
        for labels, jobs_done in self._report_jobs.samples():
            backend = labels["backend"]
            patterns = self._report_patterns.value(backend=backend)
            seconds = self._report_seconds.value(backend=backend)
            throughput[backend] = {
                "jobs": int(jobs_done),
                "patterns": int(patterns),
                "seconds": seconds,
                "patterns_per_second": (
                    patterns / seconds if seconds > 0 else 0.0
                ),
            }
        resilience: Dict[str, Any] = {
            "retries": int(self._retries_total.value()),
            "worker_crashes": int(self._crashes_total.value()),
            "resumes": int(self._resumes_total.value()),
            "degraded_jobs": int(self._degraded_total.value()),
            "rejected": int(self._rejected_total.value()),
        }
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            queue_depth = states["queued"]
            resilience["delayed"] = len(self._delayed)
            resilience["journal_entries"] = len(self.journal)
            resilience["max_queue"] = self.max_queue
            resilience["retry"] = {
                "max_attempts": self.retry.max_attempts,
                "base_delay": self.retry.base_delay,
                "max_delay": self.retry.max_delay,
            }
        cache_info = self.cache.cache_info()
        return {
            "workers": len(self._workers),
            "queue_depth": queue_depth,
            "jobs": states,
            "cache": cache_info,
            "throughput": throughput,
            "resilience": resilience,
            "memory": {
                "peak_rss_bytes": peak_rss_bytes(),
                "cache_bytes": cache_info.get("total_bytes", 0),
            },
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "version": __version__,
            "telemetry": self.metrics.snapshot(),
        }

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; still-queued jobs are marked cancelled."""
        with self._cond:
            self._stopping = True
            self._revoke_queued("service shutdown")
            self._cond.notify_all()
        if wait:
            for thread in list(self._workers):
                thread.join()

    def drain(self, grace: float = 5.0) -> Dict[str, Any]:
        """Graceful shutdown: finish running jobs, persist the journal.

        The SIGTERM path of ``protest serve``: intake stops, queued jobs
        are revoked, running jobs get ``grace`` seconds to finish; any
        still running after that are cancelled — sampled jobs abort at
        their next block checkpoint with their progress already in the
        journal, so a restarted service resumes them seed-exactly.
        Returns a summary of what was drained.
        """
        if grace < 0:
            raise ServiceError(f"grace must be non-negative, got {grace}")
        with self._cond:
            self._stopping = True
            revoked = self._revoke_queued("service shutdown")
            self._cond.notify_all()
        deadline = time.monotonic() + grace
        aborted: List[str] = []
        with self._cond:
            while True:
                running = [
                    job for job in self._jobs.values()
                    if job.state == "running"
                ]
                if not running:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Grace expired: abort at the next checkpoint; the
                    # journal keeps each job's last completed block.
                    for job in running:
                        job.cancel_event.set()
                        aborted.append(job.id)
                    break
                self._cond.wait(remaining)
        for thread in list(self._workers):
            thread.join(timeout=max(grace, 1.0))
        try:
            self.journal.sync()
        except ResilienceError:
            pass        # an unwritable journal must not block shutdown
        with self._lock:
            return {
                "revoked": revoked,
                "aborted": aborted,
                "journal_entries": len(self.journal),
            }

    def _revoke_queued(self, reason: str) -> int:
        """Cancel everything still queued or awaiting retry (under lock)."""
        revoked = 0
        for heap in (self._queue, self._delayed):
            while heap:
                entry = heapq.heappop(heap)
                job = self._jobs[entry[2]]
                if job.state == "queued":
                    self._finish(
                        job, "cancelled",
                        error=error_payload(
                            JobCancelled(reason), job.attempts
                        ),
                    )
                    revoked += 1
        return revoked

    # -- worker internals ----------------------------------------------------

    def _worker_main(self, index: int) -> None:
        """Watchdog shell around the worker loop.

        A ``BaseException`` unwinding :meth:`_worker_loop` is a worker
        death — injected (:class:`ChaosKill`) or real.  The slot is
        replenished with a fresh thread, and the job the dead worker
        was holding goes through the retry path as
        :class:`WorkerCrashed` (transient: the failure belongs to the
        substrate, not the work).
        """
        try:
            self._worker_loop()
        except BaseException as error:  # noqa: BLE001 - thread death
            job = self._running.pop(threading.get_ident(), None)
            replacement = threading.Thread(
                target=self._worker_main, args=(index,),
                name=f"protest-job-worker-{index}", daemon=True,
            )
            with self._cond:
                self._crashes_total.inc()
                self._workers[index] = replacement
            self._log.warning(
                "worker crashed; slot replenished",
                extra={
                    "worker": index,
                    "job": job.id if job is not None else None,
                    "error": f"{type(error).__name__}: {error}",
                },
            )
            replacement.start()
            if job is not None:
                crash = WorkerCrashed(
                    f"worker died while running job {job.id}: "
                    f"{type(error).__name__}: {error}"
                )
                crash.__cause__ = error
                self._handle_failure(job, crash)
            if not isinstance(error, ChaosKill):
                raise

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = self._next_job()
                if job is None:
                    return          # stopping and drained
                self._running[threading.get_ident()] = job
            # Run under the submitter's span context: the job span (and
            # everything the engine opens below it) nests under the
            # originating HTTP request, across the thread hop.
            context = SpanContext.from_payload(job.trace)
            try:
                with use_context(context):
                    with span(
                        "service.job",
                        job=job.id, kind=job.kind,
                        circuit=job.circuit_name, attempt=job.attempts,
                    ) as job_span:
                        with self._lock:
                            job.trace_id = job_span.trace_id
                        chaos_point(
                            "service.worker",
                            job=job.id, kind=job.kind,
                            attempt=job.attempts - 1,
                        )
                        self._execute(job)
            except JobCancelled as error:
                self._finish(job, "cancelled",
                             error=error_payload(error, job.attempts))
            except ReproError as error:
                self._handle_failure(job, error)
            except Exception as error:  # noqa: BLE001 - worker must survive
                self._handle_failure(job, error)
            # Deliberately not a finally: on a BaseException (worker
            # death) the entry must survive for the watchdog to find.
            self._running.pop(threading.get_ident(), None)
            self._maybe_export_trace(job)
            self._maybe_export_profile(job)

    def _maybe_export_trace(self, job: Job) -> None:
        """Write the job's Chrome trace file once it is terminal."""
        if self.trace_dir is None or job.trace_id is None:
            return
        if job.state not in TERMINAL_STATES:
            return      # retrying: export once, after the final attempt
        path = os.path.join(self.trace_dir, f"trace-{job.id}.json")
        try:
            count = export_chrome_trace(path, trace_id=job.trace_id)
        except OSError as error:
            self._log.warning(
                "trace export failed",
                extra={"job": job.id, "path": path, "error": str(error)},
            )
            return
        self._log.debug(
            "trace exported",
            extra={"job": job.id, "path": path, "n_spans": count},
        )

    def _maybe_export_profile(self, job: Job) -> None:
        """Write ``profile-<job_id>.json`` next to the job's trace."""
        if self.trace_dir is None or job.profile_payload is None:
            return
        if job.state not in TERMINAL_STATES:
            return
        path = os.path.join(self.trace_dir, f"profile-{job.id}.json")
        try:
            atomic_write(path, lambda handle: json.dump(
                job.profile_payload, handle, indent=2, sort_keys=True
            ))
        except OSError as error:
            self._log.warning(
                "profile export failed",
                extra={"job": job.id, "path": path, "error": str(error)},
            )
            return
        self._log.debug("profile exported",
                        extra={"job": job.id, "path": path})

    def _next_job(self) -> Optional[Job]:
        """Claim the next runnable job (call under the condition)."""
        while True:
            now = time.monotonic()
            # Promote retry entries whose backoff has elapsed.
            while self._delayed and self._delayed[0][0] <= now:
                _, order, job_id = heapq.heappop(self._delayed)
                delayed = self._jobs[job_id]
                if delayed.state == "queued":
                    heapq.heappush(
                        self._queue, (-delayed.priority, order, job_id)
                    )
            while self._queue:
                _, _, job_id = heapq.heappop(self._queue)
                job = self._jobs[job_id]
                if job.state != "queued":
                    continue        # revoked while queued
                job.state = "running"
                job.started = time.time()
                job.finished = None
                job.attempts += 1
                if job.timeout is not None:
                    job.deadline = time.monotonic() + job.timeout
                self._queue_depth_gauge.set(self._queued_depth())
                return job
            if self._stopping:
                return None
            timeout = None
            if self._delayed:
                timeout = max(0.0, self._delayed[0][0] - now)
            self._cond.wait(timeout)

    def _handle_failure(self, job: Job, error: BaseException) -> None:
        """Retry a transient failure with backoff, or fail the job."""
        with self._cond:
            retryable = (
                not self._stopping
                and not job.cancel_event.is_set()
                and self.retry.should_retry(error, job.attempts)
            )
            if not retryable:
                self._finish(
                    job, "failed", error=error_payload(error, job.attempts)
                )
                return
            delay = self.retry.delay(job.attempts, token=job.id)
            job.retries.append({
                "attempt": job.attempts,
                "error": error_payload(error, job.attempts),
                "delay": delay,
            })
            self._retries_total.inc()
            job.state = "queued"
            job.started = None
            job.deadline = None
            heapq.heappush(
                self._delayed,
                (time.monotonic() + delay, next(self._order), job.id),
            )
            self._queue_depth_gauge.set(self._queued_depth())
            self._log.info(
                "job retrying after transient failure",
                extra={
                    "job": job.id, "attempt": job.attempts, "delay": delay,
                    "error": f"{type(error).__name__}: {error}",
                },
            )
            self._cond.notify_all()

    def _finish(
        self,
        job: Job,
        state: str,
        result: "Dict[str, Any] | None" = None,
        error: "Dict[str, Any] | None" = None,
    ) -> None:
        with self._cond:
            if job.state in TERMINAL_STATES:
                return
            job.state = state
            job.result = result
            job.error = error
            job.finished = time.time()
            self._finished_total.labels(state=state).inc()
            self._job_seconds.labels(kind=job.kind).observe(job.elapsed())
            self._queue_depth_gauge.set(self._queued_depth())
            self._log.info(
                "job finished",
                extra={
                    "job": job.id, "state": state, "job_kind": job.kind,
                    "attempts": job.attempts,
                    "elapsed": round(job.elapsed(), 6),
                    "from_cache": job.from_cache,
                },
            )
            self._cond.notify_all()

    def _check_abort(self, job: Job) -> None:
        if job.cancel_event.is_set():
            raise JobCancelled(f"job {job.id} cancelled")
        if job.deadline is not None and time.monotonic() > job.deadline:
            raise JobTimeout(
                f"job {job.id} exceeded its {job.timeout:g}s budget"
            )

    def _execute(self, job: Job) -> None:
        self._check_abort(job)
        if job.kind == "sweep":
            self._execute_sweep(job)
        else:
            self._execute_analyze(job)

    def _execute_sweep(self, job: Job) -> None:
        payload = job.payload
        configs = payload.get("presets") or [job.config]
        result = run_sweep(
            payload["circuits"],
            configs,
            workers=payload.get("workers"),
            input_probs=job.input_probs,
            executor=payload.get("executor", "inline"),
            timeout=job.timeout,
            cancel=job.cancel_event,
        )
        self._check_abort(job)
        self._finish(job, "done", result=result.to_dict())

    def _journal_key(
        self, circuit_hash: str, config: ProtestConfig, probs_key
    ) -> str:
        """Content identity of a sampled run — the journal's key.

        The same identity the report cache uses (circuit structure,
        config hash, method, input-probability tuple), flattened to a
        string: a crashed-and-retried job, a cancelled-then-resubmitted
        job, and a restarted service all find the same checkpoint.
        """
        probs_hash = hashlib.sha256(
            repr(probs_key).encode("utf-8")
        ).hexdigest()[:16]
        return "|".join(
            [circuit_hash, config.config_hash, config.method, probs_hash]
        )

    def _execute_analyze(self, job: Job) -> None:
        bench = job.payload.get("bench")
        verilog = job.payload.get("verilog")
        if bench is not None:
            # Parsed in the worker on purpose: a syntax error is a
            # property of this job ("failed", with the parser's
            # line-numbered message), not of the submission API.
            circuit = parse_bench(bench, name=job.payload["circuit"])
        elif verilog is not None:
            circuit = parse_verilog(verilog)
        else:
            from repro.circuits.library import build

            circuit = build(job.payload["circuit"])
        circuit, interned = self.cache.intern_circuit(circuit)
        config = job.config
        probs_key = input_probs_key(circuit.inputs, job.input_probs)
        report_key = (
            circuit.structural_hash(), config.config_hash,
            config.method, probs_key,
        )
        with self._lock:
            job.circuit_name = circuit.name
            job.circuit_hash = report_key[0]
            job.circuit_interned = interned
        cached = self.cache.get_report(report_key)
        if cached is not None:
            with self._lock:
                job.from_cache = True
            self._finish(job, "done", result=cached)
            return
        engine = AnalysisEngine(
            circuit, config, registry=self.metrics, profile=job.profile
        )
        self._check_abort(job)
        if config.method == "sampled":
            report = self._run_sampled(job, engine, report_key)
        else:
            report = engine.analyze(job.input_probs)
        self._check_abort(job)
        payload = report.to_dict()
        if job.profile:
            with self._lock:
                job.profile_payload = engine.profile_report()
        self.cache.put_report(report_key, payload)
        self._record_throughput(job, payload)
        self._finish(job, "done", result=payload)

    def _run_sampled(self, job: Job, engine: AnalysisEngine, report_key):
        """One sampled analysis with journal checkpoint/resume."""
        journal_key = self._journal_key(
            report_key[0], job.config, report_key[3]
        )
        resume = None
        entry = self.journal.get(journal_key)
        if entry is not None:
            try:
                resume = SamplingState.from_payload(entry)
            except ResilienceError:
                self.journal.discard(journal_key)   # corrupt: recompute

        def state_hook(state: SamplingState) -> None:
            try:
                self.journal.put(journal_key, state.to_payload())
            except ResilienceError:
                # A lost checkpoint costs recomputation, never the job.
                pass

        if resume is not None:
            with self._lock:
                job.resumed = True
                self._resumes_total.inc()
        try:
            report = engine.sampled_analyze(
                job.input_probs,
                checkpoint=lambda p: self._snapshot(job, p),
                state_hook=state_hook,
                resume=resume,
            )
        except ResilienceError:
            if resume is None:
                raise
            # A stale checkpoint (fault list or seed mismatch after a
            # config collision) is discarded, and the run restarts clean.
            self.journal.discard(journal_key)
            with self._lock:
                job.resumed = False
            report = engine.sampled_analyze(
                job.input_probs,
                checkpoint=lambda p: self._snapshot(job, p),
                state_hook=state_hook,
            )
        if engine.sampler.degraded:
            with self._lock:
                job.degraded = engine.sampler.backend_name
                self._degraded_total.inc()
            self._log.warning(
                "sampling degraded to the python engine",
                extra={"job": job.id, "backend": job.degraded},
            )
        self.journal.discard(journal_key)     # done: retire the checkpoint
        return report

    def _snapshot(self, job: Job, partial) -> None:
        """Per-block checkpoint: abort check + progressive publication.

        The chaos seam comes *first*: a kill injected "at block k"
        strikes after the journal already holds block k's state (the
        estimator runs its ``state_hook`` before the checkpoint), so
        the retried attempt resumes with block k done — the situation
        the bit-identity acceptance test exercises.
        """
        chaos_point(
            "service.checkpoint", job=job.id, block=len(job.snapshots)
        )
        self._check_abort(job)
        payload = partial.to_dict()
        summary = {
            "n_patterns": payload.get("n_patterns"),
            "max_halfwidth": payload.get("max_halfwidth"),
            "converged": payload.get("converged"),
            "coverage": (payload.get("coverage") or {}).get("estimate"),
            "elapsed": job.elapsed(),
        }
        with self._lock:
            job.snapshots.append(summary)
            job.latest_snapshot = payload
            self._cond.notify_all()

    def _record_throughput(self, job: Job, payload: Dict[str, Any]) -> None:
        backend = (payload.get("provenance") or {}).get("backend", "unknown")
        patterns = payload.get("n_patterns", 0) or 0
        self._report_jobs.labels(backend=backend).inc()
        self._report_patterns.labels(backend=backend).inc(patterns)
        self._report_seconds.labels(backend=backend).inc(job.elapsed())

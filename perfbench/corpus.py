"""The run loop shared by the circuit-corpus workloads (analyze, fsim, psim).

A corpus workload times operations on its circuits for about
``--seconds``: every circuit at least once, cheap circuits many times
(see :func:`harness.plan_ops`), each between two speed probes (see
:func:`harness.calibrated_times`).  The traced run executes every
operation of a half-length plan twice, once with the layer spans
installed and once without, alternating which goes first; the
difference is the tracing overhead.
"""

from __future__ import annotations

import gc
import sys
from typing import Dict, List, Sequence, Tuple

import accuracy
import harness
from tracing import OUT_DIR, Tracer, patched, self_times, write_chrome_trace


class CorpusWorkload:
    """One workload over a fixed circuit list; subclasses fill in the ops."""

    name = "?"
    keys: Sequence[str] = ()
    #: Nominal seconds of one operation per key on a 2-core machine.
    nominal_s: Dict[str, float] = {}
    #: Root span of one timed operation.
    root = "api.op"
    #: Span name -> per-layer metric receiving that span's self time.
    span_metrics: Dict[str, str] = {}

    def setup(self, seed: int, tracer) -> None:
        raise NotImplementedError

    def work(self, key: str) -> float:
        """Work units of one operation on ``key`` (for ``throughput``)."""
        raise NotImplementedError

    def op(self, key: str, pass_index: int, tracer) -> Tuple[float, object]:
        """Run one operation; returns (timed seconds, context for checks)."""
        raise NotImplementedError

    def check(self, key: str, pass_index: int, ctx) -> List[str]:
        raise NotImplementedError

    def targets(self) -> List[Tuple[object, str, str]]:
        """``(owner, attribute, span name)`` wrapped in the traced run."""
        return []

    def counts(self, key: str, ctx) -> Dict[str, float]:
        """Per-operation work counters for the per-layer metrics."""
        return {}

    def extra_traced(self, key: str, pass_index: int, tracer) -> None:
        """Traced-only work outside the paired operation (optional)."""

    def layers_from_spans(self, spans: List[dict]) -> Dict[str, float]:
        selfs = self_times(spans)
        values: Dict[str, float] = {}
        for span in spans:
            metric = self.span_metrics.get(span["name"])
            if span["name"] == self.root:
                metric = "api.engine_unattributed_s"
            if metric:
                values[metric] = values.get(metric, 0.0) + selfs[span["id"]]
        return values


def run(workload: CorpusWorkload, seed: int, seconds: float, trace: bool,
        src: str):
    """Run a corpus workload; returns (attempted, failures, metrics)."""
    tracer = Tracer() if trace else None
    setups: List[float] = []
    setup_spans: List[dict] = []

    def setup() -> None:
        start = len(tracer.spans) if tracer else 0
        setups.append(harness.timed_setup(
            lambda: workload.setup(seed, tracer), src
        ))
        if tracer:
            setup_spans.extend(tracer.spans[start:])

    # (key, seconds, speed probe before, speed probe after) per untraced
    # operation, in run order.
    timeline: List[Tuple[str, float, float, float]] = []
    samples: Dict[str, List[Dict[str, float]]] = {}
    failures: List[str] = []
    attempted = 0

    def one(key: str, pass_index: int) -> None:
        nonlocal attempted
        attempted += 1
        try:
            if tracer is None:
                before = harness.probe_s()
                elapsed, ctx = workload.op(key, pass_index, None)
                timeline.append((key, elapsed, before, harness.probe_s()))
            else:
                ctx = traced_pair(key, pass_index, attempted % 2 == 0)
            problems = workload.check(key, pass_index, ctx)
        except Exception as error:  # an operation that raises has failed
            problems = [f"{type(error).__name__}: {error}"]
        if problems:
            failures.append(f"{workload.name} {key} pass {pass_index}: "
                            f"{problems[0]}")

    def traced_pair(key: str, pass_index: int, traced_first: bool):
        timings = {}
        for traced in (traced_first, not traced_first):
            gc.collect()
            if traced:
                start = len(tracer.spans)
                with patched(tracer, workload.targets()):
                    elapsed, ctx = workload.op(key, pass_index, tracer)
                spans = tracer.spans[start:]
            else:
                elapsed, _ = workload.op(key, pass_index, None)
            timings[traced] = elapsed
        row = workload.layers_from_spans(spans)
        row.update(workload.counts(key, ctx))
        row["_traced_s"] = timings[True]
        row["trace.overhead_s"] = timings[True] - timings[False]
        row["_untraced_s"] = timings[False]
        workload.extra_traced(key, pass_index, tracer)
        samples.setdefault(key, []).append(row)
        return ctx

    ops = harness.plan_ops(
        workload.keys, workload.nominal_s, seconds / 2 if trace else seconds
    )
    points = harness.setup_points(len(ops))
    for index, (key, pass_index) in enumerate(ops):
        for _ in range(points.count(index)):
            setup()
        # Garbage of the previous operation is not charged to the next.
        gc.collect()
        one(key, pass_index)

    det_mae, stats, problems = accuracy.evaluate(accuracy.load_references())
    attempted += len(accuracy.ACCURACY_CIRCUITS)
    failures.extend(problems)

    if tracer is None:
        work = {key: workload.work(key) for key in workload.keys}
        raw_times: Dict[str, List[float]] = {}
        for key, elapsed, _, _ in timeline:
            raw_times.setdefault(key, []).append(elapsed)
        print(f"{workload.name}: throughput as measured "
              f"{harness.throughput(work, raw_times):.6g} 1/s",
              file=sys.stderr)
        return attempted, failures, harness.e2e_metrics({
            "setup_s": harness.median(setups),
            "peak_rss_mb": harness.peak_rss_mb(),
            "throughput": harness.throughput(
                work, harness.calibrated_times(timeline)
            ),
            "det_mae": det_mae,
        })

    values = harness.per_pass(samples)
    # logicsim spans are traced-only extra work, outside the pairs.
    extra = [s for s in tracer.spans if s["name"] == "logicsim.good_sim"]
    if extra:
        passes = sum(len(rows) for rows in samples.values()) / len(samples)
        values["logicsim.good_sim_s"] = sum(
            s["end"] - s["start"] for s in extra
        ) / passes
    traced_s = values.pop("_traced_s")
    untraced_s = values.pop("_untraced_s")
    detected = values.pop("_detected", 0.0)
    if values.get("faults.live_fault_blocks"):
        values["faults.drop_yield"] = (
            detected / values["faults.live_fault_blocks"]
        )
    lookups = values.get("kernel.cone_hits", 0) + values.get(
        "kernel.cone_misses", 0
    )
    if lookups:
        values["kernel.cone_hit_ratio"] = values["kernel.cone_hits"] / lookups
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_s
    values["trace.unattributed_share"] = (
        values.get("api.engine_unattributed_s", 0.0) / traced_s
    )
    setup_selfs = self_times(setup_spans)
    for span in setup_spans:
        metric = f"{span['name']}_s"
        values[metric] = values.get(metric, 0.0) + (
            setup_selfs[span["id"]] / harness.SETUP_REPEATS
        )
    for circuit, row in stats.items():
        for stat, value in row.items():
            values[f"accuracy.{circuit}.{stat}"] = value
    write_chrome_trace(
        tracer.spans, OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    )
    return attempted, failures, harness.layer_metrics(values)

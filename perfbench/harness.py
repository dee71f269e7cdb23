"""Shared measurement plumbing of the benchmark workloads.

Every workload prints the same metric names, so one ``BENCHMARK.json``
describes them all: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced run.  A layer a workload does not
exercise reports 0.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from accuracy import ACCURACY_CIRCUITS

#: (name, unit, better, bound) of every end-to-end metric.
E2E_METRICS: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput", "1/s", "higher", 0.25),
    ("det_mae", "1", "lower", 0.02),
)

#: (name, unit, better) of every per-layer metric.  Times ending in
#: ``_s`` are self times per pass over the workload's circuits.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("circuit.parse_s", "s", "lower"),
    ("kernel.compile_s", "s", "lower"),
    ("faults.universe_s", "s", "lower"),
    ("faults.universe_op_s", "s", "lower"),
    ("probability.signal_s", "s", "lower"),
    ("detection.observability_s", "s", "lower"),
    ("detection.detection_s", "s", "lower"),
    ("testlen.length_s", "s", "lower"),
    ("api.engine_unattributed_s", "s", "lower"),
    ("probability.conditioned_gates", "count", "lower"),
    ("faults.n_faults", "count", "higher"),
    ("testlen.unreachable", "count", "lower"),
    ("kernel.cone_hits", "count", "higher"),
    ("kernel.cone_misses", "count", "lower"),
    ("kernel.cone_evictions", "count", "lower"),
    ("kernel.cone_hit_ratio", "1", "higher"),
    ("logicsim.good_sim_s", "s", "lower"),
    ("faults.simulate_s", "s", "lower"),
    ("backends.python.fault_sim_words_s", "s", "lower"),
    ("backends.python.calls", "count", "lower"),
    ("backends.python.first_block_s", "s", "lower"),
    ("backends.numpy.fault_sim_words_s", "s", "lower"),
    ("backends.numpy.calls", "count", "lower"),
    ("backends.numpy.first_block_s", "s", "lower"),
    ("faults.live_fault_blocks", "count", "lower"),
    ("faults.drop_yield", "1", "higher"),
    ("service.jobs", "count", "higher"),
    ("service.hit_latency_p50_ms", "ms", "lower"),
    ("service.miss_latency_p50_ms", "ms", "lower"),
    ("service.latency_p90_ms", "ms", "lower"),
    ("service.http.submit_ms", "ms", "lower"),
    ("service.http.poll_ms", "ms", "lower"),
    ("service.polls_per_job", "count", "lower"),
    ("service.jobs.queue_wait_ms", "ms", "lower"),
    ("service.jobs.run_ms.analytic", "ms", "lower"),
    ("service.jobs.run_ms.sampled", "ms", "lower"),
    ("service.cache.hit_ratio", "1", "higher"),
    ("sampling.patterns_per_job", "count", "lower"),
    ("service.refused_429", "count", "lower"),
    ("service.failed", "count", "lower"),
    ("trace.unattributed_share", "1", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "1", "lower"),
) + tuple(
    (f"accuracy.{circuit}.{stat}", "1", better)
    for circuit in ACCURACY_CIRCUITS
    for stat, better in (("merr", "lower"), ("delta", "lower"), ("co", "higher"))
)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` of this process (or of its waited-for children) in MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    kib = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        kib /= 1024
    return kib / 1024


#: Seconds PROBE_ITERATIONS of the speed probe take on the 2-core
#: development machine in a fast phase: one reference second.
PROBE_REF_S = 0.005
PROBE_ITERATIONS = 60000


def probe_s() -> float:
    """Wall time of a fixed pure-Python computation (~5 ms): how fast the
    machine runs Python right now.  It calls no code of the program."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(PROBE_ITERATIONS):
            table[i & 1023] = i * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrated(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` in reference seconds, given the speed probes run just
    before and just after the operation.

    The shared host of the development machine changes speed by up to
    1.8x in phases of tens of seconds to minutes, longer than a run, so
    all of a run's timings depend on the phase it lands in.  The
    probes see the same phase; dividing by them leaves the program's
    own cost, on the scale of a machine whose probe takes PROBE_REF_S.
    """
    return elapsed * PROBE_REF_S * 2 / (before + after)


#: Operations on either side whose probes also set an operation's speed.
PROBE_WINDOW = 2


def calibrated_times(
    timeline: Sequence[Tuple[str, float, float, float]]
) -> Dict[str, List[float]]:
    """Per key, the operations' times in reference seconds.

    ``timeline`` holds ``(key, seconds, probe before, probe after)`` in
    run order.  An operation's speed is the median of the probes around
    it and around the PROBE_WINDOW operations on either side: the host's
    phases last far longer than that window, and the median keeps one
    disturbed 5 ms probe from skewing the operation.
    """
    times: Dict[str, List[float]] = {}
    for index, (key, elapsed, _, _) in enumerate(timeline):
        window = timeline[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW + 1]
        speed = median(probe for row in window for probe in row[2:])
        times.setdefault(key, []).append(calibrated(elapsed, speed, speed))
    return times


def cold_import_s(src: str) -> float:
    """Time of a cold ``import repro.api, repro.backends`` in a fresh
    interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import repro.api, repro.backends; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def timed_setup(setup: Callable[[], None], src: str) -> float:
    """One set-up of a corpus workload, in reference seconds (see
    :func:`calibrated`): a cold import of the program in a fresh
    interpreter plus ``setup`` in this one.

    ``setup`` builds fresh objects, so compile caches keyed by circuit
    identity are rebuilt every time.
    """
    gc.collect()
    before = probe_s()
    start = time.perf_counter()
    setup()
    elapsed = time.perf_counter() - start
    elapsed += cold_import_s(src)
    return calibrated(elapsed, before, probe_s())


def setup_points(n_ops: int) -> List[int]:
    """Operation indices before which the SETUP_REPEATS set-ups run.

    They are spread evenly over the run, the first before any operation,
    so that the median set-up time does not hang on the machine's speed
    in a single moment.
    """
    return [i * n_ops // SETUP_REPEATS for i in range(SETUP_REPEATS)]


#: Cap on the timed repetitions of one key in a run.
MAX_REPEATS = 30
#: Seconds each operation costs beyond its nominal time: garbage
#: collection, the two speed probes and the oracles.
OP_OVERHEAD_S = 0.06


def plan_ops(
    keys: Sequence[str], nominal_s: Dict[str, float], seconds: float
) -> List[Tuple[str, int]]:
    """The ``(key, repetition)`` operations of one run.

    Every key runs at least once.  Further repetitions fill ``seconds``
    by nominal cost (seconds per operation on a 2-core development
    machine in a fast phase, plus OP_OVERHEAD_S): the next repetition
    goes to the key with the smallest ``(count + 1) * sqrt(cost)``, up
    to MAX_REPEATS per key.  That lies between equal counts, which would
    spend the run on the costly keys, and equal time, which would leave
    them a single sample.  Operations are issued in rounds (repetition 0
    of every key, then repetition 1, ...) so the samples of one key are
    spread over the run.  The plan depends only on its arguments, so
    every run of a workload does the same work however fast the machine
    is at the moment.
    """
    cost = {key: nominal_s[key] + OP_OVERHEAD_S for key in keys}
    counts = {key: 1 for key in keys}
    budget = seconds - sum(cost.values())
    while True:
        fits = [key for key in keys
                if counts[key] < MAX_REPEATS and cost[key] <= budget]
        if not fits:
            break
        key = min(fits, key=lambda k: (counts[k] + 1) * math.sqrt(cost[k]))
        counts[key] += 1
        budget -= cost[key]
    return [(key, rep) for rep in range(max(counts.values(), default=0))
            for key in keys if counts[key] > rep]


def throughput(work: Dict[str, float], times: Dict[str, List[float]]) -> float:
    """Geometric mean over keys of work per second.

    Each key's rate uses the median of its timings.  With the timings in
    reference seconds (see :func:`calibrated_times`) the host's slow
    phases no longer bias them, and the median is steadier from run to
    run than the fastest timing, which hangs on a single sample.  The
    geometric mean weighs every key alike, so the few costly keys, which
    fit only a few samples in a run, do not dominate the figure.
    """
    logs = [math.log(work[key] / median(samples))
            for key, samples in times.items()]
    return math.exp(sum(logs) / len(logs))


def per_pass(samples: Dict[str, List[Dict[str, float]]]) -> Dict[str, float]:
    """Per-pass totals: each key's samples are averaged, then keys summed."""
    totals: Dict[str, float] = {}
    for rows in samples.values():
        for name in {name for row in rows for name in row}:
            mean = sum(row.get(name, 0.0) for row in rows) / len(rows)
            totals[name] = totals.get(name, 0.0) + mean
    return totals


def e2e_metrics(values: Dict[str, float]) -> Dict[str, dict]:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _better, _bound in E2E_METRICS
    }


def layer_metrics(values: Dict[str, float]) -> Dict[str, dict]:
    unknown = set(values) - {name for name, _u, _b in LAYER_METRICS}
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _better in LAYER_METRICS
    }


def print_result(
    attempted: int, failures: List[str], metrics: Dict[str, dict]
) -> None:
    """Report failures on stderr and the result object as the last line."""
    for failure in failures[:50]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True), flush=True)

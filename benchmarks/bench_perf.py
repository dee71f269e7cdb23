"""Tracked performance benchmark of the compiled-kernel evaluation paths.

Measures, per circuit, on the compiled kernel's default (pure-python)
backend:

* **logic sim** — true-value patterns/sec (:func:`repro.logicsim.simulate`);
* **fault sim** — faults x patterns/sec (``FaultSimulator.run`` without
  fault dropping, the paper's ``P_SIM`` workload);
* **analyze** — end-to-end ``AnalysisEngine.analyze()`` wall time.

When numpy is installed the logic-sim and fault-sim rows additionally
record the numpy word backend (:mod:`repro.backends`) *at this bench's
workload shape* — small pattern blocks, where the python backend's
big-int lanes are competitive; ``bench_backends.py`` tracks the
large-block workloads the numpy engine is built for.

A ``telemetry`` section additionally times the largest circuit's fault
sim with telemetry writes enabled vs. disabled
(:func:`repro.telemetry.metrics.set_enabled`) — the observability
layer's overhead gate.

The full run writes machine-readable ``BENCH_perf.json`` at the repo root
so the perf trajectory is tracked across PRs; ``--smoke`` runs a
seconds-scale subset for CI and writes under ``benchmarks/results/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py          # full, tracked
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from common import append_history  # noqa: E402

from repro.api import AnalysisEngine  # noqa: E402
from repro.circuits.library import build  # noqa: E402
from repro.faults.simulator import FaultSimulator  # noqa: E402
from repro.logicsim.patterns import PatternSet  # noqa: E402
from repro.logicsim.simulator import simulate  # noqa: E402
from repro.telemetry.metrics import set_enabled  # noqa: E402

#: The paper's evaluation circuits plus the largest bundled circuit; the
#: largest one carries the telemetry-overhead measurement.
FULL_CIRCUITS = ("alu", "mult", "comp", "div", "mul24")
SMOKE_CIRCUITS = ("alu", "mult")


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _numpy_available():
    from repro.backends import get_backend

    return get_backend("numpy").is_available()


def bench_logic_sim(circuit, n_patterns, repeats):
    patterns = PatternSet.random(circuit.inputs, n_patterns, seed=7)
    out = {}
    simulate(circuit, patterns)  # warm caches
    elapsed = _best_of(repeats, lambda: simulate(circuit, patterns))
    out["kernel_s"] = elapsed
    out["kernel_patterns_per_s"] = n_patterns / elapsed
    if _numpy_available():
        simulate(circuit, patterns, backend="numpy")  # warm plan caches
        elapsed = _best_of(
            repeats, lambda: simulate(circuit, patterns, backend="numpy")
        )
        out["numpy_s"] = elapsed
        out["numpy_patterns_per_s"] = n_patterns / elapsed
    out["n_patterns"] = n_patterns
    return out


def bench_fault_sim(circuit, n_patterns):
    patterns = PatternSet.random(circuit.inputs, n_patterns, seed=7)
    out = {}
    simulator = FaultSimulator(circuit)
    n_faults = len(simulator.faults)
    start = time.perf_counter()
    simulator.run(patterns, block_size=n_patterns, drop_detected=False)
    elapsed = time.perf_counter() - start
    out["kernel_s"] = elapsed
    out["kernel_faults_x_patterns_per_s"] = n_faults * n_patterns / elapsed
    if _numpy_available():
        # Same protocol as the kernel row — one cold run, so
        # the numpy engine pays its cone-program build inside the timed
        # region exactly like the kernel pays its lazy plan build.
        # bench_backends.py tracks warm steady-state separately.
        simulator = FaultSimulator(circuit, backend="numpy")
        start = time.perf_counter()
        simulator.run(patterns, block_size=n_patterns, drop_detected=False)
        elapsed = time.perf_counter() - start
        out["numpy_s"] = elapsed
        out["numpy_faults_x_patterns_per_s"] = (
            n_faults * n_patterns / elapsed
        )
    out["n_patterns"] = n_patterns
    out["n_faults"] = n_faults
    return out


def bench_telemetry_overhead(circuit, n_patterns, repeats):
    """Fault-sim throughput with telemetry writes on vs. off.

    Same warm simulator both ways, so the delta isolates the metric
    increments and span bookkeeping around ``FaultSimulator.run``.  The
    disabled path is the acceptance gate: its cost must stay at noise
    level relative to a build without the telemetry layer.
    """
    patterns = PatternSet.random(circuit.inputs, n_patterns, seed=7)
    simulator = FaultSimulator(circuit)
    n_faults = len(simulator.faults)
    simulator.run(patterns, block_size=n_patterns, drop_detected=False)  # warm
    out = {}
    try:
        for label, flag in (("enabled", True), ("disabled", False)):
            set_enabled(flag)
            elapsed = _best_of(
                repeats,
                lambda: simulator.run(
                    patterns, block_size=n_patterns, drop_detected=False
                ),
            )
            out[f"{label}_s"] = elapsed
            out[f"{label}_faults_x_patterns_per_s"] = (
                n_faults * n_patterns / elapsed
            )
    finally:
        set_enabled(True)
    out["n_patterns"] = n_patterns
    out["n_faults"] = n_faults
    out["overhead_pct"] = 100.0 * (out["enabled_s"] / out["disabled_s"] - 1.0)
    return out


def bench_analyze(name):
    # A fresh circuit object: nothing precompiled is reused, so the run
    # pays its own compile time.
    engine = AnalysisEngine(build(name), "paper")
    start = time.perf_counter()
    engine.analyze()
    return {"kernel_s": time.perf_counter() - start}


def run(circuits, sim_patterns, fsim_patterns, repeats, mode):
    # Smoke series never mix into the full-run baselines: the workloads
    # differ, so they live under their own prefix in the history.
    prefix = "" if mode == "full" else "smoke."
    results = {}
    for name in circuits:
        circuit = build(name)
        print(f"[{name}] {circuit.n_gates} gates", flush=True)
        logic = bench_logic_sim(circuit, sim_patterns, repeats)
        print(
            f"  logic sim  : {logic['kernel_patterns_per_s']:.3e} pat/s",
            flush=True,
        )
        fsim = bench_fault_sim(circuit, fsim_patterns)
        print(
            f"  fault sim  : {fsim['kernel_faults_x_patterns_per_s']:.3e} "
            f"f*p/s", flush=True,
        )
        for backend in ("kernel", "numpy"):
            value = fsim.get(f"{backend}_faults_x_patterns_per_s")
            if value is not None:
                append_history(
                    "bench_perf", f"{prefix}faultsim.{name}.{backend}",
                    value, "faults_x_patterns_per_s",
                    extra={"n_patterns": fsim_patterns,
                           "n_faults": fsim["n_faults"]},
                )
        analyze = bench_analyze(name)
        print(f"  analyze    : {analyze['kernel_s']:.2f}s", flush=True)
        results[name] = {
            "n_gates": circuit.n_gates,
            "logic_sim": logic,
            "fault_sim": fsim,
            "analyze": analyze,
        }
    largest = max(circuits, key=lambda n: results[n]["n_gates"])
    telemetry = bench_telemetry_overhead(
        build(largest),
        n_patterns=256 if mode == "full" else 64,
        repeats=5 if mode == "full" else 2,
    )
    telemetry["circuit"] = largest
    print(
        f"[telemetry] {largest}: "
        f"{telemetry['enabled_faults_x_patterns_per_s']:.3e} f*p/s on, "
        f"{telemetry['disabled_faults_x_patterns_per_s']:.3e} f*p/s off "
        f"({telemetry['overhead_pct']:+.2f}% overhead)", flush=True,
    )
    append_history(
        "bench_perf", f"{prefix}telemetry.overhead_pct",
        telemetry["overhead_pct"], "pct", kind="overhead_pct",
        extra={"circuit": largest},
    )
    return {
        "bench": "bench_perf",
        "mode": mode,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "circuits": results,
        "telemetry": telemetry,
        "largest_circuit": largest,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale subset for CI; writes under benchmarks/results/",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output JSON path (default: BENCH_perf.json at the repo root, "
        "or benchmarks/results/bench_perf_smoke.json with --smoke)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = run(SMOKE_CIRCUITS, sim_patterns=1024, fsim_patterns=64,
                      repeats=1, mode="smoke")
        out = args.out or ROOT / "benchmarks" / "results" / "bench_perf_smoke.json"
    else:
        payload = run(FULL_CIRCUITS, sim_patterns=4096, fsim_patterns=256,
                      repeats=3, mode="full")
        out = args.out or ROOT / "BENCH_perf.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    if not args.smoke and out.exists():
        # Other full benches merge their own sections ("backends",
        # "sampling", "service") into the tracked file — update this
        # bench's keys without dropping theirs.
        tracked = json.loads(out.read_text(encoding="utf-8"))
        tracked.update(payload)
        payload = tracked
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

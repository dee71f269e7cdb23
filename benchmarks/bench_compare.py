"""Benchmark regression gate: diff fresh numbers against rolling history.

Reads the append-only perf history under ``benchmarks/history/``
(written by the bench runners via :func:`common.append_history`),
measures the tracked series fresh, and **fails** (exit 1) when a series
regresses past its kind's threshold against the rolling baseline:

========== ============================== ==========================
kind        baseline direction             gate
========== ============================== ==========================
throughput  higher is better               fresh < baseline * 0.80
rss         lower is better                fresh > baseline * 1.15
latency     lower is better                fresh > baseline * 1.20
overhead    lower is better (percentage    fresh > baseline + 2.0
pct         points, absolute)              points
========== ============================== ==========================

The baseline is the **median of the last K entries** (default 5) for
the same series on the same machine fingerprint — medians shrug off a
single noisy run, the fingerprint keeps laptop numbers from gating CI
boxes.  A series without history passes as ``no-baseline`` (the first
run seeds it).

Tracked series (default mode, minutes-scale):

* ``faultsim.mul24.{kernel,numpy}`` — the ROADMAP acceptance fault-sim
  workload per backend (256-pattern blocks);
* ``analyze.s15850`` + ``rss.s15850.<backend>`` — the largest vendored
  netlist through the full analytic pass, in a fresh subprocess;
* ``sampling.c432.<backend>`` — Monte-Carlo grading throughput;
* ``telemetry.overhead_pct`` — the observability layer's overhead gate.

``--smoke`` is the seconds-scale CI self-test: it validates the
committed fixture ``benchmarks/history/baseline_smoke.jsonl``, asserts
the gate **passes on an unmodified re-run** and **trips on a synthetic
25% regression** (throughput x0.75, rss/latency x1.25, overhead
+2.5 pts), then takes one real measurement to prove the measurement
path end to end.

Usage::

    PYTHONPATH=src python benchmarks/bench_compare.py            # full gate
    PYTHONPATH=src python benchmarks/bench_compare.py --smoke    # CI self-test
    PYTHONPATH=src python benchmarks/bench_compare.py \\
        --from-json fresh.json --history-dir /tmp/hist           # gate a file
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from common import (  # noqa: E402
    HISTORY_DIR,
    append_history,
    load_history,
    machine_fingerprint,
)

#: kind -> (direction, threshold).  ``ratio-lower``: fail when fresh
#: drops more than threshold% below baseline; ``ratio-upper``: fail when
#: fresh grows more than threshold% above; ``points-upper``: fail when
#: fresh exceeds baseline by more than threshold absolute points.
THRESHOLDS = {
    "throughput": ("ratio-lower", 20.0),
    "rss": ("ratio-upper", 15.0),
    "latency": ("ratio-upper", 20.0),
    "overhead_pct": ("points-upper", 2.0),
}

FIXTURE = "baseline_smoke.jsonl"
#: The synthetic regression applied by --smoke's trip-wire check.
SMOKE_REGRESSION_PCT = 25.0


# --- Comparison core ----------------------------------------------------------


def baseline_for(history, series, fingerprint, window, ignore_fingerprint):
    """Median of the last ``window`` same-series (same-machine) entries."""
    rows = [
        entry for entry in history
        if entry.get("series") == series
        and isinstance(entry.get("value"), (int, float))
        and (ignore_fingerprint or entry.get("fingerprint") == fingerprint)
    ]
    if not rows:
        return None, 0
    tail = rows[-window:]
    return statistics.median(entry["value"] for entry in tail), len(tail)


def judge(kind, fresh, base):
    """Return ``(ok, delta, gate_label)`` for one fresh-vs-baseline pair."""
    direction, threshold = THRESHOLDS.get(kind, THRESHOLDS["throughput"])
    if direction == "points-upper":
        delta = fresh - base
        return delta <= threshold, delta, f"<= +{threshold:.1f} pts"
    delta_pct = 100.0 * (fresh / base - 1.0) if base else 0.0
    if direction == "ratio-lower":
        return delta_pct >= -threshold, delta_pct, f">= -{threshold:.0f}%"
    return delta_pct <= threshold, delta_pct, f"<= +{threshold:.0f}%"


def compare(rows, history, window, ignore_fingerprint=False):
    """Judge every fresh row against its rolling baseline.

    Returns ``(verdicts, ok)``; a row with no baseline passes as
    ``no-baseline`` so the first run on a new machine seeds the history
    instead of failing.
    """
    fingerprint = machine_fingerprint()
    verdicts = []
    ok = True
    for row in rows:
        kind = row.get("kind", "throughput")
        base, n_base = baseline_for(
            history, row["series"], fingerprint, window, ignore_fingerprint
        )
        if base is None:
            verdicts.append({**row, "baseline": None, "n_baseline": 0,
                             "delta": None, "gate": None,
                             "status": "no-baseline"})
            continue
        row_ok, delta, gate = judge(kind, row["value"], base)
        ok = ok and row_ok
        verdicts.append({**row, "baseline": base, "n_baseline": n_base,
                         "delta": delta, "gate": gate,
                         "status": "ok" if row_ok else "REGRESSION"})
    return verdicts, ok


def inject_regression(rows, pct):
    """Worsen every row by ``pct`` in its kind's bad direction."""
    out = []
    for row in rows:
        kind = row.get("kind", "throughput")
        value = row["value"]
        if kind in ("rss", "latency"):
            value *= 1.0 + pct / 100.0
        elif kind == "overhead_pct":
            value += pct / 10.0  # 25% -> +2.5 pts, past the 2.0-pt gate
        else:
            value *= 1.0 - pct / 100.0
        out.append({**row, "value": value})
    return out


def print_verdicts(verdicts):
    width = max((len(v["series"]) for v in verdicts), default=10)
    for v in verdicts:
        if v["status"] == "no-baseline":
            print(f"  {v['series']:<{width}}  {v['value']:>12.4g}  "
                  f"(no baseline; seeding)")
            continue
        delta = v["delta"]
        kind = v.get("kind", "throughput")
        delta_txt = (f"{delta:+.2f} pts" if kind == "overhead_pct"
                     else f"{delta:+.1f}%")
        print(f"  {v['series']:<{width}}  {v['value']:>12.4g}  "
              f"vs {v['baseline']:.4g} (n={v['n_baseline']})  "
              f"{delta_txt:>10}  gate {v['gate']:<12}  {v['status']}")


# --- Fresh measurements -------------------------------------------------------


def measure_faultsim_mul24():
    """The ROADMAP acceptance workload per backend, bench_perf protocol
    (fresh simulator, one timed run at 256-pattern blocks)."""
    from repro.backends import get_backend
    from repro.circuits.library import build
    from repro.faults.simulator import FaultSimulator
    from repro.logicsim.patterns import PatternSet

    circuit = build("mul24")
    n_patterns = 256
    patterns = PatternSet.random(circuit.inputs, n_patterns, seed=7)
    variants = [("kernel", {})]
    if get_backend("numpy").is_available():
        variants.append(("numpy", {"backend": "numpy"}))
    rows = []
    for label, kwargs in variants:
        simulator = FaultSimulator(circuit, **kwargs)
        n_faults = len(simulator.faults)
        start = time.perf_counter()
        simulator.run(patterns, block_size=n_patterns, drop_detected=False)
        elapsed = time.perf_counter() - start
        rows.append({
            "bench": "bench_perf",
            "series": f"faultsim.mul24.{label}",
            "value": n_faults * n_patterns / elapsed,
            "unit": "faults_x_patterns_per_s",
            "kind": "throughput",
        })
    return rows


def measure_analyze_s15850():
    """The largest netlist through bench_large's subprocess harness, so
    the peak-RSS row is per-circuit and backend-attributed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_large.py"),
         "--measure", "s15850"],
        capture_output=True, text=True, check=True,
    )
    entry = json.loads(proc.stdout)
    return [
        {"bench": "bench_large", "series": "analyze.s15850",
         "value": entry["gates_per_analyze_s"], "unit": "gates_per_s",
         "kind": "throughput"},
        {"bench": "bench_large",
         "series": f"rss.s15850.{entry['backend']}",
         "value": entry["peak_rss_bytes"], "unit": "bytes", "kind": "rss"},
    ]


def measure_sampling_c432():
    from repro.api import AnalysisEngine, ProtestConfig
    from repro.circuits.library import build

    config = ProtestConfig.preset("sampled").replace(
        target_halfwidth=0.02, confidence_level=0.99, max_patterns=8192,
        seed=20260729, name="bench-sampled",
    )
    engine = AnalysisEngine(build("c432"), config)
    start = time.perf_counter()
    report = engine.sampled_detection_probabilities()
    elapsed = time.perf_counter() - start
    return [{
        "bench": "bench_sampling",
        "series": f"sampling.c432.{report.provenance.backend}",
        "value": report.n_faults * report.n_patterns / elapsed,
        "unit": "faults_x_patterns_per_s",
        "kind": "throughput",
    }]


def measure_telemetry_overhead():
    from bench_perf import bench_telemetry_overhead
    from repro.circuits.library import build

    out = bench_telemetry_overhead(build("mul24"), n_patterns=256, repeats=3)
    return [{
        "bench": "bench_perf", "series": "telemetry.overhead_pct",
        "value": out["overhead_pct"], "unit": "pct", "kind": "overhead_pct",
    }]


def measure_tracked():
    rows = []
    for fn in (measure_faultsim_mul24, measure_analyze_s15850,
               measure_sampling_c432, measure_telemetry_overhead):
        print(f"measuring: {fn.__name__} ...", flush=True)
        rows.extend(fn())
    return rows


def measure_smoke():
    """One seconds-scale real measurement: alu fault sim at 64-pattern
    blocks on the kernel path (bench_perf's smoke workload shape)."""
    from repro.circuits.library import build
    from repro.faults.simulator import FaultSimulator
    from repro.logicsim.patterns import PatternSet

    circuit = build("alu")
    n_patterns = 64
    patterns = PatternSet.random(circuit.inputs, n_patterns, seed=7)
    simulator = FaultSimulator(circuit)
    n_faults = len(simulator.faults)
    start = time.perf_counter()
    simulator.run(patterns, block_size=n_patterns, drop_detected=False)
    elapsed = time.perf_counter() - start
    return [{
        "bench": "bench_perf", "series": "smoke.faultsim.alu.kernel",
        "value": n_faults * n_patterns / elapsed,
        "unit": "faults_x_patterns_per_s", "kind": "throughput",
    }]


# --- Modes --------------------------------------------------------------------


def load_fixture(history_dir):
    """Parse the committed smoke fixture, validating every line."""
    path = history_dir / FIXTURE
    if not path.is_file():
        print(f"FAIL: missing fixture {path}", file=sys.stderr)
        return None
    entries = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError as error:
            print(f"FAIL: {path}:{lineno}: unparseable: {error}",
                  file=sys.stderr)
            return None
        missing = {"bench", "series", "value", "unit", "kind"} - set(entry)
        if missing:
            print(f"FAIL: {path}:{lineno}: missing keys {sorted(missing)}",
                  file=sys.stderr)
            return None
        entries.append(entry)
    if not entries:
        print(f"FAIL: empty fixture {path}", file=sys.stderr)
        return None
    return entries


def latest_per_series(entries):
    latest = {}
    for entry in entries:
        latest[entry["series"]] = entry
    return [
        {key: entry[key] for key in ("bench", "series", "value", "unit",
                                     "kind")}
        for entry in latest.values()
    ]


def run_smoke(args):
    """CI self-test: the gate must pass clean and trip on a synthetic
    regression, against the committed fixture baseline."""
    history_dir = args.history_dir or HISTORY_DIR
    fixture = load_fixture(history_dir)
    if fixture is None:
        return 1
    kinds = {entry["kind"] for entry in fixture}
    if not {"throughput", "rss", "latency", "overhead_pct"} <= kinds:
        print(f"FAIL: fixture exercises only kinds {sorted(kinds)}",
              file=sys.stderr)
        return 1
    fresh = latest_per_series(fixture)

    print(f"[fixture] unmodified re-run ({len(fresh)} series):")
    verdicts, clean_ok = compare(fresh, fixture, args.baseline_window,
                                 ignore_fingerprint=True)
    print_verdicts(verdicts)
    if not clean_ok or any(v["status"] == "no-baseline" for v in verdicts):
        print("FAIL: gate did not pass an unmodified re-run",
              file=sys.stderr)
        return 1

    print(f"[fixture] injected {SMOKE_REGRESSION_PCT:.0f}% regression:")
    injected = inject_regression(fresh, SMOKE_REGRESSION_PCT)
    verdicts, injected_ok = compare(injected, fixture, args.baseline_window,
                                    ignore_fingerprint=True)
    print_verdicts(verdicts)
    if injected_ok or any(v["status"] == "ok" for v in verdicts):
        print("FAIL: gate did not trip on the injected regression",
              file=sys.stderr)
        return 1

    # One real measurement through the same compare path: gated against
    # this machine's rolling history (no-baseline on a fresh checkout).
    real = measure_smoke()
    history = [entry for entry in load_history(history_dir)
               if entry.get("fingerprint") != "fixture000000"]
    print("[real] alu fault sim (kernel):")
    verdicts, real_ok = compare(real, history, args.baseline_window,
                                ignore_fingerprint=args.ignore_fingerprint)
    print_verdicts(verdicts)
    if not args.no_append:
        for row in real:
            append_history(row["bench"], row["series"], row["value"],
                           row["unit"], kind=row["kind"],
                           history_dir=args.history_dir)
    if not real_ok:
        return 1
    print("smoke gate OK: clean pass, synthetic regression tripped")
    return 0


def run_gate(args):
    """Default / --from-json: compare fresh rows to the rolling baseline."""
    if args.from_json:
        rows = json.loads(pathlib.Path(args.from_json).read_text(
            encoding="utf-8"
        ))
        if not isinstance(rows, list):
            print("FAIL: --from-json expects a list of measurement rows",
                  file=sys.stderr)
            return 1
    else:
        rows = measure_tracked()
    if args.inject_regression:
        rows = inject_regression(rows, args.inject_regression)
    history = load_history(args.history_dir)
    verdicts, ok = compare(rows, history, args.baseline_window,
                           ignore_fingerprint=args.ignore_fingerprint)
    print(f"gate over {len(verdicts)} series "
          f"(baseline window {args.baseline_window}):")
    print_verdicts(verdicts)
    if args.json:
        payload = {"ok": ok, "window": args.baseline_window,
                   "verdicts": verdicts}
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n",
                             encoding="utf-8")
        print(f"wrote {args.json}")
    if not args.no_append and not args.inject_regression:
        # Compare-then-append: the fresh rows must not be their own
        # baseline.  Injected values never enter the history.
        for row in rows:
            append_history(row["bench"], row["series"], row["value"],
                           row["unit"], kind=row["kind"],
                           history_dir=args.history_dir)
    if not ok:
        failed = [v["series"] for v in verdicts if v["status"] == "REGRESSION"]
        print(f"REGRESSION in: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI self-test against the committed fixture")
    parser.add_argument("--from-json", metavar="FILE", default=None,
                        help="gate pre-measured rows (a JSON list of "
                             "{bench, series, value, unit, kind}) instead "
                             "of measuring")
    parser.add_argument("--history-dir", type=pathlib.Path, default=None,
                        help=f"history directory (default {HISTORY_DIR})")
    parser.add_argument("--baseline-window", type=int, default=5,
                        metavar="K", help="median of the last K entries")
    parser.add_argument("--inject-regression", type=float, default=None,
                        metavar="PCT",
                        help="synthetically worsen every fresh row by PCT "
                             "(gate plumbing test; never appended)")
    parser.add_argument("--ignore-fingerprint", action="store_true",
                        help="baseline across machines (smoke fixtures)")
    parser.add_argument("--no-append", action="store_true",
                        help="do not append fresh rows to the history")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="also write the verdicts as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())

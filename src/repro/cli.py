"""Command-line interface: ``protest <subcommand>``.

Subcommands
-----------
``analyze``    estimate testability and required test lengths
``testlen``    just the Table-2/3 style N for given d/e
``optimize``   hill-climb the input probabilities (Table 4)
``generate``   emit a (weighted) random pattern set
``fsim``       fault-simulate a pattern set and print the coverage curve
``sample``     Monte-Carlo grading with confidence intervals
``sweep``      analyse many circuits under many configs in one call
``serve``      run the HTTP analysis service (:mod:`repro.service`)
``circuits``   list the built-in evaluation circuits
``convert``    convert netlists (.bench/.v/.sdl in, .bench/.sdl out)

Circuits are referenced either by a built-in name (see ``circuits``) or by
a netlist file path — ISCAS-85/89 ``.bench`` (sequential netlists are
combinationally extracted), structural Verilog ``.v``, or the library's
``.sdl`` (see :mod:`repro.circuit.io`).  ``analyze``, ``testlen``, ``optimize``,
``fsim``, ``sample`` and ``sweep`` accept ``--json`` to emit the result
objects' serialized payloads instead of ASCII tables, ``--preset`` to
start from a named :class:`~repro.api.ProtestConfig` preset, and
``--backend {auto,python,numpy}`` to pick the evaluation engine behind
the compiled kernel (:mod:`repro.backends`).  ``sweep`` accepts
``--executor {process,thread,inline}`` to pick the pool type and
``--method sampled`` to Monte-Carlo grade every cell.

The same subcommands plus ``sweep`` accept ``--trace PATH`` to dump the
command's spans as Chrome/Perfetto trace-event JSON
(:mod:`repro.telemetry.tracing`); ``serve`` exposes ``--log-level`` for
structured JSON logs and ``--trace-dir`` for per-job trace files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Dict, List

from repro.api.config import METHODS, ProtestConfig, available_presets
from repro.api.engine import AnalysisEngine
from repro.api.sweep import EXECUTORS, run_sweep
from repro.backends import AUTO_BACKEND, registered_backends
from repro.circuit.io import NETLIST_SUFFIXES, is_netlist_path, load_netlist
from repro.circuit.netlist import Circuit
from repro.circuit.sdl import save_sdl
from repro.circuit.transistors import transistor_count
from repro.circuit.writer import save_bench
from repro.circuits.library import REGISTRY, build, names
from repro.errors import ReproError
from repro.faults.coverage import TABLE6_CHECKPOINTS
from repro.report.tables import ascii_table, format_count
from repro.resilience.atomic import atomic_write
from repro.sampling.intervals import INTERVAL_METHODS
from repro.sampling.montecarlo import SamplingPlan
from repro.telemetry.logs import LOG_LEVELS
from repro.telemetry.profiling import PhaseProfiler
from repro.telemetry.tracing import export_chrome_trace, span

#: Defaults quoted in the ``sample`` subcommand's help text.
_PLAN = SamplingPlan()

__all__ = ["main"]


def _load_circuit(spec: str) -> Circuit:
    if spec in REGISTRY:
        return build(spec)
    if is_netlist_path(spec):
        return load_netlist(spec)
    raise ReproError(
        f"unknown circuit {spec!r}: not a registered name and not a "
        f"netlist path ({'/'.join(NETLIST_SUFFIXES)})"
    )


def _load_probs(spec: "str | None") -> "Dict[str, float] | float | None":
    if spec is None:
        return None
    try:
        return float(spec)
    except ValueError:
        pass
    with open(spec, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ReproError(f"{spec}: expected a JSON object of input probabilities")
    return {str(k): float(v) for k, v in data.items()}


def _backend_choices() -> "List[str]":
    return [AUTO_BACKEND] + registered_backends()


def _config(args: argparse.Namespace) -> ProtestConfig:
    """Resolve the preset + per-flag overrides into one config."""
    base = ProtestConfig.preset(args.preset)
    overrides = {}
    for knob in ("maxvers", "maxlist", "stem_model", "pin_model", "backend"):
        value = getattr(args, knob, None)
        if value is not None:
            overrides[knob] = value
    return base.replace(**overrides) if overrides else base


def _engine(args: argparse.Namespace) -> AnalysisEngine:
    return AnalysisEngine(_load_circuit(args.circuit), _config(args))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("circuit",
                        help="built-in name or .bench/.v/.sdl path")
    parser.add_argument("--probs", default=None,
                        help="input 1-probability: scalar or JSON file")
    parser.add_argument("--preset", default="paper",
                        choices=available_presets(),
                        help="ProtestConfig preset to start from")
    parser.add_argument("--maxvers", type=int, default=None,
                        help="MAXVERS: max conditioning-set size (default 3)")
    parser.add_argument("--maxlist", type=int, default=None,
                        help="MAXLIST: joining-point search depth (default 8)")
    parser.add_argument("--stem-model", default=None,
                        choices=("chain", "multi_output"))
    parser.add_argument("--pin-model", default=None,
                        choices=("independent", "boolean_difference"))
    parser.add_argument("--backend", default=None,
                        choices=_backend_choices(),
                        help="evaluation engine behind the compiled kernel "
                             "(auto picks numpy for large circuits when "
                             "installed; all backends are bit-identical)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome/Perfetto trace-event JSON of "
                             "this command's spans (open in about:tracing "
                             "or ui.perfetto.dev)")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="write a phase-profile JSON: self/cumulative "
                             "times per stage, kernel level and opcode "
                             "class, backend word calls, and estimator "
                             "stages, plus collapsed flamegraph stacks and "
                             "a memory section")


def _cmd_analyze(args: argparse.Namespace) -> int:
    engine = _engine(args)
    report = engine.analyze(_load_probs(args.probs))
    if args.json:
        payload = report.to_dict()
        payload["transistors"] = transistor_count(engine.circuit)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(report.to_text())
    print(f"  transistors (CMOS): {transistor_count(engine.circuit)}")
    return 0


def _cmd_testlen(args: argparse.Namespace) -> int:
    engine = _engine(args)
    probs = _load_probs(args.probs)
    results = [
        engine.test_length(confidence, fraction, probs)
        for fraction in args.fraction
        for confidence in args.confidence
    ]
    if args.json:
        payload = {
            "circuit": engine.circuit.name,
            "results": [r.to_dict() for r in results],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        [f"{r.fraction:.2f}", f"{r.confidence:.3f}",
         format_count(r.n_patterns) if r.n_patterns is not None else "inf"]
        for r in results
    ]
    print(ascii_table(["d", "e", "N"], rows,
                      title=f"required test lengths for {engine.circuit.name}"))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    engine = _engine(args)
    result = engine.optimize(
        n_ref=args.n_ref, grid=args.grid, max_rounds=args.rounds,
        start=_load_probs(args.probs),
    )
    if args.json:
        payload = {
            "circuit": engine.circuit.name,
            "initial_score": result.initial_score,
            "score": result.score,
            "rounds": result.rounds,
            "evaluations": result.evaluations,
            "probabilities": result.probabilities,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"log J_N: {result.initial_score:.2f} -> {result.score:.2f} "
              f"({result.rounds} rounds, {result.evaluations} evaluations)")
    if args.output:
        atomic_write(args.output, lambda handle: json.dump(
            result.probabilities, handle, indent=2, sort_keys=True
        ))
        if not args.json:
            print(f"optimized probabilities written to {args.output}")
    elif not args.json:
        rows = [[name, f"{p:.4f}"] for name, p in
                sorted(result.probabilities.items())]
        print(ascii_table(["input", "p"], rows))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    engine = _engine(args)
    patterns = engine.generate_patterns(args.count, _load_probs(args.probs),
                                        seed=args.seed)

    def rows():
        for j in range(patterns.n_patterns):
            vec = patterns.vector(j)
            yield "".join(str(vec[name]) for name in patterns.inputs)

    if args.json:
        payload = {
            "circuit": engine.circuit.name,
            "inputs": list(patterns.inputs),
            "seed": args.seed,
            "patterns": list(rows()),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for row in rows():
        print(row)
    return 0


def _cmd_fsim(args: argparse.Namespace) -> int:
    engine = _engine(args)
    patterns = engine.generate_patterns(args.count, _load_probs(args.probs),
                                        seed=args.seed)
    result = engine.fault_simulate(patterns)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    checkpoints = [n for n in TABLE6_CHECKPOINTS if n <= args.count]
    if args.count not in checkpoints:
        checkpoints.append(args.count)
    rows = [[str(n), f"{100.0 * result.raw.coverage_at(n):.1f}"]
            for n in checkpoints]
    print(ascii_table(["patterns", "coverage %"], rows,
                      title=f"fault simulation of {engine.circuit.name} "
                            f"({result.n_faults} faults)"))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    overrides = {"method": "sampled"}
    for knob in ("target_halfwidth", "confidence_level", "max_patterns",
                 "interval_method", "fault_sample", "seed"):
        value = getattr(args, knob, None)
        if value is not None:
            overrides[knob] = value
    engine = AnalysisEngine(
        _load_circuit(args.circuit), _config(args).replace(**overrides)
    )
    probs = _load_probs(args.probs)
    report = engine.sampled_analyze(probs)
    validation = engine.cross_validate(probs) if args.cross_validate else None
    if args.json:
        payload = report.to_dict()
        if validation is not None:
            payload["cross_validation"] = validation.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.to_text())
        if validation is not None:
            print(validation.to_text())
    if validation is not None and not validation.ok:
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = [ProtestConfig.preset(name) for name in args.presets or ["paper"]]
    if args.method is not None:
        configs = [c.replace(method=args.method, name=c.name) for c in configs]
    if args.backend is not None:
        configs = [c.replace(backend=args.backend, name=c.name)
                   for c in configs]
    result = run_sweep(
        [_load_circuit(spec) for spec in args.circuits],
        configs,
        workers=args.workers,
        input_probs=_load_probs(args.probs),
        confidences=tuple(args.confidence),
        fractions=tuple(args.fraction),
        executor=args.executor,
        timeout=args.timeout,
        retries=args.retries,
    )
    if args.json:
        print(result.to_json(indent=2))
    else:
        print(result.to_table())
    return 1 if result.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_circuits=args.max_circuits,
        max_reports=args.max_reports,
        default_timeout=args.timeout,
        verbose=args.verbose,
        journal=args.journal,
        max_queue=args.max_queue,
        retries=args.retries,
        grace=args.grace,
        log_level=args.log_level,
        trace_dir=args.trace_dir,
    )


def _cmd_circuits(_args: argparse.Namespace) -> int:
    rows = []
    for name in names():
        circuit = build(name)
        rows.append([name, circuit.name, str(len(circuit.inputs)),
                     str(len(circuit.outputs)), str(circuit.n_gates),
                     str(transistor_count(circuit))])
    print(ascii_table(
        ["name", "title", "inputs", "outputs", "gates", "transistors"], rows))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    if args.output.endswith(".bench"):
        save_bench(circuit, args.output)
    elif args.output.endswith(".sdl"):
        save_sdl(circuit, args.output)
    else:
        raise ReproError("output must end in .bench or .sdl")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protest",
        description="Probabilistic testability analysis "
                    "(reproduction of Wunderlich, DAC 1985)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full testability report")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("testlen", help="required random test length")
    _add_common(p)
    p.add_argument("--confidence", "-e", type=float, nargs="+",
                   default=[0.95, 0.98, 0.999])
    p.add_argument("--fraction", "-d", type=float, nargs="+",
                   default=[1.0, 0.98])
    p.set_defaults(func=_cmd_testlen)

    p = sub.add_parser("optimize", help="optimize input probabilities")
    _add_common(p)
    p.add_argument("--n-ref", type=int, default=4096)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--output", "-o", default=None,
                   help="write optimized probabilities to a JSON file")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("generate", help="emit random patterns")
    _add_common(p)
    p.add_argument("--count", "-n", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fsim", help="fault-simulate random patterns")
    _add_common(p)
    p.add_argument("--count", "-n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fsim)

    p = sub.add_parser(
        "sample",
        help="Monte-Carlo grading with confidence intervals",
    )
    _add_common(p)
    p.add_argument("--target-halfwidth", type=float, default=None,
                   help="stop sampling once the widest interval halfwidth "
                        f"is at most this (default {_PLAN.target_halfwidth})")
    p.add_argument("--confidence-level", type=float, default=None,
                   help="two-sided interval confidence "
                        f"(default {_PLAN.confidence_level})")
    p.add_argument("--max-patterns", type=int, default=None,
                   help="hard cap on simulated patterns "
                        f"(default {_PLAN.max_patterns})")
    p.add_argument("--interval-method", default=None,
                   choices=INTERVAL_METHODS)
    p.add_argument("--fault-sample", type=int, default=None,
                   help="grade only a stratified subsample of this many faults")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cross-validate", action="store_true",
                   help="also check the analytic estimates against the "
                        "sampled intervals (exit 1 on flags)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "sweep", help="analyse many circuits under many configs"
    )
    p.add_argument("circuits", nargs="+",
                   help="built-in names or .bench/.v/.sdl paths")
    p.add_argument("--preset", dest="presets", action="append",
                   choices=available_presets(), default=None,
                   help="config preset; repeat for a config grid")
    p.add_argument("--workers", "-w", type=int, default=None)
    p.add_argument("--executor", choices=EXECUTORS, default=None,
                   help="pool type: process (default for multi-cell "
                        "sweeps), thread, or inline for the "
                        "deterministic serial path")
    p.add_argument("--method", choices=METHODS, default=None,
                   help="override every preset's method (sampled = "
                        "Monte-Carlo grading with intervals)")
    p.add_argument("--backend", choices=_backend_choices(), default=None,
                   help="override every preset's evaluation backend "
                        "(selection re-resolves inside each worker)")
    p.add_argument("--probs", default=None,
                   help="input 1-probability: scalar or JSON file")
    p.add_argument("--confidence", "-e", type=float, nargs="+",
                   default=[0.95, 0.98, 0.999])
    p.add_argument("--fraction", "-d", type=float, nargs="+",
                   default=[1.0, 0.98])
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock limit in seconds; a cell "
                        "exceeding it is recorded as timed out instead "
                        "of hanging the sweep (pool executors only)")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts for cells whose worker died "
                        "(a broken pool); estimation failures are "
                        "never retried")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of tables")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome/Perfetto trace-event JSON of "
                        "this sweep's spans (process workers ship "
                        "theirs back to the parent)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "serve", help="run the HTTP analysis service (repro.service)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port; 0 binds an ephemeral port (the bound "
                        "address is printed on startup)")
    p.add_argument("--workers", "-w", type=int, default=2,
                   help="job worker threads")
    p.add_argument("--max-circuits", type=int, default=64,
                   help="interned-circuit cache bound")
    p.add_argument("--max-reports", type=int, default=256,
                   help="finished-report cache bound")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-job wall-clock budget in seconds")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="checkpoint journal file: sampled jobs persist "
                        "per-block state there and a restarted server "
                        "resumes them seed-exactly")
    p.add_argument("--max-queue", type=int, default=None,
                   help="bound on queued jobs; submits beyond it get "
                        "429 + Retry-After instead of unbounded backlog")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts for jobs failing transiently "
                        "(worker crash, broken pool); permanent errors "
                        "fail immediately")
    p.add_argument("--grace", type=float, default=5.0,
                   help="drain budget in seconds on SIGTERM/SIGINT: "
                        "running jobs get this long to finish before "
                        "being aborted at their next checkpoint")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.add_argument("--log-level", default="info", choices=LOG_LEVELS,
                   help="structured JSON log level on stderr "
                        "('off' keeps the process silent)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="write a Chrome/Perfetto trace-<job>.json per "
                        "finished job into this directory")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("circuits", help="list built-in circuits")
    p.set_defaults(func=_cmd_circuits)

    p = sub.add_parser("convert", help="convert netlist formats")
    p.add_argument("circuit")
    p.add_argument("output")
    p.set_defaults(func=_cmd_convert)
    return parser


def main(argv: "List[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    profile_path = getattr(args, "profile", None)
    profiler = PhaseProfiler() if profile_path is not None else None
    try:
        with _activated(profiler):
            with span(f"cli.{args.command}", command=args.command) as root:
                status = args.func(args)
                root.set("status", status)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if trace_path is not None:
        export_chrome_trace(trace_path, trace_id=root.trace_id)
        print(f"trace written to {trace_path}", file=sys.stderr)
    if profiler is not None:
        atomic_write(profile_path, lambda handle: json.dump(
            profiler.to_payload(), handle, indent=2, sort_keys=True
        ))
        print(f"profile written to {profile_path}", file=sys.stderr)
    return status


def _activated(profiler: "PhaseProfiler | None"):
    return contextlib.nullcontext() if profiler is None else profiler.activate()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

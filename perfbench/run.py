"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("analyze", "fsim", "psim", "service")


def check_declared_metrics() -> None:
    """The metric names and units in BENCHMARK.json are the ones printed."""
    import harness

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in declared["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    if e2e != list(harness.E2E_METRICS) or layers != list(harness.LAYER_METRICS):
        raise SystemExit("BENCHMARK.json does not match perfbench/harness.py")
    names = [w["name"] for w in declared["workloads"]]
    if names != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads do not match run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    check_declared_metrics()

    import harness

    if args.workload == "service":
        import service

        attempted, failures, metrics = service.run(
            args.seed, args.seconds, bool(args.trace)
        )
    else:
        import corpus

        if args.workload == "analyze":
            from analyze import Analyze

            workload = Analyze()
        else:
            import faultsim

            workload = faultsim.FSIM if args.workload == "fsim" else faultsim.PSIM
        attempted, failures, metrics = corpus.run(
            workload, args.seed, args.seconds, bool(args.trace), str(SRC)
        )
    harness.print_result(attempted, failures, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

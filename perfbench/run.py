"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold-gemm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a checkout.  The operands come from ``--seed``; the
program is imported from the checkout's ``src`` tree.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or the per-layer ones with
``--trace 1``).  The lines before it print the same metrics with their
units, and with ``--trace 1`` the end-to-end ones as well.
``--workload all`` runs every workload in turn, each in its own process.

The full result, with the host fingerprint and every latency, is written
to ``perfbench/results/``; with ``--trace 1`` the traced call's Chrome
trace lands beside it (``repro explain --trace`` reads it).  Exits 2
without a result when the program is not present.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined line."""
    from perfbench.workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return 1
        one = json.loads(lines[-1])
        summary["correct"] &= one["correct"]
        summary["attempted"] += one["attempted"]
        summary["failed"] += one["failed"]
        summary["metrics"].update(
            {f"{name}/{k}": v for k, v in one["metrics"].items()}
        )
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench", "results"))
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    if args.workload == "all":
        return run_all(args)
    from perfbench import bench, probes
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    trace = bool(args.trace)
    result = bench.run(args.workload, args.seed, args.seconds, trace, args.out)
    probes.stop_resource_tracker()
    path = bench.write_result(result, args.out)
    print(f"# {args.workload} seed {args.seed}: {result['attempted']} calls, "
          f"{result['failed']} failed, host {result['host']['budget']}")
    units = {**bench.END_TO_END, **bench.PER_LAYER} if trace else bench.END_TO_END
    for name, unit in units.items():
        print(f"# {name:32s} {result['metrics'][name]:>14.6g} {unit}")
    if result["errors"]:
        print("# errors: " + "; ".join(result["errors"]))
    print(f"# result: {os.path.relpath(path, ROOT)}")
    print(json.dumps(bench.emit(result, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are result files written by ``perfbench/run.py`` or
directories of them (several runs per workload give medians and spreads).
Results measured on different hosts or core budgets are refused: the tool
names every fingerprint field that differs and reports no verdict, so a
host change is never passed off as a regression or an improvement.

For each end-to-end metric the verdict uses the bound in
``BENCHMARK.json``: ``regression`` when the new median is worse than the
base median by more than the bound, ``unresolved`` when either side's
spread (quartile distance over median) exceeds the bound.  Exact counts
(``core.*``, ``dist.shm_bytes``, ``dist.b_tiles_generated``) are compared
exactly.  Exit status: 0 no regression, 1 regression, 3 refused.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Counts that must be identical between runs of one commit.
EXACT = (
    "core.ntasks", "core.flops", "core.blocks", "core.a_bcast_bytes",
    "dist.shm_bytes", "dist.b_tiles_generated",
)

REFUSED = 3


def load(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = []
    for f in files:
        if f.endswith(".trace.json"):
            continue
        with open(f) as fh:
            out.append(json.load(fh))
    if not out:
        raise SystemExit(f"compare: no results under {path}")
    return out


def spread(values: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def host_differences(base: list[dict], new: list[dict]) -> list[str]:
    from perfbench.probes import fingerprint_diff

    ref = base[0]["host"]
    diffs = []
    for r in base[1:] + new:
        for d in fingerprint_diff(ref, r["host"]):
            if d not in diffs:
                diffs.append(d)
    return diffs


def compare(base: list[dict], new: list[dict], bench: dict) -> tuple[int, list[str]]:
    """``(exit status, report lines)`` for two sets of results."""
    diffs = host_differences(base, new)
    if diffs:
        return REFUSED, ["refused: results come from different host fingerprints"] + [
            f"  {d}" for d in diffs
        ]
    status, lines = 0, []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for w in workloads:
        b_runs = [r for r in base if r["workload"] == w]
        n_runs = [r for r in new if r["workload"] == w]
        lines.append(f"{w}: {len(b_runs)} base run(s), {len(n_runs)} new run(s)")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bv = [r["metrics"][name] for r in b_runs if name in r["metrics"]]
            nv = [r["metrics"][name] for r in n_runs if name in r["metrics"]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            worse = (nm - bm) / bm if m["better"] == "lower" else (bm - nm) / bm
            if max(spread(bv), spread(nv)) > bound:
                verdict = "unresolved (spread above bound)"
            elif worse > bound:
                verdict, status = "REGRESSION", 1
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            lines.append(
                f"  {name:20s} {bm:12.6g} -> {nm:12.6g} {m['unit']:5s} "
                f"{-worse:+7.1%} (bound {bound:.0%}, spread {spread(bv):.1%}/"
                f"{spread(nv):.1%}) {verdict}"
            )
        for name in EXACT:
            bset = {r["metrics"].get(name) for r in b_runs}
            nset = {r["metrics"].get(name) for r in n_runs}
            if len(bset) > 1 or len(nset) > 1:
                lines.append(f"  {name:20s} not exact: {sorted(bset)} / {sorted(nset)}")
            elif bset != nset:
                lines.append(f"  {name:20s} changed: {bset.pop()} -> {nset.pop()}")
    return status, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.bench) as f:
        bench = json.load(f)
    status, lines = compare(load(args.base), load(args.new), bench)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    sys.exit(main())

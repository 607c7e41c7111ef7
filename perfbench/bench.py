"""Drive one workload through the program's public layers and measure it.

A run has three parts:

1. **set-up** -- ``inspect()`` (and, on warm-iter, service start plus a
   warm-up job), repeated so ``setup_s`` is a median;
2. **timed calls** -- untraced contractions, each checked bit for bit
   against the serial oracle *outside* the timed region; raises, timeouts,
   wrong C and drifting exact counts are failures;
3. with ``trace=True`` only: **per-layer probes** -- the serial executor,
   a bare matmul loop over the plan's own tasks, B generation,
   fingerprints, shm packing, pool start -- and traced calls whose
   critical path is split into blame buckets.  The traced call's Chrome
   trace is written beside the result for ``repro explain --trace``.

The benchmark sets no thread-count variable: the program runs at its
default BLAS and telemetry settings, and the host fingerprint records the
resulting core budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
import traceback

import numpy as np

from perfbench import probes
from perfbench.workloads import NPROC, WORKLOADS, Workload, build
from repro.core import inspect
from repro.core.inspector import expected_comm_volumes
from repro.dist import TileArena, WorkerPool, execute_plan_distributed
from repro.dist.pool import _default_start_method
from repro.machine import summit
from repro.perf import write_run_artifact
from repro.runtime import GeneratedCollection, execute_plan
from repro.runtime.numeric import block_cols_of_k
from repro.serve import ContractionService
from repro.store import b_fingerprint, plan_fingerprint

#: End-to-end metrics (printed with ``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "contraction_p50_s": "s",
    "peak_rss_mib": "MiB",
}

#: Critical-path blame buckets (``repro.perf``); with idle they sum to the makespan.
PATH_BUCKETS = (
    "gemm", "bgen", "fetch", "qwait", "shm", "writeback", "comm", "other", "idle",
)

#: Per-layer metrics (printed with ``--trace 1``): name -> unit.
PER_LAYER = {
    "contraction_p95_s": "s",
    "error_rate": "ratio",
    "core.inspect_s": "s",
    "core.ntasks": "count",
    "core.flops": "flop",
    "core.blocks": "count",
    "core.a_bcast_bytes": "B",
    "runtime.serial_s": "s",
    "runtime.serial_gflops": "GF/s",
    "runtime.matmul_gflops": "GF/s",
    "runtime.dispatch_us_per_task": "us",
    "runtime.bgen_s": "s",
    "store.b_fingerprint_s": "s",
    "store.plan_fingerprint_s": "s",
    "dist.pack_s": "s",
    "dist.pool_start_s": "s",
    **{f"dist.path.{b}_s": "s" for b in PATH_BUCKETS},
    "dist.rank_busy_min": "ratio",
    "dist.qwait_s": "s",
    "dist.trace_overhead_frac": "ratio",
    "dist.comm_bytes": "B",
    "dist.shm_bytes": "B",
    "dist.b_tiles_generated": "count",
    "dist.b_hits": "count",
    "dist.b_hit_ratio": "ratio",
    "dist.b_max_instantiations": "count",
    "dist.shm_leftover": "count",
    "dist.workers_unreaped": "count",
    "serve.queue_s_p50": "s",
    "serve.run_s_p50": "s",
    "serve.client_overhead_s_p50": "s",
    "serve.spawns": "count",
    "serve.rss_mib_per_job": "MiB",
}

#: Repetitions of each set-up and per-layer probe (their median is reported).
SETUP_REPS = {"cold": 7, "warm": 3}
PROBE_REPS = 3
#: Traced calls after the timed ones; the median one is reported.
TRACED_CALLS = 3
#: Seconds one contraction may take before it counts as timed out.
CALL_TIMEOUT_S = 60.0
#: No new timed call starts this many seconds after the run began, so the
#: whole run ends well inside its time limit even on a much slower build.
LOOP_BUDGET_S = 110.0


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _percentile(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


def _timed(fn, reps: int = PROBE_REPS) -> float:
    """Median seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _median(times)


def digest(c) -> str:
    """SHA-256 of C's tile keys, shapes, dtypes and bytes: equal digests
    mean bit-for-bit equal results."""
    h = hashlib.sha256()
    for key in sorted(c.keys()):
        tile = np.ascontiguousarray(c.get_tile(*key))
        h.update(f"{key}|{tile.shape}|{tile.dtype}".encode())
        h.update(tile.data)
    return h.hexdigest()


def exact_counts(report) -> tuple:
    """Counts that must repeat exactly from call to call.

    Of the comm bytes only the modeled A broadcast is exact: scatter
    messages name shared-memory segments by a growing counter and reports
    carry pickled measurements, so the coordinator links drift by a few
    bytes from call to call.
    """
    return (
        report.stats.ntasks,
        report.stats.flops,
        report.comm.a_broadcast_bytes(),
        report.shm_bytes,
        report.stats.b_tiles_generated,
    )


class Ledger:
    """Attempted and failed calls, with the reason for each failure."""

    def __init__(self, plan):
        a_bcast = sum(v["a_recv_bytes"] for v in expected_comm_volumes(plan).values())
        self.expected = (plan.total_tasks, plan.total_flops, a_bcast)
        self.counts = None
        self.comm_bytes = 0
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {detail}")

    def check(self, c, report, oracle: str) -> None:
        """Count one returned call: a wrong C or a drifting count fails it."""
        self.attempted += 1
        if digest(c) != oracle:
            self.fail("mismatch", "C differs from the serial oracle")
            return
        counts = exact_counts(report)
        if counts[:3] != self.expected or (
            self.counts is not None and counts != self.counts
        ):
            self.fail("count_drift", f"{counts} against {self.counts or self.expected}")
            return
        if self.counts is None:
            self.counts = counts
            self.comm_bytes = sum(report.comm.link_bytes.values())


# -- clients: how a workload issues one contraction --------------------------


class ColdClient:
    """Each call is one cold ``execute_plan_distributed`` with fresh processes."""

    spawns = 0

    def __init__(self, ops):
        self.ops = ops

    def setup(self, plan) -> None:
        pass

    def snapshots(self) -> list[dict]:
        return []

    def call(self, plan, a, trace: bool):
        return execute_plan_distributed(
            plan, a, self.ops.fresh_b(), trace=trace, timeout=CALL_TIMEOUT_S
        )

    def close(self) -> None:
        pass


class WarmClient:
    """Jobs go one after another to one warm ``ContractionService``."""

    def __init__(self, ops, warmup_a):
        self.ops = ops
        self.warmup_a = warmup_a
        self.svc = None
        self.job_ids: list[str] = []

    def setup(self, plan) -> None:
        self.close()
        self.svc = ContractionService(NPROC)
        self.svc.result(
            self.svc.submit(plan, self.warmup_a, self.ops.b, trace=False),
            timeout=CALL_TIMEOUT_S,
        )

    def call(self, plan, a, trace: bool):
        job = self.svc.submit(plan, a, self.ops.b, trace=trace)
        self.job_ids.append(job)
        return self.svc.result(job, timeout=CALL_TIMEOUT_S)

    def snapshots(self) -> list[dict]:
        """The service's view of each call's job (queue and run seconds)."""
        jobs = {j["job_id"]: j for j in self.svc.jobs()}
        return [jobs[job] for job in self.job_ids]

    @property
    def spawns(self) -> int:
        return self.svc.pool.spawns if self.svc is not None else 0

    def close(self) -> None:
        if self.svc is not None:
            self.svc.shutdown(timeout=CALL_TIMEOUT_S, drain=False)
            self.svc = None


# -- per-layer probes ----------------------------------------------------------


def _b_tiles(plan, b) -> dict:
    """Every present B tile, as the executor's B source would hand it out."""
    ii, jj = plan.b_shape.nonzero_tiles()
    keys = zip(ii.tolist(), jj.tolist())
    if isinstance(b, GeneratedCollection):
        return {key: b.generate_tile(*key) for key in keys}
    return {key: b.get_tile(*key) for key in keys}


def _task_operands(plan, a, b_tiles) -> list:
    """``(A tile, B tile)`` of every task of the plan, in execution order."""
    pairs = []
    for proc in plan.procs:
        for g in range(plan.grid.gpus_per_proc):
            for block in proc.gpu_blocks(g):
                cols_of_k = block_cols_of_k(block, plan.b_shape.csr)
                for chunk in block.chunks:
                    for i, k in zip(chunk.a_rows.tolist(), chunk.a_cols.tolist()):
                        at = a.get_tile(i, k)
                        pairs.extend((at, b_tiles[k, j]) for j in cols_of_k[k])
    return pairs


def _pack(a, b) -> None:
    arenas = [TileArena.pack("perfbench-a", a.items())]
    if not isinstance(b, GeneratedCollection):
        arenas.append(TileArena.pack("perfbench-b", b.items()))
    for arena in arenas:
        arena.close()
        arena.unlink()


def _pool_start() -> None:
    pool = WorkerPool(NPROC)
    try:
        pool.start()
    finally:
        pool.close()


def _probe_layers(plan, ops, a, serial_s: float) -> dict:
    out = {}
    t0 = time.perf_counter()
    b_tiles = _b_tiles(plan, ops.b)
    out["runtime.bgen_s"] = (
        time.perf_counter() - t0 if isinstance(ops.b, GeneratedCollection) else 0.0
    )
    pairs = _task_operands(plan, a, b_tiles)
    assert len(pairs) == plan.total_tasks, "task enumeration drifted from the plan"

    def matmul_loop():
        for x, y in pairs:
            x @ y

    matmul_s = _timed(matmul_loop)
    out["runtime.serial_s"] = serial_s
    out["runtime.serial_gflops"] = plan.total_flops / serial_s / 1e9
    out["runtime.matmul_gflops"] = plan.total_flops / matmul_s / 1e9
    out["runtime.dispatch_us_per_task"] = (serial_s - matmul_s) / plan.total_tasks * 1e6
    out["store.b_fingerprint_s"] = _timed(lambda: b_fingerprint(ops.b))
    out["store.plan_fingerprint_s"] = _timed(lambda: plan_fingerprint(plan))
    out["dist.pack_s"] = _timed(lambda: _pack(a, ops.b))
    out["dist.pool_start_s"] = _timed(_pool_start)
    return out


def _trace_metrics(report, traced_s: float, p50: float) -> dict:
    attribution = report.attribution()
    out = {
        f"dist.path.{b}_s": float(attribution.buckets.get(b, 0.0)) for b in PATH_BUCKETS
    }
    busy = report.rank_utilization()
    out["dist.rank_busy_min"] = min(busy.values()) if busy else 0.0
    out["dist.qwait_s"] = float(sum(report.queue_wait_seconds().values()))
    out["dist.trace_overhead_frac"] = traced_s / p50 - 1.0 if p50 > 0 else 0.0
    out["dist.b_hits"] = report.b_hits
    lookups = report.b_hits + report.stats.b_tiles_generated
    out["dist.b_hit_ratio"] = report.b_hits / lookups if lookups else 0.0
    out["dist.b_max_instantiations"] = report.b_max_instantiations
    return out


# -- the run -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: str, scale: float = 1.0) -> dict:
    """Run one workload; returns the full result (see ``README.md``)."""
    t_start = time.perf_counter()
    w: Workload = WORKLOADS[workload]
    shm_before = probes.shm_segments()
    ncalls = max(1, round(seconds / w.call_s))
    metrics: dict[str, float] = {}
    latencies: list[float] = []
    serial_times: list[float] = []
    warm = w.mode == "warm"

    with probes.MemorySampler() as memory:
        ops = build(w, seed, scale)
        a0 = ops.a_values(0)
        client = WarmClient(ops, a0) if warm else ColdClient(ops)
        try:
            setup_times, inspect_times = [], []
            for _ in range(SETUP_REPS[w.mode]):
                t0 = time.perf_counter()
                plan = inspect(ops.a_shape, ops.b_shape, summit(NPROC), p=1)
                inspect_times.append(time.perf_counter() - t0)
                client.setup(plan)
                setup_times.append(time.perf_counter() - t0)
            ledger = Ledger(plan)

            def oracle(a) -> str:
                t0 = time.perf_counter()
                c, _ = execute_plan(plan, a, ops.fresh_b())
                serial_times.append(time.perf_counter() - t0)
                return digest(c)

            # Every oracle is computed before the first timed call: a serial
            # GEMM just before a call would leave this process's BLAS threads
            # spinning into the call's time.
            ntotal = ncalls + (TRACED_CALLS if trace else 0)
            if warm:
                oracles = [oracle(ops.a_values(j + 1)) for j in range(ntotal)]
            else:
                oracles = [oracle(a0)] * ntotal

            def attempt(j: int, trace_call: bool = False):
                """Call ``j``, checked; returns ``(seconds, report or None)``."""
                a = ops.a_values(j + 1) if warm else a0
                t0 = time.perf_counter()
                try:
                    c, report = client.call(plan, a, trace_call)
                except TimeoutError as exc:
                    ledger.attempted += 1
                    ledger.fail("timeout", repr(exc))
                    return time.perf_counter() - t0, None
                except Exception as exc:  # noqa: BLE001 - every raise is a failed call
                    ledger.attempted += 1
                    ledger.fail("raised", "".join(traceback.format_exception_only(exc)).strip())
                    return time.perf_counter() - t0, None
                dt = time.perf_counter() - t0
                ledger.check(c, report, oracles[j])
                return dt, report

            mem_before = probes.tree_memory_mib()
            for j in range(ncalls):
                if time.perf_counter() - t_start > LOOP_BUDGET_S:
                    break
                if not warm:
                    # Host speed drifts on a scale of seconds, and inspect()
                    # takes milliseconds: re-time the cold set-up before every
                    # call so its median covers the whole run.
                    t0 = time.perf_counter()
                    inspect(ops.a_shape, ops.b_shape, summit(NPROC), p=1)
                    setup_times.append(time.perf_counter() - t0)
                latencies.append(attempt(j)[0])
            njobs = len(latencies)
            mem_after = probes.tree_memory_mib()

            if trace:
                traced = [attempt(j, True) for j in range(ncalls, ntotal)]
                traced = sorted((t for t in traced if t[1] is not None), key=lambda t: t[0])
                spawns, snapshots = client.spawns, client.snapshots()
        finally:
            client.close()
        peak_mib = memory.peak_mib

    p50 = _median(latencies)
    metrics["setup_s"] = _median(setup_times)
    metrics["contraction_p50_s"] = p50
    metrics["peak_rss_mib"] = peak_mib
    metrics["contraction_p95_s"] = _percentile(latencies, 95)
    metrics["error_rate"] = ledger.failed / max(ledger.attempted, 1)
    metrics["core.inspect_s"] = _median(inspect_times)
    metrics["core.ntasks"] = plan.total_tasks
    metrics["core.flops"] = plan.total_flops
    metrics["core.blocks"] = plan.total_blocks
    metrics["core.a_bcast_bytes"] = ledger.expected[2]
    counts = ledger.counts or (0, 0.0, 0, 0, 0)
    metrics["dist.comm_bytes"] = ledger.comm_bytes
    metrics["dist.shm_bytes"], metrics["dist.b_tiles_generated"] = counts[3], counts[4]

    trace_path = None
    if trace:
        while len(serial_times) < PROBE_REPS:
            oracle(a0)
        metrics.update(_probe_layers(plan, ops, a0, _median(serial_times)))
        if traced:
            dt, report = traced[len(traced) // 2]
            metrics.update(_trace_metrics(report, dt, p50))
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")
            write_run_artifact(
                trace_path, report.trace, model=report.model,
                comm_link_bytes=dict(report.comm.link_bytes),
                meta={"workload": workload, "seed": seed, "benchmark": "perfbench"},
            )
        jobs = [
            (lat, s["queued_s"], s["run_s"])
            for lat, s in zip(latencies, snapshots) if s["run_s"] is not None
        ]
        metrics["serve.queue_s_p50"] = _median([q for _, q, _ in jobs])
        metrics["serve.run_s_p50"] = _median([r for _, _, r in jobs])
        metrics["serve.client_overhead_s_p50"] = _median(
            [lat - q - r for lat, q, r in jobs]
        )
        metrics["serve.spawns"] = spawns
        metrics["serve.rss_mib_per_job"] = (
            (mem_after - mem_before) / njobs if warm and njobs else 0.0
        )

    leftover = probes.shm_segments() - shm_before
    unreaped = _wait_reaped()
    metrics["dist.shm_leftover"] = len(leftover)
    metrics["dist.workers_unreaped"] = len(unreaped)
    if trace:  # a layer the workload does not use reads 0
        for name in PER_LAYER:
            metrics.setdefault(name, 0.0)

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "calls_planned": ncalls,
        "host": probes.host_fingerprint(NPROC, _default_start_method()),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "errors": ledger.errors,
        "correct": ledger.failed == 0 and not leftover and not unreaped,
        "latencies_s": latencies,
        "metrics": metrics,
        "trace_file": trace_path,
        "wall_s": time.perf_counter() - t_start,
    }


def _wait_reaped(grace_s: float = 5.0) -> list[int]:
    """Worker processes still alive ``grace_s`` after the workload ended."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = probes.unreaped_workers()
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def emit(result: dict, trace: bool) -> dict:
    """The one-line summary: end-to-end metrics, or per-layer with ``trace``."""
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in names.items()
        },
    }


def write_result(result: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir,
        f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json",
    )
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return path

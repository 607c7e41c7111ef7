"""Tests for the serving layer (:mod:`repro.serve`).

The contract under test: one warm pool serves many jobs, every job's C
is bit-for-bit equal to the serial oracle (even when clients submit
concurrently), job artifacts never collide, higher-priority jobs jump
the queue, admission control rejects what the pool cannot run, and a
failed job leaves the service healthy.

Fast unit tests (warm cache, admission, event-log scoping) run in
tier-1; everything that spawns worker processes is marked ``dist`` and
runs via ``make test-dist``.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.core import inspect
from repro.machine import summit
from repro.runtime import DelayedGeneratedCollection, GeneratedCollection, execute_plan
from repro.serve import (
    AdmissionError,
    BackpressureError,
    ContractionService,
    JobFailedError,
    WarmTileCache,
)
from repro.sparse import random_block_sparse
from repro.tiling import random_tiling


def operands(seed=0, m=200, nk=600, density=0.5, gen_delay_s=0.0):
    rows = random_tiling(m, 20, 80, seed=seed)
    inner = random_tiling(nk, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b_shape = random_block_sparse(inner, inner, density, seed=seed + 3).sparse_shape()
    if gen_delay_s > 0.0:
        b = DelayedGeneratedCollection(b_shape, seed=seed + 4, gen_delay_s=gen_delay_s)
    else:
        b = GeneratedCollection(b_shape, seed=seed + 4)
    return a, b


@pytest.fixture()
def problem():
    a, b = operands(seed=0)
    plan = inspect(a.sparse_shape(), b.shape, summit(2), p=1)
    assert plan.grid.nprocs == 2
    c_serial, _ = execute_plan(plan, a, b.empty_clone())
    return plan, a, b, c_serial.to_dense()


# ---- warm cache (tier-1) ---------------------------------------------------


class TestWarmTileCache:
    def test_get_put_roundtrip_and_stats(self):
        cache = WarmTileCache(1 << 20)
        assert cache.get("ns", (0, 0)) is None
        tile = np.arange(6.0).reshape(2, 3)
        cache.put("ns", (0, 0), tile)
        out = cache.get("ns", (0, 0))
        assert np.array_equal(out, tile)
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_put_copies_and_serves_read_only(self):
        cache = WarmTileCache(1 << 20)
        tile = np.ones((2, 2))
        cache.put("ns", (0, 0), tile)
        tile[:] = 7.0  # caller's buffer dies / mutates after the run
        out = cache.get("ns", (0, 0))
        assert np.array_equal(out, np.ones((2, 2)))
        with pytest.raises(ValueError):
            out[0, 0] = 9.0

    def test_namespaces_do_not_alias(self):
        cache = WarmTileCache(1 << 20)
        cache.put("b:aaa", (0, 0), np.zeros((2, 2)))
        assert cache.get("b:bbb", (0, 0)) is None

    def test_lru_eviction_under_budget(self):
        tile = np.zeros((8, 8))  # 512 B
        cache = WarmTileCache(tile.nbytes * 2)
        for i in range(3):
            cache.put("ns", (0, i), tile)
        assert cache.get("ns", (0, 0)) is None  # oldest evicted
        assert cache.get("ns", (0, 2)) is not None
        assert cache.evictions == 1
        assert cache.cached_bytes <= cache.budget_bytes

    def test_oversized_tile_not_cached(self):
        cache = WarmTileCache(64)
        cache.put("ns", (0, 0), np.zeros((8, 8)))
        assert len(cache) == 0

    def test_pickles_empty(self):
        import pickle

        cache = WarmTileCache(12345)
        cache.put("ns", (0, 0), np.zeros((2, 2)))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.budget_bytes == 12345
        assert len(clone) == 0 and clone.get("ns", (0, 0)) is None


# ---- admission control (tier-1: rejected before any process spawns) --------


class TestAdmission:
    def test_rank_mismatch_rejected(self, problem):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs + 1)
        try:
            with pytest.raises(AdmissionError, match="rank"):
                svc.submit(plan, a, b.empty_clone())
            assert svc.pool.spawns == 0
        finally:
            svc.shutdown()

    def test_memory_rule_violation_rejected_with_findings(self, problem):
        plan, a, b, _ = problem
        plan.procs[0].blocks[0].c_bytes = plan.gpu_memory_bytes  # fires P110
        svc = ContractionService(plan.grid.nprocs)
        try:
            with pytest.raises(AdmissionError) as exc:
                svc.submit(plan, a, b.empty_clone())
            assert any(f.rule == "P110" for f in exc.value.findings)
            assert svc.pool.spawns == 0
        finally:
            svc.shutdown()

    def test_unknown_job_id(self, problem):
        plan, *_ = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            with pytest.raises(ValueError, match="unknown job"):
                svc.result("nope")
        finally:
            svc.shutdown()


# ---- full service behaviour (multi-process; `make test-dist`) --------------


@pytest.mark.dist
class TestContractionService:
    def test_concurrent_jobs_bit_equal_to_serial_oracle(self, problem, tmp_path):
        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []
        try:
            def client(i: int) -> None:
                try:
                    jid = svc.submit(plan, a, b.empty_clone())
                    out, _ = svc.result(jid, timeout=120)
                    results[i] = out.to_dense()
                except BaseException as exc:  # noqa: BLE001 - reraised below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not errors, errors
            assert len(results) == 4
            for i, dense in results.items():
                assert np.array_equal(dense, oracle), f"client {i} C differs"
        finally:
            svc.shutdown()

    def test_warm_pool_reused_across_jobs(self, problem, tmp_path):
        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            j1 = svc.submit(plan, a, b.empty_clone())
            out1, rep1 = svc.result(j1, timeout=120)
            spawns_after_first = svc.pool.spawns
            j2 = svc.submit(plan, a, b.empty_clone())
            out2, rep2 = svc.result(j2, timeout=120)
            assert np.array_equal(out1.to_dense(), oracle)
            assert np.array_equal(out2.to_dense(), oracle)
            # Same processes served both jobs...
            assert svc.pool.spawns == spawns_after_first == plan.grid.nprocs
            # ...and the second job's B tiles came from the warm tier.
            assert rep1.b_store_hits == 0
            assert rep2.b_store_hits > 0
            assert rep2.b_store_hits == rep2.stats.b_tiles_generated
            assert (rep2.metrics.get("repro_b_service_store_hits_total")
                    == rep2.b_store_hits)
        finally:
            svc.shutdown()

    def test_finished_job_releases_its_operands(self, problem):
        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            jid = svc.submit(plan, a, b.empty_clone(), alpha=1.0)
            out, _ = svc.result(jid, timeout=120)
            job = svc._job(jid)
            assert job.plan is None and job.a is None and job.b is None
            assert job.kwargs == {}
            assert np.array_equal(out.to_dense(), oracle)
            assert np.array_equal(svc.result(jid)[0].to_dense(), oracle)
        finally:
            svc.shutdown()

    def test_service_keeps_only_the_latest_results(self, problem):
        from repro.serve.service import RESULTS_KEPT

        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs)
        try:
            ids = []
            for _ in range(RESULTS_KEPT + 2):
                ids.append(svc.submit(plan, a, b.empty_clone()))
                svc.result(ids[-1], timeout=120)
            with pytest.raises(LookupError, match=f"only the {RESULTS_KEPT} most"):
                svc.result(ids[0])
            with pytest.raises(LookupError, match="released"):
                svc.report(ids[0])
            # Released jobs keep their record for status tables.
            assert [j["state"] for j in svc.jobs()] == ["done"] * len(ids)
            out, report = svc.result(ids[-1])
            assert np.array_equal(out.to_dense(), oracle)
            assert report is svc.report(ids[-1]) is not None
        finally:
            svc.shutdown()

    def test_per_job_artifacts_are_disjoint(self, problem, tmp_path):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            ids = [svc.submit(plan, a, b.empty_clone()) for _ in range(2)]
            reports = [svc.result(j, timeout=120)[1] for j in ids]
        finally:
            svc.shutdown()
        names = sorted(os.listdir(tmp_path))
        for jid, rep in zip(ids, reports):
            assert rep.run_id == jid
            assert f"run-events.{jid}.jsonl" in names
            assert f"trace.{jid}.json" in names
            assert f"metrics.{jid}.prom" in names
            assert os.path.basename(rep.events_path) == f"run-events.{jid}.jsonl"
            # Each event log carries only its own run's records.
            with open(os.path.join(tmp_path, f"run-events.{jid}.jsonl")) as fh:
                records = [json.loads(line) for line in fh]
            assert records and all(r["run"] == jid for r in records)
            with open(os.path.join(tmp_path, f"trace.{jid}.json")) as fh:
                assert json.load(fh), "empty chrome trace"

    def test_priority_jumps_queue_under_saturation(self, tmp_path):
        a, b = operands(seed=2, m=150, nk=450, gen_delay_s=0.02)
        plan = inspect(a.sparse_shape(), b.shape, summit(2), p=1)
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            blocker = svc.submit(plan, a, b.empty_clone())
            # While the blocker occupies the pool, queue low before high.
            low = svc.submit(plan, a, b.empty_clone(), priority=0)
            high = svc.submit(plan, a, b.empty_clone(), priority=5)
            for jid in (blocker, low, high):
                svc.result(jid, timeout=180)
            started = {jid: svc._job(jid).started_s for jid in (low, high)}
            assert started[high] < started[low], (
                "high-priority job did not jump the queue"
            )
        finally:
            svc.shutdown()

    def test_backpressure_when_queue_full(self, tmp_path):
        a, b = operands(seed=3, m=150, nk=450, gen_delay_s=0.02)
        plan = inspect(a.sparse_shape(), b.shape, summit(2), p=1)
        svc = ContractionService(
            plan.grid.nprocs, artifacts_dir=str(tmp_path), queue_limit=2
        )
        try:
            ids = [svc.submit(plan, a, b.empty_clone()) for _ in range(2)]
            with pytest.raises(BackpressureError):
                svc.submit(plan, a, b.empty_clone())
            for jid in ids:  # drains the queue; admission reopens
                svc.result(jid, timeout=180)
            ids.append(svc.submit(plan, a, b.empty_clone()))
            svc.result(ids[-1], timeout=180)
        finally:
            svc.shutdown()

    def test_failed_job_does_not_poison_the_service(self, problem, tmp_path):
        from repro.dist import FaultPlan

        plan, a, b, oracle = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            doomed = svc.submit(
                plan, a, b.empty_clone(),
                fault_plan=FaultPlan.parse("0:1:abort", plan.grid.nprocs),
            )
            with pytest.raises(JobFailedError):
                svc.result(doomed, timeout=120)
            assert svc.status(doomed) == "failed"
            healthy = svc.submit(plan, a, b.empty_clone())
            out, _ = svc.result(healthy, timeout=120)
            assert np.array_equal(out.to_dense(), oracle)
        finally:
            svc.shutdown()

    def test_drain_and_resume(self, problem, tmp_path):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        try:
            jid = svc.submit(plan, a, b.empty_clone())
            assert svc.drain(timeout=120)
            assert svc.status(jid) == "done"
            with pytest.raises(AdmissionError, match="draining"):
                svc.submit(plan, a, b.empty_clone())
            svc.resume()
            jid2 = svc.submit(plan, a, b.empty_clone())
            svc.result(jid2, timeout=120)
        finally:
            svc.shutdown()

    def test_shutdown_is_graceful_and_idempotent(self, problem, tmp_path):
        plan, a, b, _ = problem
        svc = ContractionService(plan.grid.nprocs, artifacts_dir=str(tmp_path))
        jid = svc.submit(plan, a, b.empty_clone())
        svc.shutdown()
        svc.shutdown()  # idempotent
        assert svc.pool.closed
        assert svc.status(jid) == "done"  # graceful shutdown drained it
        with pytest.raises(ValueError, match="shut down"):
            svc.submit(plan, a, b.empty_clone())


# ---- resource lifecycle of a pool started before any segment exists -------

#: Small operands plus a 2-rank plan; each lifecycle case appends its runs
#: and the probe prints the process id that names its segments.
PROBE_SETUP = textwrap.dedent("""
    import os
    from repro.core import inspect
    from repro.dist import FaultPlan, WorkerPool, execute_plan_distributed
    from repro.machine import summit
    from repro.sparse import random_block_sparse
    from repro.tiling import random_tiling

    rows = random_tiling(120, 20, 40, seed=0)
    inner = random_tiling(240, 20, 40, seed=1)
    a = random_block_sparse(rows, inner, 0.5, seed=2)
    b = random_block_sparse(inner, inner, 0.5, seed=3)
    plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1)
""")

#: case -> its runs.  ``pooled``: a pool started before the first
#: shared-memory segment (the service's order), three jobs, then close.
#: ``pooled-kill``: the same pool, with rank 1 of the second job killed
#: once and retried in a fresh pool process.  ``cold``: one one-shot run.
#: ``cold-kill``: a one-shot run whose rank 1 is killed once and retried
#: in a fresh process.  ``cold-stall``: a one-shot run whose rank 1 hangs
#: once, is caught by missed heartbeats, terminated and retried.
PROBE_RUNS = {
    "pooled": """
pool = WorkerPool(plan.grid.nprocs)
pool.start()
for _ in range(3):
    execute_plan_distributed(plan, a, b, pool=pool)
pool.close()
""",
    "pooled-kill": """
pool = WorkerPool(plan.grid.nprocs)
pool.start()
for job in range(3):
    fault = FaultPlan.kill(1, 3) if job == 1 else None
    _, rep = execute_plan_distributed(plan, a, b, pool=pool, fault_plan=fault)
    assert rep.attempts[1] == (2 if job == 1 else 1), rep.attempts
pool.close()
""",
    "cold": """
execute_plan_distributed(plan, a, b)
""",
    "cold-kill": """
_, rep = execute_plan_distributed(plan, a, b, fault_plan=FaultPlan.kill(1, 3))
assert rep.attempts[1] == 2, rep.attempts
""",
    "cold-stall": """
_, rep = execute_plan_distributed(
    plan, a, b, fault_plan=FaultPlan.stall(1, 3),
    heartbeat_interval=0.05, stall_after_beats=4,
)
assert rep.attempts[1] == 2 and rep.stalled == [1], (rep.attempts, rep.stalled)
""",
}


@pytest.mark.dist
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs POSIX shm")
@pytest.mark.parametrize("case", sorted(PROBE_RUNS))
def test_pool_workers_share_the_parent_resource_tracker(case):
    """Workers spawned before any segment exists must use the parent's
    resource tracker.  With trackers of their own, closing the pool makes
    each worker's tracker unlink the coordinator's (already unlinked)
    segments, which shows as ``resource_tracker`` warnings on stderr.
    One-shot runs, retried ones included, go through the same pool."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = PROBE_SETUP + PROBE_RUNS[case] + "print(os.getpid())\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr
    pid = proc.stdout.split()[-1]
    assert not [
        n for n in os.listdir("/dev/shm") if n.startswith(f"psgemm-{pid}-")
    ]


# ---- where a worker's trace starts -----------------------------------------


def _inbox_waits(report):
    return sorted(
        int(e.resource.split(".")[1])
        for e in report.trace.events if e.task == "inbox.wait"
    )


@pytest.mark.dist
def test_first_scatter_of_a_process_is_traced_from_its_spawn(problem):
    """A process traces its first scatter from its own spawn (startup shows
    as ``inbox.wait``) and every later one from receipt, whether the run is
    one-shot or pooled.  Only a borrowed pool fingerprints the operands."""
    from repro.dist import WorkerPool, execute_plan_distributed

    plan, a, b, _ = problem
    ranks = list(range(plan.grid.nprocs))
    _, cold = execute_plan_distributed(plan, a, b.empty_clone())
    assert _inbox_waits(cold) == ranks
    assert cold.run_hash == ""  # a private pool never hashes B
    pool = WorkerPool(plan.grid.nprocs)
    try:
        _, first = execute_plan_distributed(plan, a, b.empty_clone(), pool=pool)
        _, second = execute_plan_distributed(plan, a, b.empty_clone(), pool=pool)
        assert pool.spawns == len(ranks)  # the second job reused the processes
    finally:
        pool.close()
    assert _inbox_waits(first) == ranks
    assert _inbox_waits(second) == []
    assert first.run_hash and second.run_hash == first.run_hash


@pytest.mark.dist
def test_pooled_concrete_b_job_hashes_nothing(problem):
    """A concrete B is resident in its arena and never enters a warm cache,
    so a pooled job over one, without a store, fingerprints nothing, and
    stays bit-equal to the serial oracle."""
    from repro.dist import WorkerPool, execute_plan_distributed

    plan, a, b, _ = problem
    b_mat = b.as_matrix()
    c_serial, _ = execute_plan(plan, a, b_mat)
    pool = WorkerPool(plan.grid.nprocs)
    try:
        c, report = execute_plan_distributed(plan, a, b_mat, pool=pool)
    finally:
        pool.close()
    assert report.run_hash == "" and report.plan_hash == ""
    assert np.array_equal(c.to_dense(), c_serial.to_dense())


@pytest.mark.dist
def test_serve_cli_reads_every_report_past_the_result_bound(tmp_path, capsys):
    """``repro serve`` reads each report as its job ends, so a spec with
    more un-waited jobs than the service keeps results for still succeeds
    and counts every job's warm hits."""
    from repro.cli import main
    from repro.serve.service import RESULTS_KEPT

    njobs = RESULTS_KEPT + 2
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "procs": 2,
        "jobs": [{"seed": 0, "m": 100, "k": 300} for _ in range(njobs)],
    }))
    # A long table interval: the CLI must not wait for it to read reports.
    art = str(tmp_path / "art")
    assert main(["serve", str(spec), "--interval", "30", "--artifacts", art]) == 0
    out, err = capsys.readouterr()
    assert f"{njobs} job(s), 0 failure(s)" in out
    assert "released" not in err

"""The per-rank worker process and the one rank runtime behind it.

Each worker is one planned process rank.  Life of a worker: receive a
:class:`ScatterMsg` from the coordinator and hand it to :func:`run_rank`,
the *one* rank runtime: it attaches the shared-memory arenas, builds the
B source, tile store and writeback journal, executes the rank's blocks
through the *same* :func:`repro.runtime.numeric.execute_blocks` loop the
serial executor uses (hence bit-identical numerics), writes its C tiles
into its output arena, and returns the :class:`WorkerReport` the worker
sends back.  The process then stays in its dispatch loop: a finished
rank is the rebalancer's favourite helper, ready to accept a
:class:`~repro.dist.comm.HandoffMsg` of blocks reclaimed from a
straggler — run by the same :func:`run_rank` under the origin's rank, so
handoff tiles are bit-identical to the tiles the origin would have
produced.  The coordinator's inline spare (a twice-failed rank, or a
handoff no helper could finish) is that runtime called in-process with no
endpoint; where a block runs never changes what it produces.

The B source is the one the serial executor builds for each of its ranks,
from the same :func:`repro.runtime.data.b_source`: an LRU
:class:`~repro.runtime.data.BService` over the scattered generated
collection (with the store tiers :func:`_b_store` composes in front of the
generator), or a :class:`~repro.runtime.data.ResidentB` over the
coordinator's shared-memory B arena.  So ``b_tiles_generated`` and the
once-per-rank invariant are counted by one implementation on both sides.

Rebalancing yield points: between blocks the worker polls its inbox; a
coordinator :class:`~repro.dist.comm.RelinquishMsg` makes it give up its
not-yet-started blocks (acked with their positions, skipped thereafter)
while the in-flight block finishes normally.  Completion of every block
is reported out-of-band as a :class:`~repro.dist.comm.BlockDoneMsg` on
the telemetry channel, so the coordinator knows which blocks are still
unstarted without perturbing control-plane traffic.

The worker overlaps transfers with compute the way the paper's control DAG
does: a prefetch thread copies the *next* chunk's A tiles out of the shared
A arena (the "H2D" of the double-buffered 25 % staging area) while the main
thread runs the current chunk's GEMMs; a ``Queue(maxsize=1)`` is exactly
the one-chunk-ahead prefetch depth the 25/25 split allows.

Observability: when the scatter carries ``trace=True`` the worker records
spans through a :class:`~repro.runtime.tracing.SpanRecorder` on a
*monotonic* clock — inbox wait, shared-memory attach, per-chunk prefetch
and prefetch-queue wait, per-chunk GEMM, B-tile generation, C writeback —
and ships the :class:`~repro.runtime.tracing.SpanStream` home in its
report for the coordinator to merge.  With ``trace=False`` no spans are
stored; chunks are still timed for the metrics histograms.

Live telemetry: when the scatter carries a positive ``heartbeat_interval``
the worker runs a daemon heartbeat thread that ships a
:class:`~repro.dist.health.HeartbeatMsg` — sequence number, cumulative
task progress — to the coordinator on the comm layer's out-of-band
telemetry channel every interval.  The first beat goes out immediately
("worker up"); the thread stops when the rank finishes, errors, or is
deliberately stalled.

Fault injection lives here too: after the *k*-th GEMM task the worker
either dies abruptly (``os._exit`` — no report, no cleanup, like a crashed
MPI rank), sleeps briefly (``delay``), or *stalls* — heartbeats stop and
the main thread hangs, the closest a test can get to a livelocked rank
that is alive to the OS but dead to the run.  Stalls are what the
coordinator's missed-heartbeat detector exists to catch.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.core.grid import ProcessGrid
from repro.core.plan import Block, ProcPlan
from repro.dist.comm import (
    COORDINATOR,
    BlockDoneMsg,
    Empty,
    Endpoint,
    HandoffMsg,
    RelinquishMsg,
)
from repro.dist.faults import FaultInjection
from repro.dist.health import HeartbeatMsg
from repro.dist.tile_store import ArenaMeta, TileArena
from repro.runtime.blas import pinned_threads
from repro.runtime.data import b_source
from repro.runtime.metrics import MetricsRegistry, MetricsSnapshot
from repro.runtime.numeric import NumericStats, execute_blocks, proc_blocks
from repro.runtime.tracing import SpanRecorder, SpanStream
from repro.store import (
    CompletedBlock,
    TileStore,
    WritebackJournal,
    ckpt_namespace,
    ckpt_tile_key,
)

#: Exit code of an ``abort`` fault — the coordinator reads it off the dead
#: process and fails the whole run instead of retrying the rank.
ABORT_EXIT_CODE = 98

#: How long a deliberately stalled worker sleeps (it is terminated by the
#: coordinator long before this elapses; the bound only guards against a
#: run with stall detection disabled wedging forever past its timeout).
STALL_SLEEP_SECONDS = 3600.0


@dataclass(frozen=True)
class ScatterMsg:
    """Everything one rank needs to execute its slice of the plan."""

    proc: ProcPlan
    grid: ProcessGrid
    gpus_per_proc: int
    gpu_memory_bytes: int
    b_csr: object
    tau: float | None
    alpha: float
    a_meta: ArenaMeta
    b_spec: tuple
    c_meta: ArenaMeta
    fault: FaultInjection | None
    attempt: int
    trace: bool = True
    max_spans: int = 200_000
    heartbeat_interval: float = 0.0  # seconds; <= 0 disables heartbeats
    #: Persistent-store / checkpoint wiring (all inert when left at their
    #: defaults): ``store_dir`` roots the B-tile persistence tier,
    #: ``ckpt_dir`` enables the writeback journal (and, when ``store_dir``
    #: is unset, hosts the store under ``<ckpt_dir>/store``), ``b_hash`` /
    #: ``run_hash`` are the coordinator-computed operand and run
    #: fingerprints, and ``completed`` lists the already-journaled blocks
    #: to restore instead of recompute: ``((gpu, block, ((i, j), ...)), ...)``.
    store_dir: str | None = None
    store_budget: int | None = None
    b_hash: str = ""
    ckpt_dir: str | None = None
    run_hash: str = ""
    completed: tuple = ()
    #: Block positions ``(gpu, index)`` this rank must *not* execute: they
    #: were relinquished to the rebalancer in an earlier attempt and are
    #: owned by a handoff now (producing them here would double-produce).
    excluded: tuple = ()
    #: Whether the rank honours relinquish requests between blocks (set by
    #: the coordinator's ``rebalance=True``; off, the inbox is never
    #: polled mid-run and the worker behaves exactly as before).
    rebalance: bool = False


@dataclass
class WorkerReport:
    """One producer's results: stats, C-tile index, span stream, link
    bytes, and the snapshot of its metrics registry — the only place it
    counts anything."""

    rank: int
    attempt: int
    stats: NumericStats
    c_index: dict[tuple[int, int], tuple[int, int, int]]
    metrics: MetricsSnapshot
    spans: SpanStream | None = None
    link_bytes: dict[tuple[int, int], int] = field(default_factory=dict)


def modeled_a_link_bytes(
    proc: ProcPlan, grid: ProcessGrid, a_meta: ArenaMeta
) -> dict[tuple[int, int], int]:
    """Grid-row A-broadcast bytes charged to ``owner -> rank`` links.

    Mirrors the inspector's per-process ``a_recv_bytes`` (Section 3.2.4):
    each needed-but-remote A tile under the 2D-cyclic placement moves once.
    """
    links: Counter = Counter()
    for i, k in zip(proc.a_needed_rows.tolist(), proc.a_needed_cols.tolist()):
        owner_col = k % grid.q
        if owner_col != proc.col:
            owner = grid.rank(proc.row, owner_col)
            links[(owner, proc.rank)] += a_meta.tile_nbytes((i, k))
    return dict(links)


def checkpoint_hooks(
    store: TileStore,
    journal: WritebackJournal,
    run_hash: str,
    rank: int,
    completed: dict[tuple[int, int], tuple],
    registry: MetricsRegistry,
):
    """Build the ``(restore_block, on_block)`` checkpoint closures.

    Built once per job by :func:`run_rank`, so every producer — worker,
    helper and inline spare — journals and restores identically.
    ``completed`` maps ``(gpu, block)`` to the journaled C-tile keys the
    coordinator already validated against the store.

    Crash-consistency ordering lives in ``on_block``: every C tile is
    durably in the store *before* the journal line is appended, so a kill
    between the two leaves an unreferenced (harmless) object, never a
    journal record promising tiles that do not exist.
    """
    ns = ckpt_namespace(run_hash)
    hist = registry.histogram(
        "repro_checkpoint_seconds", "per-block checkpoint writeback durations"
    )
    m_restored = registry.counter(
        "repro_checkpoint_blocks_restored_total",
        "blocks restored from the journal instead of recomputed",
    )
    m_skipped = registry.counter(
        "repro_checkpoint_tasks_skipped_total",
        "GEMM tasks skipped thanks to journaled blocks",
    )

    def restore_block(g: int, bi: int, block) -> dict | None:
        tiles = completed.get((g, bi))
        if tiles is None:
            return None
        out: dict[tuple[int, int], np.ndarray] = {}
        for i, j in tiles:
            arr = store.get(ns, ckpt_tile_key(rank, g, bi, i, j))
            if arr is None:  # validated at scatter; lost to a racing GC since
                return None
            # Copy out of the store's read-only map: restored tiles must be
            # indistinguishable from freshly computed (writable) ones.
            out[(i, j)] = np.array(arr)
        m_restored.inc()
        m_skipped.inc(block.ntasks)
        return out

    def on_block(g: int, bi: int, block, c_dev: dict) -> None:
        t_start = time.monotonic()
        tiles = tuple(sorted(c_dev))
        for i, j in tiles:
            store.put(ns, ckpt_tile_key(rank, g, bi, i, j), c_dev[(i, j)])
        journal.record(run_hash, CompletedBlock(
            rank=rank, gpu=g, block=bi, chunks=len(block.chunks),
            ntasks=block.ntasks, tiles=tiles,
        ))
        hist.observe(time.monotonic() - t_start)

    return restore_block, on_block


class _Progress:
    """Task counter shared between the executing and heartbeat threads.

    A bare int attribute: the executing thread increments, the heartbeat
    thread reads.  Both are atomic under the GIL; a beat that reads one
    task too few is simply one interval stale.
    """

    __slots__ = ("tasks",)

    def __init__(self):
        self.tasks = 0


class _HeartbeatThread:
    """Emits one :class:`HeartbeatMsg` per interval on a daemon thread.

    Protocol:
        send heartbeat: worker -> coordinator [telemetry]

    The first beat goes out immediately (the coordinator's "worker up"
    signal), later beats every ``interval`` seconds.  ``suspend()`` stops
    emission *without* waiting for the thread — the stall fault calls it
    from the executing thread right before hanging, so the rank goes
    silent exactly the way a livelocked worker would.
    """

    def __init__(self, endpoint: Endpoint, rank: int, attempt: int,
                 interval: float, progress: _Progress, rec: SpanRecorder):
        self._endpoint = endpoint
        self._rank = rank
        self._attempt = attempt
        self._interval = interval
        self._progress = progress
        self._rec = rec
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _loop(self) -> None:
        seq = 0
        while not self._stop.is_set():
            try:
                self._endpoint.send_telemetry(
                    HeartbeatMsg(
                        rank=self._rank,
                        attempt=self._attempt,
                        seq=seq,
                        tasks_done=self._progress.tasks,
                        uptime=self._rec.now(),
                    )
                )
            except Exception:  # pragma: no cover - fabric torn down mid-beat
                return
            seq += 1
            self._stop.wait(self._interval)

    def suspend(self) -> None:
        """Stop beating without joining (callable from any thread)."""
        self._stop.set()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def _instrumented_fetcher(a_arena: TileArena, rec: SpanRecorder, rank: int,
                          registry: MetricsRegistry):
    """A ``chunk_fetcher`` that double-buffers A chunks via a thread per block.

    The producer thread copies each chunk's A tiles out of the arena while
    the consumer runs the previous chunk's GEMMs.  Copy-out durations
    (``prefetch`` spans on the GPU's link resource) and the time the
    consumer blocked on the hand-off queue (``qwait`` spans — the
    executor's measurable analogue of a starved H2D pipeline) feed both
    the span recorder and the ``repro_prefetch_seconds`` /
    ``repro_prefetch_qwait_seconds`` histograms.
    """
    prefetch_hist = registry.histogram(
        "repro_prefetch_seconds", "A-chunk prefetch copy-out durations"
    )
    qwait_hist = registry.histogram(
        "repro_prefetch_qwait_seconds", "time blocked on the prefetch hand-off"
    )

    def fetcher(g: int, bi: int, block: Block):
        chunk_q: queue.Queue = queue.Queue(maxsize=1)
        link = f"gpu.{rank}.{g}.link"
        wait = f"gpu.{rank}.{g}.wait"

        def produce() -> None:
            for ci, chunk in enumerate(block.chunks):
                t_start = rec.now()
                tiles = [
                    np.array(a_arena.get((i, k)))
                    for i, k in zip(chunk.a_rows.tolist(), chunk.a_cols.tolist())
                ]
                t_end = rec.now()
                rec.record(f"block{bi}.chunk{ci}.prefetch", link, t_start, t_end)
                prefetch_hist.observe(t_end - t_start)
                chunk_q.put(tiles)

        threading.Thread(target=produce, daemon=True).start()

        def fetch(ci: int, chunk) -> list[np.ndarray]:
            t_start = rec.now()
            tiles = chunk_q.get()
            t_end = rec.now()
            rec.record(f"block{bi}.chunk{ci}.qwait", wait, t_start, t_end)
            qwait_hist.observe(t_end - t_start)
            return tiles

        return fetch

    return fetcher


class TieredBStore:
    """Chain two B-tile store tiers behind one ``get``/``put`` interface.

    ``front`` is a fast in-memory tier — a serving pool's process-lifetime
    warm cache (:class:`repro.serve.WarmTileCache`) — and ``back`` the
    persistent on-disk :class:`~repro.store.TileStore` (or ``None`` when
    the run has no disk tier).  Reads promote back-tier hits into the
    front so one disk read per process lifetime suffices; writes land in
    both tiers.  Both tiers are keyed by the operand-fingerprint
    namespace, so a tile served from either is bit-identical to what the
    generator would produce — which tier answered can never change the
    numeric result.
    """

    def __init__(self, front, back=None):
        self._front = front
        self._back = back

    def get(self, ns: str, key):
        arr = self._front.get(ns, key)
        if arr is not None:
            return arr
        if self._back is not None:
            arr = self._back.get(ns, key)
            if arr is not None:
                self._front.put(ns, key, arr)
        return arr

    def put(self, ns: str, key, arr) -> None:
        self._front.put(ns, key, arr)
        if self._back is not None:
            self._back.put(ns, key, arr)


def _b_store(tile_cache, store, b_hash: str):
    """Compose the B service's store tier(s) for one scattered attempt.

    ``tile_cache`` is a process-lifetime in-memory warm cache a serving
    pool injected at worker spawn; it layers in front of the per-run disk
    store so a pooled worker's second job over the same B fingerprint is
    served from memory.  Without a fingerprint the cache is skipped —
    there is no namespace to key it by, and serving another operand's
    tiles would be a correctness bug, not a cache miss.
    """
    if tile_cache is None or not b_hash:
        return store
    return TieredBStore(tile_cache, store)


#: The scatter-only settings a :class:`~repro.dist.comm.HandoffMsg` runs
#: with: the origin's blocks, untraced, never faulted, with nothing to
#: restore, skip or relinquish.
_HANDOFF_SETTINGS = SimpleNamespace(
    attempt=-1, trace=False, max_spans=0, heartbeat_interval=0.0,
    fault=None, completed=(), excluded=(), rebalance=False,
)


def run_rank(
    msg: ScatterMsg | HandoffMsg,
    *,
    origin: float | None = None,
    endpoint: Endpoint | None = None,
    tile_cache=None,
) -> WorkerReport:
    """The rank runtime: execute one scatter or handoff into its C arena.

    Every producer of C tiles runs through here — a worker's scattered
    rank, a helper's :class:`~repro.dist.comm.HandoffMsg`, and (called
    in-process with no endpoint) the coordinator's inline spare and inline
    handoff fallback.  One setup path builds the B source, attaches the
    A/B/C arenas, opens the tile store and writeback journal with their
    :func:`checkpoint_hooks`, runs the blocks through
    :func:`~repro.runtime.numeric.execute_blocks`, writes the C tiles into
    the message's arena, and closes everything in one ``finally``.

    A handoff runs the origin's blocks under the *origin's* rank, so its
    store keys, journal records and stats are exactly the ones the origin
    would have produced; it journals into a ``.h<id>`` sidecar, which is
    what lets a resumed run replay the ownership transfer transparently.

    ``origin`` is the monotonic instant the inbox wait of
    :func:`worker_main` began; the recorder's clock is rooted there, so
    the wait up to this call appears as the rank's first span.  ``endpoint``
    carries heartbeats, block-done reports and relinquish acks; without
    one (or with ``msg.heartbeat_interval <= 0``) the rank runs silently.
    ``tile_cache`` is a serving pool's process-lifetime warm B-tile cache
    (see :func:`_b_store`); ``None`` reproduces the one-shot behaviour.
    """
    if isinstance(msg, HandoffMsg):
        rank, job = msg.origin, _HANDOFF_SETTINGS
        blocks, journal_suffix = msg.blocks, f".h{msg.handoff_id}"
    else:
        rank, job = msg.proc.rank, msg
        blocks, journal_suffix = proc_blocks(msg.proc, msg.gpus_per_proc), ""
    rec = SpanRecorder(enabled=job.trace, max_spans=job.max_spans, origin=origin)
    if origin is not None:
        rec.record("inbox.wait", f"net.{rank}", 0.0, rec.now())
    registry = MetricsRegistry()
    progress = _Progress()

    hb: _HeartbeatThread | None = None
    telemetry_on = endpoint is not None and job.heartbeat_interval > 0.0
    if telemetry_on:
        hb = _HeartbeatThread(
            endpoint, rank, job.attempt, job.heartbeat_interval, progress, rec,
        )
        hb.start()

    store: TileStore | None = None
    journal: WritebackJournal | None = None
    restore_block = on_block = None
    attached: list[TileArena] = []
    try:
        if msg.store_dir is not None or msg.ckpt_dir is not None:
            root = msg.store_dir or os.path.join(msg.ckpt_dir, "store")
            store = TileStore(
                root, budget_bytes=msg.store_budget, metrics=registry
            )
        if msg.ckpt_dir is not None:
            journal = WritebackJournal(msg.ckpt_dir, rank, suffix=journal_suffix)
            restore_block, on_block = checkpoint_hooks(
                store, journal, msg.run_hash, rank,
                {(g, bi): tiles for g, bi, tiles in job.completed},
                registry,
            )

        with rec.span("shm.attach", f"net.{rank}"):
            a_arena = TileArena.attach(msg.a_meta)
            attached.append(a_arena)

            kind, b = msg.b_spec
            if kind == "arena":
                b = TileArena.attach(b)
                attached.append(b)
            b_src = b_source(
                b, msg.gpu_memory_bytes, recorder=rec, metrics=registry,
                store=_b_store(tile_cache, store, msg.b_hash),
                store_ns=f"b:{msg.b_hash}",
            )

            c_arena = TileArena.attach(msg.c_meta)
            attached.append(c_arena)
        registry.gauge(
            "repro_shm_attached_bytes", "shared-memory bytes attached", agg="sum"
        ).set(sum(arena.size for arena in attached))

        fault = job.fault
        tasks_counter = registry.counter(
            "repro_gemm_tasks_total", "GEMM tasks executed"
        )

        def on_task() -> None:
            progress.tasks += 1
            tasks_counter.inc()
            if fault is None:
                return
            if fault.kind == "slow":
                # A live straggler: every task from at_task on is slow.
                if progress.tasks >= fault.at_task:
                    time.sleep(fault.delay_seconds)
                return
            if progress.tasks == fault.at_task:
                if fault.kind == "kill":
                    os._exit(99)
                if fault.kind == "abort":
                    os._exit(ABORT_EXIT_CODE)
                if fault.kind == "stall":
                    # Go silent the way a livelocked rank would: stop the
                    # heartbeat thread, then hang the executing thread.
                    if hb is not None:
                        hb.suspend()
                    time.sleep(STALL_SLEEP_SECONDS)
                else:
                    time.sleep(fault.delay_seconds)

        gemm_hist = registry.histogram(
            "repro_chunk_gemm_seconds", "per-chunk GEMM stream durations"
        )

        def on_event(task: str, resource: str, start: float, end: float) -> None:
            rec.record(task, resource, start, end)
            if task.endswith(".gemm"):
                gemm_hist.observe(end - start)

        # ---- rebalancing yield points -------------------------------
        # ``skipped`` holds block positions this rank must not execute:
        # the coordinator's exclusions from earlier attempts, plus any
        # positions relinquished mid-run.  ``skip_block`` doubles as the
        # inbox poll at every block boundary.
        skipped: set[tuple[int, int]] = set(job.excluded)
        skip_block = None
        poll = job.rebalance and endpoint is not None
        if skipped or poll:
            positions = [(g, bi) for g, bi, _ in blocks]
            pos_index = {p: n for n, p in enumerate(positions)}
            restored_positions = {(g, bi) for g, bi, _ in job.completed}

            def skip_block(g: int, bi: int, block) -> bool:
                """Poll the inbox at a block boundary; honour relinquishes.

                A current-attempt :class:`RelinquishMsg` yields every
                position not yet started (including this one) that is
                neither journaled nor already skipped; the positions are
                acked back so the coordinator knows exactly which blocks
                it now owns.  A stale request is acked empty.

                Protocol:
                    recv relinquish: coordinator -> worker [data]
                    send relinquished: worker -> coordinator [data]
                """
                if poll:
                    while True:
                        try:
                            _, req, _ = endpoint.recv_nowait()
                        except Empty:
                            break
                        if not isinstance(req, RelinquishMsg):
                            continue  # foreign message; not ours mid-run
                        if req.attempt != job.attempt:
                            endpoint.send(
                                COORDINATOR,
                                ("relinquished", rank, req.attempt, ()),
                            )
                            continue
                        here = pos_index[(g, bi)]
                        remaining = tuple(
                            p for p in positions[here:]
                            if p not in skipped
                            and p not in restored_positions
                        )
                        skipped.update(remaining)
                        endpoint.send(
                            COORDINATOR,
                            ("relinquished", rank, job.attempt, remaining),
                        )
                return (g, bi) in skipped

        ckpt_on_block = on_block
        if telemetry_on:

            def on_block(g: int, bi: int, block, c_dev: dict) -> None:
                """Report block completion out-of-band.

                Protocol:
                    send block_done: worker -> coordinator [telemetry]
                """
                if ckpt_on_block is not None:
                    ckpt_on_block(g, bi, block, c_dev)
                try:
                    endpoint.send_telemetry(BlockDoneMsg(
                        rank=rank, attempt=job.attempt, gpu=g, block=bi,
                        ntasks=block.ntasks,
                    ))
                except Exception:  # pragma: no cover - fabric torn down
                    pass

        produced, stats = execute_blocks(
            rank,
            blocks,
            a_arena.get_tile,
            b_src,
            gpu_memory_bytes=msg.gpu_memory_bytes,
            b_csr=msg.b_csr,
            tau=msg.tau,
            alpha=msg.alpha,
            chunk_fetcher=_instrumented_fetcher(a_arena, rec, rank, registry),
            on_task=on_task,
            on_event=on_event,
            clock=rec.now,
            restore_block=restore_block,
            on_block=on_block,
            skip_block=skip_block,
        )

        c_index: dict[tuple[int, int], tuple[int, int, int]] = {}
        with rec.span(f"writeback.{rank}", f"net.{rank}"):
            for key, tile in produced.items():
                c_index[key] = c_arena.put(key, tile)

        registry.counter(
            "repro_gemm_flops_total", "floating-point operations executed"
        ).inc(stats.flops)
        registry.gauge(
            "repro_gpu_peak_bytes", "peak device-memory high-water mark"
        ).set(stats.gpu_peak_bytes)
        registry.counter(
            "repro_spans_dropped_total",
            "trace spans discarded at the recorder bound",
        ).inc(rec.dropped)
        registry.gauge(
            "repro_blas_threads",
            "BLAS threads each tile GEMM ran with (0: not pinned)",
        ).set(pinned_threads())
        return WorkerReport(
            rank=rank,
            attempt=job.attempt,
            stats=stats,
            c_index=c_index,
            metrics=registry.snapshot(),
            spans=rec.stream() if rec.enabled else None,
            link_bytes=(
                modeled_a_link_bytes(msg.proc, msg.grid, msg.a_meta)
                if isinstance(msg, ScatterMsg) else {}
            ),
        )
    finally:
        if hb is not None:
            hb.suspend()
        if journal is not None:
            journal.close()
        if store is not None:
            store.close()
        for arena in attached:
            arena.close()


def worker_main(rank: int, endpoint: Endpoint, tile_cache=None) -> None:
    """Process entry point: a dispatch loop over coordinator messages.

    The first message is normally this rank's :class:`ScatterMsg`; after
    reporting ``done`` the process stays in the loop as a rebalance
    helper, ready to execute a :class:`~repro.dist.comm.HandoffMsg` of
    blocks reclaimed from a straggler, until the coordinator terminates
    it at teardown.  A :class:`~repro.dist.comm.RelinquishMsg` landing
    here (rather than at a mid-run block boundary) raced against this
    rank's completion or respawn — it is acked empty so the coordinator
    can retire the request.

    Pooled lifetime: every worker belongs to a
    :class:`~repro.dist.pool.WorkerPool` (a one-shot run's private pool
    included), and the same loop serves one :class:`ScatterMsg` *per
    job*, the process outliving the run; ``tile_cache`` (pickled empty at
    spawn, populated here) is the process-lifetime warm B-tile cache that
    makes job N+1 over the same B fingerprint start hot.  The process's
    first scatter is traced from its spawn, so startup shows as the
    rank's ``inbox.wait``; every later one from its receipt, so idle time
    between jobs never bleeds into a job's trace.  Any unrecognised
    directive — the serving layer's shutdown pill included — exits the
    loop quietly.

    Protocol:
        recv scatter: coordinator -> worker [data]
        send done: worker -> coordinator [data]
        send error: worker -> coordinator [data]
        recv relinquish: coordinator -> worker [data]
        send relinquished: worker -> coordinator [data]
        recv handoff: coordinator -> worker [data]
        send handoff_done: worker -> coordinator [data]

    The ``error`` message carries the attempt number of the scatter it
    was executing (``-1`` if the failure preceded the scatter), so the
    coordinator can discard reports from superseded attempts instead of
    recovering a rank it already recovered.  A handoff is answered with a
    ``handoff_done`` carrying the helper's whole :class:`WorkerReport`, or
    ``None`` when it failed — the coordinator then re-executes those
    blocks on its inline spare.
    """
    origin: float | None = time.monotonic()  # the first scatter's root
    attempt = -1
    try:
        while True:
            _, msg, _ = endpoint.recv()
            if isinstance(msg, ScatterMsg):
                attempt = msg.attempt
                report = run_rank(
                    msg, origin=origin, endpoint=endpoint, tile_cache=tile_cache
                )
                origin = None  # later scatters are rooted at receipt
                endpoint.send(COORDINATOR, ("done", rank, report))
            elif isinstance(msg, RelinquishMsg):
                endpoint.send(
                    COORDINATOR, ("relinquished", rank, msg.attempt, ())
                )
            elif isinstance(msg, HandoffMsg):
                try:
                    report = run_rank(msg, tile_cache=tile_cache)
                except Exception:  # noqa: BLE001 - helper failure is recoverable
                    report = None
                endpoint.send(
                    COORDINATOR, ("handoff_done", rank, msg.handoff_id, report)
                )
            else:
                return  # unknown directive (incl. the serve pool's shutdown pill): exit quietly
    except BaseException:  # noqa: BLE001 - ship the traceback to the coordinator
        try:
            endpoint.send(
                COORDINATOR, ("error", rank, attempt, traceback.format_exc())
            )
        except Exception:  # pragma: no cover - fabric itself broken
            pass

"""The coordinator: scatter the plan, supervise workers, reduce C.

:func:`execute_plan_distributed` is the multi-process twin of
:func:`repro.runtime.numeric.execute_plan`: same signature semantics, same
result *bit for bit* (each rank runs the identical per-process body, and
the reduction applies the identical ``beta*C`` seeding and one-producer
accumulation).  The serial executor is therefore the crosscheck oracle for
this one.

Responsibilities — each a method of ``_Run``, the explicit state of one
run, named after the actions of the protocol model's coordinator machine
(:func:`repro.analysis.protocol.spec.build_coordinator_machine`):

* **scatter** (``scatter``) — pack A (and a concrete B) into
  shared-memory arenas, ship each rank its
  :class:`~repro.dist.worker.ScatterMsg` through the pool's
  :class:`~repro.dist.comm.CommLayer` (bytes counted per link);
* **supervise** (``supervise``, ``complete_rank``, ``recover_rank``,
  ``abort_run``) — gather reports; a worker that exits without reporting
  (crash, kill fault) or reports an error is *retried once* in a fresh
  process, and if that attempt also fails its blocks are *reassigned* to
  the coordinator's inline spare — the one rank runtime,
  :func:`~repro.dist.worker.run_rank`, called in-process on the very
  message a worker would have received — so a single faulty rank cannot
  lose the contraction;
* **monitor** (``patrol``, ``fold_health``, ``fold_progress``,
  ``snapshot``) — fold worker heartbeats off the telemetry channel into a
  live :class:`~repro.dist.health.RunHealth`: a rank silent for
  ``stall_after_beats`` heartbeat intervals is declared *stalled* and
  recovered like a crashed one, slow-but-beating ranks are flagged as
  stragglers, and every life-cycle transition is appended to the
  ``events_path`` JSONL log (the attach point for ``repro monitor``);
* **rebalance** (``request_relinquish``, ``dispatch_handoff``,
  ``absorb_handoff``) — with ``rebalance=True``, a flagged straggler is
  asked to relinquish its unstarted blocks; the acked positions are
  handed off to a finished worker rank (or the inline spare) as a
  :class:`~repro.dist.comm.HandoffMsg`, executed by the same rank runtime
  for bit parity, journaled under the origin's rank into sidecar
  journals, and reduced as their own producer — one owner per block at
  every instant, so the one-producer-per-tile invariant survives any
  steal x fault interleaving (rules M407/M408 in the protocol model);
* **reduce** (``reduce``) — seed ``beta*C``, copy every producer's C
  tiles (an arena plus a C index each) out enforcing the
  one-producer-per-tile invariant, merge per-producer
  :class:`~repro.runtime.numeric.NumericStats`, and merge every rank's
  monotonic :class:`~repro.runtime.tracing.SpanStream` (origins aligned
  via each recorder's single wall-clock sample) into one
  :class:`~repro.runtime.tracing.Trace`;
* **clean up** (``close``) — close a private pool (a borrowed one stays
  warm) and unlink every shared-memory segment, success or not (the leak
  tests attach-probe every name afterwards).

Clock policy: every run-relative clock and deadline here is
``time.monotonic()`` — an NTP step can neither fire nor suppress the
fault-recovery deadline, and durations can never go negative.  The single
wall-clock stamp (``DistReport.started_at``, taken inside
:class:`SpanRecorder`) exists only to label reports and align per-rank
span streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.perf import Attribution, PerfModel, RooflineAudit

from repro.core.plan import ExecutionPlan
from repro.dist.comm import (
    COORDINATOR,
    BlockDoneMsg,
    CommStats,
    Empty,
    HandoffMsg,
    RelinquishMsg,
)
from repro.dist.faults import FaultPlan
from repro.dist.health import EventLog, RunHealth
from repro.dist.pool import WorkerPool
from repro.dist.tile_store import TileArena
from repro.dist.worker import (
    ABORT_EXIT_CODE,
    ScatterMsg,
    WorkerReport,
    run_rank,
)
from repro.runtime.blas import usable_cores
from repro.runtime.data import GeneratedCollection, validate_b_budget
from repro.runtime.metrics import MetricsRegistry, MetricsSnapshot
from repro.runtime.numeric import NumericStats
from repro.runtime.tracing import SpanRecorder, Trace
from repro.sparse.matrix import BlockSparseMatrix
from repro.store import (
    TileStore,
    b_fingerprint,
    plan_fingerprint,
    read_snapshot,
    run_fingerprint,
    validated_completed_blocks,
    write_snapshot,
)
from repro.util.units import fmt_bytes, fmt_time
from repro.util.validation import require

#: Seconds a vanished worker gets to flush a late report before the
#: coordinator declares it dead.
_GRACE_SECONDS = 1.0

#: Upper bound between patrol passes: dead-worker/stall/straggler checks
#: must run on a monotonic cadence even when the message and telemetry
#: streams never go quiet (a busy inbox used to starve detection).
_PATROL_INTERVAL_SECONDS = 0.1

#: Seconds an outstanding handoff may run on a helper rank before the
#: coordinator gives up on it and re-executes the blocks inline.
_HANDOFF_TIMEOUT_SECONDS = 60.0


class DistExecutionError(RuntimeError):
    """The distributed run could not complete (even after recovery)."""


#: The run counters of :class:`DistReport`: attribute -> the metric of the
#: merged snapshot it reads.  ``b_store_hits`` counts B tiles served from
#: any store tier (warm in-process cache or disk) instead of generated —
#: nonzero on a warm pooled run's repeat job; ``blas_threads`` is a
#: max-merged gauge, the BLAS threads each tile GEMM ran with (0: no
#: OpenBLAS count could be pinned).
REPORT_COUNTERS = {
    "b_hits": "repro_b_service_hits_total",
    "b_evictions": "repro_b_service_evictions_total",
    "b_store_hits": "repro_b_service_store_hits_total",
    "store_hits": "repro_store_hits_total",
    "store_misses": "repro_store_misses_total",
    "store_puts": "repro_store_puts_total",
    "blocks_restored": "repro_checkpoint_blocks_restored_total",
    "tasks_skipped": "repro_checkpoint_tasks_skipped_total",
    "spans_dropped": "repro_spans_dropped_total",
    "handoffs": "repro_rebalance_handoffs_total",
    "blocks_rebalanced": "repro_rebalance_blocks_reclaimed_total",
    "tasks_rebalanced": "repro_rebalance_tasks_moved_total",
    "blas_threads": "repro_blas_threads",
}


@dataclass
class DistReport:
    """Everything observed about one distributed run.

    Its run counters (the keys of :data:`REPORT_COUNTERS`) are read-only
    attributes over :attr:`metrics`, the merge of every producer's and the
    coordinator's registry snapshot.
    """

    stats: NumericStats
    trace: Trace
    comm: CommStats
    attempts: dict[int, int]
    reassigned: list[int]
    segments: list[str]
    metrics: MetricsSnapshot
    nworkers: int = 0
    started_at: float = 0.0  # wall-clock stamp, labeling only
    shm_bytes: int = 0
    health: RunHealth | None = None
    events_path: str | None = None
    stalled: list[int] = field(default_factory=list)
    checkpoint_dir: str | None = None
    run_hash: str = ""
    plan_hash: str = ""
    #: Predicted-cost model of the executed plan (when tracing was on);
    #: feeds :meth:`audit` and ``repro explain``.
    model: "PerfModel | None" = None
    #: Merged recorder counters from every rank: ``dropped.<resource>``
    #: seconds of busy time lost at the span bound.
    span_counters: dict[str, float] = field(default_factory=dict)
    #: Run identifier the caller scoped this run's artifacts under
    #: (``None`` for unscoped one-shot runs).
    run_id: str | None = None

    def summary(self) -> str:
        retried = {r: a for r, a in self.attempts.items() if a > 1}
        return (
            f"{self.nworkers} workers, {self.stats.ntasks} tasks, "
            f"comm: {self.comm.summary()}"
            + (f", retried {sorted(retried)}" if retried else "")
            + (f", stalled {sorted(set(self.stalled))}" if self.stalled else "")
            + (f", reassigned {sorted(self.reassigned)}" if self.reassigned else "")
            + (
                f", resumed {self.blocks_restored} block(s) "
                f"({self.tasks_skipped} tasks skipped)"
                if self.blocks_restored else ""
            )
            + (
                f", rebalanced {self.blocks_rebalanced} block(s) "
                f"({self.tasks_rebalanced} tasks over {self.handoffs} "
                f"handoff(s))"
                if self.blocks_rebalanced else ""
            )
        )

    @property
    def b_max_instantiations(self) -> int:
        """The paper's once-per-rank invariant (1): ``stats.b_max_instantiations``."""
        return self.stats.b_max_instantiations

    # -- derived observability metrics ---------------------------------------

    def rank_utilization(self) -> dict[int, float]:
        """Per-rank GPU busy fraction over the run.

        GEMM-span seconds on a rank's ``gpu.<rank>.<g>.comp`` resources,
        normalized by the makespan times the number of that rank's GPU
        streams that appear in the trace (so a fully busy multi-GPU rank
        reports 1.0, not the GPU count).  Empty when tracing was disabled.
        """
        span = self.trace.makespan
        if span <= 0:
            return {}
        busy: dict[int, float] = {}
        streams: dict[int, set[str]] = {}
        for e in self.trace.events:
            parts = e.resource.split(".")
            if parts[0] == "gpu" and parts[-1] == "comp":
                rank = int(parts[1])
                busy[rank] = busy.get(rank, 0.0) + e.duration
                streams.setdefault(rank, set()).add(e.resource)
        return {r: busy[r] / (span * len(streams[r])) for r in sorted(busy)}

    def queue_wait_seconds(self) -> dict[int, float]:
        """Per-rank seconds spent blocked on queues.

        Sums the prefetch hand-off waits (``*.qwait`` on the GPUs' ``.wait``
        resources) and the initial scatter inbox wait per rank.
        """
        waits: dict[int, float] = {}
        for e in self.trace.events:
            if e.resource.endswith(".wait") or e.task == "inbox.wait":
                rank = int(e.resource.split(".")[1])
                waits[rank] = waits.get(rank, 0.0) + e.duration
        return dict(sorted(waits.items()))

    def observability_summary(self) -> str:
        """A human-readable digest of the merged trace and counters."""
        lines = [f"makespan {fmt_time(self.trace.makespan)}; {self.summary()}"]
        util = self.rank_utilization()
        if util:
            lines.append(
                "per-rank GPU busy fraction: "
                + ", ".join(f"rank {r}: {u:.1%}" for r, u in util.items())
            )
        waits = self.queue_wait_seconds()
        if waits:
            lines.append(
                "per-rank queue wait: "
                + ", ".join(f"rank {r}: {fmt_time(w)}" for r, w in waits.items())
            )
        lines.append(
            f"B service: {self.stats.b_tiles_generated} generated, "
            f"{self.b_hits} hits, {self.b_evictions} LRU evictions"
        )
        threads = self.blas_threads
        if threads:
            lines.append(
                f"core budget: {self.nworkers} ranks x {threads} BLAS "
                f"thread{'s' if threads > 1 else ''} on {usable_cores()} "
                f"usable cores"
            )
        else:
            lines.append("BLAS threads not pinned (no OpenBLAS found)")
        lines.append(
            f"shared memory: {len(self.segments)} segments, "
            f"{fmt_bytes(self.shm_bytes)} of tiles"
        )
        if self.checkpoint_dir is not None or self.store_puts or self.store_hits:
            lines.append(
                f"tile store: {self.store_hits} hits, {self.store_misses} "
                f"misses, {self.store_puts} puts"
                + (
                    f"; checkpoint: {self.blocks_restored} block(s) restored, "
                    f"{self.tasks_skipped} tasks skipped"
                    if self.checkpoint_dir is not None else ""
                )
            )
        if self.health is not None and self.health.heartbeats:
            lines.append(
                f"telemetry: {self.health.heartbeats} heartbeats "
                f"({fmt_bytes(self.comm.telemetry_total())})"
            )
        if self.spans_dropped:
            lost = sum(
                v for k, v in self.span_counters.items()
                if k.startswith("dropped.")
            )
            lines.append(
                f"WARNING: {self.spans_dropped} spans dropped at the recorder "
                f"bound" + (f" ({fmt_time(lost)} of busy time lost)" if lost else "")
            )
        lines.append(self.comm.table())
        return "\n".join(lines)

    # -- performance attribution (repro.perf) --------------------------------

    def attribution(self) -> "Attribution":
        """Critical-path blame buckets of the merged trace (see
        :func:`repro.perf.attribute`)."""
        from repro.perf import attribute

        return attribute(self.trace)

    def audit(self, band: tuple[float, float] | None = None) -> "RooflineAudit":
        """Model-vs-measured audit of the run (see
        :func:`repro.perf.audit_run`).  Empty when the run was untraced."""
        from repro.perf import DEFAULT_BAND, audit_run

        return audit_run(
            self.trace,
            self.model,
            comm_link_bytes=dict(self.comm.link_bytes),
            band=band if band is not None else DEFAULT_BAND,
        )


for _attr, _metric in REPORT_COUNTERS.items():
    setattr(DistReport, _attr, property(
        lambda self, _metric=_metric: int(self.metrics.get(_metric)),
        doc=f"``{_metric}`` of the merged :attr:`DistReport.metrics`.",
    ))
del _attr, _metric


def execute_plan_distributed(
    plan: ExecutionPlan,
    a: BlockSparseMatrix,
    b,
    c: BlockSparseMatrix | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    *,
    fault_plan: FaultPlan | None = None,
    max_retries: int = 1,
    allow_reassign: bool = True,
    timeout: float = 120.0,
    start_method: str | None = None,
    verify_plan: bool = False,
    trace: bool = True,
    trace_max_spans: int = 200_000,
    heartbeat_interval: float = 0.25,
    stall_after_beats: int = 8,
    straggler_fraction: float = 0.25,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    store_dir: str | None = None,
    store_budget_bytes: int | None = None,
    snapshot_interval: float = 1.0,
    rebalance: bool = False,
    pool=None,
    run_id: str | None = None,
) -> tuple[BlockSparseMatrix, DistReport]:
    """Run the plan across one real worker process per planned rank.

    Returns ``(C, report)`` with ``C`` bit-for-bit equal to the serial
    :func:`~repro.runtime.numeric.execute_plan` result for the same
    operands and seeds.  ``fault_plan`` sabotages workers for recovery
    testing; ``max_retries``/``allow_reassign`` tune the recovery policy
    (retry-once-then-reassign by default).  ``verify_plan=True`` runs the
    static plan verifier (:func:`repro.analysis.verify_plan`) first and
    raises :class:`repro.analysis.PlanVerificationError` on any finding —
    a corrupted plan is rejected before a single worker process spawns or
    a single shared-memory segment is created.  ``trace=False`` disables
    span recording end to end; the numeric result is identical either
    way.

    Live telemetry: with a positive ``heartbeat_interval`` every worker
    beats on the out-of-band telemetry channel; a rank silent for
    ``stall_after_beats`` intervals (plus a startup grace before its
    first beat) is treated exactly like a crashed one — terminated,
    retried, then reassigned.  ``heartbeat_interval=0`` disables both
    heartbeats and stall detection.  Every producer counts into its own
    :class:`~repro.runtime.metrics.MetricsRegistry` and ships its
    :class:`~repro.runtime.metrics.MetricsSnapshot` with its report; the
    merge of the final reports' snapshots (ranks and handoffs) and the
    coordinator's lands in ``report.metrics``, and the report's run
    counters (``b_hits``, ``store_puts``, ``handoffs``, ...) are read
    from it.
    ``events_path`` appends the run's life-cycle (``plan_accepted``,
    ``worker_up``, ``heartbeat``, ``stall``, ``reassign``, ``done``, ...)
    as JSONL — the file ``repro monitor`` tails.  A ``run_id`` scopes the
    log to a per-run file (``run-events.<run_id>.jsonl``) and stamps
    every record, so concurrent jobs sharing an events directory never
    clobber each other; ``report.events_path`` names the file written.

    Pooled execution: ``pool`` (a :class:`~repro.dist.pool.WorkerPool`
    with ``pool.nranks == plan.grid.nprocs``) lends this run its comm
    layer and warm worker processes — the coordinator spawns nothing it
    can reuse and, crucially, terminates nothing in its ``finally``, so
    the processes (and any warm B-tile caches inside them) survive for
    the next run.  The pool's owner is responsible for teardown
    (:meth:`~repro.dist.pool.WorkerPool.close`) and, after a run that
    raised, for resetting the pool (a worker may still be computing for
    the dead run; :mod:`repro.serve` recycles the processes and drains
    stale traffic).  ``start_method`` is ignored when a pool is given —
    the pool's context wins.

    Persistence: ``store_dir`` roots a :class:`~repro.store.TileStore`
    that backs every rank's B service as a second cache tier (tiles
    generated once are reused across runs and ranks).  ``checkpoint_dir``
    additionally turns on crash-consistent checkpointing: each rank
    journals every completed block (C tiles to the store first, then an
    fsynced journal line), the coordinator snapshots run identity and
    per-rank progress every ``snapshot_interval`` seconds, and *every*
    scatter — first attempt, retry, or a whole fresh run over the same
    directory — first restores the journaled blocks instead of
    recomputing them.  A run killed at any instant (including via the
    ``abort`` fault, which fails the whole job unrecoverably) therefore
    resumes bit-for-bit identical to an uninterrupted run.  A checkpoint
    directory whose snapshot records a *different plan* is refused up
    front (the P121 analysis rule makes the same check statically);
    ``store_budget_bytes`` bounds the store on disk via LRU GC.

    Rebalancing: ``rebalance=True`` turns straggler detection into
    action.  A flagged straggler is sent a cooperative relinquish
    request; at its next block boundary it acks the positions of its
    unstarted blocks, which the coordinator hands off to a finished
    worker rank (or executes inline) and reduces as their own producer.
    Relinquished positions are excluded from any later retry of the
    origin, and handoff journals land in per-handoff sidecar files under
    the origin's rank, so checkpoint/resume replays ownership transfers
    transparently.  The result stays bit-for-bit equal to the serial
    executor.

    Protocol:
        recv done: worker -> coordinator [data]
        recv error: worker -> coordinator [data]
        recv relinquished: worker -> coordinator [data]
        recv handoff_done: worker -> coordinator [data]

    Both reports carry the attempt number they belong to; the supervise
    loop discards any report from a superseded attempt (a retry raced
    the patrol's grace window) — acting on one would credit a
    half-written C arena or recover a rank twice.  The full protocol is
    declared as a checkable model in
    :mod:`repro.analysis.protocol.spec`; ``repro analyze --model-check``
    explores it exhaustively over small scopes.
    """
    if verify_plan:
        from repro.analysis import assert_plan_valid  # late import: avoid cycle

        assert_plan_valid(plan)
    require(a.rows == plan.a_shape.rows and a.cols == plan.a_shape.cols, "A tilings differ from plan")
    require(a.cols == plan.b_shape.rows, "A and B do not conform")
    if isinstance(b, GeneratedCollection):
        # Fail fast: a B tile larger than the per-rank LRU budget would
        # otherwise empty a worker's cache and kill it mid-run.
        validate_b_budget(b.shape, plan.gpu_memory_bytes)
    elif not isinstance(b, BlockSparseMatrix):
        raise TypeError(
            f"distributed execution needs a BlockSparseMatrix or "
            f"GeneratedCollection B, got {type(b).__name__}"
        )
    for inj in fault_plan.injections if fault_plan is not None else ():
        require(
            inj.rank < plan.grid.nprocs,
            f"fault injection targets rank {inj.rank}, but the plan has "
            f"only {plan.grid.nprocs} rank(s)",
        )
    if c is not None:
        require(
            c.rows == a.rows and c.cols == plan.b_shape.cols,
            "C tilings do not conform",
        )
    if pool is not None:
        require(not pool.closed, "worker pool is closed")
        require(
            pool.nranks == plan.grid.nprocs,
            f"plan wants {plan.grid.nprocs} rank(s) but the pool serves "
            f"{pool.nranks}",
        )
    return _Run(
        plan, a, b, c, alpha, beta, pool, start_method,
        fault_plan=fault_plan, max_retries=max_retries,
        allow_reassign=allow_reassign, timeout=timeout, trace=trace,
        trace_max_spans=trace_max_spans, heartbeat_interval=heartbeat_interval,
        stall_after_beats=stall_after_beats, straggler_fraction=straggler_fraction,
        events_path=events_path, checkpoint_dir=checkpoint_dir,
        store_dir=store_dir, store_budget_bytes=store_budget_bytes,
        snapshot_interval=snapshot_interval, rebalance=rebalance, run_id=run_id,
    ).execute()


#: The coordinator's own counters: attribute -> (metric name, help).
_RUN_COUNTERS = {
    "heartbeats": ("repro_heartbeats_total", "worker heartbeats received"),
    "stalls": ("repro_stalls_detected_total",
               "ranks declared stalled via missed heartbeats"),
    "retries": ("repro_worker_retries_total",
                "worker processes respawned after a failure"),
    "reassigned": ("repro_ranks_reassigned_total",
                   "ranks reassigned to the coordinator"),
    "rebalance_requests": ("repro_rebalance_requests_total",
                           "relinquish requests sent to flagged stragglers"),
    "rebalance_blocks": ("repro_rebalance_blocks_reclaimed_total",
                         "blocks reclaimed from stragglers and handed off"),
    "rebalance_tasks": ("repro_rebalance_tasks_moved_total",
                        "GEMM tasks moved off stragglers by the rebalancer"),
    "rebalance_handoffs": (
        "repro_rebalance_handoffs_total",
        "handoffs dispatched (to helper ranks or the inline spare)",
    ),
    "blocks_completed": (
        "repro_blocks_completed_total",
        "per-block completion reports received on the telemetry channel",
    ),
}


@dataclass(eq=False)
class _Run:
    """One distributed run: the coordinator as explicit state.

    Fields are the settings of the call; :meth:`__post_init__` adds the
    run's state.  It always works over a
    :class:`~repro.dist.pool.WorkerPool`: the caller's (borrowed, left
    warm) or a private one :meth:`execute` creates and :meth:`close`
    closes, so spawn, liveness and teardown each have one path.
    """

    plan: ExecutionPlan
    a: BlockSparseMatrix
    b: BlockSparseMatrix | GeneratedCollection
    c: BlockSparseMatrix | None
    alpha: float
    beta: float
    pool: WorkerPool | None
    start_method: str | None
    fault_plan: FaultPlan | None
    max_retries: int
    allow_reassign: bool
    timeout: float
    trace: bool
    trace_max_spans: int
    heartbeat_interval: float
    stall_after_beats: int
    straggler_fraction: float
    events_path: str | None
    checkpoint_dir: str | None
    store_dir: str | None
    store_budget_bytes: int | None
    snapshot_interval: float
    rebalance: bool
    run_id: str | None

    def __post_init__(self) -> None:
        plan = self.plan
        self.nranks = plan.grid.nprocs
        self.borrowed = self.pool is not None

        # ---- persistence / checkpoint identity ----------------------------
        self.persist = self.checkpoint_dir is not None or self.store_dir is not None
        self.plan_hash = self.b_hash = self.run_hash = ""
        if self.persist or (
            self.borrowed and isinstance(self.b, GeneratedCollection)
        ):
            # Hash only for a tier that reads the fingerprints: the disk
            # store and journal, and a borrowed pool's process-lifetime
            # warm caches, which hold generated B tiles only (keyed
            # ``b:<hash>``; an empty namespace would alias operands).  A
            # concrete B is resident in its arena and never enters a warm
            # cache, and a private pool dies with the run, so neither a
            # pooled run over a concrete B nor a cold run without a store
            # hashes B.
            self.plan_hash = plan_fingerprint(plan)
            self.b_hash = b_fingerprint(self.b)
            self.run_hash = run_fingerprint(self.plan_hash, self.b_hash, self.alpha)
        if self.checkpoint_dir is not None:
            snap = read_snapshot(self.checkpoint_dir)
            if snap is not None and snap.get("plan") not in (None, self.plan_hash):
                raise DistExecutionError(
                    f"checkpoint directory {self.checkpoint_dir!r} belongs to "
                    f"a different plan (snapshot plan hash "
                    f"{str(snap.get('plan'))[:12]}..., this plan "
                    f"{self.plan_hash[:12]}...); resume with the original "
                    f"operands/grid or point checkpoint_dir at a fresh "
                    f"directory"
                )

        self.comm_stats = CommStats()
        # The coordinator's own recorder doubles as the run's monotonic
        # clock and the alignment anchor for every rank's span stream.
        self.rec = SpanRecorder(enabled=self.trace, max_spans=self.trace_max_spans)
        self.clock = self.rec.now
        self.registry = MetricsRegistry()
        self.m = SimpleNamespace(**{
            attr: self.registry.counter(name, help_)
            for attr, (name, help_) in _RUN_COUNTERS.items()
        })
        self.health = RunHealth(
            heartbeat_interval=self.heartbeat_interval,
            stall_after_beats=self.stall_after_beats,
            straggler_fraction=self.straggler_fraction,
        )

        #: Every segment this run created; :meth:`close` unlinks them all.
        self.arenas: list[TileArena] = []
        self.c_arenas: dict[int, TileArena] = {}
        # clock() stamps at each rank's process (re)start and done-report
        # receipt.  Against the worker's own span extent they become
        # measured ``spawn.<rank>`` / ``report.<rank>`` spans at merge time
        # instead of unattributable idle on the critical path.
        self.spawn_clock: dict[int, float] = {}
        self.report_clock: dict[int, float] = {}

        # ---- supervise state ---------------------------------------------
        self.attempts = {rank: 1 for rank in range(self.nranks)}
        self.pending = set(range(self.nranks))
        self.reports: dict[int, WorkerReport] = {}
        self.reassigned: list[int] = []
        self.stalled: list[int] = []
        #: rank -> monotonic instant its process was first seen dead.
        self.suspects: dict[int, float] = {}

        # ---- rebalance state ---------------------------------------------
        #: Block positions reclaimed from each rank, cumulative across its
        #: attempts: a retried origin must never re-execute a block the
        #: rebalancer already owns (that would double-produce its tiles).
        self.stolen_blocks: dict[int, set[tuple[int, int]]] = {}
        self.flagged_stragglers: set[int] = set()
        #: rank -> attempt of the one relinquish request in flight to it.
        self.outstanding_relinquish: dict[int, int] = {}
        #: handoff id -> dispatch record (origin, helper, blocks, arena).
        self.pending_handoffs: dict[int, dict] = {}
        #: handoff id -> (origin, C arena, report) for the reduction.
        self.handoff_results: dict[int, tuple] = {}
        self.next_handoff = 0

    # ---- life cycle --------------------------------------------------------

    def execute(self) -> tuple[BlockSparseMatrix, DistReport]:
        """Scatter, supervise and reduce; release everything either way."""
        self.events = EventLog(self.events_path, self.run_id)
        self.events.emit(
            "plan_accepted", nranks=self.nranks,
            heartbeat_interval=self.heartbeat_interval,
            stall_after_beats=self.stall_after_beats,
            tasks_per_rank={r: p.ntasks for r, p in enumerate(self.plan.procs)},
        )
        store_root = self.store_dir or f"{self.checkpoint_dir}/store"
        self.coord_store = TileStore(
            store_root, budget_bytes=self.store_budget_bytes
        ) if self.persist else None
        if not self.borrowed:
            self.pool = WorkerPool(self.nranks, start_method=self.start_method)
        self.coord = self.pool.endpoint()
        try:
            # ---- pack operands into shared memory ---------------------------
            with self.rec.span("pack.a", "net.-1"):
                a_meta = self._own(TileArena.pack("a", self.a.items())).meta()
            if isinstance(self.b, BlockSparseMatrix):
                with self.rec.span("pack.b", "net.-1"):
                    b_arena = self._own(TileArena.pack("b", self.b.items()))
                b_spec = ("arena", b_arena.meta())
            else:
                b_spec = ("generated", self.b.empty_clone())
            plan = self.plan
            #: What every scatter and handoff message carries alike.
            self.msg_fields = dict(
                a_meta=a_meta, b_spec=b_spec,
                gpu_memory_bytes=plan.gpu_memory_bytes, b_csr=plan.b_shape.csr,
                tau=plan.options.screen_threshold, alpha=self.alpha,
                store_dir=self.store_dir, store_budget=self.store_budget_bytes,
                b_hash=self.b_hash, ckpt_dir=self.checkpoint_dir,
                run_hash=self.run_hash,
            )
            for rank in range(self.nranks):
                self.spawn(rank)
                self.scatter(rank, attempt=0)
            self.supervise()
            return self.reduce()
        finally:
            self.close()

    def close(self) -> None:
        """Release what the run holds, success or not."""
        self.events.close()
        if self.coord_store is not None:
            self.coord_store.close()
        if not self.borrowed:
            # A one-shot run's private pool dies with it.  A borrowed pool
            # stays warm: its owner (the serving layer) decides when
            # workers die, and resets the pool itself after a failed run.
            self.pool.close()
        for arena in self.arenas:
            arena.unlink()

    def _own(self, arena: TileArena) -> TileArena:
        """Record a segment this run created; :meth:`close` unlinks it."""
        self.arenas.append(arena)
        return arena

    def _c_arena(self, name: str, blocks) -> TileArena:
        """A fresh output arena sized for ``blocks``' C tiles."""
        return self._own(TileArena.allocate(name, sum(blk.c_bytes for blk in blocks)))

    def tasks_in(self, rank: int, positions) -> int:
        """GEMM tasks of ``rank``'s blocks at ``positions`` (``(g, bi, ...)``)."""
        proc = self.plan.procs[rank]
        return sum(proc.gpu_blocks(g)[bi].ntasks for g, bi, *_ in positions)

    # ---- scatter -----------------------------------------------------------

    def rank_msg(self, rank: int, attempt: int, fault) -> ScatterMsg:
        """One rank's plan, arenas, restore and exclusion lists.

        Allocates the attempt's C arena.  The same message feeds a worker
        process (:meth:`scatter`) and the inline spare.  Journaled blocks
        are re-read from disk on *every* scatter: a fresh run resumes a
        prior run's journal, and a retried rank resumes whatever its killed
        predecessor managed to journal this run.
        """
        plan = self.plan
        self.c_arenas[rank] = self._c_arena(
            f"c{rank}a{attempt}", plan.procs[rank].blocks
        )
        stolen = self.stolen_blocks.get(rank, set())
        done = {} if self.checkpoint_dir is None else validated_completed_blocks(
            self.checkpoint_dir, rank, self.run_hash, self.coord_store
        )
        # A journal may already hold stolen blocks (the handoff's sidecar):
        # they are the handoff's to produce, not this rank's to restore.
        completed = tuple(
            (g, bi, rec.tiles) for (g, bi), rec in sorted(done.items())
            if (g, bi) not in stolen
        )
        if completed:
            self.events.emit(
                "resume", rank=rank, attempt=attempt, blocks=len(completed),
                tasks_skipped=self.tasks_in(rank, completed),
            )
        return ScatterMsg(
            proc=plan.procs[rank], grid=plan.grid,
            gpus_per_proc=plan.grid.gpus_per_proc,
            c_meta=self.c_arenas[rank].meta(), fault=fault, attempt=attempt,
            trace=self.trace, max_spans=self.trace_max_spans,
            heartbeat_interval=self.heartbeat_interval,
            completed=completed, excluded=tuple(sorted(stolen)),
            rebalance=self.rebalance, **self.msg_fields,
        )

    def spawn(self, rank: int) -> None:
        """Bring the rank's process up: warm from the pool, or (re)spawned."""
        self.spawn_clock[rank] = self.clock()
        self.pool.ensure(rank)

    def scatter(self, rank: int, attempt: int) -> None:
        """Ship one rank's message to its worker process.

        Protocol:
            send scatter: coordinator -> worker [data]
        """
        inj = self.fault_plan.for_rank(rank) if self.fault_plan is not None else None
        if inj is not None and not inj.armed(attempt):
            inj = None
        msg = self.rank_msg(rank, attempt, inj)
        t_send = self.clock()
        self.coord.send(rank, msg)
        self.rec.record(f"scatter.{rank}", f"net.{rank}", t_send, self.clock())
        planned = self.plan.procs[rank].ntasks
        stolen = self.tasks_in(rank, self.stolen_blocks.get(rank, ()))
        self.health.on_scatter(rank, planned - stolen, attempt, time.monotonic())
        self.events.emit("scatter", rank=rank, attempt=attempt, tasks_total=planned)

    # ---- supervise ---------------------------------------------------------

    def supervise(self) -> None:
        """Gather reports until every rank and handoff has a producer.

        Protocol:
            recv done: worker -> coordinator [data]
            recv error: worker -> coordinator [data]
            recv relinquished: worker -> coordinator [data]
            recv handoff_done: worker -> coordinator [data]
        """
        deadline = time.monotonic() + self.timeout
        # The first snapshot lands before any worker makes progress, so a
        # run killed at any later instant still records its identity (and
        # a later mismatched plan is refused).
        self.snapshot("running")
        last_snapshot = last_patrol = time.monotonic()
        while self.pending or self.pending_handoffs:
            if time.monotonic() > deadline:
                raise DistExecutionError(
                    f"distributed run timed out after {self.timeout:.0f} s "
                    f"(pending ranks: {sorted(self.pending)})"
                )
            if time.monotonic() - last_snapshot >= self.snapshot_interval:
                self.snapshot("running")
                last_snapshot = time.monotonic()
            self.drain_telemetry()
            # Patrol on a bounded monotonic cadence, not only when the
            # inbox goes quiet: a steady message stream used to starve
            # dead-worker/stall/straggler detection entirely.
            if time.monotonic() - last_patrol >= _PATROL_INTERVAL_SECONDS:
                self.patrol()
                last_patrol = time.monotonic()
            try:
                src, msg, nbytes = self.coord.recv(timeout=0.1)
            except Empty:
                self.patrol()
                last_patrol = time.monotonic()
                continue
            link = (msg[1], COORDINATOR)
            self.comm_stats.absorb({link: nbytes}, {link: 1})
            self.receive(msg)
        self.drain_telemetry()  # beats raced against the final reports
        self.snapshot("done")

    def receive(self, msg: tuple) -> None:
        """Route one data-channel message to its action, or discard it.

        Reports carry the attempt they belong to; anything from a
        superseded attempt is stale (``recv:<msg>:stale -> discard`` in
        the model) — acting on it would credit a retired C arena or
        recover a rank twice.
        """
        kind, rank = msg[0], msg[1]
        live = self.attempts[rank] - 1 if rank in self.pending else None
        if kind == "done":
            # A done report losing the race against the patrol's grace
            # window points at a retired C arena.
            if msg[2].attempt == live:
                return self.complete_rank(rank, msg[2])
            detail = {"attempt": msg[2].attempt}
        elif kind == "error":
            # msg = ("error", rank, attempt, traceback); attempt -1 means
            # the worker died before it even received a scatter.
            if live is not None and msg[2] in (-1, live):
                return self.recover_rank(rank, msg[3])
            detail = {"attempt": msg[2]}
        elif kind == "relinquished":
            # msg = ("relinquished", rank, attempt, positions): the
            # straggler's ack.  Only the ack for the request sent to the
            # live attempt counts; any other is stale (the rank finished,
            # died, or was retried in between).
            att, positions = msg[2], tuple(tuple(p) for p in msg[3])
            if self.outstanding_relinquish.get(rank) == att:
                self.outstanding_relinquish.pop(rank)
                if att == live:
                    self.events.emit(
                        "relinquished", rank=rank, attempt=att,
                        blocks=len(positions),
                    )
                    if positions:
                        self.dispatch_handoff(rank, positions)
                    return
            detail = {"attempt": att}
        elif kind == "handoff_done":
            # msg = ("handoff_done", rank, hid, report); a None report
            # flags a helper-side failure -> redo inline.  A handoff
            # already resolved (timed out and redone inline) is stale.
            hid, h = msg[2], self.pending_handoffs.get(msg[2])
            if h is not None and msg[3] is None:
                self.events.emit(
                    "handoff_failed", handoff=hid, origin=h["origin"],
                    helper=rank, reason="helper error",
                )
                return self.handoff_inline(hid)
            if h is not None:
                return self.absorb_handoff(hid, rank, msg[3])
            detail = {"handoff": hid}
        else:  # pragma: no cover - unknown message kind
            raise DistExecutionError(f"unexpected message {kind!r} from rank {rank}")
        self.events.emit("stale_report", rank=rank, kind=kind, **detail)

    def complete_rank(self, rank: int, report: WorkerReport) -> None:
        """File the live attempt's done report."""
        self.reports[rank] = report
        self.report_clock[rank] = self.clock()
        self.pending.discard(rank)
        self.suspects.pop(rank, None)
        # A done report supersedes any relinquish in flight to this rank
        # (M408) and retires its straggler flag.
        self.outstanding_relinquish.pop(rank, None)
        self.flagged_stragglers.discard(rank)
        self.health.on_done(rank, time.monotonic())
        self.events.emit(
            "rank_done", rank=rank, attempt=report.attempt,
            tasks=report.stats.ntasks,
        )

    def recover_rank(self, rank: int, reason: str) -> None:
        """Terminate the failed attempt, then retry it or reassign it inline."""
        self.suspects.pop(rank, None)
        # A retried or reassigned rank starts a fresh attempt: its
        # straggler flag must not outlive the attempt it measured (a slow
        # *second* attempt must be re-flaggable), and any relinquish in
        # flight to the dead attempt is superseded.
        self.flagged_stragglers.discard(rank)
        self.outstanding_relinquish.pop(rank, None)
        old = self.pool.process(rank)
        if old is not None and old.is_alive():
            # Still breathing (a stalled or wedged worker): put it down
            # before its rank is re-executed anywhere else.
            old.terminate()
            old.join(timeout=1.0)
        if self.attempts[rank] <= self.max_retries:
            self.attempts[rank] += 1
            self.m.retries.inc()
            self.health.mark(rank, "retried")
            self.events.emit(
                "retry", rank=rank, attempt=self.attempts[rank] - 1, reason=reason
            )
            self.spawn(rank)
            self.scatter(rank, attempt=self.attempts[rank] - 1)
        elif self.allow_reassign:
            # The inline spare: the rank runtime called in-process, with no
            # endpoint (no heartbeats, no relinquish polling) and never a
            # fault — a re-armed kill would exit the coordinator.  Blocks
            # stolen from the rank stay excluded.
            self.attempts[rank] += 1
            report = run_rank(self.rank_msg(rank, self.attempts[rank] - 1, None))
            self.reports[rank] = report
            self.pending.discard(rank)
            # The dead retry's process start is not this report's.
            self.spawn_clock.pop(rank, None)
            self.reassigned.append(rank)
            self.m.reassigned.inc()
            self.health.mark(rank, "reassigned")
            self.events.emit("reassign", rank=rank, attempt=self.attempts[rank])
        else:
            raise DistExecutionError(
                f"rank {rank} failed after {self.attempts[rank]} attempt(s): {reason}"
            )

    def abort_run(self, rank: int) -> None:
        """The abort fault: the whole job is lost, not one rank.

        No retry, no reassignment; whatever the journals captured is the
        resume point.
        """
        self.events.emit("abort", rank=rank, attempt=self.attempts[rank] - 1)
        raise DistExecutionError(
            f"rank {rank} aborted (unrecoverable kill)"
            + (
                f"; resume by re-running with "
                f"checkpoint_dir={self.checkpoint_dir!r}"
                if self.checkpoint_dir is not None else ""
            )
        )

    def drain_telemetry(self) -> None:
        """Fold every queued heartbeat and block report into the run.

        Protocol:
            recv heartbeat: worker -> coordinator [telemetry]
            recv block_done: worker -> coordinator [telemetry]
        """
        while True:
            try:
                src, msg, nbytes = self.coord.recv_telemetry()
            except Empty:
                return
            self.comm_stats.absorb_telemetry({(src, COORDINATOR): nbytes})
            if isinstance(msg, BlockDoneMsg):
                self.fold_progress(msg)
            else:
                self.fold_health(msg)

    def fold_progress(self, msg: BlockDoneMsg) -> None:
        """Count one completed block of the live attempt."""
        if msg.attempt != self.attempts.get(msg.rank, 0) - 1:
            return  # a superseded attempt's block
        self.m.blocks_completed.inc()
        self.events.emit(
            "block_done", rank=msg.rank, attempt=msg.attempt,
            gpu=msg.gpu, block=msg.block, tasks=msg.ntasks,
        )

    def fold_health(self, hb) -> None:
        """Fold one heartbeat into the live health picture."""
        rh = self.health.ranks.get(hb.rank)
        first = rh is not None and rh.first_beat is None
        if not self.health.on_heartbeat(hb, time.monotonic()):
            return  # late beat from a terminated attempt
        self.m.heartbeats.inc()
        if first:
            self.events.emit("worker_up", rank=hb.rank, attempt=hb.attempt)
        self.events.emit(
            "heartbeat", rank=hb.rank, attempt=hb.attempt, seq=hb.seq,
            tasks_done=hb.tasks_done, uptime=round(hb.uptime, 3),
        )

    def patrol(self) -> None:
        """Dead-worker, stall, straggler and handoff checks between messages."""
        now = time.monotonic()
        for rank in sorted(self.pending):
            proc = self.pool.process(rank)
            if proc is None or proc.exitcode is None:
                continue
            if proc.exitcode == ABORT_EXIT_CODE:
                self.abort_run(rank)
            first = self.suspects.setdefault(rank, now)
            if now - first >= _GRACE_SECONDS:
                self.recover_rank(rank, f"worker exited with code {proc.exitcode}")
        for rank in self.health.stalled_ranks(time.monotonic(), self.pending):
            self.m.stalls.inc()
            self.stalled.append(rank)
            self.health.mark(rank, "stalled")
            silent = time.monotonic() - self.health.ranks[rank].last_signal
            self.events.emit(
                "stall", rank=rank, attempt=self.attempts[rank] - 1,
                silent_seconds=round(silent, 3),
            )
            self.recover_rank(
                rank,
                f"stalled: no heartbeat for {silent:.2f} s "
                f"(> {self.stall_after_beats} x {self.heartbeat_interval} s)",
            )
        current = set(self.health.straggler_ranks(time.monotonic()))
        for rank in sorted(current - self.flagged_stragglers):
            self.flagged_stragglers.add(rank)
            self.health.mark(rank, "straggler")
            self.events.emit("straggler", rank=rank)
            self.request_relinquish(rank)
        for rank in sorted(self.flagged_stragglers - current):
            # Recovery: the rank's windowed rate climbed back over the
            # threshold (or it finished).  Clear the flag so a later
            # slowdown re-flags it — a sticky flag would mute every
            # straggler after its first offense.
            self.flagged_stragglers.discard(rank)
            rh = self.health.ranks.get(rank)
            if rh is not None and rh.state == "straggler":
                self.health.mark(rank, "running")
                self.events.emit("straggler_recovered", rank=rank)
        for hid in sorted(self.pending_handoffs):
            h = self.pending_handoffs[hid]
            if h["helper"] is None:
                continue
            proc = self.pool.process(h["helper"])
            helper_dead = proc is None or proc.exitcode is not None
            timed_out = now - h["started"] > _HANDOFF_TIMEOUT_SECONDS
            if helper_dead or timed_out:
                self.events.emit(
                    "handoff_failed", handoff=hid, origin=h["origin"],
                    helper=h["helper"],
                    reason="helper died" if helper_dead else "timeout",
                )
                self.handoff_inline(hid)

    def snapshot(self, state: str) -> None:
        """Atomically refresh ``coordinator.json`` with live progress."""
        if self.checkpoint_dir is None:
            return
        write_snapshot(self.checkpoint_dir, {
            "v": 1, "state": state, "plan": self.plan_hash, "b": self.b_hash,
            "run": self.run_hash, "alpha": float(self.alpha), "nranks": self.nranks,
            "attempts": {str(r): a for r, a in self.attempts.items()},
            "ranks": {
                str(r): {
                    "state": rh.state,
                    "tasks_done": rh.tasks_done,
                    "tasks_total": rh.tasks_total,
                }
                for r, rh in self.health.ranks.items()
            },
        })

    # ---- rebalance ---------------------------------------------------------

    def request_relinquish(self, rank: int) -> None:
        """Ask a flagged straggler to yield its unstarted blocks.

        At most one request per rank is in flight; the pin to the live
        attempt lets the worker (and the supervise loop) discard a request
        that raced a retry.

        Protocol:
            send relinquish: coordinator -> worker [data]
        """
        busy = rank in self.outstanding_relinquish or rank not in self.pending
        if not self.rebalance or busy:
            return
        att = self.attempts[rank] - 1
        self.outstanding_relinquish[rank] = att
        self.coord.send(rank, RelinquishMsg(attempt=att))
        self.m.rebalance_requests.inc()
        self.events.emit("rebalance", rank=rank, attempt=att)

    def pick_helper(self) -> int | None:
        """A finished worker rank able to absorb a handoff, or ``None``.

        Only ranks that reported *through the comm layer* qualify: an
        inline-reassigned rank has no live worker process to send to.
        """
        alive = set(self.pool.alive_ranks())
        return min((r for r in self.reports if r in alive), default=None)

    def dispatch_handoff(self, origin: int, positions: tuple) -> None:
        """Take ownership of acked blocks and hand them to a producer.

        The blocks go to a finished helper rank, or run inline when none
        is free.

        Protocol:
            send handoff: coordinator -> worker [data]
        """
        self.stolen_blocks.setdefault(origin, set()).update(positions)
        moved = self.tasks_in(origin, positions)
        rh = self.health.ranks.get(origin)
        if rh is not None:
            # The origin's denominator shrinks with its schedule, so
            # progress fractions stay honest.
            rh.tasks_total = max(0, rh.tasks_total - moved)
        hid = self.next_handoff
        self.next_handoff += 1
        helper = self.pick_helper()
        self.m.rebalance_handoffs.inc()
        self.m.rebalance_blocks.inc(len(positions))
        self.m.rebalance_tasks.inc(moved)
        self.events.emit(
            "handoff", handoff=hid, origin=origin, helper=helper,
            blocks=len(positions), tasks=moved,
        )
        self.pending_handoffs[hid] = {
            "origin": origin, "helper": helper,
            "blocks": tuple(
                (g, bi, self.plan.procs[origin].gpu_blocks(g)[bi])
                for g, bi in positions
            ),
            "arena": None, "started": time.monotonic(),
        }
        if helper is None:
            self.handoff_inline(hid)
        else:
            self.coord.send(helper, self.handoff_msg(hid))

    def handoff_msg(self, hid: int) -> HandoffMsg:
        """One handoff's message, writing into a fresh C arena.

        Fresh on every call: a handoff redone after a helper failure must
        not inherit the helper's arena, which may hold partial tiles.
        """
        h = self.pending_handoffs[hid]
        h["arena"] = self._c_arena(f"h{hid}", (blk for _, _, blk in h["blocks"]))
        return HandoffMsg(
            handoff_id=hid, origin=h["origin"], blocks=h["blocks"],
            c_meta=h["arena"].meta(), **self.msg_fields,
        )

    def handoff_inline(self, hid: int) -> None:
        """Run one handoff through the rank runtime in-process.

        The fallback producer: used when no helper rank is free, when the
        chosen helper dies or reports failure mid-handoff, or when a
        handoff times out.  Re-executing after a partial helper run is
        safe — duplicate journal/store records are bit-identical and only
        this inline result enters the reduction.
        """
        self.absorb_handoff(hid, None, run_rank(self.handoff_msg(hid)))

    def absorb_handoff(self, hid: int, helper, report: WorkerReport) -> None:
        """File a handoff's report as its own producer for the reduction."""
        h = self.pending_handoffs.pop(hid)
        self.handoff_results[hid] = (h["origin"], h["arena"], report)
        self.events.emit(
            "handoff_done", handoff=hid, origin=h["origin"], helper=helper,
            tasks=report.stats.ntasks,
        )

    # ---- reduce ------------------------------------------------------------

    def reduce(self) -> tuple[BlockSparseMatrix, DistReport]:
        """Seed ``beta*C``, fold every producer in, merge what was observed."""
        plan, rec, reports = self.plan, self.rec, self.reports
        out = BlockSparseMatrix(self.a.rows, plan.b_shape.cols)
        if self.c is not None:
            for (i, j), tile in self.c.items():
                out.set_tile(i, j, self.beta * tile)

        # Every producer is an (arena, report) pair: a rank (worker or
        # inline spare) or a handoff.  Handoffs reduce exactly like ranks:
        # blocks within one process hold disjoint column sets, so a stolen
        # block's tiles can collide neither with the origin's remaining
        # blocks nor with any other rank — the one-producer check enforces
        # it (M407).
        producers = [
            (f"rank {rank}", self.c_arenas[rank], reports[rank])
            for rank in range(self.nranks)
        ] + [
            (f"handoff {hid} of rank {origin}", arena, report)
            for hid, (origin, arena, report) in sorted(self.handoff_results.items())
        ]
        produced_by: dict[tuple[int, int], str] = {}
        t_reduce = self.clock()
        for producer, arena, part in producers:
            for (i, j), entry in part.c_index.items():
                prev = produced_by.setdefault((i, j), producer)
                require(
                    prev == producer,
                    f"C tile ({i},{j}) produced by two processes "
                    f"({prev}, {producer})",
                )
                out.accumulate_tile(i, j, arena.read(entry))
        rec.record("reduce", "net.-1", t_reduce, self.clock())

        # ---- merge stats / trace / comm / metrics -------------------------
        stats = NumericStats.merge(part.stats for *_, part in producers)
        run_trace = Trace()
        run_trace.extend(rec.spans)
        span_counters: dict[str, float] = dict(rec.counters)
        for rank in range(self.nranks):
            stream = reports[rank].spans
            if stream is not None:
                # Re-base the rank's monotonic clock onto the coordinator's
                # via the two recorders' wall-clock origin samples.
                offset = stream.wall_origin - rec.wall_origin
                run_trace.extend(stream.spans, offset=offset)
                for key, val in stream.counters.items():
                    span_counters[key] = span_counters.get(key, 0.0) + val
                t_spawn = self.spawn_clock.get(rank)
                if stream.spans and t_spawn is not None and offset > t_spawn:
                    # The measured process-startup window: the spawn on the
                    # coordinator's clock up to the worker recorder's
                    # origin (its own spans begin at ~0).
                    run_trace.add(f"spawn.{rank}", f"cpu.{rank}", t_spawn, offset)
                t_report = self.report_clock.get(rank)
                if stream.spans and t_report is not None:
                    # ... and the report-shipping window: the worker's last
                    # recorded span to the coordinator's receipt (report
                    # pickling + queue transfer).
                    last = max(e for _, _, _, e in stream.spans) + offset
                    if t_report > last:
                        run_trace.add(f"report.{rank}", f"net.{rank}", last, t_report)
            self.comm_stats.absorb(reports[rank].link_bytes)
        self.comm_stats.absorb(self.coord.link_bytes, self.coord.messages)
        self.registry.counter(
            "repro_spans_dropped_total",
            "trace spans discarded at the recorder bound",
        ).inc(rec.dropped)
        merged_metrics = MetricsSnapshot.merge(
            [part.metrics for *_, part in producers]
            + [self.registry.snapshot()]
        )

        perf_model = None
        if self.trace:
            # The predicted-cost twin of the measured trace: cheap to build
            # (reads stored plan aggregates) and what `repro explain`
            # audits the run against.
            from repro.perf import PerfModel

            perf_model = PerfModel.from_plan(
                plan, plan_hash=self.plan_hash or plan_fingerprint(plan)
            )

        report = DistReport(
            stats=stats,
            trace=run_trace,
            comm=self.comm_stats,
            attempts=self.attempts,
            reassigned=self.reassigned,
            segments=[arena.name for arena in self.arenas],
            metrics=merged_metrics,
            nworkers=self.nranks,
            started_at=rec.wall_origin,
            shm_bytes=sum(arena.used_bytes for arena in self.arenas),
            health=self.health,
            events_path=self.events.path,
            stalled=self.stalled,
            checkpoint_dir=self.checkpoint_dir,
            run_hash=self.run_hash,
            plan_hash=self.plan_hash,
            model=perf_model,
            span_counters=span_counters,
            run_id=self.run_id,
        )
        self.events.emit(
            "done",
            ntasks=stats.ntasks,
            heartbeats=self.health.heartbeats,
            retried=sorted(r for r, a in self.attempts.items() if a > 1),
            stalled=sorted(set(self.stalled)),
            reassigned=sorted(self.reassigned),
            handoffs=report.handoffs,
            blocks_rebalanced=report.blocks_rebalanced,
        )
        return out, report

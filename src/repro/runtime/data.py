"""B tiles: the generated collection and the one B source per rank.

The paper's B is never stored: "generation functions allow to instantiate
any tile when needed", with the runtime caching each tile "as long as [it
is] needed by any task, and discarded after this", and the algorithm
guaranteeing each tile is "instantiated at most once per node".

:class:`GeneratedCollection` is the generator alone: tile values depend
only on ``(seed, tile id)`` (per-tile child RNGs), never on instantiation
order, so the numeric result of a run is schedule-independent.  It holds
no cache.

The life-cycle lives in the B *source* every producer of C tiles pulls
through — each rank of the serial executor and every distributed rank
alike, built by the one helper :func:`b_source`, one fresh source per
rank:

* :class:`BService` — generated B, cached under an LRU byte budget
  enforced through :class:`~repro.runtime.gpu_memory.GpuMemory`
  reservations (the same accounting discipline the block/chunk residency
  uses).  An optional store tier (a :class:`~repro.store.TileStore`, or a
  serving pool's warm cache in front of it) is consulted on every LRU
  miss before the generator runs; tiles land there keyed by
  ``(b:<operand fingerprint>, (k, j))``, so runs over identical operands
  reuse each other's generation work.  Store reads count as
  instantiations: the tile *was* materialized on the rank.
* :class:`ResidentB` — a concrete B read through a tile getter: the
  matrix itself serially, a zero-copy shared-memory arena on a rank.
  Nothing to cache or evict; distinct pulls count as instantiations and
  repeat pulls as hits, so the counters mean the same on both backings.

The block loop evicts a block's tiles at the end of the block's
life-cycle, and the plan needs each tile in exactly one block per rank,
so the LRU never evicts a tile that will be needed again: "instantiated
at most once per rank" holds, and the block loop reports it as
``NumericStats.b_max_instantiations``.

Budget validation: a tile larger than the whole budget would make
:meth:`BService.tile` empty the entire LRU and still fail mid-run, so
:func:`validate_b_budget` rejects that configuration up front — at
:class:`BService` construction, in the distributed coordinator before any
worker spawns, and statically in the plan verifier (rule ``P114``).

Observability: pass a :class:`~repro.runtime.tracing.SpanRecorder` and
:class:`BService` records one ``gen.<k>.<j>`` span per instantiation on
the rank's ``cpu.<rank>`` resource.  Pass a
:class:`~repro.runtime.metrics.MetricsRegistry` and either source counts
hits and misses (and the LRU its store-tier hits and evictions) as
``repro_b_service_*`` metrics.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict
from typing import Callable, Protocol

import numpy as np

from repro.runtime.gpu_memory import GpuMemory
from repro.runtime.metrics import MetricsRegistry
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.shape import SparseShape
from repro.util.rng import resolve_rng, spawn_rng


class TileSource(Protocol):
    """One rank's B tiles, as the block loop pulls them."""

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        """The tile's data, materialized for process ``proc``."""
        ...

    def evict(self, proc: int, k: int, j: int) -> None:
        """The end of the tile's life-cycle in the current block."""
        ...

    def generated_tiles(self) -> int:
        """Tiles instantiated on this rank so far."""
        ...

    def max_instantiations(self) -> int:
        """Most instantiations of any one tile (the paper's invariant: 1)."""
        ...


class GeneratedCollection:
    """A virtual matrix whose present tiles are generated on demand.

    Parameters
    ----------
    shape:
        The occupancy of the virtual matrix.
    fill:
        ``"random"`` (standard normal) or ``"ones"``.
    seed:
        Determines all tile values, independent of instantiation order.
    """

    def __init__(self, shape: SparseShape, fill: str = "random", seed=None):
        if fill not in ("random", "ones"):
            raise ValueError(f"unknown fill {fill!r}; use 'random' or 'ones'")
        self.shape = shape
        self.fill = fill
        self._rng = resolve_rng(seed)

    def has_tile(self, k: int, j: int) -> bool:
        return self.shape.has_tile(k, j)

    def tile_shape(self, k: int, j: int) -> tuple[int, int]:
        return (self.shape.rows.tile_size(k), self.shape.cols.tile_size(j))

    def tile_nbytes(self, k: int, j: int) -> int:
        m, n = self.tile_shape(k, j)
        return m * n * 8

    def generate_tile(self, k: int, j: int) -> np.ndarray:
        """A fresh copy of tile ``(k, j)``'s values.

        Deterministic in ``(seed, tile id)`` only, so any process holding an
        equal-state collection (e.g. a distributed worker that received one
        by pickling) produces bit-identical tiles.
        """
        if not self.has_tile(k, j):
            raise KeyError(f"tile ({k},{j}) is structurally zero")
        return self._generate(k, j)

    def _generate(self, k: int, j: int) -> np.ndarray:
        tshape = self.tile_shape(k, j)
        if self.fill == "ones":
            return np.ones(tshape)
        child = spawn_rng(self._rng, k * self.shape.ntile_cols + j)
        return child.standard_normal(tshape)

    def empty_clone(self) -> "GeneratedCollection":
        """An equal-state collection.

        Shares the parent's generator state (generation never advances it),
        so clones — including ones pickled to worker processes — hand out
        bit-identical tiles in any order.  This is what the distributed
        executor scatters to each rank.
        """
        return GeneratedCollection(self.shape, fill=self.fill, seed=self._rng)

    def as_matrix(self) -> BlockSparseMatrix:
        """Materialize the whole collection (tests / small shapes only).

        Values match what :meth:`generate_tile` hands out, because both
        derive from the same per-tile child RNGs.
        """
        out = BlockSparseMatrix(self.shape.rows, self.shape.cols)
        ii, jj = self.shape.nonzero_tiles()
        for k, j in zip(ii.tolist(), jj.tolist()):
            out.set_tile(k, j, self._generate(k, j))
        return out


class DelayedGeneratedCollection(GeneratedCollection):
    """A :class:`GeneratedCollection` whose generation costs wall time.

    Each :meth:`_generate` sleeps ``gen_delay_s`` before producing the
    tile, standing in for the expensive integral/tensor evaluation the
    paper's generation functions perform.  Values are bit-identical to a
    plain collection with the same seed — only the cost differs — so the
    operand fingerprint (and therefore every warm-cache key) matches the
    undelayed twin.  Benchmarks use this to measure cache effectiveness
    with a host-stable, sleep-dominated signal: a warm run skips the
    sleeps, a cold one pays them.
    """

    def __init__(self, shape: SparseShape, fill: str = "random", seed=None,
                 gen_delay_s: float = 0.0):
        super().__init__(shape, fill=fill, seed=seed)
        self.gen_delay_s = gen_delay_s

    def _generate(self, k: int, j: int) -> np.ndarray:
        if self.gen_delay_s > 0.0:
            time.sleep(self.gen_delay_s)
        return super()._generate(k, j)

    def empty_clone(self) -> "DelayedGeneratedCollection":
        return DelayedGeneratedCollection(
            self.shape, fill=self.fill, seed=self._rng,
            gen_delay_s=self.gen_delay_s,
        )


def validate_b_budget(shape, budget_bytes: int) -> None:
    """Reject a B-service budget that cannot hold the largest B tile.

    Raises a :class:`ValueError` with an actionable message — this runs in
    the coordinator (and at :class:`BService` construction) *before* any
    worker starts, instead of letting the LRU empty itself and die with a
    bare ``GpuMemoryError`` deep inside a worker process.
    """
    biggest = shape.max_tile_nbytes()
    if biggest > budget_bytes:
        raise ValueError(
            f"B-service budget ({budget_bytes} B) cannot hold the largest "
            f"B tile ({biggest} B): the LRU would evict its entire cache "
            f"and still fail mid-run; raise the machine's GPU memory or "
            f"retile B with smaller tiles"
        )


def _pull_counters(registry: MetricsRegistry | None):
    """The hit and miss counters both B sources count pulls on."""
    registry = registry if registry is not None else MetricsRegistry(enabled=False)
    return registry, (
        registry.counter("repro_b_service_hits_total", "B-tile cache hits"),
        registry.counter(
            "repro_b_service_misses_total", "B-tile instantiations (cache misses)"
        ),
    )


class BService:
    """On-demand generated B tiles for one rank, LRU-cached under a byte budget."""

    def __init__(self, collection: GeneratedCollection, budget_bytes: int,
                 recorder=None, metrics: MetricsRegistry | None = None,
                 store=None, store_ns: str = ""):
        validate_b_budget(collection.shape, budget_bytes)
        self._col = collection
        self._mem = GpuMemory(budget_bytes)
        self._lru: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self.instantiations: Counter = Counter()
        self._store = store
        self._store_ns = store_ns
        self._rec = recorder
        registry, (self._m_hits, self._m_misses) = _pull_counters(metrics)
        self._m_store_hits = registry.counter(
            "repro_b_service_store_hits_total",
            "B tiles read from a store tier instead of generated",
        )
        self._m_evictions = registry.counter(
            "repro_b_service_evictions_total", "B-tile LRU evictions"
        )
        self._m_cached = registry.gauge(
            "repro_b_service_cached_bytes", "bytes resident in the B LRU", agg="sum"
        )

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        key = (k, j)
        hit = self._lru.get(key)
        if hit is not None:
            self._lru.move_to_end(key)
            self._m_hits.inc()
            return hit
        rec = self._rec
        timed = rec is not None and rec.enabled
        t_start = rec.now() if timed else 0.0
        # The store tier: a tile generated by any earlier run (or any other
        # rank on this filesystem) is read back instead of regenerated.
        # Content addressing folds the operand fingerprint into the
        # namespace, so a stored tile is bit-identical to what
        # ``generate_tile`` would produce — the numeric result cannot
        # depend on which tier served it.
        data = None
        if self._store is not None:
            data = self._store.get(self._store_ns, key)
            if data is not None:
                self._m_store_hits.inc()
        if data is None:
            data = self._col.generate_tile(k, j)
            if timed:
                rec.record(f"gen.{k}.{j}", f"cpu.{proc}", t_start, rec.now())
            if self._store is not None:
                self._store.put(self._store_ns, key, data)
        self.instantiations[key] += 1
        self._m_misses.inc()
        # Make room: shed least-recently-used tiles until the budget fits.
        while self._lru and self._mem.free < data.nbytes:
            old, _ = self._lru.popitem(last=False)
            self._mem.release(f"b{old}")
            self._m_evictions.inc()
        self._mem.reserve(f"b{key}", data.nbytes)
        self._lru[key] = data
        self._m_cached.set_max(self._mem.used)
        return data

    def evict(self, proc: int, k: int, j: int) -> None:
        if self._lru.pop((k, j), None) is not None:
            self._mem.release(f"b{(k, j)}")

    def generated_tiles(self) -> int:
        return sum(self.instantiations.values())

    def max_instantiations(self) -> int:
        return max(self.instantiations.values(), default=0)

    @property
    def cached_bytes(self) -> int:
        return self._mem.used


class ResidentB:
    """A concrete B for one rank, read through ``get_tile(k, j)``.

    The backing store *is* the cache: nothing is evicted, the first pull of
    a tile counts as its one instantiation and every repeat as a hit.
    """

    def __init__(self, get_tile: Callable[[int, int], np.ndarray],
                 metrics: MetricsRegistry | None = None):
        self._get_tile = get_tile
        self._pulled: set[tuple[int, int]] = set()
        _, (self._m_hits, self._m_misses) = _pull_counters(metrics)

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        if (k, j) in self._pulled:
            self._m_hits.inc()
        else:
            self._pulled.add((k, j))
            self._m_misses.inc()
        return self._get_tile(k, j)

    def evict(self, proc: int, k: int, j: int) -> None:
        pass

    def generated_tiles(self) -> int:
        return len(self._pulled)

    def max_instantiations(self) -> int:
        return 1 if self._pulled else 0


def b_source(b, budget_bytes: int, *, recorder=None,
             metrics: MetricsRegistry | None = None, store=None,
             store_ns: str = "") -> BService | ResidentB:
    """A fresh B source for one rank over ``b``.

    A :class:`GeneratedCollection` gets a :class:`BService` under
    ``budget_bytes`` (with ``recorder`` and the ``store`` tier); anything
    else is a resident B read through its ``get_tile``.
    """
    if isinstance(b, GeneratedCollection):
        return BService(b, budget_bytes, recorder=recorder, metrics=metrics,
                        store=store, store_ns=store_ns)
    return ResidentB(b.get_tile, metrics=metrics)

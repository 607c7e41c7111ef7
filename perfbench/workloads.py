"""The benchmark's workloads: operand structure fixed, values drawn from the seed.

Each workload's sparsity pattern and tilings are part of its definition
and never change, so plan-derived counts (tasks, flops, bytes) repeat
exactly across seeds and commits.  ``--seed`` draws every tile value: the
program receives only the generated matrices (or, for ``gen-small``, a
seeded on-demand :class:`~repro.runtime.GeneratedCollection`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime import GeneratedCollection
from repro.sparse.construct import from_shape
from repro.sparse.random_sparsity import random_shape_with_density
from repro.tiling import random_tiling

#: Ranks every workload runs on (one worker process per rank).
NPROC = 2


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the way the benchmark drives them.

    ``mode`` is ``"cold"`` (each timed call is one cold
    ``execute_plan_distributed`` with fresh processes) or ``"warm"`` (a
    closed loop of jobs on one warm ``ContractionService``).  ``call_s``
    sizes a run: it makes ``seconds / call_s`` timed calls, so the work
    measured, and the memory it leaves behind, does not depend on how fast
    the host happens to be.
    """

    name: str
    why: str
    m: int
    k: int
    tile_lo: int
    tile_hi: int
    density: float
    mode: str
    b_generated: bool
    call_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-gemm",
            "large tiles: tile GEMM dominates the critical path, so BLAS core "
            "budgets and kernel changes show here first",
            m=800, k=3200, tile_lo=120, tile_hi=240, density=0.6,
            mode="cold", b_generated=False, call_s=0.7,
        ),
        Workload(
            "warm-iter",
            "CCSD-style closed loop on a warm service: per-job fixed costs and "
            "the serve layer dominate, the kernel barely shows",
            m=400, k=1600, tile_lo=20, tile_hi=80, density=0.5,
            mode="warm", b_generated=False, call_s=0.125,
        ),
        Workload(
            "gen-small",
            "many small tiles with B generated on demand: per-task dispatch and "
            "B generation dominate, BLAS never threads",
            m=800, k=3200, tile_lo=10, tile_hi=40, density=0.3,
            mode="cold", b_generated=True, call_s=1.15,
        ),
    )
}

#: Seed of each workload's fixed structure (tilings and sparsity pattern).
_STRUCTURE_SEED = 0


@dataclass
class Operands:
    """Shapes and seeded values of one workload instance."""

    a_shape: object
    b_shape: object
    b: object
    seed: int

    def a_values(self, j: int):
        """A's ``j``-th set of values on the fixed shape, the same on every call.

        The cold workloads use ``j = 0`` throughout; warm-iter job ``j``
        gets ``j + 1``, so every job carries new values.
        """
        rng = np.random.default_rng([self.seed, 1, j])
        return from_shape(self.a_shape, fill="random", seed=rng)

    def fresh_b(self):
        """B as a timed call receives it (generated B: a clean cache)."""
        return self.b.empty_clone() if isinstance(self.b, GeneratedCollection) else self.b


def shapes(w: Workload, scale: float = 1.0):
    """The workload's fixed occupancy of A (m x k) and a square B (k x k).

    ``scale`` shrinks both for the benchmark's own tests.
    """
    def extent(x):
        return max(w.tile_hi, int(x * scale))

    s = _STRUCTURE_SEED
    rows = random_tiling(extent(w.m), w.tile_lo, w.tile_hi, seed=s)
    inner = random_tiling(extent(w.k), w.tile_lo, w.tile_hi, seed=s + 1)
    a_shape = random_shape_with_density(rows, inner, w.density, seed=s + 2)
    b_shape = random_shape_with_density(inner, inner, w.density, seed=s + 3)
    return a_shape, b_shape


def build(w: Workload, seed: int, scale: float = 1.0) -> Operands:
    """Generate the workload's operands: structure fixed, values from ``seed``."""
    a_shape, b_shape = shapes(w, scale)
    rng = np.random.default_rng([seed, 2])
    if w.b_generated:
        b = GeneratedCollection(b_shape, fill="random", seed=int(rng.integers(2**63)))
    else:
        b = from_shape(b_shape, fill="random", seed=rng)
    return Operands(a_shape, b_shape, b, seed)

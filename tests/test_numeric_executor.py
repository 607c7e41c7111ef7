"""Numeric execution of plans: exactness and runtime invariants.

These are the tests that justify calling the plans *correct*: whatever
grid, memory budget or screening is used, executing the plan with real
tiles reproduces the dense reference, and the run respects the paper's
memory and generation invariants.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlanOptions, inspect, psgemm_numeric
from repro.machine import summit
from repro.runtime import GeneratedCollection, execute_plan
from repro.sparse import SparseShape, random_block_sparse
from repro.sparse.construct import from_shape
from repro.sparse.gemm_ref import block_gemm_reference, gemm_against_dense
from repro.sparse.random_sparsity import random_shape_with_density
from repro.tiling import random_tiling


def operands(density=0.5, seed=0, m=600, nk=3000):
    rows = random_tiling(m, 40, 160, seed=seed)
    inner = random_tiling(nk, 40, 160, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b = random_block_sparse(inner, inner, density, seed=seed + 3)
    return a, b


class TestExactness:
    @pytest.mark.parametrize("p,gpp", [(1, 6), (2, 6), (1, 3), (3, 2)])
    def test_matches_dense_across_grids(self, p, gpp):
        a, b = operands(seed=p * 10 + gpp)
        c, stats = psgemm_numeric(a, b, summit(3), p=p, gpus_per_proc=gpp)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))
        assert stats.ntasks > 0

    @pytest.mark.parametrize("density", [1.0, 0.5, 0.1])
    def test_matches_dense_across_densities(self, density):
        a, b = operands(density=density, seed=42)
        c, _ = psgemm_numeric(a, b, summit(2), p=1)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))

    def test_accumulates_into_c_input(self):
        a, b = operands(seed=1)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=9)
        c, _ = psgemm_numeric(a, b, summit(1), c=c0)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b, c0))
        # Input not mutated.
        assert c0.allclose(random_block_sparse(a.rows, b.cols, 0.3, seed=9))

    def test_generated_b_source(self):
        a, bmat = operands(seed=2)
        b_shape = bmat.sparse_shape()
        gen = GeneratedCollection(b_shape, seed=77)
        c, stats = psgemm_numeric(a, gen, summit(2), p=1, b_shape=b_shape)
        ref = block_gemm_reference(a, gen.as_matrix())
        assert c.allclose(ref)
        assert stats.b_tiles_generated > 0

    def test_screened_execution_drops_tasks(self):
        a, b = operands(seed=3)
        a_sh = a.sparse_shape(with_norms=True)
        b_sh = b.sparse_shape(with_norms=True)
        tau = float(np.median(a_sh.csr.data) * np.median(b_sh.csr.data))
        plan = inspect(
            a_sh, b_sh, summit(1), options=PlanOptions(screen_threshold=tau)
        )
        c, stats = execute_plan(plan, a, b)
        assert stats.ntasks == plan.total_tasks
        assert stats.ntasks < inspect(a_sh, b_sh, summit(1)).total_tasks
        # Screened result approximates the full product (large norms kept).
        full = gemm_against_dense(a, b)
        err = np.linalg.norm(c.to_dense() - full) / np.linalg.norm(full)
        assert err < 0.9  # screened away part is the weak tail

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.15, max_value=1.0),
        st.integers(min_value=1, max_value=3),
    )
    def test_property_exact_for_random_instances(self, seed, density, p):
        rng = np.random.default_rng(seed)
        rows = random_tiling(int(rng.integers(100, 400)), 20, 80, seed=rng)
        inner = random_tiling(int(rng.integers(300, 900)), 20, 80, seed=rng)
        a = random_block_sparse(rows, inner, density, seed=rng)
        b = random_block_sparse(inner, inner, density, seed=rng)
        c, _ = psgemm_numeric(a, b, summit(2), p=min(p, rows.ntiles), gpus_per_proc=3)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))


class TestInvariants:
    def test_task_count_matches_plan(self):
        a, b = operands(seed=4)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
        _, stats = execute_plan(plan, a, b)
        assert stats.ntasks == plan.total_tasks
        assert stats.flops == pytest.approx(plan.total_flops)

    def test_gpu_memory_never_exceeded(self):
        a, b = operands(seed=5)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        _, stats = execute_plan(plan, a, b)
        assert 0 < stats.gpu_peak_bytes <= plan.gpu_memory_bytes

    def test_b_generated_once_per_proc(self):
        a, bmat = operands(seed=6)
        b_shape = bmat.sparse_shape()
        gen = GeneratedCollection(b_shape, seed=1)
        plan = inspect(a.sparse_shape(), b_shape, summit(2), p=2, gpus_per_proc=3)
        _, stats = execute_plan(plan, a, gen)
        assert stats.b_max_instantiations == 1

    def test_structure_checked_once_per_generated_tile(self, monkeypatch):
        """The serial oracle pays the structural check per instantiation
        (as a rank's LRU does), not per task."""
        a, bmat = operands(seed=6)
        b_shape = bmat.sparse_shape()
        plan = inspect(a.sparse_shape(), b_shape, summit(2), p=2, gpus_per_proc=3)
        calls = []
        has_tile = SparseShape.has_tile
        monkeypatch.setattr(
            SparseShape, "has_tile",
            lambda self, i, j: calls.append((i, j)) or has_tile(self, i, j),
        )
        _, stats = execute_plan(plan, a, GeneratedCollection(b_shape, seed=1))
        assert stats.ntasks > stats.b_tiles_generated > 0
        assert len(calls) <= stats.b_tiles_generated

    def test_h2d_accounts_blocks_and_chunks(self):
        a, b = operands(seed=7)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        _, stats = execute_plan(plan, a, b)
        expect = sum(
            blk.b_bytes + sum(ch.a_bytes for ch in blk.chunks)
            for pp in plan.procs
            for blk in pp.blocks
        )
        assert stats.h2d_bytes == expect

    def test_d2h_equals_produced_c(self):
        a, b = operands(seed=8)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        c, stats = execute_plan(plan, a, b)
        assert stats.d2h_bytes == c.nbytes

    def test_per_proc_task_balance_recorded(self):
        a, b = operands(seed=9)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1, gpus_per_proc=3)
        _, stats = execute_plan(plan, a, b)
        assert sum(stats.per_proc_tasks.values()) == stats.ntasks
        assert len(stats.per_proc_tasks) == plan.grid.nprocs

    def test_mismatched_a_raises(self):
        a, b = operands(seed=10)
        a2, _ = operands(seed=11, m=500)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        with pytest.raises(ValueError):
            execute_plan(plan, a2, b)

    def test_from_shape_values_used_for_matrix_b(self):
        # A BlockSparseMatrix B is read in place by each rank's ResidentB.
        a, b = operands(seed=12)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        c1, _ = execute_plan(plan, a, b)
        c2, _ = execute_plan(plan, a, b.copy())
        assert c1.allclose(c2)


class TestGemmScalars:
    def test_alpha_beta_semantics(self):
        """The paper's full GEMM form: C <- alpha*A@B + beta*C."""
        a, b = operands(seed=30)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=31)
        c, _ = psgemm_numeric(a, b, summit(1), c=c0, alpha=2.0, beta=0.5)
        expect = 0.5 * c0.to_dense() + 2.0 * (a.to_dense() @ b.to_dense())
        assert np.allclose(c.to_dense(), expect)

    def test_beta_zero_discards_input(self):
        a, b = operands(seed=32)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=33)
        c, _ = psgemm_numeric(a, b, summit(1), c=c0, beta=0.0)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    def test_defaults_unchanged(self):
        a, b = operands(seed=34)
        c1, _ = psgemm_numeric(a, b, summit(1))
        c2, _ = psgemm_numeric(a, b, summit(1), alpha=1.0, beta=1.0)
        assert c1.allclose(c2)


# -- one BLAS thread per tile GEMM ---------------------------------------------


class _RecordingSource:
    """A resident B that records the BLAS count its GEMMs run under, and
    optionally waits at its first tile or raises at its third."""

    def __init__(self, b, count, *, barrier=None, raise_at=None):
        self._inner = b
        self._count = count
        self._barrier = barrier
        self._raise_at = raise_at
        self.seen: list[int] = []

    def get_tile(self, k, j):
        self.seen.append(self._count.value)
        if self._barrier is not None and len(self.seen) == 1:
            self._barrier.wait(timeout=30)
        if len(self.seen) == self._raise_at:
            raise RuntimeError("tile source failed")
        return self._inner.get_tile(k, j)


class TestOneBlasThreadPerGemm:
    def test_c_independent_of_callers_thread_count(self, blas_count, wide_tile_problem):
        plan, a, b = wide_tile_problem
        blas_count.value = 2
        c2, _ = execute_plan(plan, a, b)
        blas_count.value = 1
        c1, _ = execute_plan(plan, a, b)
        assert np.array_equal(c1.to_dense(), c2.to_dense())

    def test_callers_count_restored_after_return_and_raise(
        self, blas_count, wide_tile_problem
    ):
        plan, a, b = wide_tile_problem
        blas_count.value = 2
        src = _RecordingSource(b, blas_count)
        execute_plan(plan, a, src)
        assert blas_count.value == 2
        assert src.seen and set(src.seen) == {1}
        src = _RecordingSource(b, blas_count, raise_at=3)
        with pytest.raises(RuntimeError, match="tile source failed"):
            execute_plan(plan, a, src)
        assert blas_count.value == 2
        assert src.seen == [1, 1, 1]

    def test_overlapping_callers_keep_the_pin(self, blas_count, wide_tile_problem):
        """More threads than cores, all inside the pin at once, switching
        often: none may see the count restored mid-run, and the last one
        out restores the caller's count."""
        plan, a, b = wide_tile_problem
        blas_count.value = 2
        ref, _ = execute_plan(plan, a, b)
        nthreads = 4
        barrier = threading.Barrier(nthreads)
        sources = [
            _RecordingSource(b, blas_count, barrier=barrier) for _ in range(nthreads)
        ]
        results = [None] * nthreads

        def run(n):
            results[n], _ = execute_plan(plan, a, sources[n])

        threads = [threading.Thread(target=run, args=(n,)) for n in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for c in results:
            assert c is not None
            assert np.array_equal(c.to_dense(), ref.to_dense())
        for src in sources:
            assert set(src.seen) == {1}
        assert blas_count.value == 2

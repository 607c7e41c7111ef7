"""Test-suite configuration.

Hypothesis deadlines are disabled globally: the suite runs on arbitrary
(often single-core, contended) CI machines, and the property tests wrap
whole planner/executor pipelines whose wall time is load-dependent.
Example counts stay per-test; set ``HYPOTHESIS_PROFILE=thorough`` for a
deeper fuzzing pass.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def clean_protocol_sweep():
    """The default model-check sweep of the shipped protocol, run once.

    The sweep takes ~20 s.  The model-checker test asserts on it directly
    and the ``repro analyze --model-check`` CLI test is served the same
    result, so the session explores the protocol exactly once.
    """
    from repro.analysis.protocol import build_protocol_model, check_protocol

    return check_protocol(build_protocol_model())


@pytest.fixture
def blas_count():
    """The loaded OpenBLAS's ``blas_cpu_number``, restored after the test.

    Skips where no OpenBLAS exports it or the host has one usable core
    (then 1 and 2 threads cannot differ).
    """
    from repro.runtime import blas

    counts = blas._thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS blas_cpu_number in this process")
    if blas.usable_cores() < 2:
        pytest.skip("fewer than 2 usable cores")
    count = counts[0]
    saved = count.value
    yield count
    count.value = saved


@pytest.fixture
def wide_tile_problem():
    """``(plan, A, B)`` on a 2-rank grid with tiles 286-300 wide.

    OpenBLAS splits GEMMs this wide across threads, so a threaded run
    differs from a single-threaded one in the last bits.
    """
    from repro.core import inspect
    from repro.machine import summit
    from repro.sparse import random_block_sparse
    from repro.tiling import random_tiling

    rows = random_tiling(600, 286, 300, seed=0)
    inner = random_tiling(900, 286, 300, seed=1)
    a = random_block_sparse(rows, inner, 0.8, seed=2)
    b = random_block_sparse(inner, inner, 0.8, seed=3)
    return inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1), a, b

"""One BLAS thread per tile GEMM.

The paper runs each rank's tile GEMMs as one stream per GPU, and the
speed comes from running many ranks at once.  On a CPU host the same
model is one BLAS thread per tile GEMM: a rank that also threads its
GEMMs competes with the other ranks for the same cores, and the result
changes with the thread count (OpenBLAS splits a GEMM differently on
one thread than on two, so some tiles differ in the last bits).  A
constant count is what keeps C independent of how many ranks run it.

:func:`one_thread_per_gemm` pins the thread count of every loaded
OpenBLAS to :data:`TILE_GEMM_THREADS` by writing the library's exported
``int blas_cpu_number``.  It does not call
``openblas_set_num_threads``: in a forked process the setter re-creates
OpenBLAS's thread pool, whose new thread then busy-waits, while a write
to the global is a plain store that a single-threaded GEMM reads without
touching the pool.  The libraries are found in ``/proc/self/maps``; where
no OpenBLAS exports the symbol (another BLAS, another OS) the context
manager does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np  # noqa: F401 - loads the BLAS this module pins

#: BLAS threads every tile GEMM runs with.
TILE_GEMM_THREADS = 1

_SYMBOL = "blas_cpu_number"

_lock = threading.Lock()
_holders = 0
_saved: list[int] = []


@functools.cache
def _thread_counts() -> tuple[ctypes.c_int, ...]:
    """The ``blas_cpu_number`` of every loaded OpenBLAS (empty if none)."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        return ()
    counts = []
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            counts.append(ctypes.c_int.in_dll(ctypes.CDLL(path), _SYMBOL))
        except (OSError, ValueError):
            continue
    return tuple(counts)


def pinned_threads() -> int:
    """Threads a tile GEMM runs with: :data:`TILE_GEMM_THREADS`, or 0
    when no OpenBLAS count can be pinned."""
    return TILE_GEMM_THREADS if _thread_counts() else 0


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def one_thread_per_gemm() -> Iterator[int]:
    """Run the body with every OpenBLAS pinned to one thread.

    Yields :func:`pinned_threads`.  Holders are counted under a lock: the
    first one in saves the caller's count and writes the pin, the last
    one out restores it, so threads that overlap never restore the count
    while another is mid-GEMM.
    """
    global _holders, _saved
    counts = _thread_counts()
    if not counts:
        yield 0
        return
    with _lock:
        if _holders == 0:
            _saved = [c.value for c in counts]
            for c in counts:
                c.value = TILE_GEMM_THREADS
        _holders += 1
    try:
        yield TILE_GEMM_THREADS
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for c, value in zip(counts, _saved):
                    c.value = value


def _after_fork_in_child() -> None:
    """A forked child inherits no holder: the threads that held the pin
    do not exist in it.  Restore the count they saved and start over."""
    global _lock, _holders
    _lock = threading.Lock()
    if _holders:
        for c, value in zip(_thread_counts(), _saved):
            c.value = value
        _holders = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)

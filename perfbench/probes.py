"""What the benchmark observes about its host and its own process tree.

Everything here only reads: ``/proc``, ``/dev/shm`` and the BLAS library
numpy already loaded.  No thread-count variable is set anywhere in the
benchmark; the host fingerprint records what the program runs with, so a
result measured under a different core budget is never compared as if it
were a regression or an improvement.
"""

from __future__ import annotations

import ctypes
import os
import platform
import threading
import time

import numpy as np

#: Prefix of every shared-memory segment the executor creates.
SHM_PREFIX = "psgemm"

#: Symbols that report OpenBLAS's thread count, newest build first.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

#: Thread-count variables read (never written) into the fingerprint.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_blas_paths() -> list[str]:
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "blas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use per process (``None`` if unknown)."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def host_fingerprint(nranks: int, start_method: str) -> dict:
    """The facts a timing depends on besides the code: host and core budget.

    ``budget`` states ranks x BLAS threads against usable cores; a value
    above the core count means the run is oversubscribed.
    """
    cores = len(os.sched_getaffinity(0))
    threads = blas_threads()
    want = nranks * threads if threads is not None else None
    return {
        "cpu_model": _cpu_model(),
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "start_method": start_method,
        "ranks": nranks,
        "budget": (
            f"{nranks} ranks x {threads} BLAS threads = {want} on {cores} cores"
            + (" (oversubscribed)" if want is not None and want > cores else "")
        ),
    }


def fingerprint_diff(a: dict, b: dict) -> list[str]:
    """Human-readable differences between two host fingerprints."""
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


# -- shared memory -------------------------------------------------------------


def shm_segments() -> set[str]:
    """Names of the executor's shared-memory segments present right now."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


# -- the process tree ----------------------------------------------------------


def _ppid_map() -> dict[int, int]:
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses; fields resume
        # after the last ')': state, then ppid.
        out[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(pid: int | None = None) -> list[int]:
    """Every live process below ``pid`` (default: this process)."""
    root = os.getpid() if pid is None else pid
    children: dict[int, list[int]] = {}
    for child, parent in _ppid_map().items():
        children.setdefault(parent, []).append(child)
    out, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child)
    return out


def unreaped_workers() -> list[int]:
    """Live descendants other than multiprocessing's resource tracker."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    return [p for p in descendants() if p != tracker]


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if running, and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024
    except (OSError, ValueError, IndexError):
        return 0


def tree_memory_mib() -> float:
    """Resident memory of this process plus its worker processes.

    This process counts at its resident set size.  Workers count at their
    proportional set size, which splits each shared page among the
    processes mapping it, so a forked worker is not charged again for all
    the pages it inherited.  Reading a proportional size walks the page
    tables, which would stall this large process; workers are small.
    """
    me = os.getpid()
    return (_rss_kib(me) + sum(_pss_kib(p) for p in descendants(me))) / 1024.0


class MemorySampler:
    """Peak of :func:`tree_memory_mib`, sampled on a daemon thread.

    The interval stretches with the cost of a sample so that sampling
    takes at most ``1 / COST_RATIO`` of one core.
    """

    COST_RATIO = 25

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-memory", daemon=True
        )

    def _loop(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            self.peak_mib = max(self.peak_mib, tree_memory_mib())
            cost = time.perf_counter() - t0
            self._stop.wait(max(self.interval, self.COST_RATIO * cost))

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mib = max(self.peak_mib, tree_memory_mib())

"""The library's thread policy: OpenBLAS thread counts and one thread pool.

numpy and scipy each load their own OpenBLAS.  A threaded BLAS or LAPACK
call rounds differently for each thread count, and on a machine with few
cores the spinning workers of one library's pool slow the other.  So
library compute that must give the same bits on any machine runs inside
a scope that sets one library's OpenBLAS to one thread
(``ONE_BLAS_THREAD`` for numpy, ``ONE_LAPACK_THREAD`` for scipy), and
spreads a fixed partition of its work, never one derived from the core
count, over ``pool()``.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
from scipy.linalg import cython_lapack


def openblas_threads(lib):
    """The ``(get, set)`` thread-count functions of the OpenBLAS that ``lib``
    links, or None when it exports none of the known names: the
    ``scipy_openblas`` builds that numpy and scipy ship (numpy's with the
    ``64_`` suffix of its 64-bit-integer interface) and a plain
    ``openblas``."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            try:
                return (getattr(lib, f"{prefix}_get_num_threads{suffix}"),
                        getattr(lib, f"{prefix}_set_num_threads{suffix}"))
            except AttributeError:
                pass
    return None


def _find_threads(path):
    """The thread-count pair of the OpenBLAS behind the shared library at
    ``path``, with its C signatures declared, or None."""
    try:
        threads = openblas_threads(ctypes.CDLL(path))
    except OSError:
        return None
    if threads is not None:
        get, set_ = threads
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
    return threads


class OneThreadScope:
    """A context that runs its body with an OpenBLAS on one thread, given
    that library's ``(get, set)`` thread-count pair (None: a no-op).  The
    count is process-global and several threads may enter at once
    (``evaluate(workers>1)``), so the first to enter saves the count and
    the last to leave restores it."""

    def __init__(self, threads):
        self.threads = threads
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self):
        if self.threads is not None:
            get, set_ = self.threads
            with self._lock:
                if self._depth == 0:
                    self._saved = get()
                    set_(1)
                self._depth += 1

    def __exit__(self, *exc):
        if self.threads is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    _, set_ = self.threads
                    set_(self._saved)


_NUMPY_CORE = np._core if hasattr(np, "_core") else np.core  # numpy 2 renamed it

ONE_BLAS_THREAD = OneThreadScope(_find_threads(_NUMPY_CORE._multiarray_umath.__file__))
ONE_LAPACK_THREAD = OneThreadScope(_find_threads(cython_lapack.__file__))


class _Inline:
    """An executor that runs each task at once, in the calling thread."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        job = Future()
        job.set_result(fn(*args, **kwargs))
        return job


INLINE = _Inline()


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


_pool = None  # (pid, executor, size), made on first use
_pool_lock = threading.Lock()


def pool() -> tuple[ThreadPoolExecutor, int]:
    """The process's thread pool, one thread per usable CPU, and its size.
    A process made by ``os.fork`` makes its own: the parent's threads do
    not exist there, so a task given to the parent's pool would never run."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            size = usable_cpus()
            _pool = (os.getpid(), ThreadPoolExecutor(size, "vpsep"), size)
        return _pool[1], _pool[2]

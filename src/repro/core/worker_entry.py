"""Numpy-free entry point of spawned pool workers.

A spawn child unpickles its process object, and with it this module,
before it runs any task code.  :func:`run` caps the child's BLAS thread
pools while numpy is still unloaded, then hands over to the pool's
worker loop.  Without the cap every worker starts OpenBLAS with one
thread per CPU, so two workers put four BLAS threads on two CPUs and
each item runs slower than it would serially.

The cap is loky's rule, ``max(1, os.cpu_count() // workers)``, computed
by the parent and passed in.  It is written only into the child's own
``os.environ``, and only when the user set none of :data:`THREAD_VARS`;
any explicit setting wins untouched.  A worker that misses the cap (its
``__main__`` imported numpy first) is slower but not different: solver
reductions do not depend on the BLAS thread count (see
:func:`repro.solvers.base.dot`).

Keep this module free of numpy and of any ``repro`` import at module
level; ``tests/test_cold_start.py`` holds it to that.
"""

from __future__ import annotations

import os

#: Thread-count variables read by OpenBLAS, OpenMP runtimes and MKL.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads(workers: int) -> int:
    """BLAS threads per worker when *workers* share the machine's CPUs."""
    return max(1, (os.cpu_count() or 1) // max(1, int(workers)))


def cap_blas_threads(threads: int) -> None:
    """Set every :data:`THREAD_VARS` entry to *threads* in this process.

    Changes nothing when any of them is already set: an explicit user
    choice governs the worker too.  Only effective before numpy is
    first imported.
    """
    if any(name in os.environ for name in THREAD_VARS):
        return
    for name in THREAD_VARS:
        os.environ[name] = str(int(threads))


def run(slot: int, conn, heartbeat_interval: float, threads: int) -> None:
    """Spawn target: cap BLAS threads, then run the pool's worker loop."""
    cap_blas_threads(threads)
    from repro.core.pool import _worker_main

    _worker_main(slot, conn, heartbeat_interval)

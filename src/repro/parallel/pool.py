"""Process-pool housekeeping for the pool executor.

The engine dispatches every sweep through the
:class:`~repro.parallel.shard.ShardScheduler`; its
:class:`~repro.parallel.executors.PoolExecutor` owns the package's only
process pool.  This module holds what that executor needs around the
pool: :func:`default_workers` (an affinity-aware width),
:func:`abandon_pool` for a pool with a hung worker, and
:func:`reap_abandoned`, which joins the terminated workers so no child
process outlives the sweep.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import List

#: worker processes of pools abandoned because a worker hung; reaped
#: lazily and at exit (the processes, not the pools: ``shutdown`` nulls
#: the pool's ``_processes`` map, so they must be snapshotted first)
_ABANDONED: List[object] = []
_ABANDONED_LOCK = threading.Lock()


def abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Give up on a pool with a hung worker without blocking on it.

    ``shutdown(wait=False)`` alone leaks the hung child process for the
    lifetime of the parent (it never returns from its task, so it never
    exits).  This terminates every worker outright and parks them on
    the abandoned list so :func:`reap_abandoned` (called opportunistically
    and at interpreter exit) can join the corpses — no zombie children,
    no stranded CPUs.
    """
    # snapshot before shutdown: shutdown() sets pool._processes to None
    # even with wait=False, losing the only handles to the children
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    with _ABANDONED_LOCK:
        _ABANDONED.extend(processes)


def reap_abandoned(timeout: float = 1.0) -> int:
    """Join every abandoned worker process; kill any straggler.

    Returns the number of worker processes confirmed dead.  A worker
    that still refuses to die (should not happen after ``kill``) stays
    on the list for the next sweep.
    """
    with _ABANDONED_LOCK:
        processes = list(_ABANDONED)
        _ABANDONED.clear()
    reaped = 0
    stubborn = []
    for process in processes:
        try:
            process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=timeout)
            if process.is_alive():
                stubborn.append(process)
            else:
                reaped += 1
        except Exception:
            pass
    if stubborn:
        with _ABANDONED_LOCK:
            _ABANDONED.extend(stubborn)
    return reaped


atexit.register(reap_abandoned)


def default_workers() -> int:
    """A sensible worker count for this host (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1

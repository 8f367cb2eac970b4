"""Process-pool housekeeping for the pool executor.

The engine dispatches every sweep through the
:class:`~repro.parallel.shard.ShardScheduler`; its
:class:`~repro.parallel.executors.PoolExecutor` owns the package's only
process pools.  This module holds what that executor needs around them:
:func:`default_workers` (an affinity-aware width), the idle slot that
keeps one healthy pool warm between sweeps (:func:`park_pool`,
:func:`take_pool`, :func:`close_idle_pool`), :func:`abandon_pool` for a
pool with a hung worker, and :func:`reap_abandoned`, which joins the
terminated workers so no child process outlives the sweep.

A parked pool's workers stay alive until the next sweep of the same
width takes the pool back, a pool closed later displaces it, or the
interpreter exits.  They hold every module as the parent held it at
their fork.  The pool is parked with the executor's record of the
globals its workers loaded, so the executor can rerun, on freshly forked
workers, a shard that names a global the parent has since defined,
redefined or replaced.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

#: worker processes of pools abandoned because a worker hung; reaped
#: lazily and at exit (the processes, not the pools: ``shutdown`` nulls
#: the pool's ``_processes`` map, so they must be snapshotted first)
_ABANDONED: List[object] = []
_ABANDONED_LOCK = threading.Lock()

#: a pool's record of the globals its workers loaded, as
#: ``(module, qualname)`` -> the parent's object
Loaded = Dict[Tuple[str, str], Any]

#: the one idle pool, as ``(width, pool, loaded)``: the last healthy pool
#: a sweep closed, kept for the next sweep of that width
_IDLE: Optional[Tuple[int, ProcessPoolExecutor, Loaded]] = None
_IDLE_LOCK = threading.Lock()


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


def _healthy(pool: ProcessPoolExecutor) -> bool:
    """Is ``pool`` open, unbroken, and is every worker it started alive?"""
    processes = getattr(pool, "_processes", None)
    return (not getattr(pool, "_broken", False)
            and not getattr(pool, "_shutdown_thread", False)
            and bool(processes)
            and all(process.is_alive() for process in processes.values()))


def _discard(pool: ProcessPoolExecutor) -> None:
    """Shut an idle pool down: join a healthy one, terminate a broken
    one."""
    if _healthy(pool):
        pool.shutdown(wait=True)
    else:
        abandon_pool(pool)
        reap_abandoned()


def park_pool(pool: ProcessPoolExecutor, width: int,
              loaded: Loaded) -> None:
    """Keep an idle pool of ``width`` workers open for the next sweep,
    with the record of the globals its workers ``loaded``.

    The caller must have no task in flight on ``pool``.  A broken pool
    is shut down instead.  The idle slot holds one pool, so the pool
    parked before (of any width, or a concurrent sweep's) is shut down.
    """
    global _IDLE
    if not _healthy(pool):
        _discard(pool)
        return
    with _IDLE_LOCK:
        displaced, _IDLE = _IDLE, (width, pool, loaded)
    if displaced is not None:
        _discard(displaced[1])


def take_pool(width: int
              ) -> Optional[Tuple[ProcessPoolExecutor, Loaded]]:
    """The parked pool and its record, if it is ``width`` workers wide,
    else ``None``.

    A parked pool found broken (a worker died while it was idle) is shut
    down and ``None`` returned, so the caller forks a fresh one.
    """
    global _IDLE
    with _IDLE_LOCK:
        if _IDLE is None or _IDLE[0] != width:
            return None
        _, pool, loaded = _IDLE
        _IDLE = None
    if _healthy(pool):
        return pool, loaded
    _discard(pool)
    return None


def close_idle_pool() -> None:
    """Shut the parked pool down, if there is one (runs at exit)."""
    global _IDLE
    with _IDLE_LOCK:
        idle, _IDLE = _IDLE, None
    if idle is not None:
        _discard(idle[1])


def _forget_in_child() -> None:
    """A forked child owns none of its parent's pools, and no other
    thread holds these locks in it."""
    global _ABANDONED_LOCK, _IDLE, _IDLE_LOCK
    _ABANDONED.clear()
    _ABANDONED_LOCK = threading.Lock()
    _IDLE = None
    _IDLE_LOCK = threading.Lock()


atexit.register(reap_abandoned)
atexit.register(close_idle_pool)
os.register_at_fork(after_in_child=_forget_in_child)


def default_workers() -> int:
    """A sensible worker count for this host (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1

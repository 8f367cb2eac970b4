"""Pluggable executors for sharded sweep dispatch (DESIGN.md §12).

A :class:`SweepExecutor` is the substrate the
:class:`~repro.parallel.shard.ShardScheduler` dispatches shards onto.
Three implementations ship:

* :class:`SerialExecutor` — one in-process worker; the reference
  semantics every other executor must match bit-for-bit, the cheapest
  host for the chaos harness, and what a sweep run without an executor
  uses for ``workers <= 1``.  Its results never leave the process, so
  they are carried unsealed unless a chaos schedule could corrupt them;
* :class:`PoolExecutor` — a :class:`ProcessPoolExecutor` behind worker
  slots (the only one in the package), with real crash detection (a
  broken pool becomes crash events and a fresh pool), per-shard
  deadlines, and hung-worker reaping via
  :func:`~repro.parallel.pool.abandon_pool`; a healthy pool stays warm
  between sweeps (:mod:`repro.parallel.pool`), and a sweep run without
  an executor uses it for ``workers > 1``;
* :class:`MultinodeExecutor` — a simulated cluster over a
  :class:`~repro.multinode.cluster.ClusterTopology`: shard tasks are
  pure, so they execute in-process while a deterministic virtual clock
  models per-worker occupancy, postal-model result shipping, heartbeat
  supervision, and permanent worker loss.

The executor protocol is event-based: the scheduler calls
:meth:`dispatch` for idle workers and :meth:`wait` for a batch of
``(kind, shard_id, worker, detail)`` events::

    ("result",  shard_id, worker, ShardEnvelope)
    ("failed",  shard_id, worker, exception)
    ("timeout", shard_id, worker, None)
    ("crash",   -1,       worker, [lost shard ids])
    ("dead",    -1,       worker, [lost shard ids])

Every executor accepts an optional
:class:`~repro.parallel.chaos.ChaosSchedule`; injected faults surface
through the exact same events as real ones, so the supervision paths the
chaos suite proves are the paths production faults take.
"""

from __future__ import annotations

import io
import pickle
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ExecutorError
from ..multinode.cluster import CLUSTER_PRESETS, DUAL_NODE, ClusterTopology
from .chaos import ChaosSchedule
from .pool import (
    abandon_pool, default_workers, park_pool, reap_abandoned, take_pool,
)
from .shard import ShardEnvelope

#: executor names accepted by the CLI and :func:`resolve_executor`
EXECUTOR_NAMES = ("serial", "pool", "multinode")

Event = Tuple[str, int, str, Any]


class SweepExecutor:
    """The executor protocol (see the module docstring for the events).

    Lifecycle: ``open(task)`` → interleaved ``idle_workers`` /
    ``dispatch`` / ``wait`` → ``close()`` (always, in a ``finally``).
    One instance may run several sweeps, each from ``open`` to
    ``close``.  ``close`` ends the sweep, not necessarily the substrate:
    a :class:`PoolExecutor` leaves a healthy pool warm for the next
    ``open`` of the same width, in this instance or another.  ``stats``
    is a plain name→number dict merged into the scheduler's shard stats
    under ``executor_*`` keys.
    """

    name = "base"

    def __init__(self):
        self.stats: Dict[str, float] = {}

    @property
    def width(self) -> int:
        """Concurrent worker slots (drives the default shard count)."""
        return 1

    def open(self, task: Callable[[Any], Any]) -> None:
        raise NotImplementedError

    def idle_workers(self) -> List[str]:
        raise NotImplementedError

    def dispatch(self, shard_id: int, attempt: int, payload: Any,
                 worker: str, timeout: Optional[float] = None) -> None:
        raise NotImplementedError

    def wait(self) -> List[Event]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# -- serial (reference) -------------------------------------------------------

class SerialExecutor(SweepExecutor):
    """One in-process worker; the bit-identical reference substrate.

    Chaos faults are honored by *withholding* the shard's work — a
    killed or partitioned worker never produces its result, exactly as a
    real one would not — and reporting the matching event, so the
    scheduler's recovery logic is exercised for real.  Results are sealed
    in a checksummed envelope only when a chaos schedule is attached (so
    ``corrupt`` has bytes to damage); otherwise they are carried as is.
    """

    name = "serial"
    WORKER = "serial-0"

    def __init__(self, chaos: Optional[ChaosSchedule] = None):
        super().__init__()
        self.chaos = chaos
        self._task: Optional[Callable[[Any], Any]] = None
        self._queue: List[Tuple[int, int, Any, Optional[float]]] = []

    def open(self, task):
        self._task = task
        self._queue = []
        self.stats = {"dispatches": 0.0, "executed": 0.0}

    def idle_workers(self):
        return [] if self._queue else [self.WORKER]

    def dispatch(self, shard_id, attempt, payload, worker, timeout=None):
        self.stats["dispatches"] += 1
        self._queue.append((shard_id, attempt, payload, timeout))

    def wait(self):
        if not self._queue:
            return []
        shard_id, attempt, payload, _timeout = self._queue.pop(0)
        worker = self.WORKER
        if self.chaos is not None:
            if self.chaos.take("kill", shard_id, attempt, worker):
                return [("crash", -1, worker, [shard_id])]
            if self.chaos.take("drop_heartbeats", shard_id, attempt,
                               worker):
                return [("dead", -1, worker, [shard_id])]
            if self.chaos.take("stall", shard_id, attempt, worker):
                return [("timeout", shard_id, worker, None)]
        try:
            value = self._task(payload)
        except Exception as exc:
            return [("failed", shard_id, worker, exc)]
        self.stats["executed"] += 1
        if self.chaos is None:
            # nothing between here and the scheduler can damage it
            return [("result", shard_id, worker,
                     ShardEnvelope.carry(shard_id, attempt, worker,
                                         value))]
        envelope = ShardEnvelope.pack(shard_id, attempt, worker, value)
        if self.chaos.take("corrupt", shard_id, attempt, worker):
            envelope = envelope.corrupted()
        return [("result", shard_id, worker, envelope)]

    def close(self):
        self._queue = []


# -- process pool -------------------------------------------------------------

class _Unloadable(Exception):
    """A worker could not load a shard: its task or payload did not
    unpickle, or it names a global the worker may hold stale.
    ``args[0]`` is the error."""


class _Loader(pickle.Unpickler):
    """Unpickles a shard's task and payload, recording every global
    (class or function) the pickle names as ``(module, qualname)``.

    With ``known`` given, a name outside it is refused before it is
    looked up, so a stale worker neither runs nor imports it.
    """

    def __init__(self, blob: bytes, known: Optional[frozenset]):
        super().__init__(io.BytesIO(blob))
        self.known = known
        self.names: List[Tuple[str, str]] = []

    def find_class(self, module, name):
        if self.known is not None and (module, name) not in self.known:
            raise ExecutorError(
                f"this worker was forked before {module}.{name} was "
                f"last defined")
        self.names.append((module, name))
        return super().find_class(module, name)


def _pool_shard_task(blob: bytes, known: Optional[frozenset],
                     shard_id: int, attempt: int, worker: str
                     ) -> Tuple[List[Tuple[str, str]], ShardEnvelope]:
    """Worker-side shard runner: unpickle, execute and seal
    (module-level, so it pickles).

    The task and payload arrive pickled (``blob``), so a worker that
    cannot load them reports :class:`_Unloadable` instead of dying
    inside the pool's call queue.  ``known`` is ``None`` on workers
    forked during this sweep; on a warm pool it holds the globals the
    parent still binds to the objects the workers hold, and a shard
    that names any other is :class:`_Unloadable`.  Returns the globals
    the shard named, with its envelope.
    """
    loader = _Loader(blob, known)
    try:
        task, payload = loader.load()
    except Exception as exc:
        raise _Unloadable(exc) from None
    return loader.names, ShardEnvelope.pack(shard_id, attempt, worker,
                                            task(payload))


def _resolve(name: Tuple[str, str]) -> Any:
    """This process's object for a pickled global name, or ``None``."""
    module, qualname = name
    obj = sys.modules.get(module)
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = getattr(obj, part, None)
    return obj


def _start_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers are forked from a fresh thread.

    A forked worker keeps the interpreter frame stack of the thread that
    forked it, and CPython maps and unmaps a frame-stack chunk each time
    a recursion crosses a chunk's end.  Forked deep inside a sweep, a
    worker running a recursive task (the simulator behind
    :func:`~repro.parallel.analyze_matrix`) took ~20x the page faults and
    ~2.5x the time per task (CPython 3.11, 2-vCPU x86-64); forked from a
    fresh thread, every worker starts from the same shallow stack,
    whatever depth the sweep was called from.  With ``fork``, the first
    submit starts every worker.

    On CPython 3.12+ that fork emits a ``DeprecationWarning`` ("process
    is multi-threaded, use of fork() may lead to deadlocks"), because the
    caller's thread is alive while the starter forks.  The hazard it
    names is a lock held by another thread at the fork, left locked in
    the child; the caller holds none, as it is blocked in ``join``, and
    any other thread would be there for a fork from the caller too.

    A failure to start the workers (``fork`` refused by a sandbox, or
    failing with ``EAGAIN`` or ``ENOMEM``) is raised here, in the caller,
    after the half-started pool is torn down.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    failure: List[BaseException] = []

    def start() -> None:
        try:
            pool.submit(int)
        except BaseException as exc:
            failure.append(exc)

    starter = threading.Thread(target=start)
    starter.start()
    starter.join()
    if failure:
        abandon_pool(pool)
        reap_abandoned()
        raise failure[0]
    return pool


class _Slot:
    """One pool worker slot's in-flight bookkeeping."""

    __slots__ = ("shard_id", "attempt", "blob", "timeout", "future",
                 "deadline", "zombie")

    def __init__(self, shard_id, attempt, blob, timeout, future):
        self.shard_id = shard_id
        self.attempt = attempt
        self.blob = blob          #: the pickled task and payload
        self.timeout = timeout
        self.future = future
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        self.zombie = False     #: timed out; slot unusable until it ends


class PoolExecutor(SweepExecutor):
    """Process-pool executor with crash detection and deadline policing.

    Worker slots are named ``pool-0..N-1``.  A broken pool (a worker
    segfaulted or was OOM-killed) becomes one crash event per in-flight
    shard and a fresh pool; a shard that outlives its deadline becomes a
    timeout event while its slot is quarantined as a zombie until the
    hung future resolves (the pool cannot pre-empt one worker).  When
    every slot is a zombie, the pool is abandoned and replaced so the
    remaining shards still run.  Workers are started by
    :func:`_start_pool`; when they cannot be, :meth:`open` (or a pool
    replacement) raises its ``OSError``.

    The pool outlives the sweep.  :meth:`close` parks a healthy pool
    with nothing in flight (:func:`~repro.parallel.pool.park_pool`), and
    the next :meth:`open` of the same width takes it back instead of
    forking, so its workers keep their resident tapes and compiled
    expressions.  A pool holding zombies is abandoned — workers
    terminated and reaped — and one with a shard still in flight (the
    sweep raised) is shut down, so no hung child outlives the sweep.

    Warm workers hold every module as the parent held it when they
    forked, so they never run a global the parent has since defined,
    redefined or replaced.  Each shard ships pickled, and the executor
    remembers, per pool, the globals its workers loaded together with
    the parent's objects for them (kept alive, so no later object can
    take their place).  On a warm pool a shard may name only globals
    that the parent still binds to those objects.  Names from
    ``__main__`` are never remembered: a script, REPL or notebook
    redefines freely, helpers its functions call included, which no
    pickled name reaches, so its work always runs on workers forked
    during its sweep.  A shard that names anything else, or that a warm
    worker cannot unpickle, reruns with every other shard in flight on
    freshly forked workers, with no crash reported.  A fresh worker that
    cannot load a shard either fails it as a task fault.  Not checked:
    module state a remembered function reaches only indirectly (a helper
    it calls, a module constant); after changing such state,
    :func:`~repro.parallel.clear_symbolic_cache` shuts the idle pool
    down.
    """

    name = "pool"
    #: polling granularity while no future is done and no deadline due
    TICK = 0.05

    def __init__(self, workers: Optional[int] = None,
                 chaos: Optional[ChaosSchedule] = None):
        super().__init__()
        self.workers = workers if workers and workers > 0 \
            else default_workers()
        self.chaos = chaos
        self._task: Optional[Callable[[Any], Any]] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        #: globals the pool's workers loaded, with the parent's objects
        self._loaded: Dict[Tuple[str, str], Any] = {}
        #: on a warm pool, the loaded globals a shard may name; ``None``
        #: while the workers were forked during this sweep
        self._known: Optional[frozenset] = None
        self._slots: Dict[str, Optional[_Slot]] = {}
        self._events: List[Event] = []

    @property
    def width(self) -> int:
        return self.workers

    def open(self, task):
        self._task = task
        warm = take_pool(self.workers)
        if warm is None:
            self._pool, self._loaded, self._known = \
                _start_pool(self.workers), {}, None
        else:
            self._pool, self._loaded = warm
            self._known = frozenset(
                name for name, obj in self._loaded.items()
                if _resolve(name) is obj)
        self._slots = {f"pool-{index}": None
                       for index in range(self.workers)}
        self._events = []
        self.stats = {"dispatches": 0.0, "pool_rebuilds": 0.0,
                      "timeouts": 0.0, "crashes": 0.0}

    def idle_workers(self):
        idle = [worker for worker, slot in self._slots.items()
                if slot is None]
        if not idle and all(slot.zombie for slot in self._slots.values()):
            # every worker is stuck in a timed-out task: a fresh pool
            # serves the remaining shards instead of waiting on the hangs
            self._rebuild(crashed=False)
            idle = list(self._slots)
        return idle

    def dispatch(self, shard_id, attempt, payload, worker, timeout=None):
        if self._slots.get(worker) is not None:
            raise ExecutorError(f"worker {worker} is not idle")
        self.stats["dispatches"] += 1
        if self.chaos is not None:
            # simulated substrate faults: the shard's work is withheld
            # and the matching supervision event queued, deterministic
            # regardless of pool timing
            if self.chaos.take("kill", shard_id, attempt, worker):
                self._events.append(("crash", -1, worker, [shard_id]))
                return
            if self.chaos.take("drop_heartbeats", shard_id, attempt,
                               worker):
                self._events.append(("dead", -1, worker, [shard_id]))
                return
            if self.chaos.take("stall", shard_id, attempt, worker):
                self._events.append(("timeout", shard_id, worker, None))
                self.stats["timeouts"] += 1
                return
        try:
            blob = pickle.dumps((self._task, payload))
        except Exception as exc:
            self._events.append(("failed", shard_id, worker, exc))
            return
        self._submit(worker, shard_id, attempt, blob, timeout)

    def _submit(self, worker: str, shard_id: int, attempt: int,
                blob: bytes, timeout: Optional[float]) -> None:
        """Run a pickled shard on ``worker``'s slot."""
        try:
            future = self._pool.submit(_pool_shard_task, blob,
                                       self._known, shard_id, attempt,
                                       worker)
        except (BrokenExecutor, OSError, RuntimeError):
            self._events.extend(self._crash([(worker, shard_id)]))
            return
        self._slots[worker] = _Slot(shard_id, attempt, blob, timeout,
                                    future)

    def _crash(self, lost: List[Tuple[str, int]]) -> List[Event]:
        """The pool broke: the ``lost`` shards died with it, and so did
        every shard still in flight on it.  One crash event each, and a
        fresh pool."""
        for worker, slot in self._slots.items():
            if slot is not None and not slot.zombie:
                lost.append((worker, slot.shard_id))
        self._rebuild()
        return [("crash", -1, worker, [shard_id])
                for worker, shard_id in lost]

    def _rebuild(self, crashed: bool = True):
        """Replace a broken, wholly hung or stale pool; every live
        slot's shard is lost."""
        self.stats["pool_rebuilds"] += 1
        self.stats["crashes"] += float(crashed)
        if self._pool is not None:
            abandon_pool(self._pool)
            reap_abandoned()
            self._pool = None     # close() must not touch it again
        self._pool = _start_pool(self.workers)
        # the new workers hold whatever the parent binds now
        self._loaded = {name: obj for name, obj in self._loaded.items()
                        if _resolve(name) is obj}
        self._known = None
        for worker in self._slots:
            self._slots[worker] = None

    def _refresh(self, stale: List[Tuple[str, _Slot]]) -> None:
        """Warm workers could not (or must not) load the ``stale``
        shards: fork fresh ones, and rerun those shards and every other
        one in flight on them, under the same slots and attempts."""
        rerun = stale + [(worker, slot)
                         for worker, slot in self._slots.items()
                         if slot is not None and not slot.zombie]
        self._rebuild(crashed=False)
        for worker, slot in rerun:
            self._submit(worker, slot.shard_id, slot.attempt, slot.blob,
                         slot.timeout)

    def wait(self):
        """Events of the next completion, deadline or crash.

        Blocks until one happens, so a long shard is never mistaken for
        a stalled executor; returns early (possibly with no events) only
        when a slot frees up or every running slot is a zombie, so the
        scheduler can dispatch again or replace the pool.
        """
        if self._events:
            events, self._events = self._events, []
            return events
        while True:
            live = {worker: slot for worker, slot in self._slots.items()
                    if slot is not None}
            if all(slot.zombie for slot in live.values()):
                return []
            events, freed = self._poll(live)
            if self._events:
                events.extend(self._events)
                self._events = []
            if events or freed:
                return events

    def _poll(self, live: Dict[str, _Slot]) -> Tuple[List[Event], bool]:
        """One bounded wait on the live slots: their events, and whether a
        zombie slot came free."""
        now = time.monotonic()
        horizon = self.TICK
        deadlines = [slot.deadline - now for slot in live.values()
                     if slot.deadline is not None and not slot.zombie]
        if deadlines:
            horizon = max(0.0, min([horizon] + deadlines))
        _futures_wait([slot.future for slot in live.values()],
                      timeout=horizon, return_when=FIRST_COMPLETED)
        events: List[Event] = []
        freed = False
        now = time.monotonic()
        lost: List[Tuple[str, int]] = []
        stale: List[Tuple[str, _Slot]] = []
        for worker, slot in live.items():
            if slot.future.done():
                self._slots[worker] = None
                if slot.zombie:
                    freed = True
                    continue      # already reported as a timeout
                try:
                    names, envelope = slot.future.result()
                except (BrokenExecutor, OSError) as exc:
                    del exc
                    lost.append((worker, slot.shard_id))
                    continue
                except _Unloadable as exc:
                    if self._known is not None:
                        stale.append((worker, slot))
                    else:
                        events.append(("failed", slot.shard_id, worker,
                                       exc.args[0]))
                    continue
                except Exception as exc:
                    events.append(("failed", slot.shard_id, worker, exc))
                    continue
                if self.chaos is not None and self.chaos.take(
                        "corrupt", slot.shard_id, slot.attempt, worker):
                    envelope = envelope.corrupted()
                if self._known is None:
                    self._remember(names)
                events.append(("result", slot.shard_id, worker, envelope))
            elif (slot.deadline is not None and now >= slot.deadline
                  and not slot.zombie):
                slot.zombie = True
                self.stats["timeouts"] += 1
                events.append(("timeout", slot.shard_id, worker, None))
        if lost:
            # one broken future means the whole pool is gone
            lost.extend((worker, slot.shard_id) for worker, slot in stale)
            events.extend(self._crash(lost))
        elif stale:
            self._refresh(stale)
        return events, freed

    def _remember(self, names: List[Tuple[str, str]]) -> None:
        """Workers forked during this sweep loaded ``names``, so they
        hold what the parent binds to them now (``__main__`` excepted)."""
        for name in names:
            if name[0] != "__main__" and name not in self._loaded:
                obj = _resolve(name)
                if obj is not None:
                    self._loaded[name] = obj

    def close(self):
        if self._pool is None:
            return
        busy = [slot for slot in self._slots.values() if slot is not None]
        if any(slot.zombie for slot in busy):
            abandon_pool(self._pool)
        elif busy:
            self._pool.shutdown(wait=True, cancel_futures=True)
        else:
            park_pool(self._pool, self.workers, self._loaded)
        reap_abandoned()
        self._pool = None
        self._slots = {}


# -- simulated multi-node cluster ---------------------------------------------

class _SimWorker:
    """One simulated worker's liveness and occupancy."""

    __slots__ = ("name", "busy_until", "dead_at")

    def __init__(self, name):
        self.name = name
        self.busy_until = 0.0
        self.dead_at: Optional[float] = None


class MultinodeExecutor(SweepExecutor):
    """Simulated cluster executor over a :class:`ClusterTopology`.

    Shard tasks execute in-process (they are pure, so results are
    bit-identical to the serial path no matter the topology) while a
    deterministic virtual clock simulates the distributed run: each
    shard occupies its worker for ``topology.task_seconds``, results
    ship back at postal-model cost, workers heartbeat every
    ``heartbeat_interval`` simulated seconds, and chaos faults play out
    in simulated time:

    * ``kill`` — the worker dies halfway through the shard (permanent);
    * ``drop_heartbeats`` — a partition: heartbeats *and* the result
      stop arriving; the supervisor declares the worker dead after the
      miss limit, and the stale result surfaces later to be discarded;
    * ``stall`` — the shard runs four timeouts long; the deadline fires
      while the worker stays occupied until the slow task ends;
    * ``corrupt`` — the result envelope is damaged in transit.

    ``stats`` records the simulated makespan (``sim_seconds``), network
    shipping time, heartbeats observed, and workers lost — the inputs to
    the ``BENCH_shard.json`` scaling curve.
    """

    name = "multinode"

    def __init__(self, topology: ClusterTopology = DUAL_NODE,
                 chaos: Optional[ChaosSchedule] = None):
        super().__init__()
        self.topology = topology
        self.chaos = chaos
        self._task: Optional[Callable[[Any], Any]] = None
        self._clock = 0.0
        self._workers: Dict[str, _SimWorker] = {}
        #: scheduled simulation events: (sim_time, seq, event, effects)
        self._timeline: List[Tuple[float, int, Event,
                                   Optional[Tuple[str, float]]]] = []
        self._seq = 0

    @property
    def width(self) -> int:
        return self.topology.total_workers

    def open(self, task):
        self._task = task
        self._clock = 0.0
        self._seq = 0
        self._timeline = []
        self._workers = {name: _SimWorker(name)
                         for name in self.topology.worker_names()}
        self.stats = {"sim_seconds": 0.0, "network_seconds": 0.0,
                      "heartbeats": 0.0, "workers_lost": 0.0,
                      "dispatches": 0.0}

    def idle_workers(self):
        return [worker.name for worker in self._workers.values()
                if worker.dead_at is None
                and worker.busy_until <= self._clock]

    def _schedule(self, at: float, event: Event,
                  kills: Optional[str] = None) -> None:
        self._timeline.append((at, self._seq, event,
                               (kills, at) if kills else None))
        self._seq += 1

    def dispatch(self, shard_id, attempt, payload, worker, timeout=None):
        sim = self._workers[worker]
        if sim.dead_at is not None or sim.busy_until > self._clock:
            raise ExecutorError(f"worker {worker} is not idle")
        self.stats["dispatches"] += 1
        start = self._clock
        duration = self.topology.task_seconds
        if self.chaos is not None:
            if self.chaos.take("kill", shard_id, attempt, worker):
                # dies halfway through; no result, permanent loss
                died = start + duration * 0.5
                sim.busy_until = died
                self._schedule(died, ("crash", -1, worker, [shard_id]),
                               kills=worker)
                return
            if self.chaos.take("drop_heartbeats", shard_id, attempt,
                               worker):
                # network partition: supervisor declares death after the
                # miss limit; the stale result limps in afterwards
                contract = self.topology
                declared = start + (contract.heartbeat_interval
                                    * contract.heartbeat_miss_limit)
                sim.busy_until = declared
                self._schedule(declared,
                               ("dead", -1, worker, [shard_id]),
                               kills=worker)
                value = self._task(payload)
                envelope = ShardEnvelope.pack(shard_id, attempt, worker,
                                              value)
                late = (max(declared, start + duration)
                        + contract.heartbeat_interval)
                self._schedule(late,
                               ("result", shard_id, worker, envelope))
                return
            stalled = self.chaos.take("stall", shard_id, attempt, worker)
            if stalled is not None:
                slow = max(duration, (timeout or duration) * 4.0)
                sim.busy_until = start + slow
                if timeout is not None:
                    self._schedule(start + timeout,
                                   ("timeout", shard_id, worker, None))
                    return
                duration = slow       # no deadline: just a slow shard
        value = self._task(payload)
        envelope = ShardEnvelope.pack(shard_id, attempt, worker, value)
        if self.chaos is not None and self.chaos.take(
                "corrupt", shard_id, attempt, worker):
            envelope = envelope.corrupted()
        # a wall-clock timeout cannot be compared against the virtual
        # clock's work unit, so in the simulation only injected stalls
        # violate deadlines; real hangs are PoolExecutor territory
        done = start + duration
        ship = self.topology.ship_seconds(len(envelope.data))
        self.stats["network_seconds"] += ship
        sim.busy_until = done
        self._schedule(done + ship, ("result", shard_id, worker, envelope))

    def wait(self):
        if not self._timeline:
            living = [worker for worker in self._workers.values()
                      if worker.dead_at is None]
            if not living:
                raise ExecutorError(
                    f"cluster {self.topology.name!r}: all "
                    f"{self.topology.total_workers} workers were lost")
            busy = [worker.busy_until for worker in living
                    if worker.busy_until > self._clock]
            if busy:
                # no event left to pop, but a worker is still occupied
                # (e.g. a stalled shard whose timeout already fired):
                # advance the clock so it becomes dispatchable again
                # instead of idling the scheduler forever
                self._clock = min(busy)
            return []
        self._timeline.sort(key=lambda entry: (entry[0], entry[1]))
        at, _seq, event, effect = self._timeline.pop(0)
        self._clock = max(self._clock, at)
        if effect is not None:
            victim, when = effect
            sim = self._workers[victim]
            if sim.dead_at is None:
                sim.dead_at = when
                self.stats["workers_lost"] += 1
        return [event]

    def close(self):
        interval = self.topology.heartbeat_interval
        beats = 0.0
        for worker in self._workers.values():
            alive_until = (worker.dead_at if worker.dead_at is not None
                           else self._clock)
            beats += max(0.0, alive_until) / interval
        self.stats["heartbeats"] = float(int(beats))
        self.stats["sim_seconds"] = self._clock
        self._timeline = []


# -- resolution ---------------------------------------------------------------

def resolve_executor(spec, workers: Optional[int] = None,
                     topology=None,
                     chaos: Optional[ChaosSchedule] = None
                     ) -> SweepExecutor:
    """Build an executor from a CLI-style spec.

    ``spec`` is an executor name (``serial`` / ``pool`` / ``multinode``)
    or an already-constructed :class:`SweepExecutor` (returned as is).
    ``topology`` names a :data:`~repro.multinode.cluster.CLUSTER_PRESETS`
    entry or is a :class:`ClusterTopology`.
    """
    if isinstance(spec, SweepExecutor):
        return spec
    if spec == "serial":
        return SerialExecutor(chaos=chaos)
    if spec == "pool":
        return PoolExecutor(workers=workers, chaos=chaos)
    if spec == "multinode":
        if topology is None:
            topology = DUAL_NODE
        elif isinstance(topology, str):
            try:
                topology = CLUSTER_PRESETS[topology]
            except KeyError:
                raise ExecutorError(
                    f"unknown cluster preset {topology!r}; choose from "
                    f"{sorted(CLUSTER_PRESETS)}") from None
        return MultinodeExecutor(topology=topology, chaos=chaos)
    raise ExecutorError(
        f"unknown executor {spec!r}; choose from {list(EXECUTOR_NAMES)}")

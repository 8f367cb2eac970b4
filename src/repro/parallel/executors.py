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
  :func:`~repro.parallel.pool.abandon_pool`; a sweep run without an
  executor uses it for ``workers > 1``;
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

import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ExecutorError
from ..multinode.cluster import CLUSTER_PRESETS, DUAL_NODE, ClusterTopology
from .chaos import ChaosSchedule
from .pool import abandon_pool, default_workers, reap_abandoned
from .shard import ShardEnvelope

#: executor names accepted by the CLI and :func:`resolve_executor`
EXECUTOR_NAMES = ("serial", "pool", "multinode")

Event = Tuple[str, int, str, Any]


class SweepExecutor:
    """The executor protocol (see the module docstring for the events).

    Lifecycle: ``open(task)`` → interleaved ``idle_workers`` /
    ``dispatch`` / ``wait`` → ``close()`` (always, in a ``finally``).
    ``stats`` is a plain name→number dict merged into the scheduler's
    shard stats under ``executor_*`` keys.
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

def _pool_shard_task(task: Callable[[Any], Any], shard_id: int,
                     attempt: int, worker: str,
                     payload: Any) -> ShardEnvelope:
    """Worker-side shard runner: execute and seal (module-level, so it
    pickles)."""
    return ShardEnvelope.pack(shard_id, attempt, worker, task(payload))


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

    __slots__ = ("shard_id", "attempt", "future", "deadline", "zombie")

    def __init__(self, shard_id, attempt, future, deadline):
        self.shard_id = shard_id
        self.attempt = attempt
        self.future = future
        self.deadline = deadline
        self.zombie = False     #: timed out; slot unusable until it ends


class PoolExecutor(SweepExecutor):
    """Process-pool executor with crash detection and deadline policing.

    Worker slots are named ``pool-0..N-1``.  A broken pool (a worker
    segfaulted or was OOM-killed) becomes one crash event per in-flight
    shard and a fresh pool; a shard that outlives its deadline becomes a
    timeout event while its slot is quarantined as a zombie until the
    hung future resolves (the pool cannot pre-empt one worker).  When
    every slot is a zombie, the pool is abandoned and replaced so the
    remaining shards still run; on close, a pool holding zombies is
    abandoned — workers terminated and reaped — instead of waited on,
    so no child process outlives the sweep.  Workers are started by
    :func:`_start_pool`; when they cannot be, :meth:`open` (or a pool
    replacement) raises its ``OSError``.
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
        self._slots: Dict[str, Optional[_Slot]] = {}
        self._events: List[Event] = []

    @property
    def width(self) -> int:
        return self.workers

    def open(self, task):
        self._task = task
        self._pool = _start_pool(self.workers)
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
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        try:
            future = self._pool.submit(_pool_shard_task, self._task,
                                       shard_id, attempt, worker, payload)
        except (BrokenExecutor, OSError, RuntimeError):
            self._rebuild()
            self._events.append(("crash", -1, worker, [shard_id]))
            return
        self._slots[worker] = _Slot(shard_id, attempt, future, deadline)

    def _rebuild(self, crashed: bool = True):
        """Replace a broken (or wholly hung) pool; every live slot's
        shard is lost."""
        self.stats["pool_rebuilds"] += 1
        self.stats["crashes"] += float(crashed)
        if self._pool is not None:
            abandon_pool(self._pool)
            reap_abandoned()
            self._pool = None     # close() must not touch it again
        self._pool = _start_pool(self.workers)
        for worker in self._slots:
            self._slots[worker] = None

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
        for worker, slot in live.items():
            if slot.future.done():
                self._slots[worker] = None
                if slot.zombie:
                    freed = True
                    continue      # already reported as a timeout
                try:
                    envelope = slot.future.result()
                except (BrokenExecutor, OSError) as exc:
                    del exc
                    lost.append((worker, slot.shard_id))
                    continue
                except Exception as exc:
                    events.append(("failed", slot.shard_id, worker, exc))
                    continue
                if self.chaos is not None and self.chaos.take(
                        "corrupt", slot.shard_id, slot.attempt, worker):
                    envelope = envelope.corrupted()
                events.append(("result", slot.shard_id, worker, envelope))
            elif (slot.deadline is not None and now >= slot.deadline
                  and not slot.zombie):
                slot.zombie = True
                self.stats["timeouts"] += 1
                events.append(("timeout", slot.shard_id, worker, None))
        if lost:
            # one broken future means the whole pool is gone: the shards
            # whose futures raised died with it, and so did every shard
            # still in flight on the surviving slots
            for worker, slot in self._slots.items():
                if slot is not None and not slot.zombie:
                    lost.append((worker, slot.shard_id))
            events.extend(("crash", -1, worker, [shard_id])
                          for worker, shard_id in lost)
            self._rebuild()
        return events, freed

    def close(self):
        if self._pool is None:
            return
        if any(slot is not None and slot.zombie
               for slot in self._slots.values()):
            abandon_pool(self._pool)
        else:
            self._pool.shutdown(wait=True, cancel_futures=True)
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

"""Tests for the sharded sweep executor layer (`repro.parallel.shard`,
`repro.parallel.executors`): shard planning, result-envelope integrity,
work-stealing dispatch, supervision (crash/heartbeat/reassign), poison
quarantine, the three executors' bit-for-bit equivalence, the
hung-worker pool-abandonment regression, and the warm pool's lifecycle
(reuse, a worker killed while idle, concurrent sweeps, interpreter
exit)."""

import functools
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import (
    EnvelopeCorruptError, ExecutorError, ShardQuarantinedError,
)
from repro.hardware import XEON_E5_2420
from repro.multinode import (
    CLUSTER_PRESETS, DUAL_NODE, TORUS_RACK, ClusterTopology,
)
from repro.parallel import (
    ChaosEvent, ChaosSchedule, MultinodeExecutor, PointFailure,
    PoolExecutor, RetryPolicy, SerialExecutor, ShardEnvelope,
    ShardScheduler, SupervisionLog, SweepExecutor, plan_shards,
    resolve_executor, sweep_grid,
)
from repro.parallel import executors
from repro.parallel.pool import close_idle_pool
from repro.workloads import load

from .test_dispatch import SRC, _live_children, _wait_for_children


def _square(item):
    return [value * value for value in item]


def _no_sleep(_seconds):
    pass


def _die_once(flag_path, item):
    """SIGKILL the hosting pool worker the first time the poison point
    runs (module-level so it pickles; the flag file spans processes)."""
    if 7 in item and not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return _square(item)


class _InlinePool:
    """Stands in for a started process pool: runs each submit at once,
    in-process."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _BreaksOnSecondSubmit(_InlinePool):
    """A pool whose first shard stays in flight, and which is found
    broken when the second is submitted."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == 1:
            return Future()
        raise BrokenProcessPool("a worker died")


def _run(executor, payloads, task=_square, **kwargs):
    kwargs.setdefault("sleep", _no_sleep)
    scheduler = ShardScheduler(executor, **kwargs)
    return scheduler.run(task, payloads,
                         sizes=[len(p) for p in payloads])


def _merge(outcome, payloads):
    merged = []
    for shard_id in range(len(payloads)):
        merged.extend(outcome.results[shard_id])
    return merged


PAYLOADS = [list(range(start, start + 5)) for start in range(0, 40, 5)]
EXPECTED = [value * value for value in range(40)]


# -- shard planning -----------------------------------------------------------

class TestPlanShards:
    def test_ranges_cover_exactly_in_order(self):
        ranges = plan_shards(103, 8, workers=4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 103
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        assert sum(stop - start for start, stop in ranges) == 103

    def test_default_is_about_four_per_worker(self):
        assert len(plan_shards(1000, None, workers=4)) == 16

    def test_never_more_shards_than_points(self):
        assert len(plan_shards(3, 100, workers=4)) == 3
        assert len(plan_shards(2, None, workers=8)) == 2

    def test_empty_and_single(self):
        assert plan_shards(0, 4, workers=1) == []
        assert plan_shards(1, None, workers=4) == [(0, 1)]

    def test_sizes_differ_by_at_most_one(self):
        sizes = [stop - start
                 for start, stop in plan_shards(100, 7, workers=1)]
        assert max(sizes) - min(sizes) <= 1


# -- envelope integrity -------------------------------------------------------

class TestShardEnvelope:
    def test_pack_unpack_roundtrip(self):
        envelope = ShardEnvelope.pack(3, 1, "w0", {"rows": [1, 2]})
        assert envelope.unpack() == {"rows": [1, 2]}
        assert envelope.shard_id == 3 and envelope.attempt == 1

    def test_damaged_payload_is_detected(self):
        envelope = ShardEnvelope.pack(5, 2, "w0", list(range(100)))
        with pytest.raises(EnvelopeCorruptError) as info:
            envelope.corrupted().unpack()
        assert info.value.shard_id == 5
        assert "recomputed" in str(info.value)

    def test_envelope_survives_pickling(self):
        envelope = ShardEnvelope.pack(1, 1, "w0", "value")
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone.unpack() == "value"


# -- supervision log ----------------------------------------------------------

class TestSupervisionLog:
    def test_counts_and_renders(self):
        log = SupervisionLog()
        log.note("dispatch", 0, "w0", "attempt 1")
        log.note("fault", 0, "w0", "WorkerCrashError")
        log.note("reassign", 0, "w1", "1/3")
        assert log.count("dispatch") == 1
        assert log.count("reassign") == 1
        text = log.render()
        assert "shard 0" in text and "WorkerCrashError" in text


# -- the scheduler on the serial reference executor ---------------------------

class TestShardScheduler:
    def test_clean_run_merges_every_shard(self):
        outcome = _run(SerialExecutor(), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.stats["shards_completed"] == len(PAYLOADS)
        assert outcome.stats["shard_reassignments"] == 0

    def test_on_result_streams_each_shard(self):
        seen = []
        scheduler = ShardScheduler(SerialExecutor(), sleep=_no_sleep)
        scheduler.run(_square, PAYLOADS,
                      on_result=lambda sid, value: seen.append(sid))
        assert sorted(seen) == list(range(len(PAYLOADS)))

    def test_task_exception_without_policy_quarantines(self):
        def poison(item):
            if 7 in item:
                raise ValueError("poison point")
            return _square(item)

        outcome = _run(SerialExecutor(), PAYLOADS, task=poison)
        assert not outcome.ok
        assert list(outcome.quarantined) == [1]     # shard holding 7
        error = outcome.quarantined[1]
        assert isinstance(error, ShardQuarantinedError)
        assert error.error_type == "ValueError"
        # every healthy shard still completed
        assert outcome.stats["shards_completed"] == len(PAYLOADS) - 1

    def test_retry_policy_gives_transient_faults_more_attempts(self):
        calls = {"n": 0}

        def flaky(item):
            if 7 in item:
                calls["n"] += 1
                if calls["n"] < 3:
                    raise ValueError("transient")
            return _square(item)

        outcome = _run(SerialExecutor(), PAYLOADS, task=flaky,
                       policy=RetryPolicy(max_attempts=3, base_delay=0.0))
        assert outcome.ok
        assert calls["n"] == 3
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_exhausted_policy_quarantines_with_attempt_count(self):
        def poison(item):
            if 7 in item:
                raise ValueError("always")
            return _square(item)

        outcome = _run(SerialExecutor(), PAYLOADS, task=poison,
                       policy=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert outcome.quarantined[1].attempts == 2
        assert outcome.log.count("quarantine") == 1

    def test_crash_reassigns_without_a_policy(self):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=2)])
        outcome = _run(SerialExecutor(chaos=chaos), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.log.count("reassign") == 1
        assert outcome.shards[2].infra_faults == 1

    def test_corrupt_envelope_is_recomputed_not_merged(self):
        chaos = ChaosSchedule([ChaosEvent("corrupt", shard=4)])
        outcome = _run(SerialExecutor(chaos=chaos), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert any("EnvelopeCorruptError" in detail
                   for kind, _, _, detail in outcome.log.events
                   if kind == "fault")

    def test_reassign_limit_exhaustion_quarantines(self):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0, attempt=a)
                               for a in range(1, 6)])
        outcome = _run(SerialExecutor(chaos=chaos), PAYLOADS,
                       reassign_limit=2)
        assert list(outcome.quarantined) == [0]
        assert outcome.quarantined[0].error_type == "WorkerCrashError"

    def test_executor_timeout_without_configured_bound(self):
        # an injected stall on an executor with no scheduler timeout
        # must not claim a "0s shard timeout" in the quarantine record
        chaos = ChaosSchedule([ChaosEvent("stall", shard=2)])
        outcome = _run(SerialExecutor(chaos=chaos), PAYLOADS)
        assert list(outcome.quarantined) == [2]
        assert "executor-reported timeout" \
            in outcome.quarantined[2].message
        assert "0s" not in outcome.quarantined[2].message

    def test_rejects_negative_reassign_limit(self):
        with pytest.raises(ValueError):
            ShardScheduler(SerialExecutor(), reassign_limit=-1)

    def test_unknown_event_kind_is_an_executor_error(self):
        class Rogue(SerialExecutor):
            def wait(self):
                events = super().wait()
                return [("gibberish", 0, "w", None)] if events else []

        with pytest.raises(ExecutorError):
            _run(Rogue(), PAYLOADS[:1])


# -- the simulated multinode executor -----------------------------------------

class TestMultinodeExecutor:
    def test_matches_serial_bit_for_bit(self):
        serial = _merge(_run(SerialExecutor(), PAYLOADS), PAYLOADS)
        multi = _merge(_run(MultinodeExecutor(topology=DUAL_NODE),
                            PAYLOADS), PAYLOADS)
        assert multi == serial == EXPECTED

    def test_width_and_worker_names_follow_topology(self):
        executor = MultinodeExecutor(topology=DUAL_NODE)
        assert executor.width == 8
        executor.open(_square)
        names = executor.idle_workers()
        assert names[0] == "n0.w0" and "n1.w3" in names

    def test_simulated_clock_reports_makespan(self):
        outcome = _run(MultinodeExecutor(topology=DUAL_NODE), PAYLOADS)
        # 8 shards over 8 workers, 1 simulated second each: one wave
        assert outcome.stats["executor_sim_seconds"] >= 1.0
        assert outcome.stats["executor_network_seconds"] > 0.0

    def test_killed_worker_stays_dead(self):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0)])
        executor = MultinodeExecutor(topology=DUAL_NODE, chaos=chaos)
        outcome = _run(executor, PAYLOADS)
        assert outcome.ok
        assert outcome.stats["executor_workers_lost"] == 1.0
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_partition_result_arrives_stale_and_is_discarded(self):
        chaos = ChaosSchedule([ChaosEvent("drop_heartbeats", shard=3)])
        outcome = _run(MultinodeExecutor(topology=DUAL_NODE, chaos=chaos),
                       PAYLOADS)
        assert outcome.ok
        assert outcome.log.count("stale") == 1
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_stall_fires_timeout_then_policy_path(self):
        chaos = ChaosSchedule([ChaosEvent("stall", shard=2)])
        outcome = _run(MultinodeExecutor(topology=DUAL_NODE, chaos=chaos),
                       PAYLOADS, timeout=0.5,
                       policy=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert any("TaskTimeoutError" in detail
                   for kind, _, _, detail in outcome.log.events
                   if kind == "fault")

    def test_stall_with_timeout_on_single_worker_recovers(self):
        # regression: after the timeout event fired, the timeline was
        # empty while the lone worker stayed busy past the stall, so
        # wait() returned [] forever and the idle watchdog aborted the
        # sweep; the clock must advance to the worker's busy_until
        topology = ClusterTopology(name="solo", nodes=1,
                                   workers_per_node=1,
                                   network=DUAL_NODE.network)
        chaos = ChaosSchedule([ChaosEvent("stall", shard=2)])
        outcome = _run(MultinodeExecutor(topology=topology, chaos=chaos),
                       PAYLOADS, timeout=0.5,
                       policy=RetryPolicy(max_attempts=2, base_delay=0.0))
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_losing_every_worker_raises(self):
        topology = ClusterTopology(name="tiny", nodes=1,
                                   workers_per_node=1,
                                   network=DUAL_NODE.network)
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0, attempt=a)
                               for a in range(1, 10)])
        with pytest.raises(ExecutorError) as info:
            _run(MultinodeExecutor(topology=topology, chaos=chaos),
                 PAYLOADS, reassign_limit=10)
        assert "workers were lost" in str(info.value)

    def test_topology_validation(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            ClusterTopology(name="bad", nodes=0, workers_per_node=4,
                            network=DUAL_NODE.network)
        with pytest.raises(ReproError):
            ClusterTopology(name="bad", nodes=1, workers_per_node=1,
                            network=DUAL_NODE.network,
                            heartbeat_interval=0.0)


# -- the process-pool executor ------------------------------------------------

class TestPoolExecutor:
    def test_matches_serial_bit_for_bit(self):
        outcome = _run(PoolExecutor(workers=2), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED

    def test_chaos_faults_recover_identically(self):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=1),
                               ChaosEvent("corrupt", shard=5)])
        outcome = _run(PoolExecutor(workers=2, chaos=chaos), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.stats["shard_reassignments"] == 2

    def test_real_worker_crash_reassigns_its_shard(self, tmp_path):
        # a SIGKILLed worker breaks the whole pool; the shard whose
        # future raised BrokenExecutor (not only the other in-flight
        # slots) must surface as a crash event so the scheduler
        # reassigns it instead of stranding it until the watchdog
        # aborts the sweep
        task = functools.partial(_die_once, str(tmp_path / "flag"))
        outcome = _run(PoolExecutor(workers=2), PAYLOADS, task=task)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.log.count("reassign") >= 1
        assert any(kind == "fault" and "WorkerCrashError" in detail
                   for kind, _, _, detail in outcome.log.events)

    def test_failed_submit_loses_every_shard_in_flight(self, monkeypatch):
        # the pool that refuses the second shard took the first one down
        # with it: both must surface as crashes, or the first is stranded
        pools = [_BreaksOnSecondSubmit()]
        monkeypatch.setattr(executors, "_start_pool", lambda workers: (
            pools.pop(0) if pools else _InlinePool()))
        outcome = _run(PoolExecutor(workers=2), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        crashed = [shard for kind, shard, _, detail in outcome.log.events
                   if kind == "fault" and detail == "WorkerCrashError"]
        assert sorted(crashed) == [0, 1]
        assert outcome.stats["executor_crashes"] == 1
        assert outcome.stats["shard_reassignments"] == 2

    def test_no_children_leak_after_clean_close(self):
        # a clean close parks the pool: its two workers stay up for the
        # next sweep, and closing the idle pool stops them
        before = len(_live_children())
        outcome = _run(PoolExecutor(workers=2), PAYLOADS)
        assert outcome.ok
        assert len(_live_children()) == before + 2
        close_idle_pool()
        assert len(_wait_for_children(before)) <= before


def _pid_alive(pid):
    """Is ``pid`` a live process (a zombie counts as dead)?"""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestWarmPool:
    def test_consecutive_sweeps_run_on_the_same_workers(self):
        first = _run(PoolExecutor(workers=2), PAYLOADS)
        workers = sorted(child.pid for child in _live_children())
        second = _run(PoolExecutor(workers=2), PAYLOADS)
        assert first.ok and second.ok
        assert _merge(second, PAYLOADS) == EXPECTED
        assert len(workers) == 2
        assert sorted(child.pid for child in _live_children()) == workers
        assert second.stats["executor_pool_rebuilds"] == 0

    def test_worker_killed_while_idle_is_replaced_before_the_sweep(self):
        assert _run(PoolExecutor(workers=2), PAYLOADS).ok
        victim = _live_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victim.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not victim.is_alive()
        outcome = _run(PoolExecutor(workers=2), PAYLOADS)
        assert outcome.ok
        assert _merge(outcome, PAYLOADS) == EXPECTED
        assert outcome.stats["executor_crashes"] == 0
        assert outcome.stats["shard_reassignments"] == 0
        assert victim.pid not in [child.pid for child in _live_children()]

    def test_concurrent_sweeps_leave_one_idle_pool(self):
        before = len(_live_children())
        outcomes = []

        def sweep():
            outcomes.append(_run(PoolExecutor(workers=2), PAYLOADS))

        threads = [threading.Thread(target=sweep) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(outcomes) == 2
        assert all(outcome.ok and _merge(outcome, PAYLOADS) == EXPECTED
                   for outcome in outcomes)
        # one pool of two workers is parked; the other was shut down
        assert len(_wait_for_children(before + 2)) == before + 2

    def test_interpreter_exit_stops_the_idle_pool(self):
        script = textwrap.dedent(f"""
            import multiprocessing, sys
            sys.path.insert(0, {SRC!r})
            from repro.parallel import PoolExecutor, ShardScheduler
            run = ShardScheduler(PoolExecutor(workers=2)).run(
                abs, [-1, -2, -3, -4])
            assert run.ok
            print(" ".join(str(child.pid) for child
                           in multiprocessing.active_children()))
        """)
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2          # the parked pool's workers
        deadline = time.monotonic() + 10.0
        while any(map(_pid_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_pid_alive, pids))


# -- executor resolution ------------------------------------------------------

class TestResolveExecutor:
    def test_names_resolve(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("pool", workers=2),
                          PoolExecutor)
        assert isinstance(resolve_executor("multinode"),
                          MultinodeExecutor)

    def test_instances_pass_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_cluster_preset_by_name(self):
        executor = resolve_executor("multinode", topology="torus-rack")
        assert executor.topology is TORUS_RACK
        assert "torus-rack" in CLUSTER_PRESETS

    def test_unknown_names_raise(self):
        with pytest.raises(ExecutorError):
            resolve_executor("mainframe")
        with pytest.raises(ExecutorError):
            resolve_executor("multinode", topology="atlantis")

    def test_base_protocol_is_abstract(self):
        executor = SweepExecutor()
        with pytest.raises(NotImplementedError):
            executor.open(_square)


# -- sweep_grid integration ---------------------------------------------------

@pytest.fixture(scope="module")
def pedagogical():
    return load("pedagogical")


@pytest.fixture(scope="module")
def pedagogical_bet(pedagogical):
    from repro.bet import build_bet
    program, inputs = pedagogical
    return build_bet(program, inputs=inputs)


@pytest.fixture(scope="module")
def small_grid():
    return {"cores": [2.0, 4.0, 8.0], "bandwidth": [2e10, 4e10]}


def _grid_key(result):
    return [(point.overrides["cores"], point.overrides["bandwidth"],
             point.runtime, point.memory_fraction, tuple(point.ranking))
            for point in result.points]


class TestSweepGridExecutors:
    def test_every_executor_is_bit_identical(self, pedagogical_bet,
                                             small_grid):
        results = {}
        for spec in ("serial", "multinode", None):
            results[spec] = sweep_grid(
                pedagogical_bet, XEON_E5_2420, small_grid,
                executor=spec, shards=4 if spec else None)
        baseline = _grid_key(results[None])
        assert _grid_key(results["serial"]) == baseline
        assert _grid_key(results["multinode"]) == baseline
        assert results["serial"].executor == "serial"
        assert results[None].executor == ""
        assert results["serial"].shard_stats["shards_planned"] > 0

    def test_point_failures_keep_legacy_semantics(self, pedagogical_bet,
                                                  small_grid):
        # a point that fails validation inside a healthy shard surfaces
        # as the same PointFailure record the unsharded path produces
        bad = dict(small_grid)
        bad["cores"] = [2.0, -4.0, 8.0]     # -4 cores fails validation
        legacy = sweep_grid(pedagogical_bet, XEON_E5_2420, bad)
        sharded = sweep_grid(pedagogical_bet, XEON_E5_2420, bad,
                             executor="serial", shards=6)
        assert [(f.index, f.error_type) for f in sharded.failures] \
            == [(f.index, f.error_type) for f in legacy.failures]
        assert len(sharded.points) == len(legacy.points) == 4
        assert sharded.shard_stats["shards_quarantined"] == 0.0

    def test_quarantined_shard_becomes_point_failures(self, pedagogical_bet,
                                                      small_grid):
        # four kills on the same shard exhaust the reassign limit (3):
        # the shard is quarantined and its points become failure records
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0, attempt=a)
                               for a in range(1, 6)])
        result = sweep_grid(pedagogical_bet, XEON_E5_2420, small_grid,
                            executor="serial", shards=3, chaos=chaos)
        assert result.failures
        assert all(isinstance(f, PointFailure) for f in result.failures)
        assert all("quarantined" in f.message for f in result.failures)
        assert all(f.error_type == "WorkerCrashError"
                   for f in result.failures)
        assert len(result.points) + len(result.failures) == 6
        assert result.shard_stats["shards_quarantined"] == 1.0

    def test_strict_mode_raises_on_quarantine(self, pedagogical_bet,
                                              small_grid):
        chaos = ChaosSchedule([ChaosEvent("kill", shard=0, attempt=a)
                               for a in range(1, 6)])
        with pytest.raises(ShardQuarantinedError):
            sweep_grid(pedagogical_bet, XEON_E5_2420, small_grid,
                       executor="serial", shards=3, chaos=chaos,
                       strict=True)

    def test_export_carries_executor_fields(self, pedagogical_bet,
                                            small_grid):
        from repro.export import grid_to_dict
        result = sweep_grid(pedagogical_bet, XEON_E5_2420, small_grid,
                            executor="serial", shards=2)
        payload = grid_to_dict(result)
        assert payload["executor"] == "serial"
        assert payload["shard_stats"]["shards_planned"] == 2.0
        assert payload["schema_version"] == 2

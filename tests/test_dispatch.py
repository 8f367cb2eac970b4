"""Tests for the engine's one dispatch route (`repro.parallel.engine`):
every sweep ships chunks of points as shards on the `ShardScheduler`, so
a point's fault means the same on every route and executor.

* the per-point fault contract on a mixed machine x input grid, with
  and without a named executor (no retry policy: exactly one execution
  whatever `timeout` or `strict` say; `retry_on` honoured; `strict`
  fails fast in point order);
* the default executor (`workers=2`, none named): hung cells, strict
  timeouts, hung-worker reaping, pickling fallbacks, cross-process
  retries, and hosts that cannot start worker processes;
* the warm pool: a hung sweep's pool is never kept; work that names a
  global defined, redefined or replaced after the warm workers forked,
  or anything from `__main__`, reruns on freshly forked workers;
* threads sweeping one program in-process each bind their own tape;
* per-item serial runs checkpoint each cell as it finishes, and a
  lane-array chunk is written once, whatever its size;
* checkpoints written by the earlier `resilient_map`-based engine
  (commit d5cc2b2) under `tests/fixtures/legacy_checkpoints/`, made by
  running each sweep below once with `checkpoint=` on that commit, and
  one vector-backend input sweep written by `sweep_inputs`' own chunk
  task before input sweeps joined the cell route (commit 8721640), and
  one checkpointed `explore` run written while sweeps still took an
  `entry` option (commit c41f614).
"""

import dataclasses
import errno
import multiprocessing
import os
import shutil
import subprocess
import sys
import textwrap
import threading
import time
import types

import pytest

from repro.analysis.sensitivity import sweep_machine
from repro.bet import build_bet
from repro.errors import (
    CheckpointError, EnvelopeCorruptError, RetryExhaustedError,
    TaskTimeoutError,
)
from repro.hardware import BGQ, RooflineModel
from repro.parallel import (
    CallRecorder, FaultInjector, PoolExecutor, RetryPolicy, SerialExecutor,
    ShardEnvelope, ShardScheduler, SweepCheckpoint, analyze_matrix,
    evaluate_cells, sweep_grid, sweep_inputs,
)
from repro.parallel import executors
from repro.parallel.engine import _auto_chunk_size
from repro.parallel.pool import close_idle_pool, take_pool
from repro.workloads import load

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures",
                        "legacy_checkpoints")

#: three cells with distinct machines (so one model build each) and one
#: input binding: the mixed grid route
MIXED = {"bandwidth": [10e9, 20e9, 30e9], "input:n": [100.0]}


@pytest.fixture(scope="module")
def pedagogical():
    return load("pedagogical")


@pytest.fixture(scope="module")
def pedagogical_bet(pedagogical):
    program, inputs = pedagogical
    return build_bet(program, inputs=inputs)


def _signature(result):
    return [(p.overrides, p.machine.name, p.runtime, tuple(p.ranking),
             p.top_label, p.memory_fraction) for p in result.points]


# -- module-level model factories (must pickle into pool workers) -------------

class _HangOn:
    """Model factory that hangs on cells with one bandwidth."""

    def __init__(self, bandwidth, seconds=60.0):
        self.bandwidth = bandwidth
        self.seconds = seconds

    def __call__(self, machine):
        if machine.bandwidth == self.bandwidth:
            time.sleep(self.seconds)   # far past any test deadline
        return RooflineModel(machine)


class _PickleCounter:
    """Model factory counting its parent-side pickles (class tally)."""

    events = 0

    def __call__(self, machine):
        return RooflineModel(machine)

    def __getstate__(self):
        type(self).events += 1
        return {}

    def __setstate__(self, state):
        pass


class _InterruptAt:
    """Model factory that notes how many cells the checkpoint file holds,
    then interrupts the sweep (Ctrl-C), at the cell with one bandwidth."""

    def __init__(self, bandwidth, path):
        self.bandwidth = bandwidth
        self.path = path
        self.on_disk = None

    def __call__(self, machine):
        if machine.bandwidth == self.bandwidth:
            self.on_disk = len(SweepCheckpoint.load(self.path, "k",
                                                    resume=True))
            raise KeyboardInterrupt
        return RooflineModel(machine)


class _ForkRefused:
    """Stands in for `ProcessPoolExecutor` on a host that refuses to fork:
    the pool object builds, but starting its workers fails.  ``starts``
    counts the attempts."""

    starts = 0

    def __init__(self, max_workers=None):
        self._processes = {}

    def submit(self, *args, **kwargs):
        type(self).starts += 1
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _pool_refused(max_workers=None):
    """Stands in for `ProcessPoolExecutor` where a sandbox forbids even
    building the pool."""
    _pool_refused.starts += 1
    raise PermissionError(errno.EPERM, "Operation not permitted")


_pool_refused.starts = 0


def _slow_square(item):
    time.sleep(0.3)
    return [value * value for value in item]


def _frame_depth(_item):
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _pool_depth_from(extra_frames):
    if extra_frames:
        return _pool_depth_from(extra_frames - 1)
    close_idle_pool()           # fork this call's worker, at this depth
    run = ShardScheduler(PoolExecutor(workers=1)).run(_frame_depth, [0])
    return run.results[0]


def _refuse_load():
    raise RuntimeError("this factory does not load in a worker")


class _LoadsNowhere:
    """Model factory that pickles but cannot be unpickled."""

    def __call__(self, machine):
        return RooflineModel(machine)

    def __reduce__(self):
        return (_refuse_load, ())


#: a module the tests add to ``sys.modules`` after the pool is warm
_LATE_MODULE = """
from repro.hardware import RooflineModel


class LateRoofline:
    \"\"\"A model factory defined after the pool's workers forked.\"\"\"

    def __call__(self, machine):
        return RooflineModel(machine)
"""


#: a module the tests define, run on the warm pool, then define again
#: with another ``scale``
_VERSIONED_MODULE = """
from dataclasses import replace

from repro.hardware import RooflineModel


class Versioned:
    \"\"\"A model factory whose definition the tests change.\"\"\"

    def __call__(self, machine):
        return versioned(machine)


def versioned(machine):
    return RooflineModel(replace(machine,
                                 bandwidth=machine.bandwidth * {scale}))
"""

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


#: a lambda pickles by name, and ``<lambda>`` names nothing importable
_UNPICKLABLE_FACTORY = lambda machine: RooflineModel(machine)  # noqa: E731


def _live_children():
    return [child for child in multiprocessing.active_children()
            if child.is_alive()]


def _wait_for_children(baseline, seconds=10.0):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        leaked = _live_children()
        if len(leaked) <= baseline:
            return leaked
        time.sleep(0.1)
    return _live_children()


# -- one fault contract on every route ----------------------------------------

@pytest.mark.parametrize("executor", [None, "serial"])
class TestPointFaultContract:
    def _run(self, pedagogical, tmp_path, executor, **kwargs):
        program, inputs = pedagogical
        recorder = CallRecorder(str(tmp_path / "builds.log"))
        factory = FaultInjector(RooflineModel, fail_on={2},
                                error=kwargs.pop("error", None),
                                recorder=recorder)
        result = sweep_grid(None, BGQ, MIXED, program=program,
                            inputs=inputs, backend="scalar",
                            model_factory=factory, executor=executor,
                            **kwargs)
        return result, recorder

    def test_timeout_without_policy_runs_each_cell_once(
            self, pedagogical, tmp_path, executor):
        result, recorder = self._run(pedagogical, tmp_path, executor,
                                     timeout=30)
        assert len(result.points) == 2
        assert [(f.index, f.attempts) for f in result.failures] == [(1, 1)]
        assert result.failures[0].item == \
            "bandwidth=20000000000.0|input:n=100.0"
        assert recorder.count() == 3

    def test_strict_fails_fast_at_the_failing_cell(
            self, pedagogical, tmp_path, executor):
        with pytest.raises(RetryExhaustedError) as info:
            self._run(pedagogical, tmp_path, executor, strict=True)
        assert info.value.index == 1
        assert info.value.attempts == 1
        # in-process: chained from the live exception
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_retry_on_is_honoured(self, pedagogical, tmp_path, executor):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0,
                             retry_on=(KeyError,))
        result, recorder = self._run(pedagogical, tmp_path, executor,
                                     error=ValueError, policy=policy)
        assert len(result.points) == 2
        assert [(f.index, f.error_type, f.attempts)
                for f in result.failures] == [(1, "ValueError", 1)]
        assert recorder.count() == 3

    def test_retryable_fault_heals(self, pedagogical, tmp_path, executor):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        result, recorder = self._run(pedagogical, tmp_path, executor,
                                     policy=policy)
        assert len(result.points) == 3 and not result.failures
        assert recorder.count() == 4


def test_scheduler_does_not_retry_a_fault_outside_retry_on():
    calls = []

    def poison(item):
        calls.append(item)
        raise ValueError("not retryable")

    policy = RetryPolicy(max_attempts=3, base_delay=0.0,
                         retry_on=(KeyError,))
    run = ShardScheduler(SerialExecutor(), policy=policy).run(poison, [0])
    assert len(calls) == 1
    assert run.quarantined[0].error_type == "ValueError"
    assert run.quarantined[0].attempts == 1


def test_serial_strict_stops_before_later_points(pedagogical, tmp_path):
    """Nothing after the exhausted point is evaluated or checkpointed."""
    program, inputs = pedagogical
    path = str(tmp_path / "grid.json")
    recorder = CallRecorder(str(tmp_path / "builds.log"))
    factory = FaultInjector(RooflineModel, fail_on={2}, recorder=recorder)
    grid = {"bandwidth": [10e9, 20e9, 30e9, 40e9], "input:n": [100.0]}
    with pytest.raises(RetryExhaustedError):
        sweep_grid(None, BGQ, grid, program=program, inputs=inputs,
                   backend="scalar", model_factory=factory, strict=True,
                   checkpoint=path, checkpoint_key="k")
    assert recorder.count() == 2
    assert len(SweepCheckpoint.load(path, "k", resume=True)) == 1


def test_attempts_are_keyed_by_global_index(pedagogical_bet, tmp_path,
                                             monkeypatch):
    """A resumed sweep's pending points keep their global indices, which
    key the retry backoff."""
    from repro.parallel import engine, run_point
    path = str(tmp_path / "grid.json")
    grid = {"bandwidth": [10e9, 20e9, 30e9, 40e9, 50e9]}
    sweep_grid(pedagogical_bet, BGQ, {"bandwidth": grid["bandwidth"][:3]},
               checkpoint=path, checkpoint_key="k")
    seen = []

    def spy(fn, item, index, policy=None):
        seen.append(index)
        return run_point(fn, item, index, policy)

    monkeypatch.setattr(engine, "run_point", spy)
    resumed = sweep_grid(pedagogical_bet, BGQ, grid, checkpoint=path,
                         checkpoint_key="k", resume=True)
    assert seen == [3, 4]
    assert resumed.timings["resumed"] == 3.0


def test_interrupted_serial_grid_keeps_finished_cells(pedagogical_bet,
                                                     tmp_path):
    """A machine-only serial run writes each cell to the checkpoint as it
    finishes, not when the sweep ends."""
    path = str(tmp_path / "grid.json")
    grid = {"bandwidth": [10e9, 20e9, 30e9, 40e9]}
    factory = _InterruptAt(30e9, path)
    with pytest.raises(KeyboardInterrupt):
        sweep_grid(pedagogical_bet, BGQ, grid, model_factory=factory,
                   checkpoint=path, checkpoint_key="k")
    assert factory.on_disk == 2          # on disk before the interrupt
    resumed = sweep_grid(pedagogical_bet, BGQ, grid,
                         model_factory=_InterruptAt(None, path),
                         checkpoint=path, checkpoint_key="k", resume=True)
    assert resumed.timings["resumed"] == 2.0
    assert _signature(resumed) == \
        _signature(sweep_grid(pedagogical_bet, BGQ, grid))


@pytest.mark.parametrize("options, writes", [
    ({}, 1),
    ({"executor": "serial", "shards": 4}, 4),
], ids=["one-chunk", "four-shards"])
def test_checkpoint_is_written_once_per_settled_chunk(
        pedagogical, tmp_path, monkeypatch, options, writes):
    """A serial 200-point input sweep is one lane-array chunk, or four
    with ``shards=4``: its checkpoint is written once per chunk, not
    once per point, and the closing flush writes nothing more."""
    program, inputs = pedagogical
    path = str(tmp_path / "sweep.json")
    published = []
    replace = os.replace

    def counting_replace(source, target):
        if os.fspath(target) == path:
            published.append(source)
        return replace(source, target)

    monkeypatch.setattr(os, "replace", counting_replace)
    axes = {"n": [float(n) for n in range(64, 264)]}
    result = sweep_inputs(program, BGQ, axes, base_inputs=inputs,
                          checkpoint=path, checkpoint_key="k", **options)
    assert len(result.points) == 200 and not result.failures
    assert len(published) == writes
    assert len(SweepCheckpoint.load(path, "k", resume=True)) == 200


def test_dispatch_state_is_freed_without_the_cycle_collector(
        pedagogical_bet):
    """A sweep's dispatch closures (which hold every item and result) die
    when the sweep returns, not at the next cyclic collection."""
    import gc

    def live_dispatchers():
        return [obj for obj in gc.get_objects()
                if getattr(obj, "__qualname__", "")
                == "_run_chunked.<locals>.dispatch"]

    gc.collect()
    gc.disable()
    try:
        sweep_grid(pedagogical_bet, BGQ, {"bandwidth": [10e9, 20e9]})
        assert live_dispatchers() == []
    finally:
        gc.enable()


def test_sealed_envelope_with_an_empty_payload_fails_its_check():
    envelope = ShardEnvelope.pack(4, 1, "pool-0", [1, 2])
    with pytest.raises(EnvelopeCorruptError):
        dataclasses.replace(envelope, data=b"").unpack()


# -- chunk sizing -------------------------------------------------------------

class TestChunking:
    def test_per_item_routes_skip_the_input_floor(self):
        assert _auto_chunk_size(32, 4) == 16
        assert _auto_chunk_size(32, 4, floor=1) == 2

    def test_one_worker_ships_per_item_work_one_point_a_chunk(self):
        assert _auto_chunk_size(32, 1) == 32
        assert _auto_chunk_size(32, 1, floor=1) == 1

    def test_machine_only_grid_fills_every_worker(self, pedagogical_bet):
        # 32 scalar cells on an 8-worker simulated cluster: one cell per
        # shard, not two 16-cell shards
        grid = {"bandwidth": [(5 + i) * 1e9 for i in range(8)],
                "frequency_hz": [1e9, 1.5e9, 2e9, 2.5e9]}
        result = sweep_grid(pedagogical_bet, BGQ, grid,
                            executor="multinode", backend="scalar")
        assert result.shard_stats["shards_planned"] == 32.0
        assert _signature(result) == \
            _signature(sweep_grid(pedagogical_bet, BGQ, grid))
        # as machine lanes (auto) the grid is one lane array: a chunk
        # is not split below VECTOR_MIN_POINTS cells
        lanes = sweep_grid(pedagogical_bet, BGQ, grid,
                           executor="multinode")
        assert lanes.backend == "vector"
        assert lanes.shard_stats["shards_planned"] == 1.0
        assert _signature(lanes) == _signature(result)

    def test_default_executor_reports_no_shards(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 20e9]}, workers=2)
        assert result.executor == "" and result.shard_stats == {}


# -- the default executor across processes ------------------------------------

GRID4 = {"bandwidth": [10e9, 20e9, 30e9, 40e9]}


class TestDefaultPoolExecutor:
    def test_hung_cell_fails_alone(self, pedagogical_bet):
        started = time.perf_counter()
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            timeout=0.3, model_factory=_HangOn(30e9))
        assert time.perf_counter() - started < 20.0
        assert [(f.index, f.error_type, f.attempts)
                for f in result.failures] == [(2, "TaskTimeoutError", 1)]
        assert "0.3" in result.failures[0].message
        serial = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 20e9, 40e9]})
        assert _signature(result) == _signature(serial)

    def test_hung_cell_in_a_chunk_is_resubmitted_alone(self, pedagogical):
        # two 2-cell chunks: the one holding the hang times out as a
        # whole, and its cells are resubmitted as shards of one
        program, inputs = pedagogical
        grid = {"bandwidth": [10e9, 20e9, 30e9, 40e9], "input:n": [100.0]}
        result = sweep_grid(None, BGQ, grid, program=program,
                            inputs=inputs, backend="scalar", workers=2,
                            executor="pool", shards=2, timeout=0.3,
                            model_factory=_HangOn(30e9))
        assert [(f.index, f.error_type) for f in result.failures] == \
            [(2, "TaskTimeoutError")]
        clean = sweep_grid(None, BGQ, grid, program=program,
                           inputs=inputs, backend="scalar")
        assert _signature(result) == \
            [row for index, row in enumerate(_signature(clean))
             if index != 2]

    def test_more_hangs_than_workers_still_finish(self, pedagogical_bet):
        grid = {"bandwidth": [30e9, 10e9, 30e9, 20e9, 30e9]}
        result = sweep_grid(pedagogical_bet, BGQ, grid, workers=2,
                            timeout=0.3, model_factory=_HangOn(30e9))
        assert [f.index for f in result.failures] == [0, 2, 4]
        assert len(result.points) == 2

    def test_strict_timeout_names_the_cell(self, pedagogical_bet):
        with pytest.raises(TaskTimeoutError) as info:
            sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                       timeout=0.3, strict=True,
                       model_factory=_HangOn(30e9))
        assert info.value.index == 2
        assert info.value.timeout == 0.3

    def test_hung_workers_do_not_outlive_the_sweep(self, pedagogical_bet):
        baseline = len(_live_children())
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            timeout=0.3, model_factory=_HangOn(30e9))
        assert result.failures
        leaked = _wait_for_children(baseline)
        assert len(leaked) <= baseline, leaked

    def test_unpicklable_factory_degrades_to_serial(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            model_factory=_UNPICKLABLE_FACTORY)
        assert not result.failures
        assert _signature(result) == \
            _signature(sweep_grid(pedagogical_bet, BGQ, GRID4))

    def test_named_pool_quarantines_unpicklable_work(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            executor="pool",
                            model_factory=_UNPICKLABLE_FACTORY)
        assert not result.points
        assert [f.error_type for f in result.failures] == \
            ["PicklingError"] * 4

    def test_pickle_probe_pickles_one_payload(self, pedagogical_bet):
        # four one-cell chunks on two workers: one probe + four submits
        _PickleCounter.events = 0
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            model_factory=_PickleCounter())
        assert len(result.points) == 4
        assert _PickleCounter.events == 4 + 1

    def test_transient_fault_heals_across_processes(self, pedagogical_bet,
                                                    tmp_path):
        # each shipped chunk unpickles a fresh injector, so the first
        # build in every one-cell chunk fails and its retry succeeds
        recorder = CallRecorder(str(tmp_path / "builds.log"))
        factory = FaultInjector(RooflineModel, fail_on={1},
                                recorder=recorder)
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            model_factory=factory,
                            policy=RetryPolicy(max_attempts=2,
                                               base_delay=0.0))
        assert not result.failures
        assert recorder.count() == 2 * 4      # two attempts per cell
        assert _signature(result) == \
            _signature(sweep_grid(pedagogical_bet, BGQ, GRID4))

    def test_exhausted_retries_report_their_attempts(self, pedagogical_bet):
        factory = FaultInjector(RooflineModel, fail_on={1, 2})
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            model_factory=factory,
                            policy=RetryPolicy(max_attempts=2,
                                               base_delay=0.0))
        assert [f.attempts for f in result.failures] == [2, 2, 2, 2]
        assert all(f.exception is None for f in result.failures)

    def test_strict_failure_raises_across_processes(self, pedagogical_bet):
        grid = {"bandwidth": [10e9, 20e9, -5e9, 40e9]}
        with pytest.raises(RetryExhaustedError) as info:
            sweep_grid(pedagogical_bet, BGQ, grid, workers=2, strict=True)
        assert info.value.index == 2

    def test_long_shard_is_not_a_stalled_executor(self, monkeypatch):
        # the idle watchdog counts polls without events; a shard that
        # outlasts 64 polls is still running, not stalled
        monkeypatch.setattr(PoolExecutor, "TICK", 0.001)
        run = ShardScheduler(PoolExecutor(workers=1)).run(
            _slow_square, [[1, 2], [3]])
        assert run.ok and run.results == {0: [1, 4], 1: [9]}

    def test_workers_start_at_the_same_depth(self):
        # workers fork from a fresh thread: how deep the sweep was called
        # does not reach the worker's frame stack
        assert _pool_depth_from(0) == _pool_depth_from(100)

    def test_matrix_failure_keeps_its_slot(self):
        from repro.experiments import clear_cache
        clear_cache()
        bad = BGQ.with_overrides(name="bad-node")
        object.__setattr__(bad, "bandwidth", float("nan"))
        results = analyze_matrix(["pedagogical"], [BGQ, bad, BGQ],
                                 workers=2, strict=False)
        assert hasattr(results[0], "projected_total")
        assert results[1].index == 1
        assert results[1].error_type == "ValidationError"
        assert results[2].projected_total == results[0].projected_total


class TestPoolCannotStart:
    """A host that cannot start worker processes runs the default
    executor's work in-process."""

    @pytest.mark.parametrize("fake", [_ForkRefused, _pool_refused])
    def test_grid_finishes_in_process(self, pedagogical_bet, monkeypatch,
                                      fake):
        serial = sweep_grid(pedagogical_bet, BGQ, GRID4)
        monkeypatch.setattr(executors, "ProcessPoolExecutor", fake)
        monkeypatch.setattr(fake, "starts", 0)
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2)
        assert fake.starts >= 1
        assert not result.failures
        assert _signature(result) == _signature(serial)

    def test_strict_matrix_finishes_in_process(self, monkeypatch):
        from repro.experiments import clear_cache
        machines = [BGQ, BGQ.with_overrides(name="bgq-2x",
                                            bandwidth=2 * BGQ.bandwidth)]
        clear_cache()
        serial = analyze_matrix(["pedagogical"], machines)
        clear_cache()
        monkeypatch.setattr(executors, "ProcessPoolExecutor", _ForkRefused)
        monkeypatch.setattr(_ForkRefused, "starts", 0)
        fanned = analyze_matrix(["pedagogical"], machines, workers=2)
        assert _ForkRefused.starts >= 1
        assert [r.projected_total for r in fanned] == \
            [r.projected_total for r in serial]

    def test_start_errors_reach_the_caller(self, monkeypatch):
        monkeypatch.setattr(executors, "ProcessPoolExecutor", _ForkRefused)
        monkeypatch.setattr(_ForkRefused, "starts", 0)
        with pytest.raises(OSError) as info:
            executors._start_pool(2)
        assert _ForkRefused.starts == 1
        assert info.value.errno == errno.EAGAIN

    def test_named_pool_raises_the_error(self, pedagogical_bet,
                                         monkeypatch):
        monkeypatch.setattr(executors, "ProcessPoolExecutor", _ForkRefused)
        monkeypatch.setattr(_ForkRefused, "starts", 0)
        with pytest.raises(OSError):
            sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                       executor="pool")
        assert _ForkRefused.starts == 1


class TestWarmPoolDispatch:
    """A pool outlives its sweep only when nothing is wrong with it."""

    MIXED16 = {"bandwidth": [(10 + i) * 1e9 for i in range(8)],
               "input:n": [100.0, 200.0]}

    def test_hung_sweep_pool_is_not_kept(self, pedagogical_bet):
        baseline = len(_live_children())
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            timeout=0.3, model_factory=_HangOn(30e9))
        assert [f.index for f in result.failures] == [2]
        assert take_pool(2) is None
        leaked = _wait_for_children(baseline)
        assert len(leaked) <= baseline, leaked

    def test_factory_defined_after_the_fork_reruns_on_fresh_workers(
            self, pedagogical, monkeypatch, capfd):
        program, inputs = pedagogical
        run = dict(program=program, inputs=inputs, executor="pool",
                   workers=2)
        assert not sweep_grid(None, BGQ, self.MIXED16, **run).failures
        late = types.ModuleType("late_factory_module")
        exec(_LATE_MODULE, late.__dict__)
        monkeypatch.setitem(sys.modules, late.__name__, late)
        result = sweep_grid(None, BGQ, self.MIXED16,
                            model_factory=late.LateRoofline(), **run)
        serial = sweep_grid(None, BGQ, self.MIXED16, program=program,
                            inputs=inputs,
                            model_factory=late.LateRoofline())
        assert not result.failures
        assert _signature(result) == _signature(serial)
        assert result.shard_stats["executor_crashes"] == 0
        assert result.shard_stats["shard_reassignments"] == 0
        assert result.shard_stats["executor_pool_rebuilds"] == 1
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("factory", ["Versioned", "versioned"])
    def test_redefined_factory_reruns_on_fresh_workers(
            self, pedagogical_bet, monkeypatch, factory):
        # pickle names a class or function; a warm worker would find its
        # own definition under that name, the one before the change
        module = types.ModuleType("versioned_factory_module")
        monkeypatch.setitem(sys.modules, module.__name__, module)
        exec(_VERSIONED_MODULE.format(scale=1.0), module.__dict__)

        def sweep(**kwargs):
            model_factory = getattr(module, factory)
            if isinstance(model_factory, type):
                model_factory = model_factory()
            return sweep_grid(pedagogical_bet, BGQ, GRID4,
                              model_factory=model_factory, **kwargs)

        first = sweep(workers=2, executor="pool")
        exec(_VERSIONED_MODULE.format(scale=0.25), module.__dict__)
        second = sweep(workers=2, executor="pool")
        assert not first.failures and not second.failures
        assert _signature(second) == _signature(sweep())
        assert _signature(second) != _signature(first)
        assert second.shard_stats["executor_crashes"] == 0
        assert second.shard_stats["shard_reassignments"] == 0
        assert second.shard_stats["executor_pool_rebuilds"] == 1
        third = sweep(workers=2, executor="pool")
        assert _signature(third) == _signature(second)
        assert third.shard_stats["executor_pool_rebuilds"] == 0

    def test_main_definitions_always_run_on_fresh_workers(self):
        # a script's helper that its factory calls is not named by the
        # pickle, so nothing from __main__ runs on a warm worker
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {SRC!r})
            from dataclasses import replace
            from repro.hardware import BGQ, RooflineModel
            from repro.parallel import sweep_grid
            from repro.workloads import load

            def scaled(machine):
                return machine

            def factory(machine):
                return RooflineModel(scaled(machine))

            program, inputs = load("pedagogical")
            grid = {{"bandwidth": [10e9, 20e9, 30e9, 40e9],
                     "input:n": [100.0, 200.0]}}

            def runtimes(**kwargs):
                result = sweep_grid(None, BGQ, grid, program=program,
                                    inputs=inputs, model_factory=factory,
                                    **kwargs)
                assert not result.failures
                return [point.runtime for point in result.points]

            first = runtimes(workers=2, executor="pool")

            def scaled(machine):
                return replace(machine, bandwidth=machine.bandwidth / 4)

            second = runtimes(workers=2, executor="pool")
            assert second != first
            assert second == runtimes()
            print("ok")
        """)
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]

    def test_work_no_worker_can_load_fails_like_a_raising_task(
            self, pedagogical_bet):
        assert not sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                              executor="pool").failures
        result = sweep_grid(pedagogical_bet, BGQ, GRID4, workers=2,
                            executor="pool", model_factory=_LoadsNowhere())
        assert not result.points
        assert [(f.error_type, f.attempts) for f in result.failures] == \
            [("RuntimeError", 1)] * 4
        assert "does not load" in result.failures[0].message
        assert result.shard_stats["executor_crashes"] == 0
        assert result.shard_stats["executor_pool_rebuilds"] == 1


def test_threads_sweeping_one_program_bind_their_own_tapes():
    """In-process sweeps share the resident tape of a program; a thread
    checks it out for a chunk, so concurrent sweeps of one program never
    replay on each other's tree."""
    program, inputs = load("cfd")
    name, base = next(iter(inputs.items()))

    def points(offset):
        return [{name: base * (0.5 + (index + offset) / 10)}
                for index in range(10)]

    def signature(offset):
        result = sweep_inputs(program, BGQ, points(offset),
                              base_inputs=inputs, backend="scalar")
        return [(p.inputs, p.runtime, tuple(p.ranking))
                for p in result.points]

    expected = {offset: signature(offset) for offset in range(3)}
    wrong = []

    def sweep(offset):
        for _ in range(5):
            if signature(offset) != expected[offset]:
                wrong.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep, args=(offset,))
                   for offset in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# -- checkpoints written by the earlier engine --------------------------------

def _legacy(tmp_path, name):
    path = str(tmp_path / name)
    shutil.copy(os.path.join(FIXTURES, name), path)
    return path


class TestLegacyCheckpoints:
    GRID = {"bandwidth": [10e9, 20e9, 30e9], "frequency_hz": [1e9, 2e9]}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_machine_grid_resumes_everything(self, pedagogical_bet,
                                             tmp_path, workers):
        path = _legacy(tmp_path, "sweep_grid.json")
        resumed = sweep_grid(pedagogical_bet, BGQ, self.GRID,
                             checkpoint=path, resume=True, workers=workers)
        assert resumed.timings["resumed"] == 6.0
        assert _signature(resumed) == \
            _signature(sweep_grid(pedagogical_bet, BGQ, self.GRID))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_grid_resumes_everything(self, pedagogical, tmp_path,
                                           workers):
        program, inputs = pedagogical
        grid = {"input:n": [100.0, 200.0], "bandwidth": [10e9, 20e9, 30e9]}
        path = _legacy(tmp_path, "sweep_grid_mixed.json")
        resumed = sweep_grid(None, BGQ, grid, program=program,
                             inputs=inputs, checkpoint=path, resume=True,
                             workers=workers)
        assert resumed.timings["resumed"] == 6.0
        assert _signature(resumed) == _signature(sweep_grid(
            None, BGQ, grid, program=program, inputs=inputs))

    def test_cell_list_resumes_everything(self, pedagogical, tmp_path):
        program, inputs = pedagogical
        cells = [{"bandwidth": 10e9, "input:n": 100.0},
                 {"bandwidth": 20e9, "input:n": 300.0},
                 {"bandwidth": 10e9, "input:n": 500.0},
                 {"frequency_hz": 2e9, "input:n": 100.0}]
        path = _legacy(tmp_path, "evaluate_cells.json")
        resumed = evaluate_cells(BGQ, cells, program=program,
                                 inputs=inputs, checkpoint=path,
                                 resume=True, workers=2)
        assert resumed.timings["resumed"] == 4.0
        assert _signature(resumed) == _signature(evaluate_cells(
            BGQ, cells, program=program, inputs=inputs))

    def test_input_sweep_resumes_everything(self, pedagogical, tmp_path):
        program, inputs = pedagogical
        axes = {"n": [64.0, 128.0, 256.0, 512.0, 1024.0]}
        path = _legacy(tmp_path, "sweep_inputs.json")
        resumed = sweep_inputs(program, BGQ, axes, base_inputs=inputs,
                               checkpoint=path, resume=True, workers=2)
        assert resumed.timings["resumed"] == 5.0
        fresh = sweep_inputs(program, BGQ, axes, base_inputs=inputs)
        assert [(p.inputs, p.runtime, p.ranking) for p in resumed.points] \
            == [(p.inputs, p.runtime, p.ranking) for p in fresh.points]

    def test_vector_input_sweep_resumes_everything(self, pedagogical,
                                                   tmp_path):
        # backend "vector", records keyed by the unprefixed bindings
        # ("n=64.0") and payloads without "overrides"
        program, inputs = pedagogical
        axes = {"n": [32.0, 64.0, 96.0, 128.0, 192.0, 256.0, 384.0,
                      512.0]}
        path = _legacy(tmp_path, "sweep_inputs_vector.json")
        resumed = sweep_inputs(program, BGQ, axes, base_inputs=inputs,
                               checkpoint=path, resume=True)
        assert resumed.backend == "vector"
        assert resumed.timings["resumed"] == 8.0
        assert resumed.timings["project"] == 0.0
        fresh = sweep_inputs(program, BGQ, axes, base_inputs=inputs)
        assert [dataclasses.asdict(p) for p in resumed.points] == \
            [dataclasses.asdict(p) for p in fresh.points]

    def test_explore_resumes_everything(self, pedagogical, tmp_path):
        # backend "vector" throughout, so every round of the run matches
        # the checkpoint's one settings record
        from repro.explore import explore
        program, inputs = pedagogical
        axes = {"bandwidth": [10e9, 20e9, 30e9, 40e9],
                "frequency_hz": [1e9, 2e9],
                "input:n": [64.0, 128.0, 256.0, 512.0]}

        def run(**options):
            return explore(axes, BGQ, ["runtime", "bandwidth:min"],
                           program=program, inputs=inputs, budget=16,
                           rounds=2, seed=3, backend="vector", **options)

        path = _legacy(tmp_path, "explore.json")
        resumed = run(checkpoint=path, resume=True)
        assert resumed.evaluations == 16
        stats = resumed.cache_stats
        assert stats["lanes_vectorized"] == stats["lanes_fallback"] == 0
        assert stats["bet_builds"] == stats["bet_replays"] == 0
        assert [point.index for point in resumed.frontier] == [28, 12, 4]
        assert [point.as_dict() for point in resumed.frontier] == \
            [point.as_dict() for point in run().frontier]

    def test_sweep_machine_checkpoint_is_refused_with_a_code(
            self, pedagogical_bet, tmp_path):
        path = _legacy(tmp_path, "sweep_machine.json")
        with pytest.raises(CheckpointError, match="SKOP706"):
            sweep_machine(pedagogical_bet, BGQ, "bandwidth",
                          [10e9, 20e9, 30e9], checkpoint=path, resume=True)

    def test_runs_without_an_executor_still_record_legacy(
            self, pedagogical_bet, tmp_path):
        import json
        path = str(tmp_path / "grid.json")
        sweep_grid(pedagogical_bet, BGQ, self.GRID, checkpoint=path,
                   workers=2)
        with open(path, encoding="utf-8") as handle:
            settings = json.load(handle)["settings"]
        assert settings["executor"] == "legacy"

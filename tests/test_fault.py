"""Tests for the resilience layer (`repro.parallel.fault`): failure
isolation, deterministic retry/backoff, per-point timeouts,
checkpoint/resume, and the fault-injection harness itself — plus the
acceptance scenarios from the issue (poisoned grid, kill-and-resume).
"""

import os
import pickle
import time

import pytest

from repro.analysis.sensitivity import sweep_machine
from repro.bet import build_bet
from repro.errors import CheckpointError, ReproError, RetryExhaustedError
from repro.hardware import BGQ, RooflineModel
from repro.parallel import (
    NO_RETRY, CallRecorder, FaultInjector, PointFailure, RetryPolicy,
    SweepCheckpoint, overrides_key, run_point, sweep_grid, sweep_key,
)
from repro.workloads import load


@pytest.fixture(scope="module")
def pedagogical_bet():
    program, inputs = load("pedagogical")
    return build_bet(program, inputs=inputs)


# -- module-level workers (must pickle into pool processes) -------------------

def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x * x


# -- RetryPolicy ---------------------------------------------------------------

class TestRetryPolicy:
    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.05,
                             multiplier=2.0, max_delay=10.0)
        assert policy.schedule() == [0.05, 0.1, 0.2]

    def test_max_delay_caps_growth(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0,
                             multiplier=4.0, max_delay=2.0)
        assert policy.schedule() == [1.0, 2.0, 2.0, 2.0]

    def test_jitter_is_deterministic_per_index(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.5)
        assert policy.schedule(index=7) == policy.schedule(index=7)
        assert policy.schedule(index=7) != policy.schedule(index=8)
        for index in range(5):
            for delay, raw in zip(policy.schedule(index),
                                  RetryPolicy(max_attempts=3,
                                              base_delay=0.1).schedule()):
                assert raw <= delay <= raw * 1.5

    def test_no_retry_has_empty_schedule(self):
        assert NO_RETRY.schedule() == []
        assert NO_RETRY.max_attempts == 1

    def test_should_retry_respects_types_and_budget(self):
        policy = RetryPolicy(max_attempts=3, retry_on=(ValueError,))
        assert policy.should_retry(ValueError("x"), 1)
        assert policy.should_retry(ValueError("x"), 2)
        assert not policy.should_retry(ValueError("x"), 3)
        assert not policy.should_retry(KeyError("x"), 1)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1.0},
        {"max_delay": -1.0},
        {"multiplier": 0.5},
        {"jitter": -0.1},
    ])
    def test_rejects_nonsense_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_policy_pickles(self):
        policy = RetryPolicy(max_attempts=3, jitter=0.25)
        assert pickle.loads(pickle.dumps(policy)) == policy


# -- run_point -----------------------------------------------------------------

class TestRunPoint:
    def test_success_reports_attempts(self):
        assert run_point(_square, 4, index=0) == ("ok", 16, 1)

    def test_failure_becomes_structured_record(self):
        status, failure = run_point(_fail_on_three, 3, index=9)
        assert status == "fail"
        assert failure.index == 9
        assert failure.error_type == "ValueError"
        assert failure.message == "bad item 3"
        assert failure.attempts == 1
        assert "ValueError: bad item 3" in failure.traceback
        assert "_fail_on_three" in failure.traceback

    def test_retry_succeeds_with_injected_sleep(self):
        injector = FaultInjector(_square, fail_on={1, 2})
        policy = RetryPolicy(max_attempts=3, base_delay=0.05)
        sleeps = []
        outcome = run_point(injector, 5, index=0, policy=policy,
                            sleep=sleeps.append)
        assert outcome == ("ok", 25, 3)
        assert sleeps == policy.schedule(index=0)

    def test_retry_exhaustion_keeps_last_error(self):
        injector = FaultInjector(_square, fail_on={1, 2, 3},
                                 error=KeyError)
        policy = RetryPolicy(max_attempts=3)
        status, failure = run_point(injector, 5, index=2, policy=policy,
                                    sleep=lambda _: None)
        assert status == "fail"
        assert failure.attempts == 3
        assert failure.error_type == "KeyError"

    def test_never_raises(self):
        status, failure = run_point(_square, "oops", index=0)
        assert status == "fail"
        assert failure.error_type == "TypeError"


# -- PointFailure --------------------------------------------------------------

class TestPointFailure:
    def test_from_exception_keeps_live_exception_locally(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            failure = PointFailure.from_exception(3, exc, attempts=2,
                                                  item="bandwidth=1")
        assert failure.exception is not None
        assert failure.error_type == "ValueError"
        assert "boom" in failure.traceback

    def test_pickle_drops_live_exception_keeps_data(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            failure = PointFailure.from_exception(3, exc, attempts=2)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.exception is None
        assert clone.as_dict() == failure.as_dict()
        assert "boom" in clone.traceback

    def test_render_is_one_actionable_line(self):
        failure = PointFailure(index=4, error_type="ValueError",
                               message="boom", traceback="", attempts=3,
                               item="bandwidth=0.0")
        text = failure.render()
        assert "FAILED point 4" in text
        assert "bandwidth=0.0" in text
        assert "ValueError: boom" in text
        assert "3 attempts" in text


# -- fault-injection harness ---------------------------------------------------

class TestFaultInjector:
    def test_fails_exactly_the_chosen_calls(self):
        injector = FaultInjector(_square, fail_on={2, 4})
        results = []
        for x in (1, 2, 3, 4):
            try:
                results.append(injector(x))
            except RuntimeError as exc:
                results.append(str(exc))
        assert results == [1, "injected fault (call 2)", 9,
                           "injected fault (call 4)"]

    def test_error_class_is_instantiated_instance_raised_as_is(self):
        with pytest.raises(KeyError):
            FaultInjector(_square, fail_on={1}, error=KeyError)(1)
        sentinel = ValueError("exact instance")
        with pytest.raises(ValueError) as info:
            FaultInjector(_square, fail_on={1}, error=sentinel)(1)
        assert info.value is sentinel

    def test_hang_on_sleeps_before_proceeding(self):
        injector = FaultInjector(_square, hang_on={1},
                                 hang_seconds=0.05)
        started = time.perf_counter()
        assert injector(3) == 9
        assert time.perf_counter() - started >= 0.05
        assert injector(3) == 9     # call 2: no hang

    def test_injector_pickles(self, tmp_path):
        recorder = CallRecorder(str(tmp_path / "calls.log"))
        injector = FaultInjector(_square, fail_on={3}, error=KeyError,
                                 recorder=recorder)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone(2) == 4
        assert clone.fail_on == frozenset({3})

    def test_call_recorder_counts_in_order(self, tmp_path):
        recorder = CallRecorder(str(tmp_path / "calls.log"))
        assert recorder.count() == 0
        recorder.record("a")
        recorder.record("b")
        assert recorder.count() == 2
        assert recorder.tags() == ["a", "b"]


# -- checkpoint / resume -------------------------------------------------------

class TestSweepCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        key = sweep_key("program", "machine")
        checkpoint = SweepCheckpoint(path, key)
        checkpoint.record("bandwidth=1.0", {"runtime": 2.5})
        loaded = SweepCheckpoint.load(path, key, resume=True)
        assert "bandwidth=1.0" in loaded
        assert loaded.get("bandwidth=1.0") == {"runtime": 2.5}
        assert len(loaded) == 1

    def test_resume_false_starts_fresh(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        key = sweep_key("a")
        SweepCheckpoint(path, key).record("cell", {"x": 1})
        fresh = SweepCheckpoint.load(path, key, resume=False)
        assert len(fresh) == 0

    def test_key_mismatch_refuses_to_resume(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        SweepCheckpoint(path, sweep_key("a")).record("cell", {"x": 1})
        with pytest.raises(CheckpointError) as info:
            SweepCheckpoint.load(path, sweep_key("b"), resume=True)
        assert "different" in str(info.value)

    def test_corrupt_file_salvages_with_diagnostic(self, tmp_path):
        # A mangled checkpoint no longer aborts the sweep: load() falls
        # back to an empty checkpoint and records a SKOP701 diagnostic.
        path = tmp_path / "ckpt.json"
        path.write_text("{not json", encoding="utf-8")
        loaded = SweepCheckpoint.load(str(path), sweep_key("a"), resume=True)
        assert len(loaded) == 0
        codes = [diag.code for diag in loaded.diagnostics]
        assert "SKOP701" in codes

    def test_missing_parent_dir_disables_persistence(self, tmp_path):
        # Previously this returned an empty checkpoint that crashed
        # with a raw FileNotFoundError on the first flush; now the
        # unusable path is detected at load, persistence is disabled,
        # and a SKOP701 diagnostic explains what happened.
        path = str(tmp_path / "no" / "such" / "dir" / "ckpt.json")
        loaded = SweepCheckpoint.load(path, sweep_key("a"), resume=True)
        assert loaded.persist is False
        codes = [diag.code for diag in loaded.diagnostics]
        assert "SKOP701" in codes
        # recording and flushing must not raise and must not create
        # the missing directories
        loaded.record("cell", {"x": 1})
        loaded.flush()
        assert not os.path.exists(path)

    def test_directory_path_disables_persistence(self, tmp_path):
        # os.replace() over a directory would have raised (or worse);
        # a directory-shaped checkpoint path is refused up front.
        loaded = SweepCheckpoint.load(str(tmp_path), sweep_key("a"),
                                      resume=False)
        assert loaded.persist is False
        assert "SKOP701" in [d.code for d in loaded.diagnostics]
        loaded.record("cell", {"x": 1})
        loaded.flush()          # no-op, no exception

    def test_sweep_surfaces_unusable_checkpoint_diagnostic(
            self, pedagogical_bet, tmp_path):
        path = str(tmp_path / "missing-dir" / "ckpt.json")
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 20e9]},
                            checkpoint=path, resume=True)
        assert len(result.points) == 2
        codes = [d.code for d in (result.diagnostics or [])]
        assert "SKOP701" in codes

    def test_cli_resume_with_unusable_checkpoint_is_clean(
            self, capsys, tmp_path):
        from repro.cli import main
        path = str(tmp_path / "never-created" / "ckpt.json")
        code = main(["sweep", "pedagogical",
                     "--param", "bandwidth=10e9,20e9",
                     "--checkpoint", path, "--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SKOP701" in out
        assert "without checkpoint persistence" in out

    def test_corrupt_file_salvages_from_backup(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        key = sweep_key("a")
        checkpoint = SweepCheckpoint(path, key)
        checkpoint.record("c1", {"x": 1})
        checkpoint.record("c2", {"x": 2})  # second flush creates .bak
        import os
        assert os.path.exists(path + ".bak")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage")
        loaded = SweepCheckpoint.load(path, key, resume=True)
        assert "c1" in loaded  # from the backup snapshot
        assert [diag.code for diag in loaded.diagnostics] == ["SKOP701"]

    def test_flush_is_atomic_via_rename(self, tmp_path):
        import os
        path = str(tmp_path / "ckpt.json")
        checkpoint = SweepCheckpoint(path, sweep_key("a"))
        checkpoint.record("c1", {})
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        checkpoint.record("c2", {})
        assert os.path.exists(path + ".bak")

    def test_version_mismatch_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": 99, "key": "k", "completed": {}}',
                        encoding="utf-8")
        with pytest.raises(CheckpointError):
            SweepCheckpoint.load(str(path), "k", resume=True)

    def test_missing_file_resumes_empty(self, tmp_path):
        loaded = SweepCheckpoint.load(str(tmp_path / "absent.json"),
                                      sweep_key("a"), resume=True)
        assert len(loaded) == 0

    def test_flush_every_batches_writes(self, tmp_path):
        import os
        path = str(tmp_path / "ckpt.json")
        checkpoint = SweepCheckpoint(path, sweep_key("a"), flush_every=3)
        checkpoint.record("c1", {})
        checkpoint.record("c2", {})
        assert not os.path.exists(path)
        checkpoint.record("c3", {})
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_rejects_unusable_flush_every(self, tmp_path):
        with pytest.raises(ValueError):
            SweepCheckpoint(str(tmp_path / "c.json"), "k", flush_every=0)

    def test_sweep_key_is_content_stable(self):
        assert sweep_key("a", (1, 2)) == sweep_key("a", (1, 2))
        assert sweep_key("a", (1, 2)) != sweep_key("a", (1, 3))

    def test_overrides_key_is_order_insensitive(self):
        assert overrides_key({"b": 2.0, "a": 1.0}) == \
            overrides_key({"a": 1.0, "b": 2.0}) == "a=1.0|b=2.0"


# -- acceptance: poisoned grid -------------------------------------------------

def _grid_signature(result):
    return [(p.overrides, p.machine.name, p.runtime, tuple(p.ranking),
             p.top_label, p.memory_fraction) for p in result.points]


class TestPoisonedGrid:
    def test_one_bad_cell_fails_alone_healthy_cells_bit_identical(
            self, pedagogical_bet):
        poisoned = {"bandwidth": [10e9, -5e9, 20e9]}
        clean = {"bandwidth": [10e9, 20e9]}
        serial = sweep_grid(pedagogical_bet, BGQ, poisoned)
        fanned = sweep_grid(pedagogical_bet, BGQ, poisoned, workers=2)
        reference = sweep_grid(pedagogical_bet, BGQ, clean)

        for result in (serial, fanned):
            assert len(result.points) == 2
            assert len(result.failures) == 1
            failure = result.failures[0]
            assert failure.index == 1
            assert failure.error_type == "HardwareModelError"
            assert "bandwidth" in failure.message
            assert failure.attempts == 1
            assert failure.traceback        # the full traceback travels
            assert "bandwidth=-5000000000.0" in failure.item
            assert result.timings["failed"] == 1.0
        assert _grid_signature(serial) == _grid_signature(fanned) == \
            _grid_signature(reference)

    def test_strict_restores_fail_fast(self, pedagogical_bet):
        with pytest.raises(RetryExhaustedError):
            sweep_grid(pedagogical_bet, BGQ,
                       {"bandwidth": [10e9, -5e9]}, strict=True)

    def test_sweep_machine_isolates_failures_too(self, pedagogical_bet):
        result = sweep_machine(pedagogical_bet, BGQ, "bandwidth",
                               [10e9, -5e9, 20e9])
        assert len(result.points) == 2
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "HardwareModelError"
        assert "failed" in result.render()
        clean = sweep_machine(pedagogical_bet, BGQ, "bandwidth",
                              [10e9, 20e9])
        assert result.runtime_curve() == clean.runtime_curve()

    def test_grid_render_reports_failures(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, -5e9]})
        text = result.render()
        assert "1 failed" in text
        assert "FAILED point 1" in text


# -- acceptance: kill-and-resume -----------------------------------------------

class TestCheckpointResume:
    def test_resumed_sweep_recomputes_only_unfinished_points(
            self, pedagogical_bet, tmp_path):
        path = str(tmp_path / "grid.json")
        grid = {"bandwidth": [10e9, 20e9, 30e9, 40e9, 50e9]}

        # phase 1: the 4th model build dies; strict aborts the run with
        # three cells already checkpointed (flush_every=1)
        recorder1 = CallRecorder(str(tmp_path / "phase1.log"))
        dying = FaultInjector(RooflineModel, fail_on={4},
                              recorder=recorder1)
        with pytest.raises(RetryExhaustedError):
            sweep_grid(pedagogical_bet, BGQ, grid, model_factory=dying,
                       strict=True, checkpoint=path)
        assert recorder1.count() == 4
        assert len(SweepCheckpoint.load(
            path, _grid_default_key(pedagogical_bet, grid),
            resume=True)) == 3

        # phase 2: resume with a healthy factory; only the two
        # unfinished cells are recomputed (counted across the run)
        recorder2 = CallRecorder(str(tmp_path / "phase2.log"))
        healthy = FaultInjector(RooflineModel, recorder=recorder2)
        resumed = sweep_grid(pedagogical_bet, BGQ, grid,
                             model_factory=healthy, checkpoint=path,
                             resume=True)
        assert recorder2.count() == 2
        assert resumed.timings["resumed"] == 3.0

        # identical to a run that never died
        uninterrupted = sweep_grid(pedagogical_bet, BGQ, grid)
        assert _grid_signature(resumed) == _grid_signature(uninterrupted)

    def test_sweep_machine_checkpoint_resume(self, pedagogical_bet,
                                             tmp_path):
        path = str(tmp_path / "sweep.json")
        values = [10e9, 20e9, 30e9]
        recorder = CallRecorder(str(tmp_path / "resume.log"))
        counting = FaultInjector(RooflineModel, recorder=recorder)
        first = sweep_machine(pedagogical_bet, BGQ, "bandwidth", values,
                              model_factory=counting, checkpoint=path)
        assert recorder.count() == 3
        resumed = sweep_machine(pedagogical_bet, BGQ, "bandwidth", values,
                                model_factory=counting, checkpoint=path,
                                resume=True)
        assert recorder.count() == 3         # everything came from disk
        assert resumed.timings["resumed"] == 3.0
        assert resumed.runtime_curve() == first.runtime_curve()
        assert [p.machine.name for p in resumed.points] == \
            [p.machine.name for p in first.points]

    def test_wrong_key_refuses_resume(self, pedagogical_bet, tmp_path):
        path = str(tmp_path / "grid.json")
        sweep_grid(pedagogical_bet, BGQ, {"bandwidth": [10e9]},
                   checkpoint=path)
        with pytest.raises(CheckpointError):
            sweep_grid(pedagogical_bet, BGQ, {"bandwidth": [99e9]},
                       checkpoint=path, resume=True)


class TestCheckpointSettingsFingerprint:
    """A resume under different evaluation semantics is refused with a
    SKOP706 diagnostic instead of silently merging incomparable points.
    """

    GRID = {"bandwidth": [10e9, 20e9]}

    def test_different_cache_model_refused(self, pedagogical_bet,
                                           tmp_path):
        from repro.hardware.cachemodel import (
            ConstantCacheModel, RooflineFactory,
        )
        path = str(tmp_path / "grid.json")
        sweep_grid(pedagogical_bet, BGQ, self.GRID, checkpoint=path)
        factory = RooflineFactory(ConstantCacheModel(miss_rate=0.25))
        with pytest.raises(CheckpointError, match="SKOP706") as err:
            sweep_grid(pedagogical_bet, BGQ, self.GRID,
                       model_factory=factory, checkpoint=path,
                       resume=True)
        assert "cache_model" in str(err.value)

    def test_different_executor_refused(self, pedagogical_bet, tmp_path):
        path = str(tmp_path / "grid.json")
        sweep_grid(pedagogical_bet, BGQ, self.GRID, checkpoint=path,
                   executor="serial")
        with pytest.raises(CheckpointError, match="SKOP706") as err:
            sweep_grid(pedagogical_bet, BGQ, self.GRID, checkpoint=path,
                       resume=True, executor="pool")
        assert "executor" in str(err.value)

    def test_different_backend_refused(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.parallel import clear_symbolic_cache, sweep_inputs
        from repro.workloads import load
        program, inputs = load("pedagogical")
        path = str(tmp_path / "inputs.json")
        axes = {"n": [float(v) for v in range(8, 16)]}
        clear_symbolic_cache()
        sweep_inputs(program, BGQ, axes, base_inputs=inputs,
                     backend="vector", checkpoint=path)
        with pytest.raises(CheckpointError, match="SKOP706") as err:
            sweep_inputs(program, BGQ, axes, base_inputs=inputs,
                         backend="scalar", checkpoint=path, resume=True)
        assert "vector -> scalar" in str(err.value)

    def test_same_settings_resume(self, pedagogical_bet, tmp_path):
        path = str(tmp_path / "grid.json")
        first = sweep_grid(pedagogical_bet, BGQ, self.GRID,
                           checkpoint=path, executor="serial")
        resumed = sweep_grid(pedagogical_bet, BGQ, self.GRID,
                             checkpoint=path, resume=True,
                             executor="serial")
        assert resumed.timings["resumed"] == 2.0
        assert [p.runtime for p in resumed.points] == \
            [p.runtime for p in first.points]

    def test_legacy_checkpoint_without_settings_resumes(
            self, pedagogical_bet, tmp_path):
        import json
        path = str(tmp_path / "grid.json")
        sweep_grid(pedagogical_bet, BGQ, self.GRID, checkpoint=path)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload.pop("settings", None)   # file written before PR 8
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        resumed = sweep_grid(pedagogical_bet, BGQ, self.GRID,
                             checkpoint=path, resume=True)
        assert resumed.timings["resumed"] == 2.0

    def test_factory_tag_is_stable(self):
        from repro.hardware.cachemodel import (
            AnalyticCacheModel, ECMFactory, RooflineFactory,
        )
        from repro.parallel import factory_tag
        assert factory_tag(None) == "default"
        tag = factory_tag(RooflineFactory(
            AnalyticCacheModel(l1_size=32768, llc_size=2 ** 20)))
        assert tag == factory_tag(RooflineFactory(
            AnalyticCacheModel(l1_size=32768, llc_size=2 ** 20)))
        assert " at 0x" not in tag
        assert tag != factory_tag(ECMFactory(
            AnalyticCacheModel(l1_size=32768, llc_size=2 ** 20)))
        # reprs with memory addresses fall back to the type name
        assert factory_tag(object()) == "builtins.object"


def _grid_default_key(bet, grid, k=10):
    from repro.parallel.engine import _default_grid_key
    return _default_grid_key(bet, BGQ, grid, k)


# -- matrix resilience ---------------------------------------------------------

class TestMatrixResilience:
    def test_bad_machine_occupies_slot_as_failure(self):
        import repro
        from repro.experiments import clear_cache
        from repro.parallel import analyze_matrix
        clear_cache()
        bad = BGQ.with_overrides(name="bad-node")
        object.__setattr__(bad, "bandwidth", float("nan"))
        results = analyze_matrix(["pedagogical"], [BGQ, bad],
                                 strict=False)
        assert len(results) == 2
        assert hasattr(results[0], "projected_total")
        assert isinstance(results[1], PointFailure)
        assert results[1].error_type == "ValidationError"
        assert "bandwidth" in results[1].message

    def test_strict_matrix_still_fails_fast(self):
        from repro.experiments import clear_cache
        from repro.parallel import analyze_matrix
        clear_cache()
        bad = BGQ.with_overrides(name="bad-node")
        object.__setattr__(bad, "bandwidth", 0.0)
        with pytest.raises(ReproError):
            analyze_matrix(["pedagogical"], [bad], strict=True)


# -- CLI ----------------------------------------------------------------------

class TestSweepCommandResilience:
    def test_checkpoint_then_resume(self, capsys, tmp_path):
        from repro.cli import main
        path = str(tmp_path / "ckpt.json")
        args = ["sweep", "pedagogical",
                "--param", "bandwidth=10e9,20e9",
                "--checkpoint", path]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "2 resumed" in second
        assert first.splitlines()[:3] == second.splitlines()[:3]

    def test_poisoned_point_reported_not_fatal(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical",
                     "--param", "bandwidth=10e9,-5e9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAILED point 1" in out
        assert "1 failed" in out

    def test_strict_flag_fails_fast(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--strict",
                     "--param", "bandwidth=10e9,-5e9"])
        err = capsys.readouterr().err
        assert code == 1
        assert "failed after 1 attempt" in err

    def test_negative_retries_rejected(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--retries", "-1",
                     "--param", "bandwidth=10e9"])
        assert code == 1
        assert "--retries" in capsys.readouterr().err

    def test_preflight_rejects_bad_input_binding(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--set", "n=nan",
                     "--param", "bandwidth=10e9"])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_failures_exported_in_json(self, capsys):
        import json
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--json",
                     "--param", "bandwidth=10e9,-5e9"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 1
        assert len(payload["failures"]) == 1
        failure = payload["failures"][0]
        assert failure["error_type"] == "HardwareModelError"
        assert failure["index"] == 1 and failure["traceback"]

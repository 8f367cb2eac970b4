"""Tests for symbolic BET reuse (`repro.bet.SymbolicBET`) and the
input-axis sweep paths built on it (`repro.parallel.sweep_inputs`,
``input:`` axes in `repro.parallel.sweep_grid`).

The contract under test: a replayed tree is *bit-identical* to the tree
a fresh `BETBuilder` would produce for the same inputs — probabilities,
trip counts, metrics, contexts, and ENR all match exactly — and the
sweep engines preserve PR 2's fault isolation, retry, checkpoint, and
serial/parallel equivalence semantics on top of it.
"""

import os
import pickle

import pytest

from repro.bet import ShapeChanged, SymbolicBET, build_bet
from repro.errors import AnalysisError, RetryExhaustedError
from repro.hardware.presets import machine_by_name
from repro.parallel import (
    InputSweepResult, RetryPolicy, clear_symbolic_cache, sweep_grid,
    sweep_inputs,
)
from repro.skeleton.parser import parse_skeleton
from repro.workloads import load, names


SOURCE = """
param n = 64
param m = 8
param pr = 0.3
def kernel(k)
  comp k * 2 flops
  load k float64 from data
end
def main(n, m, pr)
  for i = 0 : n as "outer"
    if prob pr
      comp n * m flops div m
    else
      comp n flops
    end
  end
  call kernel(n * m)
  while expect log2(n) as "solver"
    comp n flops
    store m float64 to data
  end
end
"""


def signature(node):
    """Exact structural + numeric fingerprint of a (sub)tree."""
    m = node.own_metrics
    return (node.kind, str(node.stmt), node.note, node.prob,
            node.num_iter, node.enr,
            (m.flops, m.iops, m.div_flops, m.vec_flops, m.loads,
             m.stores, m.load_bytes, m.store_bytes, m.static_size),
            tuple(sorted(node.context.items())),
            tuple(signature(child) for child in node.children))


@pytest.fixture()
def program():
    return parse_skeleton(SOURCE)


class TestSymbolicBET:
    def test_replay_equals_fresh_build(self, program):
        sym = SymbolicBET(program)
        for scale in (1.0, 0.5, 2.0, 7.0):
            inputs = {"n": 64 * scale, "m": 8.0, "pr": 0.3}
            assert signature(sym.bind(inputs)) == \
                signature(build_bet(program, inputs=inputs))
        assert sym.stats["builds"] == 1
        assert sym.stats["replays"] == 3

    def test_rebind_alias(self, program):
        sym = SymbolicBET(program)
        assert sym.rebind({"n": 32.0}) is sym.root

    def test_shape_change_triggers_rebuild(self, program):
        sym = SymbolicBET(program)
        sym.bind({"pr": 0.3})
        # pr=0 kills the taken arm: the tree shape changes, so the
        # replay must fall back to a full rebuild — and still match
        inputs = {"n": 64.0, "m": 8.0, "pr": 0.0}
        assert signature(sym.bind(inputs)) == \
            signature(build_bet(program, inputs=inputs))
        assert sym.stats["shape_rebuilds"] == 1

    def test_replay_works_after_rebuild(self, program):
        sym = SymbolicBET(program)
        sym.bind({"pr": 0.3})
        sym.bind({"pr": 0.0})                # rebuild (shape change)
        before = sym.stats["replays"]
        inputs = {"n": 100.0, "m": 8.0, "pr": 0.0}
        assert signature(sym.bind(inputs)) == \
            signature(build_bet(program, inputs=inputs))
        assert sym.stats["replays"] == before + 1

    def test_zero_trip_flip_rebuilds(self):
        mini = parse_skeleton(
            "param n = 8\n"
            "def main(n)\n"
            "  for i = 0 : n as \"loop\"\n"
            "    comp n flops\n"
            "  end\n"
            "end\n")
        sym = SymbolicBET(mini)
        sym.bind({"n": 8.0})
        root = sym.bind({"n": 0.0})          # the loop vanishes
        assert signature(root) == \
            signature(build_bet(mini, inputs={"n": 0.0}))
        assert sym.stats["shape_rebuilds"] == 1

    def test_builder_errors_are_canonical(self, program):
        sym = SymbolicBET(program)
        sym.bind({"pr": 0.5})
        with pytest.raises(Exception) as replayed:
            sym.bind({"pr": 2.5})            # invalid branch probability
        with pytest.raises(Exception) as fresh:
            build_bet(program, inputs={"pr": 2.5})
        assert type(replayed.value) is type(fresh.value)

    def test_pickle_drops_tape_and_rerecords(self, program):
        sym = SymbolicBET(program)
        sym.bind({"n": 16.0})
        clone = pickle.loads(pickle.dumps(sym))
        assert clone.root is None
        inputs = {"n": 48.0, "m": 8.0, "pr": 0.3}
        assert signature(clone.bind(inputs)) == \
            signature(build_bet(program, inputs=inputs))

    @pytest.mark.parametrize("workload", names())
    def test_bundled_workloads_replay_exactly(self, workload):
        program, inputs = load(workload)
        sym = SymbolicBET(program)
        for scale in (1.0, 0.5, 3.0):
            bound = {name: value * scale for name, value in inputs.items()}
            assert signature(sym.bind(bound)) == \
                signature(build_bet(program, inputs=bound))


class TestSweepInputs:
    @pytest.fixture()
    def machine(self):
        return machine_by_name("bgq")

    def test_matches_fresh_builds(self, program, machine):
        from repro.analysis.sensitivity import project_machine
        result = sweep_inputs(program, machine,
                              {"n": [16.0, 64.0, 256.0]},
                              base_inputs={"m": 8.0, "pr": 0.3})
        assert isinstance(result, InputSweepResult)
        assert len(result.points) == 3
        for point in result.points:
            bet = build_bet(program, inputs={"m": 8.0, "pr": 0.3,
                                             **point.inputs})
            reference = project_machine(bet, machine, None, 10)
            assert point.runtime == reference["runtime"]
            assert point.ranking == reference["ranking"]
            assert point.memory_fraction == reference["memory_fraction"]

    def test_parallel_equals_serial(self, program, machine):
        axes = {"n": [16.0, 32.0, 64.0, 128.0], "m": [4.0, 8.0]}
        serial = sweep_inputs(program, machine, axes,
                              base_inputs={"pr": 0.3})
        parallel = sweep_inputs(program, machine, axes,
                                base_inputs={"pr": 0.3}, workers=2)
        assert [p.runtime for p in parallel.points] == \
            [p.runtime for p in serial.points]
        assert [p.inputs for p in parallel.points] == \
            [p.inputs for p in serial.points]

    def test_row_major_point_order(self, program, machine):
        result = sweep_inputs(program, machine,
                              {"n": [16.0, 32.0], "m": [4.0, 8.0]},
                              base_inputs={"pr": 0.3})
        assert [p.inputs for p in result.points] == [
            {"n": 16.0, "m": 4.0}, {"n": 16.0, "m": 8.0},
            {"n": 32.0, "m": 4.0}, {"n": 32.0, "m": 8.0}]

    def test_explicit_point_list(self, program, machine):
        points = [{"n": 16.0}, {"n": 256.0}]
        result = sweep_inputs(program, machine, points,
                              base_inputs={"m": 8.0, "pr": 0.3})
        assert [p.inputs for p in result.points] == points
        assert result.axes == {}
        assert result.parameters == ["n"]

    def test_build_amortized_across_points(self, program, machine):
        clear_symbolic_cache()               # count this sweep's builds only
        result = sweep_inputs(program, machine,
                              {"n": [float(v) for v in range(16, 48)]},
                              base_inputs={"m": 8.0, "pr": 0.3},
                              backend="scalar")
        assert result.cache_stats["bet_builds"] == 1
        assert result.cache_stats["bet_replays"] == 31
        for stage in ("build", "rebind", "compile", "project", "total"):
            assert stage in result.timings

    def test_failure_isolated_to_its_point(self, program, machine):
        result = sweep_inputs(
            program, machine,
            [{"pr": 0.3}, {"pr": 2.5}, {"pr": 0.6}],
            base_inputs={"n": 64.0, "m": 8.0})
        assert len(result.points) == 2
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 1
        assert "probability" in failure.message

    def test_strict_fails_fast(self, program, machine):
        with pytest.raises(RetryExhaustedError):
            sweep_inputs(program, machine,
                         [{"pr": 0.3}, {"pr": 2.5}],
                         base_inputs={"n": 64.0, "m": 8.0}, strict=True)

    def test_retry_policy_attempts_recorded(self, program, machine):
        result = sweep_inputs(
            program, machine, [{"pr": 2.5}],
            base_inputs={"n": 64.0, "m": 8.0},
            policy=RetryPolicy(max_attempts=3, base_delay=0.0))
        assert result.failures[0].attempts == 3

    def test_checkpoint_resume(self, program, machine, tmp_path):
        path = str(tmp_path / "sweep.json")
        axes = {"n": [16.0, 64.0, 256.0]}
        first = sweep_inputs(program, machine, axes,
                             base_inputs={"m": 8.0, "pr": 0.3},
                             checkpoint=path)
        resumed = sweep_inputs(program, machine, axes,
                               base_inputs={"m": 8.0, "pr": 0.3},
                               checkpoint=path, resume=True)
        assert resumed.timings["resumed"] == 3.0
        assert [(p.inputs, p.runtime) for p in resumed.points] == \
            [(p.inputs, p.runtime) for p in first.points]

    def test_empty_axes_rejected(self, program, machine):
        with pytest.raises(AnalysisError):
            sweep_inputs(program, machine, {})
        with pytest.raises(AnalysisError):
            sweep_inputs(program, machine, {"n": []})
        with pytest.raises(AnalysisError):
            sweep_inputs(program, machine, [])

    def test_render_and_best(self, program, machine):
        result = sweep_inputs(program, machine, {"n": [16.0, 64.0]},
                              base_inputs={"m": 8.0, "pr": 0.3})
        assert result.best() is result.points[0]
        text = result.render()
        assert "input sweep over n" in text
        assert "2 points" in text
        assert result.point(n=64.0) is result.points[1]


class TestGridInputAxes:
    @pytest.fixture()
    def machine(self):
        return machine_by_name("bgq")

    def test_mixed_grid_matches_per_point_builds(self, program, machine):
        from repro.analysis.sensitivity import project_machine
        grid = {"input:n": [16.0, 64.0],
                "bandwidth": [machine.bandwidth, machine.bandwidth * 2]}
        result = sweep_grid(None, machine, grid, program=program,
                            inputs={"m": 8.0, "pr": 0.3})
        assert len(result.points) == 4
        for point in result.points:
            bet = build_bet(program, inputs={"m": 8.0, "pr": 0.3,
                                             "n": point.overrides[
                                                 "input:n"]})
            reference = project_machine(bet, point.machine, None, 10)
            assert point.runtime == reference["runtime"]

    def test_parallel_equals_serial(self, program, machine):
        grid = {"input:n": [16.0, 64.0],
                "bandwidth": [machine.bandwidth, machine.bandwidth * 2]}
        kwargs = dict(program=program, inputs={"m": 8.0, "pr": 0.3})
        serial = sweep_grid(None, machine, grid, **kwargs)
        parallel = sweep_grid(None, machine, grid, workers=2, **kwargs)
        assert [(p.overrides, p.runtime, p.machine.name)
                for p in parallel.points] == \
            [(p.overrides, p.runtime, p.machine.name)
             for p in serial.points]

    def test_input_axes_require_program(self, machine):
        with pytest.raises(AnalysisError):
            sweep_grid(None, machine, {"input:n": [1.0]})

    def test_machine_only_grid_requires_bet(self, machine):
        with pytest.raises(AnalysisError):
            sweep_grid(None, machine, {"bandwidth": [machine.bandwidth]})

    def test_stage_timings_present(self, program, machine):
        clear_symbolic_cache()
        grid = {"input:n": [16.0, 64.0]}
        result = sweep_grid(None, machine, grid, program=program,
                            inputs={"m": 8.0, "pr": 0.3})
        for stage in ("build", "rebind", "compile", "project"):
            assert stage in result.timings
        assert result.cache_stats["bet_builds"] == 1.0

    def test_checkpoint_resume_keeps_machine_names(self, program, machine,
                                                   tmp_path):
        path = str(tmp_path / "grid.json")
        grid = {"input:n": [16.0, 64.0],
                "bandwidth": [machine.bandwidth, machine.bandwidth * 2]}
        kwargs = dict(program=program, inputs={"m": 8.0, "pr": 0.3})
        first = sweep_grid(None, machine, grid, checkpoint=path, **kwargs)
        resumed = sweep_grid(None, machine, grid, checkpoint=path,
                             resume=True, **kwargs)
        assert resumed.timings["resumed"] == 4.0
        assert [(p.overrides, p.runtime, p.machine.name)
                for p in resumed.points] == \
            [(p.overrides, p.runtime, p.machine.name)
             for p in first.points]

    def test_failing_cell_isolated(self, program, machine):
        grid = {"input:pr": [0.3, 2.5, 0.6]}
        result = sweep_grid(None, machine, grid, program=program,
                            inputs={"n": 64.0, "m": 8.0})
        assert len(result.points) == 2
        assert len(result.failures) == 1
        assert result.failures[0].index == 1

"""Tests for the vectorized sweep backend (DESIGN.md §10): the vector
expression target, batched tape replay (`SymbolicBET.rebind_batch`),
array-shaped model projection, and the `backend=` dispatch in
`sweep_inputs` / `sweep_grid` / `repro sweep`.

The contract under test: every lane the batch does *not* flag as bad is
bit-identical — runtime, ranking, memory fraction, per-node annotations —
to a fresh scalar build and projection of that point, and flagged lanes
fall back to the scalar path so end-to-end results never differ from
``backend="scalar"``.
"""

import math

import numpy as np
import pytest

from repro.bet import SymbolicBET, build_bet
from repro.errors import AnalysisError
from repro.expressions import compile_expr, compile_expr_vector, parse_expr
from repro.hardware import RooflineModel
from repro.hardware.presets import machine_by_name
from repro.parallel import clear_symbolic_cache, sweep_grid, sweep_inputs
from repro.parallel.engine import (
    VECTOR_MIN_LANES, VECTOR_MIN_POINTS, _auto_chunk_size,
    _resolve_backend, evaluate_cells,
)
from repro.skeleton.parser import parse_skeleton


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


@pytest.fixture()
def program():
    return parse_skeleton(SOURCE)


@pytest.fixture()
def machine():
    return machine_by_name("bgq")


def lane(value, index):
    """Lane *index* of an array-or-scalar annotation."""
    return float(value[index]) if getattr(value, "ndim", 0) else float(value)


def _walk(node):
    yield node
    for child in node.children:
        yield from child and _walk(child)


# -- vector expression target -------------------------------------------------

class TestCompileExprVector:
    def _both(self, text, env_cols):
        """(vector values, bad mask, per-lane scalar values)."""
        expr = parse_expr(text)
        lanes = len(next(iter(env_cols.values())))
        cols = {k: np.asarray(v, dtype=np.float64)
                for k, v in env_cols.items()}
        bad = np.zeros(lanes, dtype=bool)
        with np.errstate(all="ignore"):
            out = compile_expr_vector(expr)(cols, bad)
        scalar_fn = compile_expr(expr)
        scalars = []
        for i in range(lanes):
            try:
                scalars.append(scalar_fn({k: v[i]
                                          for k, v in env_cols.items()}))
            except Exception:
                scalars.append(None)         # must be a flagged lane
        return out, bad, scalars

    def test_arithmetic_bit_identical(self):
        out, bad, scalars = self._both(
            "n * 3 + m / 2 - 1", {"n": [1.0, 7.0, 1024.0],
                                  "m": [2.0, 5.0, 9.0]})
        assert not bad.any()
        for i, reference in enumerate(scalars):
            assert lane(out, i) == reference

    def test_functions_bit_identical(self):
        out, bad, scalars = self._both(
            "sqrt(n) + log2(m)", {"n": [4.0, 9.0, 100.0],
                                  "m": [2.0, 8.0, 1024.0]})
        assert not bad.any()
        for i, reference in enumerate(scalars):
            assert lane(out, i) == reference

    def test_domain_error_flags_only_that_lane(self):
        out, bad, scalars = self._both("sqrt(n)", {"n": [4.0, -1.0, 16.0]})
        assert list(bad) == [False, True, False]
        assert lane(out, 0) == scalars[0]
        assert lane(out, 2) == scalars[2]

    def test_divide_by_zero_flags_only_that_lane(self):
        _, bad, _ = self._both("1 / n", {"n": [2.0, 0.0, 4.0]})
        assert list(bad) == [False, True, False]

    def test_exact_integer_overflow_flags_lane(self):
        big = float(2 ** 60)
        _, bad, _ = self._both("n * n", {"n": [8.0, big, 2.0]})
        assert bad[1]
        assert not bad[0] and not bad[2]


# -- batched tape replay ------------------------------------------------------

class TestRebindBatch:
    def test_lanes_match_fresh_builds(self, program):
        sym = SymbolicBET(program)
        cols = {"n": [16.0, 64.0, 256.0, 100.0],
                "m": [4.0, 8.0, 8.0, 16.0],
                "pr": [0.3, 0.3, 0.7, 0.5]}
        batch = sym.rebind_batch(cols)
        assert not batch.bad.any()
        for i in range(batch.lanes):
            point = {name: values[i] for name, values in cols.items()}
            fresh = build_bet(program, inputs=point)
            for got, ref in zip(_walk(batch.root), _walk(fresh)):
                assert lane(batch.prob(got), i) == ref.prob
                assert lane(batch.num_iter(got), i) == ref.num_iter
                assert lane(batch.enr(got), i) == ref.enr
                for field, value in zip(
                        batch.metric_fields(got),
                        (ref.own_metrics.flops, ref.own_metrics.iops,
                         ref.own_metrics.div_flops,
                         ref.own_metrics.vec_flops,
                         ref.own_metrics.loads, ref.own_metrics.stores,
                         ref.own_metrics.load_bytes,
                         ref.own_metrics.store_bytes,
                         ref.own_metrics.static_size,
                         ref.own_metrics.footprint_bytes,
                         ref.own_metrics.reuse_bytes,
                         ref.own_metrics.reuse_traffic)):
                    assert lane(field, i) == value

    def test_shape_divergent_lanes_flagged(self, program):
        # pr=0 kills the taken arm and pr=1 kills the residual: both
        # change the tree shape, so those lanes must route to the
        # scalar rebuild path rather than silently diverge
        sym = SymbolicBET(program)
        batch = sym.rebind_batch({"n": [64.0] * 4, "m": [8.0] * 4,
                                  "pr": [0.3, 0.0, 1.0, 0.6]})
        assert not batch.bad[0] and not batch.bad[3]
        assert batch.bad[1] and batch.bad[2]

    def test_stats_count_lanes(self, program):
        sym = SymbolicBET(program)
        sym.rebind_batch({"n": [16.0, 32.0, 64.0],
                          "m": [8.0] * 3, "pr": [0.3, 0.0, 0.3]})
        assert sym.stats["batch_replays"] == 1
        assert sym.stats["lanes_vectorized"] == 2
        assert sym.stats["lanes_fallback"] == 1

    def test_rejects_bad_columns(self, program):
        sym = SymbolicBET(program)
        with pytest.raises(ValueError):
            sym.rebind_batch({})
        with pytest.raises(ValueError):
            sym.rebind_batch({"n": [1.0, 2.0], "m": [1.0]})
        with pytest.raises(ValueError):
            sym.rebind_batch({"n": [[1.0, 2.0]]})
        with pytest.raises(ValueError):
            sym.rebind_batch({"n": []})

    def test_rejects_build_budget(self, program):
        sym = SymbolicBET(program, budget=10_000)
        with pytest.raises(ValueError):
            sym.rebind_batch({"n": [1.0, 2.0]})


# -- backend dispatch ---------------------------------------------------------

class TestBackendDispatch:
    def test_resolve_rejects_unknown(self):
        with pytest.raises(AnalysisError):
            _resolve_backend("simd", 100, has_machine_axes=False)

    def test_resolve_vector_needs_input_axes(self):
        with pytest.raises(AnalysisError):
            _resolve_backend("vector", 100, has_machine_axes=True,
                             has_input_axes=False)

    def test_auto_rules(self):
        few = VECTOR_MIN_LANES - 1
        many = VECTOR_MIN_LANES
        assert _resolve_backend("auto", few,
                                has_machine_axes=False) == "scalar"
        assert _resolve_backend("auto", many,
                                has_machine_axes=False) == "vector"
        # mixed machine x input cells qualify too: the grouped dispatch
        # path batches each machine-signature lane group
        assert _resolve_backend("auto", many,
                                has_machine_axes=True) == "vector"
        assert _resolve_backend("auto", few,
                                has_machine_axes=True) == "scalar"
        assert _resolve_backend("auto", many, has_machine_axes=True,
                                has_input_axes=False) == "scalar"
        assert _resolve_backend("scalar", many,
                                has_machine_axes=False) == "scalar"

    def test_auto_chunk_size(self):
        assert _auto_chunk_size(0, 4) == 1
        assert _auto_chunk_size(100, 1) == 100       # serial: one chunk
        assert _auto_chunk_size(1000, 4) == 63       # ~4 chunks per worker
        assert _auto_chunk_size(8, 16) == 8          # never exceeds total
        assert _auto_chunk_size(64, 2) == 16         # floored at minimum

    def test_auto_chunk_size_lane_aware(self):
        # a vector-eligible sweep is never chunked below the batching
        # threshold: lanes starved under VECTOR_MIN_POINTS would run
        # scalar for no reason
        assert _auto_chunk_size(1000, 4, vector=True) == 64
        assert _auto_chunk_size(64, 2, vector=True) == 64
        assert _auto_chunk_size(40, 8, vector=True) == 40
        assert _auto_chunk_size(100, 1, vector=True) == 100


# -- end-to-end equality ------------------------------------------------------

class _BranchingModel(RooflineModel):
    """A user model that branches on a metric: right on scalar metrics,
    an ambiguous truth value on lane arrays."""

    def block_time(self, metrics):
        time = super().block_time(metrics)
        if metrics.flops > 0:
            return time
        return time._replace(overlap=0.0)


def _point_tuple(point):
    return (point.inputs, point.runtime, point.ranking, point.top_label,
            point.memory_fraction, point.completeness)


class TestSweepBackendEquality:
    def test_vector_matches_scalar(self, program, machine):
        axes = {"n": [float(v) for v in range(8, 40)],
                "m": [4.0, 8.0], "pr": [0.25, 0.75]}
        clear_symbolic_cache()
        scalar = sweep_inputs(program, machine, axes,
                              backend="scalar")
        clear_symbolic_cache()
        vector = sweep_inputs(program, machine, axes,
                              backend="vector")
        assert scalar.backend == "scalar"
        assert vector.backend == "vector"
        assert len(vector.points) == len(scalar.points) == 128
        assert [_point_tuple(p) for p in vector.points] == \
            [_point_tuple(p) for p in scalar.points]

    def test_auto_picks_vector_for_large_pure_input_sweep(
            self, program, machine):
        clear_symbolic_cache()
        result = sweep_inputs(program, machine,
                              {"n": [float(v) for v in range(8, 72)]},
                              base_inputs={"m": 8.0, "pr": 0.3})
        assert result.backend == "vector"
        assert result.cache_stats["bet_batch_replays"] >= 1
        assert result.cache_stats["lanes_vectorized"] == 64
        assert "batch" in result.timings

    def test_auto_stays_scalar_below_threshold(self, program, machine):
        result = sweep_inputs(program, machine, {"n": [16.0, 32.0]},
                              base_inputs={"m": 8.0, "pr": 0.3})
        assert result.backend == "scalar"

    @pytest.mark.parametrize("points, route", [
        (VECTOR_MIN_LANES, "vector"), (VECTOR_MIN_LANES - 1, "scalar")])
    def test_one_crossover_for_sweeps_and_lane_groups(
            self, program, machine, points, route):
        # a whole input sweep and a single-signature cell list (one
        # lane group) batch from the same point count
        base = {"m": 8.0, "pr": 0.3}
        values = [float(8 + i) for i in range(points)]
        clear_symbolic_cache()
        sweep = sweep_inputs(program, machine, {"n": values},
                             base_inputs=base)
        clear_symbolic_cache()
        cells = evaluate_cells(
            machine, [{"bandwidth": 2e10, "input:n": n} for n in values],
            program=program, inputs=base)
        assert sweep.backend == cells.backend == route
        batched = points if route == "vector" else 0
        assert sweep.cache_stats["lanes_vectorized"] == batched
        assert cells.cache_stats["lanes_vectorized"] == batched
        # the scalar route records once and replays every later point
        replays = 0 if route == "vector" else points - 1
        assert sweep.cache_stats["bet_replays"] == replays

    @pytest.mark.parametrize("route", ["inputs", "pack", "grid"])
    def test_lanes_of_a_failed_projection_count_as_fallback(
            self, program, machine, route):
        # the batch replay succeeds, then project_batch raises on the
        # model: every lane reruns on the scalar loop and is counted so
        values = [float(v) for v in range(8, 40)]
        base = {"m": 8.0, "pr": 0.3}

        def run(backend):
            clear_symbolic_cache()
            if route == "inputs":
                return sweep_inputs(program, machine, {"n": values},
                                    base_inputs=base, backend=backend,
                                    model_factory=_BranchingModel)
            # "grid": alternating key order keeps the chunk from packing
            cells = [{"bandwidth": 2e10, "input:n": n}
                     if route == "pack" or i % 2 else
                     {"input:n": n, "bandwidth": 2e10}
                     for i, n in enumerate(values)]
            return evaluate_cells(machine, cells, program=program,
                                  inputs=base, backend=backend,
                                  model_factory=_BranchingModel)

        vector, scalar = run("vector"), run("scalar")
        assert vector.cache_stats["lanes_vectorized"] == 0
        assert vector.cache_stats["lanes_fallback"] == len(values)
        assert vector.cache_stats["bet_replays"] == len(values)
        assert [p.runtime for p in vector.points] == \
            [p.runtime for p in scalar.points]

    def test_auto_runs_tiny_lane_groups_scalar(self, program, machine):
        # an explorer-style cell list: every cell is its own machine
        # signature, so no lane group reaches VECTOR_MIN_LANES
        cells = [{"bandwidth": machine.bandwidth * (1.0 + i / 64.0),
                  "input:n": float(8 + i)}
                 for i in range(VECTOR_MIN_POINTS)]
        base = {"m": 8.0, "pr": 0.3}

        def evaluate(backend):
            clear_symbolic_cache()
            return evaluate_cells(machine, cells, program=program,
                                  inputs=base, backend=backend)

        def rows(result):
            return [(p.overrides, p.machine.name, p.runtime, p.ranking,
                     p.top_label, p.memory_fraction, p.completeness)
                    for p in result.points]

        scalar, auto, vector = (evaluate("scalar"), evaluate("auto"),
                                evaluate("vector"))
        assert auto.backend == "vector"
        assert auto.cache_stats["lanes_vectorized"] == 0
        assert auto.cache_stats["lane_groups"] == 0
        assert rows(auto) == rows(scalar)
        # the tiny groups share chunks rather than paying one each
        clear_symbolic_cache()
        pooled = evaluate_cells(machine, cells, program=program,
                                inputs=base, executor="serial")
        assert pooled.shard_stats["shards_planned"] == 1
        assert rows(pooled) == rows(scalar)
        # an explicit vector backend still batches every group
        assert vector.cache_stats["lane_groups"] == len(cells)
        assert rows(vector) == rows(scalar)
        # groups at the floor batch under auto too
        groups = VECTOR_MIN_POINTS // VECTOR_MIN_LANES
        grouped = [{"bandwidth": machine.bandwidth * (1.0 + g / 8.0),
                    "input:n": float(8 + i)}
                   for g in range(groups) for i in range(VECTOR_MIN_LANES)]
        clear_symbolic_cache()
        result = evaluate_cells(machine, grouped, program=program,
                                inputs=base)
        assert result.cache_stats["lane_groups"] == groups

    def test_fallback_lanes_match_scalar(self, program, machine):
        # pr=0.0 / 1.0 lanes diverge in shape and re-run scalar; the
        # sweep output must still be indistinguishable from scalar mode
        axes = {"n": [float(v) for v in range(8, 24)],
                "pr": [0.0, 0.3, 1.0]}
        base = {"m": 8.0}
        clear_symbolic_cache()
        scalar = sweep_inputs(program, machine, axes, base_inputs=base,
                              backend="scalar")
        clear_symbolic_cache()
        vector = sweep_inputs(program, machine, axes, base_inputs=base,
                              backend="vector")
        assert vector.cache_stats["lanes_fallback"] > 0
        assert [_point_tuple(p) for p in vector.points] == \
            [_point_tuple(p) for p in scalar.points]

    def test_failures_isolated_under_vector(self, program, machine):
        points = ([{"n": float(v), "pr": 0.3} for v in range(8, 72)]
                  + [{"n": 16.0, "pr": 2.5}])
        clear_symbolic_cache()
        result = sweep_inputs(program, machine, points,
                              base_inputs={"m": 8.0}, backend="vector")
        assert len(result.points) == 64
        assert len(result.failures) == 1
        assert result.failures[0].index == 64
        assert "probability" in result.failures[0].message

    def test_parallel_vector_equals_serial_vector(self, program, machine):
        axes = {"n": [float(v) for v in range(8, 72)]}
        base = {"m": 8.0, "pr": 0.3}
        clear_symbolic_cache()
        serial = sweep_inputs(program, machine, axes, base_inputs=base,
                              backend="vector")
        clear_symbolic_cache()
        parallel = sweep_inputs(program, machine, axes, base_inputs=base,
                                backend="vector", workers=2)
        assert [_point_tuple(p) for p in parallel.points] == \
            [_point_tuple(p) for p in serial.points]

    def test_checkpoint_resume_with_vector(self, program, machine,
                                           tmp_path):
        path = str(tmp_path / "sweep.json")
        axes = {"n": [float(v) for v in range(8, 72)]}
        base = {"m": 8.0, "pr": 0.3}
        clear_symbolic_cache()
        first = sweep_inputs(program, machine, axes, base_inputs=base,
                             backend="vector", checkpoint=path)
        clear_symbolic_cache()
        second = sweep_inputs(program, machine, axes, base_inputs=base,
                              backend="vector", checkpoint=path,
                              resume=True)
        assert int(second.timings["resumed"]) == 64
        assert [_point_tuple(p) for p in second.points] == \
            [_point_tuple(p) for p in first.points]

    def test_grid_vector_matches_scalar(self, program, machine):
        grid = {"input:n": [float(v) for v in range(8, 40)],
                "input:pr": [0.25, 0.75]}
        clear_symbolic_cache()
        scalar = sweep_grid(None, machine, grid, program=program,
                            inputs={"m": 8.0}, backend="scalar")
        clear_symbolic_cache()
        vector = sweep_grid(None, machine, grid, program=program,
                            inputs={"m": 8.0}, backend="vector")
        assert scalar.backend == "scalar" and vector.backend == "vector"
        assert [(p.overrides, p.runtime, p.ranking, p.top_label,
                 p.memory_fraction) for p in vector.points] == \
            [(p.overrides, p.runtime, p.ranking, p.top_label,
              p.memory_fraction) for p in scalar.points]

    def test_grid_with_machine_axes_goes_vector_on_auto(
            self, program, machine):
        # mixed grids now qualify for auto-vector: the grouped dispatch
        # path batches each machine-signature lane group (DESIGN.md §15)
        grid = {"bandwidth": [1e10, 2e10],
                "input:n": [float(v) for v in range(8, 72)]}
        clear_symbolic_cache()
        vector = sweep_grid(None, machine, grid, program=program,
                            inputs={"m": 8.0, "pr": 0.3})
        assert vector.backend == "vector"
        assert vector.cache_stats["lanes_vectorized"] == 128.0
        assert vector.cache_stats["lanes_fallback"] == 0.0
        assert vector.cache_stats["lane_groups"] >= 2.0
        clear_symbolic_cache()
        scalar = sweep_grid(None, machine, grid, program=program,
                            inputs={"m": 8.0, "pr": 0.3},
                            backend="scalar")
        assert [(p.overrides, p.runtime, p.ranking, p.top_label,
                 p.memory_fraction) for p in vector.points] == \
            [(p.overrides, p.runtime, p.ranking, p.top_label,
              p.memory_fraction) for p in scalar.points]

    def test_grid_vector_with_machine_axes_matches_scalar(
            self, program, machine):
        # forcing vector on a mixed grid batches per machine cell
        grid = {"bandwidth": [1e10, 2e10],
                "input:n": [16.0, 32.0, 64.0]}
        clear_symbolic_cache()
        scalar = sweep_grid(None, machine, grid, program=program,
                            inputs={"m": 8.0, "pr": 0.3},
                            backend="scalar")
        clear_symbolic_cache()
        vector = sweep_grid(None, machine, grid, program=program,
                            inputs={"m": 8.0, "pr": 0.3},
                            backend="vector")
        assert [(p.overrides, p.runtime, p.ranking)
                for p in vector.points] == \
            [(p.overrides, p.runtime, p.ranking) for p in scalar.points]


# -- serialization + CLI ------------------------------------------------------

class TestVectorSerialization:
    def test_input_sweep_to_dict_carries_backend(self, program, machine):
        from repro.export import input_sweep_to_dict
        clear_symbolic_cache()
        result = sweep_inputs(program, machine, {"n": [16.0, 32.0]},
                              base_inputs={"m": 8.0, "pr": 0.3})
        payload = input_sweep_to_dict(result)
        assert payload["backend"] == "scalar"
        assert payload["schema_version"] == 2
        assert len(payload["points"]) == 2
        assert payload["points"][0]["inputs"] == {"n": 16.0}

    def test_grid_to_dict_carries_backend(self, program, machine):
        from repro.export import grid_to_dict
        clear_symbolic_cache()
        result = sweep_grid(None, machine,
                            {"input:n": [16.0, 32.0]}, program=program,
                            inputs={"m": 8.0, "pr": 0.3},
                            backend="vector")
        assert grid_to_dict(result)["backend"] == "vector"


class TestSweepBackendCLI:
    def test_backend_vector_smoke(self, capsys):
        from repro.cli import main
        clear_symbolic_cache()
        code = main(["sweep", "pedagogical", "--backend", "vector",
                     "--param", "input:n=128,256,512", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=vector" in out
        assert "lanes_vectorized" in out
        assert "batch seconds" in out

    def test_backend_vector_rejected_without_input_axis(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--backend", "vector",
                     "--param", "bandwidth=1e10,2e10"])
        assert code == 1
        assert "input:" in capsys.readouterr().err

    def test_backend_choices_enforced(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["sweep", "pedagogical", "--backend", "simd",
                  "--param", "input:n=1,2"])

    def test_backend_scalar_and_vector_agree(self, capsys):
        from repro.cli import main
        clear_symbolic_cache()
        assert main(["sweep", "pedagogical", "--backend", "scalar",
                     "--param", "input:n=128,256,512"]) == 0
        scalar_out = capsys.readouterr().out
        clear_symbolic_cache()
        assert main(["sweep", "pedagogical", "--backend", "vector",
                     "--param", "input:n=128,256,512"]) == 0
        vector_out = capsys.readouterr().out
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("[")]
        assert strip(scalar_out) == strip(vector_out)

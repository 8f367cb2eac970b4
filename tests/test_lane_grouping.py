"""Lane-grouped dispatch for heterogeneous cell lists (DESIGN.md §15).

The grouped vector path must be a pure optimization: for ANY mixed
machine×input cell list — per-cell machine overrides in any field,
shape-flip fallback lanes (pr=0/1), seeded chaos on the pool executor,
and checkpoint boundaries that cut through the middle of a lane group —
``evaluate_cells`` returns results bit-identical to the scalar path, in
the caller's original cell order.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import ChaosSchedule, clear_symbolic_cache
from repro.parallel.engine import (
    VECTOR_MIN_POINTS, _auto_chunk_size, evaluate_cells,
)
from repro.parallel.lanes import (
    cell_signature, input_columns, plan_lanes, split_overrides,
)
from repro.hardware import machine_by_name
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
      store m float64 to data
    end
  end
  call kernel(n * m)
end
"""

PROGRAM = parse_skeleton(SOURCE)
BASE_INPUTS = {"n": 64.0, "m": 8.0, "pr": 0.3}

COMMON = dict(suppress_health_check=[HealthCheck.too_slow],
              deadline=None)


def _machine():
    return machine_by_name("bgq")


def _point_tuple(point):
    return (point.overrides, point.machine.name, point.runtime,
            point.ranking, point.top_label, point.memory_fraction)


def _both_backends(cells, **kwargs):
    machine = _machine()
    clear_symbolic_cache()
    scalar = evaluate_cells(machine, cells, program=PROGRAM,
                            inputs=BASE_INPUTS, backend="scalar",
                            validate=False)
    clear_symbolic_cache()
    grouped = evaluate_cells(machine, cells, program=PROGRAM,
                             inputs=BASE_INPUTS, backend="vector",
                             validate=False, **kwargs)
    return scalar, grouped


# -- the planning layer (pure functions) --------------------------------------

class TestLanePlanning:
    def test_split_overrides(self):
        machine_part, input_part = split_overrides(
            {"bandwidth": 1e10, "input:n": 32.0})
        assert machine_part == {"bandwidth": 1e10}
        assert input_part == {"n": 32.0}

    def test_cell_signature_groups_by_input_names(self):
        # machine overrides never split a group (they become the lane
        # array's machine columns); the input-axis names do
        a = {"bandwidth": 1e10, "input:n": 8.0}
        b = {"bandwidth": 1e10, "input:n": 9.0}
        c = {"bandwidth": 2e10, "cores": 4, "input:n": 8.0}
        d = {"bandwidth": 1e10, "input:m": 8.0}
        assert cell_signature(a) == cell_signature(b) == cell_signature(c)
        assert cell_signature(a) != cell_signature(d)
        assert cell_signature({"bandwidth": 1e10}) == \
            cell_signature({"cores": 8}) == ()

    def test_cell_signature_rejects_unbatchable(self):
        assert cell_signature({"bandwidth": "fast"}) is None
        assert cell_signature({"input:n": float("nan")}) is not None
        assert cell_signature({"input:n": "big"}) is None
        assert cell_signature({"input:n": True}) is None

    def test_input_columns_merge_base_then_overrides(self):
        cells = [{"bandwidth": 1e10, "input:n": 8.0},
                 {"bandwidth": 2e10, "input:n": 16.0}]
        cols = input_columns(cells, {"n": 1.0, "m": 4.0})
        assert cols == {"n": [8.0, 16.0], "m": [4.0, 4.0]}
        # a base binding the batch cannot carry leaves it to the scalar
        # path
        assert input_columns(cells, {"m": "four"}) is None

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)),
                    min_size=0, max_size=60),
           st.integers(min_value=1, max_value=17))
    @settings(max_examples=100, **COMMON)
    def test_plan_lane_chunks_partitions_exactly(self, specs, size):
        # groups differ by input-axis names; machine values vary freely
        shapes = ({"input:n": float},
                  {"bandwidth": lambda n: n * 1e9, "input:m": float},
                  {"cores": float})
        cells = []
        for group, n in specs:
            if group == 3:       # unbatchable residue cell
                cells.append({"note": "odd"})
            else:
                cells.append({name: make(n) for name, make
                              in shapes[group].items()})
        groups, residue = plan_lanes(cells, size)
        chunks = groups + residue
        flat = sorted(pos for chunk in chunks for pos in chunk)
        assert flat == list(range(len(cells)))      # exact partition
        for chunk in chunks:
            assert 1 <= len(chunk) <= size
            signatures = {cell_signature(cells[pos]) for pos in chunk}
            assert len(signatures) == 1              # group-aligned
            assert chunk == sorted(chunk)            # original order

    def test_plan_lane_chunks_pools_groups_below_min_lanes(self):
        # groups too small to batch run the scalar loop anyway: they
        # join the residue, in original order, instead of one chunk each
        cells = []
        for position in range(12):
            group = 0 if position % 3 else position % 2 + 1
            cells.append({"bandwidth": float(position + 1) * 1e9,
                          ("input:n", "input:m", "input:pr")[group]:
                          float(position)})
        cells.append({"note": "odd"})
        big = [pos for pos in range(12) if pos % 3]
        assert plan_lanes(cells, 100, min_lanes=8) == (
            [big], [sorted(set(range(13)) - set(big))])
        groups, residue = plan_lanes(cells, 100)
        assert len(groups + residue) == 4

    def test_auto_chunk_size_vector_floor(self):
        assert _auto_chunk_size(1000, 4, vector=True) >= \
            VECTOR_MIN_POINTS
        assert _auto_chunk_size(1000, 4) < VECTOR_MIN_POINTS


# -- property: grouped == scalar, bit-identical -------------------------------

# every cell draws its own machine: each lane of a lane array carries a
# different machine, and the optional fields give cells different key
# sets (one lane array all the same).  pr draws 0.0/1.0 with
# inflated likelihood: those lanes flip the branch shape and must take
# the per-lane scalar fallback, not diverge
_cell = st.fixed_dictionaries({
    "bandwidth": st.floats(min_value=1e9, max_value=1e11),
    "cores": st.integers(min_value=1, max_value=64),
    "input:n": st.floats(min_value=1, max_value=4096, allow_nan=False),
    "input:pr": st.one_of(st.just(0.0), st.just(1.0),
                          st.floats(min_value=0, max_value=1,
                                    allow_nan=False)),
}, optional={
    "frequency_hz": st.floats(min_value=5e8, max_value=4e9),
    "dram_latency": st.floats(min_value=50.0, max_value=800.0),
    "llc_size": st.sampled_from([2 ** 20, 2 ** 23, 2 ** 25]),
    "mlp": st.floats(min_value=1.0, max_value=64.0),
})


class TestGroupedMatchesScalar:
    @given(st.lists(_cell, min_size=1, max_size=24))
    @settings(max_examples=25, **COMMON)
    def test_mixed_cells_bit_identical(self, cells):
        scalar, grouped = _both_backends(cells)
        assert [_point_tuple(p) for p in grouped.points] == \
            [_point_tuple(p) for p in scalar.points]
        assert [f.index for f in grouped.failures] == \
            [f.index for f in scalar.failures]
        stats = grouped.cache_stats
        assert stats["lanes_vectorized"] + stats["lanes_fallback"] \
            <= len(cells)

    def test_shape_flip_lanes_fall_back_and_match(self):
        cells = ([{"bandwidth": 1e10, "input:pr": 0.0}] * 2
                 + [{"bandwidth": 1e10, "input:pr": 0.5}] * 3
                 + [{"bandwidth": 1e10, "input:pr": 1.0}] * 2)
        scalar, grouped = _both_backends(cells)
        assert [_point_tuple(p) for p in grouped.points] == \
            [_point_tuple(p) for p in scalar.points]
        assert grouped.cache_stats["lanes_fallback"] > 0
        assert grouped.cache_stats["lanes_vectorized"] > 0

    def test_residue_cells_interleave_in_original_order(self):
        # the machine-only cells form a group of their own (bound at the
        # base inputs); results interleave back in original order
        cells = [{"bandwidth": 1e10, "input:n": 32.0},
                 {"bandwidth": 2e10},
                 {"bandwidth": 1e10, "input:n": 48.0},
                 {"cores": 8.0}]
        scalar, grouped = _both_backends(cells)
        assert [_point_tuple(p) for p in grouped.points] == \
            [_point_tuple(p) for p in scalar.points]
        assert grouped.cache_stats["lane_groups"] >= 1

    def test_lane_counters_in_cache_stats(self):
        cells = [{"bandwidth": 1e10, "input:n": float(n)}
                 for n in range(8, 40)]
        _, grouped = _both_backends(cells)
        stats = grouped.cache_stats
        assert stats["lanes_vectorized"] == float(len(cells))
        assert stats["lanes_fallback"] == 0.0
        assert stats["lane_groups"] >= 1.0


# -- chaos + checkpoint through the grouped path ------------------------------

class TestGroupedUnderFaults:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_seeded_chaos_on_pool_bit_identical(self, seed):
        cells = [{"bandwidth": bw, "input:n": float(n)}
                 for bw in (1e10, 2e10)
                 for n in range(8, 26)]
        machine = _machine()
        clear_symbolic_cache()
        scalar = evaluate_cells(machine, cells, program=PROGRAM,
                                inputs=BASE_INPUTS, backend="scalar",
                                validate=False)
        shards = 4
        clear_symbolic_cache()
        chaotic = evaluate_cells(
            machine, cells, program=PROGRAM, inputs=BASE_INPUTS,
            backend="vector", executor="pool", workers=2,
            shards=shards, chaos=ChaosSchedule.seeded(seed, shards),
            validate=False)
        assert [_point_tuple(p) for p in chaotic.points] == \
            [_point_tuple(p) for p in scalar.points]
        assert chaotic.cache_stats["lanes_fallback"] == 0.0

    def test_checkpoint_resume_mid_group(self, tmp_path):
        cells = [{"bandwidth": bw, "input:n": float(n)}
                 for bw in (1e10, 2e10)
                 for n in range(8, 23)]          # 2 groups x 15 lanes
        machine = _machine()
        path = os.path.join(str(tmp_path), "lanes.ckpt")
        key = "lane-grouping-test"
        clear_symbolic_cache()
        # first pass covers a prefix that ends mid-way through group 1
        first = evaluate_cells(machine, cells[:9], program=PROGRAM,
                               inputs=BASE_INPUTS, backend="vector",
                               checkpoint=path, checkpoint_key=key,
                               validate=False)
        assert len(first.points) == 9
        clear_symbolic_cache()
        resumed = evaluate_cells(machine, cells, program=PROGRAM,
                                 inputs=BASE_INPUTS, backend="vector",
                                 checkpoint=path, checkpoint_key=key,
                                 resume=True, validate=False)
        clear_symbolic_cache()
        scalar = evaluate_cells(machine, cells, program=PROGRAM,
                                inputs=BASE_INPUTS, backend="scalar",
                                validate=False)
        assert [_point_tuple(p) for p in resumed.points] == \
            [_point_tuple(p) for p in scalar.points]
        # the resumed run only recomputed the un-checkpointed suffix
        assert resumed.cache_stats["lanes_vectorized"] \
            + resumed.cache_stats["lanes_fallback"] == \
            float(len(cells) - 9)

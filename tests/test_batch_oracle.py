"""The batch route against the scalar oracle on the bundled workloads.

Every point of a ``backend="vector"`` input sweep must equal the
``backend="scalar"`` point bit for bit: under every timing model the
package ships (each receives block × lane metric matrices on the batch
route), and on a CPython whose builtin ``sum`` compensates float
rounding, as 3.12 and later do.  Machine lanes — cell lists whose every
lane is another machine, with or without input axes, or over a prebuilt
tree — must equal a fresh ``build_bet`` + ``project_with_model`` per
cell, machine and name tag included, and fail where the scalar route
fails.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import block_metrics, hotspots, sensitivity, vectorized
from repro.analysis.sensitivity import project_with_model
from repro.analysis.vectorized import project_batch
from repro.arrayops import UNSAFE_LIMIT
from repro.bet import SymbolicBET, build_bet
from repro.errors import ValidationError
from repro.hardware import (
    BGQ, XEON_E5_2420, MachineLanes, RooflineModel, ensure_valid_machine,
)
from repro.hardware.cachemodel import (
    AnalyticCacheModel, ECMFactory, RooflineFactory,
)
from repro.parallel import clear_symbolic_cache, evaluate_cells, sweep_inputs
from repro.workloads import load

WORKLOADS = ("cfd", "chargei", "pedagogical", "sord", "srad", "stassuij")

FACTORIES = {
    "roofline": None,
    "ecm": ECMFactory(),
    "roofline-analytic": RooflineFactory(AnalyticCacheModel()),
    "ecm-analytic": ECMFactory(AnalyticCacheModel()),
    "roofline-division": RooflineFactory(model_division=True),
    "roofline-vectorization": RooflineFactory(model_vectorization=True),
    "ecm-division-vectorization": ECMFactory(model_division=True,
                                             model_vectorization=True),
    "roofline-no-overlap": RooflineFactory(overlap=False),
}


def _scales(count):
    """``count`` log-spaced input scale factors over [0.5, 2]."""
    return [2.0 ** (-1.0 + 2.0 * i / (count - 1)) for i in range(count)]


def _mismatches(scales, model_factory=None):
    """Points where the vector and scalar sweeps differ, over every
    bundled workload (its first input scaled) on BG/Q and Xeon."""
    bad = []
    for name in WORKLOADS:
        program, inputs = load(name)
        axis = next(iter(inputs))
        axes = {axis: [float(round(inputs[axis] * s)) for s in scales]}
        for machine in (BGQ, XEON_E5_2420):
            rows = {}
            for backend in ("scalar", "vector"):
                clear_symbolic_cache()
                result = sweep_inputs(program, machine, axes,
                                      base_inputs=inputs, backend=backend,
                                      model_factory=model_factory)
                assert not result.failures
                # every vector lane came from the batch, not a rerun
                assert result.cache_stats.get("lanes_fallback", 0) == 0
                rows[backend] = [(p.runtime, p.ranking, p.top_label,
                                  p.memory_fraction) for p in result.points]
            bad.extend((name, machine.name, index)
                       for index, (a, b) in enumerate(zip(rows["scalar"],
                                                          rows["vector"]))
                       if a != b)
    return bad


@pytest.mark.parametrize("model", sorted(FACTORIES))
def test_batch_matches_scalar_under_every_model(model):
    assert _mismatches(_scales(8), FACTORIES[model]) == []


def _compensated_sum(terms, start=0):
    """CPython 3.12's builtin ``sum`` over floats: Neumaier-compensated."""
    total, compensation = float(start), 0.0
    for term in terms:
        step = total + term
        if abs(total) >= abs(term):
            compensation += (total - step) + term
        else:
            compensation += (term - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_left_sum_folds_an_array_like_its_rows():
    # columns: all negative zeros (the int start makes the sum +0.0),
    # a cancellation a compensated sum would rescue, plain values
    rows = np.array([[-0.0, 1e16, 1.5], [-0.0, 1.0, 2.25],
                     [-0.0, -1e16, 3.0]])
    folded = block_metrics.left_sum(rows)
    assert folded.tolist() == [block_metrics.left_sum(column)
                               for column in rows.T.tolist()]
    assert folded.tolist() == [0.0, 0.0, 6.75]
    assert math.copysign(1.0, folded[0]) == 1.0
    assert block_metrics.left_sum(rows[:0]).tolist() == [0.0, 0.0, 0.0]


def test_batch_matches_scalar_with_a_compensated_builtin_sum(monkeypatch):
    # the emulation really does round differently from a left fold
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert 0 + 1e16 + 1.0 - 1e16 == 0.0
    for module in (block_metrics, hotspots, sensitivity):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert _mismatches(_scales(20)) == []


@pytest.mark.parametrize("name", ["pedagogical", "sord"])
def test_lane_tiles_match_one_pass(name, monkeypatch):
    # a wide batch is projected in lane tiles; seven lanes per tile
    # (the last one short) must give what one pass over all lanes gives
    program, inputs = load(name)
    axis = next(iter(inputs))
    lanes = 30
    cols = {key: [float(value)] * lanes for key, value in inputs.items()}
    cols[axis] = [float(round(inputs[axis] * s)) for s in _scales(lanes)]
    batch = SymbolicBET(program).rebind_batch(cols)
    # one machine for every lane, and one machine per lane
    lane_machines = MachineLanes(BGQ, _machine_cells(BGQ, lanes))
    for machine in (BGQ, lane_machines):
        monkeypatch.setattr(vectorized, "TILE_ELEMENTS", 1 << 13)
        whole = project_batch(batch, RooflineModel, machine)
        monkeypatch.setattr(vectorized, "TILE_ELEMENTS",
                            7 * len(batch.blocks))
        assert project_batch(batch, RooflineModel, machine) == whole


# -- machine lanes ------------------------------------------------------------

#: every numeric machine field the timing models read, with the values a
#: lane draws from (sizes and widths stay ints, as a user passes them)
LANE_VALUES = {
    "bandwidth": [8e9, 1.6e10, 2.8e10, 4.3e10, 6.4e10],
    "cores": [1, 2, 4, 8, 16, 48, 64],
    "frequency_hz": [8e8, 1.6e9, 2.1e9, 3.4e9],
    "l1_size": [16384, 32768, 49152],
    "llc_size": [2 ** 19, 2 ** 21, 3 * 2 ** 22, 2 ** 25],
    "l1_latency": [3.0, 4.0, 5.5],
    "llc_latency": [12.0, 30.0, 51.0],
    "dram_latency": [90.0, 230.0, 410.0],
    "flop_latency": [1.0, 4.0, 6.0],
    "iop_latency": [1.0, 2.0, 3.0],
    "issue_width": [1, 2, 4, 6],
    "vector_width": [1, 2, 4, 8],
    "simd_efficiency": [0.5, 0.8, 1.0],
    "mlp": [4.0, 10.0, 32.0],
    "div_cost": [1.0, 7.5, 20.0],
    "cache_line": [32, 64, 128],
    "bandwidth_saturation_cores": [1.0, 4.0, 12.0],
}


def _machine_cells(machine, count, seed=0):
    """``count`` machine-override cells, each field varied per lane."""
    rng = random.Random(f"{machine.name}:{count}:{seed}")
    return [{name: rng.choice(values) for name, values in LANE_VALUES.items()}
            for _ in range(count)]


_FRESH = {}


def _fresh(program, name, inputs):
    key = (name, tuple(sorted(inputs.items())))
    if key not in _FRESH:
        _FRESH[key] = build_bet(program, inputs=inputs)
    return _FRESH[key]


def _expected(program, name, inputs, base, cell, factory):
    """A fresh build and projection of one cell, and its machine."""
    tag = ",".join(f"{key}={value:g}" for key, value in cell.items())
    machine = replace(base, name=f"{base.name}[{tag}]", **{
        key: value for key, value in cell.items()
        if not key.startswith("input:")})
    bound = {**inputs, **{key[len("input:"):]: value
                          for key, value in cell.items()
                          if key.startswith("input:")}}
    projection = project_with_model(_fresh(program, name, bound),
                                    (factory or RooflineModel)(machine))
    return machine, projection


def _lane_lists(name, machine):
    """``(cells, evaluate_cells kwargs)``: machine lanes with input axes,
    half with and half without, and over the prebuilt default tree."""
    program, inputs = load(name)
    axis = next(iter(inputs))
    lanes = _machine_cells(machine, 12)
    scaled = [{**cell, "input:" + axis: float(round(inputs[axis] * scale))}
              for cell, scale in zip(lanes, _scales(4) * 3)]
    on_program = dict(program=program, inputs=inputs)
    return [(scaled, on_program),
            (scaled[:6] + lanes[6:], on_program),
            (lanes, dict(bet=_fresh(program, name, inputs)))]


@pytest.mark.parametrize("model", sorted(FACTORIES))
def test_machine_lanes_match_fresh_builds(model):
    factory = FACTORIES[model]
    for name in WORKLOADS:
        program, inputs = load(name)
        for machine in (BGQ, XEON_E5_2420):
            for cells, where in _lane_lists(name, machine):
                clear_symbolic_cache()
                result = evaluate_cells(machine, cells, backend="vector",
                                        model_factory=factory, **where)
                assert not result.failures
                # every cell came from a lane array, not a rerun
                assert result.cache_stats["lanes_vectorized"] == len(cells)
                assert result.cache_stats["lanes_fallback"] == 0
                for cell, point in zip(cells, result.points):
                    want_machine, want = _expected(
                        program, name, inputs, machine, cell, factory)
                    assert point.overrides == cell
                    assert point.machine == want_machine
                    assert (point.runtime, point.ranking, point.top_label,
                            point.memory_fraction, point.completeness) == \
                        (want["runtime"], want["ranking"],
                         want["top_label"], want["memory_fraction"],
                         want["completeness"]), (name, machine.name, cell)


def _failure_rows(result):
    return [(failure.index, failure.error_type, failure.message)
            for failure in result.failures]


def _point_rows(result):
    return [(p.overrides, p.machine, p.runtime, p.ranking, p.top_label,
             p.memory_fraction, p.completeness) for p in result.points]


def _on_both_backends(cells, where):
    """``evaluate_cells`` of ``cells`` on the scalar and vector backends,
    with an ``input:n`` binding per lane (``where="inputs"``) or over the
    prebuilt default tree."""
    program, inputs = load("pedagogical")
    if where == "inputs":
        cells = [{**cell, "input:n": float(100 + 10 * lane)}
                 for lane, cell in enumerate(cells)]
        kwargs = dict(program=program, inputs=inputs)
    else:
        kwargs = dict(bet=build_bet(program, inputs=inputs))
    results = {}
    for backend in ("scalar", "vector"):
        clear_symbolic_cache()
        results[backend] = evaluate_cells(BGQ, cells, backend=backend,
                                          **kwargs)
    return results["scalar"], results["vector"]


#: one bad lane per rule of the lane mask, with the error the scalar
#: route raises for it: building the cell machine refuses a field that is
#: not positive, ``simd_efficiency`` above 1 and ``llc_size`` below
#: ``l1_size``; its pre-flight refuses a field that is not finite
BAD_LANES = {
    3: ({"cores": 0}, "HardwareModelError"),
    5: ({"simd_efficiency": 1.5}, "HardwareModelError"),
    7: ({"bandwidth": float("nan")}, "ValidationError"),
    9: ({"llc_size": 8192}, "HardwareModelError"),
    11: ({"frequency_hz": float("inf")}, "ValidationError"),
    12: ({"issue_width": -2}, "HardwareModelError"),
}


@pytest.mark.parametrize("where", ["inputs", "tree"])
def test_invalid_machine_lanes_fail_like_the_scalar_route(where):
    # every bad lane leaves the lane array, which still carries the rest
    cells = _machine_cells(BGQ, 14)
    for lane, (override, _) in BAD_LANES.items():
        cells[lane] = {**cells[lane], **override}
    scalar, vector = _on_both_backends(cells, where)
    assert _failure_rows(vector) == _failure_rows(scalar)
    assert [row[:2] for row in _failure_rows(vector)] == [
        (lane, error) for lane, (_, error) in BAD_LANES.items()]
    assert _point_rows(vector) == _point_rows(scalar)
    assert vector.cache_stats["lanes_vectorized"] == \
        len(cells) - len(BAD_LANES)
    assert vector.cache_stats["lanes_fallback"] == 0
    assert vector.cache_stats["lane_groups"] == 1


def test_bad_machine_lanes_and_replay_fallback_lanes_in_one_chunk():
    # a bad machine lane leaves the array before the replay, a lane the
    # replay marks bad stays in it: lanes 6 and 12 sit at batch positions
    # 5 and 10, and every result must still land on its own cell
    program, inputs = load("pedagogical")
    cells = [{**cell, "input:n": float(100 + 10 * lane)}
             for lane, cell in enumerate(_machine_cells(BGQ, 14))]
    for lane in (3, 9):
        cells[lane]["cores"] = 0
    for lane in (6, 12):
        cells[lane]["input:n"] = UNSAFE_LIMIT + 2.0 * lane
    results = {}
    for backend in ("scalar", "vector"):
        clear_symbolic_cache()
        results[backend] = evaluate_cells(BGQ, cells, backend=backend,
                                          program=program, inputs=inputs)
    scalar, vector = results["scalar"], results["vector"]
    assert [row[:2] for row in _failure_rows(vector)] == [
        (3, "HardwareModelError"), (9, "HardwareModelError")]
    assert _failure_rows(vector) == _failure_rows(scalar)
    assert len(vector.points) == 12
    assert _point_rows(vector) == _point_rows(scalar)
    assert vector.cache_stats["lanes_vectorized"] == 10
    assert vector.cache_stats["lanes_fallback"] == 2


@pytest.mark.parametrize("where", ["inputs", "tree"])
def test_a_chunk_of_bad_lanes_fails_like_the_scalar_route(where):
    cells = _machine_cells(BGQ, 12)
    for lane, (override, _) in enumerate(list(BAD_LANES.values()) * 2):
        cells[lane] = {**cells[lane], **override}
    scalar, vector = _on_both_backends(cells, where)
    assert len(vector.failures) == len(cells) and not vector.points
    assert _failure_rows(vector) == _failure_rows(scalar)
    assert vector.cache_stats["lanes_vectorized"] == 0
    assert vector.cache_stats["lane_groups"] == 0


@pytest.mark.parametrize("where", ["inputs", "tree"])
def test_lanes_on_one_set_of_overrides_match_the_scalar_route(where):
    cells = [{"bandwidth": 2.8e10, "cores": 8, "simd_efficiency": 0.5}
             for _ in range(10)]
    scalar, vector = _on_both_backends(cells, where)
    assert not vector.failures and not scalar.failures
    assert _point_rows(vector) == _point_rows(scalar)
    assert vector.cache_stats["lanes_vectorized"] == len(cells)
    assert vector.cache_stats["lane_groups"] == 1


def test_lanes_preflight_refuses_a_bad_lane():
    good = MachineLanes(BGQ, _machine_cells(BGQ, 6))
    assert good.bad.tolist() == [False] * 6
    ensure_valid_machine(good)
    for override, _ in BAD_LANES.values():
        cells = _machine_cells(BGQ, 6)
        cells[4] = {**cells[4], **override}
        lanes = MachineLanes(BGQ, cells)
        assert lanes.bad.tolist() == [False] * 4 + [True, False]
        with pytest.raises(ValidationError,
                           match="lane 4 is not a valid machine"):
            ensure_valid_machine(lanes)
        ensure_valid_machine(lanes.tile(0, 4))
    # a bad field no lane overrides makes every lane bad
    lanes = MachineLanes(replace(BGQ, bandwidth=float("nan")),
                         [{"cores": 2}, {"cores": 4}])
    assert lanes.bad.tolist() == [True, True]


class _CoreBranchingModel(RooflineModel):
    """A user model that branches on a machine field: right on one
    machine, an ambiguous truth value on a column of cores."""

    def block_time(self, metrics):
        time = super().block_time(metrics)
        if self.machine.cores > 8:
            return time
        return time._replace(overlap=0.0)


@pytest.mark.parametrize("where", ["inputs", "tree"])
def test_machine_branching_model_falls_back(where):
    program, inputs = load("pedagogical")
    cells = [{"cores": cores, "bandwidth": 1e10 * (1 + lane % 3)}
             for lane, cores in enumerate([2, 4, 8, 16, 32, 64] * 2)]
    if where == "inputs":
        cells = [{**cell, "input:n": float(100 + 10 * lane)}
                 for lane, cell in enumerate(cells)]
        kwargs = dict(program=program, inputs=inputs)
    else:
        kwargs = dict(bet=build_bet(program, inputs=inputs))
    results = {}
    for backend in ("scalar", "vector"):
        clear_symbolic_cache()
        results[backend] = evaluate_cells(
            BGQ, cells, backend=backend, model_factory=_CoreBranchingModel,
            **kwargs)
    vector = results["vector"]
    assert not vector.failures
    assert vector.cache_stats["lanes_vectorized"] == 0
    assert vector.cache_stats["lanes_fallback"] == len(cells)
    assert [(p.machine, p.runtime, p.ranking, p.memory_fraction)
            for p in vector.points] == \
        [(p.machine, p.runtime, p.ranking, p.memory_fraction)
         for p in results["scalar"].points]

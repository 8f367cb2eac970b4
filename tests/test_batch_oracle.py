"""The batch route against the scalar oracle on the bundled workloads.

Every point of a ``backend="vector"`` input sweep must equal the
``backend="scalar"`` point bit for bit: under every timing model the
package ships (each receives block × lane metric matrices on the batch
route), and on a CPython whose builtin ``sum`` compensates float
rounding, as 3.12 and later do.
"""

import math

import numpy as np
import pytest

from repro.analysis import block_metrics, hotspots, sensitivity, vectorized
from repro.analysis.vectorized import project_batch
from repro.bet import SymbolicBET
from repro.hardware import BGQ, XEON_E5_2420, RooflineModel
from repro.hardware.cachemodel import (
    AnalyticCacheModel, ECMFactory, RooflineFactory,
)
from repro.parallel import clear_symbolic_cache, sweep_inputs
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
    # (the last one short) must give what one pass over all lanes gives,
    # scattered through a lane index map the same way
    program, inputs = load(name)
    axis = next(iter(inputs))
    lanes = 30
    cols = {key: [float(value)] * lanes for key, value in inputs.items()}
    cols[axis] = [float(round(inputs[axis] * s)) for s in _scales(lanes)]
    batch = SymbolicBET(program).rebind_batch(
        cols, lane_index=range(lanes - 1, -1, -1))
    model = RooflineModel(BGQ)
    whole = project_batch(batch, model)
    monkeypatch.setattr(vectorized, "TILE_ELEMENTS",
                        7 * len(batch.blocks))
    scattered = [None] * lanes
    assert project_batch(batch, model, out=scattered) == whole
    assert scattered == whole[::-1]

"""Pinned explorer trajectories.

For a fixed seed the explorer's whole trajectory is a pure function of
its arguments: the cells of every exact batch, the frontier, the
hypervolume, the reference point and the surrogate-error trace.  Each
configuration below hashes all of that into one SHA-256 digest and
compares it with a value recorded before acquisition scored candidate
pools as arrays, so any change to the sampler, the surrogates,
acquisition scoring or batch selection that moves a single bit of the
trajectory fails here; :func:`scoring_digest` pins the surrogate
predictions and hypervolume improvements themselves the same way.
The configurations cover both surrogate families, the 1-D
closed-form, 2-D staircase and ≥3-D Monte-Carlo hypervolume paths, an
axis objective to maximize, a machine-only space built from
``program=``, and the 10^6-cell benchmark space with full-size
candidate pools.

The second half of the module checks the array code against the
per-candidate loops it replaced, on random (and tie-heavy) inputs, in
any environment.

A digest is a property of the floating-point environment as much as of
the code: the exact model, ``sum()`` over floats (compensated from
CPython 3.12 on), libm ``pow`` and the BLAS kernels behind the ridge
fit all feed it.  :func:`float_environment` hashes those ingredients
on fixed inputs; the digests are compared only where it matches the
environment they were recorded in (CPython 3.11, numpy 2.4 with its
bundled OpenBLAS, glibc on x86-64).
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.explore.engine as explore_engine
from repro.explore import (
    HypervolumeBox, RidgeSurrogate, TreeSurrogate, explore, select_batch,
    surrogate_by_name,
)
from repro.explore.acquire import _dominates
from repro.hardware import BGQ, XEON_E5_2420
from repro.workloads import load

#: the small mixed machine x input space of tests/test_explore.py
SMALL = {
    "bandwidth": [b * 1e9 for b in (5, 10, 15, 20, 25, 30)],
    "cores": [1.0, 2.0, 4.0, 8.0, 16.0],
    "input:n": [float(n) for n in range(200, 1800, 200)],
}

#: a machine-only space; the explorer builds its BET from program=
MACHINE_ONLY = {
    "bandwidth": [b * 1e9 for b in range(4, 44, 4)],
    "cores": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
    "frequency_hz": [f * 1e8 for f in range(8, 28, 4)],
}

#: the 25 x 8 x 10 x 500 = 10^6-cell space of benchmarks/bench_explore.py
BENCH = {
    "bandwidth": [b * 1e9 for b in range(2, 52, 2)],
    "cores": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0],
    "frequency_hz": [f * 1e8 for f in range(8, 28, 2)],
    "input:n": [float(n) for n in range(100, 5100, 10)],
}

#: name -> (axes, machine, objectives, explore keyword arguments)
CONFIGS = {
    "ridge-runtime-bandwidth": (
        SMALL, BGQ, ["runtime", "bandwidth:min"],
        dict(budget=60, rounds=3, seed=5, surrogate="ridge")),
    "tree-runtime-bandwidth": (
        SMALL, BGQ, ["runtime", "bandwidth:min"],
        dict(budget=60, rounds=3, seed=5, surrogate="tree")),
    "single-objective": (
        SMALL, BGQ, ["runtime"],
        dict(budget=40, rounds=3, seed=4)),
    "monte-carlo-three-objectives": (
        SMALL, BGQ, ["runtime", "bandwidth:min", "input:n:max"],
        dict(budget=50, rounds=2, seed=1)),
    "input-axis-max": (
        SMALL, BGQ, ["runtime", "input:n:max"],
        dict(budget=60, rounds=3, seed=2)),
    "machine-only-xeon": (
        MACHINE_ONLY, XEON_E5_2420, ["runtime", "cores:min"],
        dict(budget=48, rounds=3, seed=3)),
    "bench-space-ridge": (
        BENCH, BGQ, ["runtime", "bandwidth:min"],
        dict(budget=256, rounds=4, seed=7, surrogate="ridge")),
    "bench-space-tree": (
        BENCH, BGQ, ["runtime", "bandwidth:min"],
        dict(budget=128, rounds=3, seed=8, surrogate="tree")),
    "bench-space-monte-carlo": (
        BENCH, BGQ, ["runtime", "bandwidth:min", "memory_fraction"],
        dict(budget=96, rounds=2, seed=9)),
}

#: SHA-256 of each configuration's trajectory
DIGESTS = {
    "ridge-runtime-bandwidth":
        "4b075acfa101ff1b246839e0eabd6c162ae2fd2f0e85de391d7029a4574bc946",
    "tree-runtime-bandwidth":
        "c216313be2e80b679ec15af899818dc4ec0030019aef6ee4333a64e3c454884e",
    "single-objective":
        "97052b32faee56d291a24a8355f9bcbca903e71895d33d3dc09219cbb63007fd",
    "monte-carlo-three-objectives":
        "421ae9f6a22beedaaaeacb3f225e1a048468ae28327a5e40b7b3d91eb5115671",
    "input-axis-max":
        "ef9e7a5e1694f69162b632d84a333d5c27fb454545cbfeb688af7e640e5dff6b",
    "machine-only-xeon":
        "a738792a147fd9ae58a2795fd492b7b8276c826ba4b3b511d64eb2789d3ae8c4",
    "bench-space-ridge":
        "b42be53fddcdfa6f8951c4a71e1e16f0025c67c9ce87f71c14a026d0d31b0a4c",
    "bench-space-tree":
        "ea7ccc53baf57b5aae1ff70ff1163b0fa8a6e2e7107a5054de66984280d10292",
    "bench-space-monte-carlo":
        "5b906e1ec37ef6e75f1778fe9dde18775c13cf6a7ba5c48304a4a41247171a58",
}

#: SHA-256 of :func:`scoring_digest` per surrogate, recorded alongside
#: :data:`DIGESTS`
SCORING_DIGESTS = {
    "ridge":
        "2992ce2d86ece209defed259d6a6deaab10bda43d32ac767bf2bbfb249e4c455",
    "tree":
        "836c8267a72275b9ebd436de40b6d1f72842898e3a1184271153cec8e5583033",
}

#: :func:`float_environment` where the digests were recorded
RECORDED_ENVIRONMENT = \
    "38d8e93c71e07a06e2759d81041fad5852579d3070aa82cb972cd3451c39d586"


def float_environment():
    """SHA-256 over the float results the trajectories depend on, for
    fixed inputs: builtin ``sum``, ``pow`` and libm functions, and a
    BLAS Gram matrix with its LAPACK solve."""
    values = [((i * 7919) % 1009) / 37.0 - 13.0 for i in range(1600)]
    design = np.asarray(values[:1500]).reshape(100, 15)
    normal = design.T @ design + 1e-6 * np.eye(15)
    weights = np.linalg.solve(normal,
                              design.T @ np.asarray(values[1500:]))
    parts = [sum(values)]
    parts += [pow(v, 2) for v in values]
    parts += [abs(v) ** 1.5 + math.log(abs(v) + 1.0) + math.exp(v / 8.0)
              for v in values]
    parts += normal.ravel().tolist() + weights.tolist()
    text = ",".join(float(part).hex() for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def recorded_environment():
    """Skip unless this is the environment the digests come from."""
    if float_environment() != RECORDED_ENVIRONMENT:
        pytest.skip("floating-point environment differs from the one "
                    "the digests were recorded in")


def trajectory_digest(name, monkeypatch):
    """Run configuration ``name`` and hash its whole trajectory."""
    axes, machine, objectives, options = CONFIGS[name]
    program, inputs = load("pedagogical")
    batches = []
    evaluate = explore_engine.evaluate_cells

    def recording(base_machine, cells, **kwargs):
        batches.append([sorted(cell.items()) for cell in cells])
        return evaluate(base_machine, cells, **kwargs)

    monkeypatch.setattr(explore_engine, "evaluate_cells", recording)
    result = explore(axes, machine, objectives, program=program,
                     inputs=inputs, **options)
    payload = {
        "batches": batches,
        "frontier": [point.as_dict() for point in result.frontier],
        "hypervolume": result.hypervolume,
        "reference": result.reference,
        "error_trace": result.error_trace,
        "evaluations": result.evaluations,
        "rounds": result.rounds,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scoring_digest(surrogate):
    """Hash of the acquisition ingredients on fixed data: surrogate
    means and stds, and hypervolume improvements of the resulting LCB
    vectors in 1, 2 and 3 objectives."""
    grid = [(i / 49.0, j / 19.0, k / 9.0)
            for i in range(50) for j in range(20) for k in range(10)]
    train = grid[::37]
    targets = [math.sin(7.0 * x) + y * y - 0.5 * x * z + (x > 0.6)
               for x, y, z in train]
    model = surrogate_by_name(surrogate, seed=3)
    model.fit(train, targets)
    means, stds = model.predict(grid)
    lcb = [(m - s, x + m * 0.01, 1.0 - y)
           for m, s, (x, y, _) in zip(means, stds, grid)]
    parts = means + stds
    for dims in (1, 2, 3):
        vectors = [v[:dims] for v in lcb[::4]]
        reference = [max(v[d] for v in vectors) + 0.1
                     for d in range(dims)]
        front = vectors[::7]
        box = HypervolumeBox(front, reference, seed=2, samples=1024)
        parts.append(box.volume)
        parts += [box.improvement(v) for v in vectors]
    text = ",".join(float(part).hex() for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("surrogate", sorted(SCORING_DIGESTS))
def test_scoring_is_pinned(surrogate, recorded_environment):
    assert scoring_digest(surrogate) == SCORING_DIGESTS[surrogate]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trajectory_is_pinned(name, monkeypatch, recorded_environment):
    assert trajectory_digest(name, monkeypatch) == DIGESTS[name]


# -- the array code against the per-candidate loops it replaced ---------------

COMMON = dict(suppress_health_check=[HealthCheck.too_slow], deadline=None)

#: few distinct values, so ties and duplicates are common
TIED = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.25])
VALUES = st.one_of(TIED, st.floats(min_value=-0.5, max_value=1.5))


def _left_sum(values):
    """``sum`` as CPython 3.11 computes it: left to right from zero."""
    total = 0.0
    for value in values:
        total += value
    return total


def _loop_moments(votes):
    mean = _left_sum(votes) / len(votes)
    var = _left_sum((v - mean) ** 2 for v in votes) / len(votes)
    return mean, math.sqrt(var)


def _loop_ridge(model, features):
    means, stds = [], []
    for coords in features:
        row = [1.0, *coords] + [coords[i] * coords[j]
                                for i in range(len(coords))
                                for j in range(i, len(coords))]
        votes = [_left_sum(w * x for w, x in zip(weights, row))
                 for weights in model._weights.tolist()]
        mean, std = _loop_moments(votes)
        means.append(mean * model._y_scale + model._y_shift)
        stds.append(max(std * model._y_scale, 1e-12))
    return means, stds


def _loop_tree(model, features):
    means, stds = [], []
    for coords in features:
        votes = []
        for tree in range(len(model._feature)):
            node = 0
            while model._low[tree, node] != node:      # leaves loop back
                node = model._low[tree, node] \
                    if coords[model._feature[tree, node]] \
                    <= model._threshold[tree, node] \
                    else model._high[tree, node]
            votes.append(float(model._value[tree, node]))
        mean, std = _loop_moments(votes)
        means.append(mean)
        stds.append(max(std, 1e-12))
    return means, stds


def _loop_staircase(front, reference):
    ref0, ref1 = reference
    total, upper1 = 0.0, ref1
    for p0, p1 in sorted(front):
        if p1 < upper1:
            total += (ref0 - p0) * (upper1 - p1)
            upper1 = p1
    return total


def _covers(point, sample):
    return _dominates(point, sample) or tuple(point) == tuple(sample)


def _loop_improvement(box, candidate):
    point = tuple(float(v) for v in candidate)
    if any(v >= r for v, r in zip(point, box.reference)):
        return 0.0
    if box.dims == 1:
        best = min((p[0] for p in box.front), default=box.reference[0])
        return max(best - point[0], 0.0)
    if box.dims == 2:
        return _loop_staircase(box.front + [point], box.reference) \
            - box.volume
    samples = [tuple(sample) for sample in box._samples.tolist()]
    if not samples:
        volume = 1.0
        for v, r in zip(point, box.reference):
            volume *= max(r - v, 0.0)
        return volume
    gained = sum(1 for sample in samples
                 if not any(_covers(p, sample) for p in box.front)
                 and _covers(point, sample))
    return box._box_volume * gained / len(samples)


def _loop_select(candidates, scores, coords, batch, spacing):
    ranked = sorted(candidates, key=lambda i: (-scores[i], i))
    picked, skipped = [], []
    for index in ranked:
        if len(picked) >= batch:
            break
        if spacing > 0.0 and any(
                max(abs(a - b) for a, b in zip(coords[index],
                                               coords[other]))
                < spacing for other in picked):
            skipped.append(index)
            continue
        picked.append(index)
    for index in skipped:
        if len(picked) >= batch:
            break
        picked.append(index)
    return picked


def _lattice(axes):
    return st.lists(st.tuples(*[st.integers(0, 8).map(lambda c: c / 8.0)
                                for _ in range(axes)]),
                    min_size=1, max_size=40)


@st.composite
def training_sets(draw):
    axes = draw(st.integers(min_value=1, max_value=4))
    features = draw(_lattice(axes))
    targets = draw(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                            min_size=len(features),
                            max_size=len(features)))
    queries = draw(_lattice(axes))
    return features, targets, queries


class TestArrayCodeMatchesLoops:
    @given(data=training_sets(), seed=st.integers(0, 50))
    @settings(max_examples=40, **COMMON)
    def test_ridge_predict(self, data, seed):
        features, targets, queries = data
        model = RidgeSurrogate(seed=seed)
        model.fit(features, targets)
        assert model.predict(queries) == _loop_ridge(model, queries)

    @given(data=training_sets(), seed=st.integers(0, 50))
    @settings(max_examples=40, **COMMON)
    def test_tree_predict(self, data, seed):
        features, targets, queries = data
        model = TreeSurrogate(seed=seed, min_leaf=1)
        model.fit(features, targets)
        assert model.predict(queries) == _loop_tree(model, queries)

    @given(dims=st.integers(min_value=1, max_value=3),
           data=st.data(), seed=st.integers(0, 50))
    @settings(max_examples=60, **COMMON)
    def test_hypervolume_improvements(self, dims, data, seed):
        vector = st.tuples(*[VALUES] * dims)
        front = data.draw(st.lists(vector, max_size=10))
        reference = data.draw(st.tuples(*[st.sampled_from([1.0, 1.1])]
                                        * dims))
        candidates = data.draw(st.lists(vector, min_size=1, max_size=30))
        candidates += front[:3]
        box = HypervolumeBox(front, reference, seed=seed, samples=256)
        if dims == 2:
            assert box.volume == _loop_staircase(box.front, reference)
        gains = box.improvements(candidates).tolist()
        assert gains == [_loop_improvement(box, c) for c in candidates]
        assert [box.improvement(c) for c in candidates] == gains

    @given(data=st.data(), batch=st.integers(0, 30),
           spacing=st.sampled_from([0.0, 0.1, 0.3]))
    @settings(max_examples=60, **COMMON)
    def test_select_batch(self, data, batch, spacing):
        candidates = sorted(data.draw(st.sets(st.integers(0, 500),
                                              max_size=60)))
        scores = {i: data.draw(st.sampled_from([0.0, -0.0, 0.5, 1.0,
                                                2.0]))
                  for i in candidates}
        coords = {i: data.draw(st.tuples(TIED, TIED)) for i in candidates}
        expected = _loop_select(candidates, scores, coords, batch, spacing)
        assert select_batch(candidates, scores, coords, batch,
                            spacing=spacing) == expected
        assert select_batch(
            candidates, [scores[i] for i in candidates],
            np.asarray([coords[i] for i in candidates]).reshape(-1, 2),
            batch, spacing=spacing) == expected

"""Tests for the surrogate-guided explorer (`repro.explore`): lazy grid
addressing, low-discrepancy sampling, surrogate fits, Pareto/hypervolume
acquisition, the exact-evaluation loop with checkpoint/resume, executor
determinism, and the CLI surface."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import AnalysisError, CheckpointError
from repro.explore import (
    ExploreResult, GridSpace, HypervolumeBox, Objective, RidgeSurrogate,
    TreeSurrogate, explore, halton, hypervolume, pareto_indices,
    parse_objectives, select_batch, surrogate_by_name, verify_frontier,
)
from repro.export import explore_to_dict
from repro.hardware import BGQ
from repro.parallel import clear_symbolic_cache
from repro.workloads import load


@pytest.fixture(scope="module")
def workload():
    return load("pedagogical")


AXES = {
    "bandwidth": [b * 1e9 for b in (5, 10, 15, 20, 25, 30)],
    "cores": [1.0, 2.0, 4.0, 8.0, 16.0],
    "input:n": [float(n) for n in range(200, 1800, 200)],
}


# -- GridSpace ----------------------------------------------------------------

class TestGridSpace:
    def test_lazy_addressing_roundtrip(self):
        space = GridSpace(AXES)
        assert space.size == 6 * 5 * 8
        assert len(space) == space.size
        for index in (0, 1, 7, 39, space.size - 1):
            coords = space.coords(index)
            assert space.index(coords) == index
        # row-major: last axis fastest, matching sweep_grid cell order
        assert space.cell(0) == {"bandwidth": 5e9, "cores": 1.0,
                                 "input:n": 200.0}
        assert space.cell(1)["input:n"] == 400.0
        assert space.cell(8)["cores"] == 2.0

    def test_huge_space_is_cheap(self):
        space = GridSpace({"a": list(range(1000)),
                           "b": list(range(1000)),
                           "c": list(range(1000))})
        assert space.size == 10 ** 9
        cell = space.cell(123456789)
        assert cell == {"a": 123.0 if False else 123,
                        "b": 456, "c": 789}

    def test_neighbors(self):
        space = GridSpace(AXES)
        index = space.index((2, 2, 3))
        moved = {tuple(space.coords(n)) for n in space.neighbors(index)}
        assert moved == {(1, 2, 3), (3, 2, 3), (2, 1, 3), (2, 3, 3),
                         (2, 2, 2), (2, 2, 4)}
        corner = space.index((0, 0, 0))
        assert len(space.neighbors(corner)) == 3

    def test_unit_coords(self):
        space = GridSpace(AXES)
        assert space.unit_coords(0) == (0.0, 0.0, 0.0)
        assert space.unit_coords(space.size - 1) == (1.0, 1.0, 1.0)

    def test_rejects_bad_axes(self):
        with pytest.raises(AnalysisError):
            GridSpace({})
        with pytest.raises(AnalysisError):
            GridSpace({"a": []})
        with pytest.raises(AnalysisError):
            GridSpace({"a": [1.0, 1.0]})

    def test_fingerprint_tracks_content(self):
        assert GridSpace(AXES).fingerprint() == \
            GridSpace(AXES).fingerprint()
        other = dict(AXES)
        other["cores"] = [1.0, 2.0]
        assert GridSpace(other).fingerprint() != \
            GridSpace(AXES).fingerprint()

    def test_sample_initial_deterministic_and_distinct(self):
        space = GridSpace(AXES)
        picked = space.sample_initial(40, seed=7)
        assert picked == space.sample_initial(40, seed=7)
        assert len(picked) == 40 == len(set(picked))
        assert picked != space.sample_initial(40, seed=8)

    def test_sample_initial_spreads_over_axes(self):
        space = GridSpace({"a": list(range(100)),
                           "b": list(range(100))})
        picked = space.sample_initial(64, seed=0)
        coords = [space.coords(index) for index in picked]
        # a space-filling design touches most deciles of each axis
        for axis in range(2):
            deciles = {c[axis] // 10 for c in coords}
            assert len(deciles) >= 8

    def test_sample_initial_exhausts_small_spaces(self):
        space = GridSpace({"a": [1.0, 2.0], "b": [1.0, 2.0]})
        assert sorted(space.sample_initial(99, seed=0)) == [0, 1, 2, 3]

    def test_halton_low_discrepancy(self):
        values = [halton(i, 2) for i in range(64)]
        assert len(set(values)) == 64
        assert all(0.0 <= v < 1.0 for v in values)
        # each half of [0,1) gets half the early points
        assert sum(1 for v in values[:16] if v < 0.5) == 8


# -- surrogates ---------------------------------------------------------------

class TestSurrogates:
    FEATURES = [(i / 19.0, j / 4.0) for i in range(20) for j in range(5)]

    @staticmethod
    def _target(coords):
        return 3.0 + 2.0 * coords[0] - coords[1] + coords[0] * coords[1]

    @pytest.mark.parametrize("name", ["ridge", "tree"])
    def test_fit_predict_and_determinism(self, name):
        targets = [self._target(c) for c in self.FEATURES]
        first = surrogate_by_name(name, seed=1)
        first.fit(self.FEATURES, targets)
        means, stds = first.predict(self.FEATURES[:10])
        again = surrogate_by_name(name, seed=1)
        again.fit(self.FEATURES, targets)
        assert (means, stds) == again.predict(self.FEATURES[:10])
        assert all(s > 0 for s in stds)
        error = sum(abs(m - self._target(c))
                    for m, c in zip(means, self.FEATURES[:10])) / 10
        span = max(targets) - min(targets)
        assert error < 0.2 * span

    def test_ridge_recovers_polynomial(self):
        targets = [self._target(c) for c in self.FEATURES]
        model = RidgeSurrogate(seed=0)
        model.fit(self.FEATURES, targets)
        means, _ = model.predict([(0.35, 0.6)])
        assert means[0] == pytest.approx(self._target((0.35, 0.6)),
                                         rel=0.05)

    def test_tree_captures_cliff(self):
        targets = [0.0 if c[0] < 0.5 else 10.0 for c in self.FEATURES]
        model = TreeSurrogate(seed=0)
        model.fit(self.FEATURES, targets)
        means, _ = model.predict([(0.1, 0.5), (0.9, 0.5)])
        assert means[0] < 2.0 and means[1] > 8.0

    def test_unknown_name(self):
        with pytest.raises(AnalysisError):
            surrogate_by_name("kriging")


# -- objectives, Pareto, hypervolume ------------------------------------------

class TestAcquisitionMath:
    def test_parse_objectives(self):
        parsed = parse_objectives(["runtime", "bandwidth:min"],
                                  ("bandwidth", "cores"))
        assert [o.render() for o in parsed] == ["runtime:min",
                                                "bandwidth:min"]
        with pytest.raises(AnalysisError):
            parse_objectives(["nonsense"], ("bandwidth",))
        with pytest.raises(AnalysisError):
            parse_objectives(["bandwidth:min"], ("bandwidth",))
        with pytest.raises(AnalysisError):
            parse_objectives(["runtime", "runtime"], ())

    def test_objective_direction(self):
        maximize = Objective("input:n", "max")
        assert maximize.canonical(5.0) == -5.0
        assert maximize.actual(-5.0) == 5.0
        with pytest.raises(AnalysisError):
            Objective("runtime", "sideways")

    def test_pareto_indices(self):
        vectors = [(1.0, 4.0), (2.0, 2.0), (3.0, 3.0), (4.0, 1.0),
                   (2.0, 2.0), (1.0, 4.0)]
        assert pareto_indices(vectors) == [0, 1, 3]

    def test_hypervolume_2d_exact(self):
        front = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        # staircase against (4, 4): 3 + 2 + 1 unit columns... computed:
        # (4-1)*(4-3) + (4-2)*(3-2) + (4-3)*(2-1) = 3 + 2 + 1
        assert hypervolume(front, (4.0, 4.0)) == 6.0
        assert hypervolume([], (4.0, 4.0)) == 0.0
        # dominated and out-of-reference points add nothing
        assert hypervolume(front + [(2.5, 2.5), (9.0, 0.5)],
                           (4.0, 4.0)) == 6.0

    def test_hypervolume_improvement_2d(self):
        box = HypervolumeBox([(1.0, 3.0), (3.0, 1.0)], (4.0, 4.0))
        assert box.improvement((2.0, 2.0)) == pytest.approx(1.0)
        assert box.improvement((3.5, 3.5)) == 0.0
        assert box.improvement((0.5, 0.5)) > 1.0

    def test_hypervolume_3d_monte_carlo(self):
        front = [(1.0, 1.0, 1.0)]
        estimate = hypervolume(front, (2.0, 2.0, 2.0), seed=0)
        assert estimate == pytest.approx(1.0, rel=0.15)
        assert estimate == hypervolume(front, (2.0, 2.0, 2.0), seed=0)

    def test_select_batch_deterministic_with_spacing(self):
        candidates = [0, 1, 2, 3]
        scores = {0: 1.0, 1: 1.0, 2: 0.5, 3: 0.2}
        coords = {0: (0.0,), 1: (0.01,), 2: (0.5,), 3: (1.0,)}
        # tie breaks on index; 1 is too close to 0 so 2 jumps the queue
        assert select_batch(candidates, scores, coords, 2,
                            spacing=0.1) == [0, 2]
        assert select_batch(candidates, scores, coords, 4,
                            spacing=0.1) == [0, 2, 3, 1]


# -- the exploration loop -----------------------------------------------------

class TestExplore:
    def _explore(self, workload, **kwargs):
        program, inputs = workload
        options = dict(program=program, inputs=inputs, budget=60,
                       rounds=3, seed=5)
        options.update(kwargs)
        return explore(AXES, BGQ, ["runtime", "bandwidth:min"], **options)

    def test_budget_respected_and_frontier_exact(self, workload):
        program, inputs = workload
        result = self._explore(workload)
        assert isinstance(result, ExploreResult)
        assert result.evaluations <= 60
        assert result.grid_size == 240
        assert 0 < result.eval_fraction <= 60 / 240
        assert result.frontier and result.hypervolume > 0
        assert verify_frontier(result, BGQ, program=program,
                               inputs=inputs) == len(result.frontier)

    def test_frontier_is_nondominated(self, workload):
        result = self._explore(workload)
        vectors = [tuple(o.canonical(p.objectives[o.name])
                         for o in result.objectives)
                   for p in result.frontier]
        assert pareto_indices(vectors) == list(range(len(vectors)))

    def test_deterministic_across_executors(self, workload):
        clear_symbolic_cache()
        serial = self._explore(workload, executor="serial")
        clear_symbolic_cache()
        pooled = self._explore(workload, executor="pool", workers=2)
        assert [p.as_dict() for p in serial.frontier] == \
            [p.as_dict() for p in pooled.frontier]
        assert serial.hypervolume == pooled.hypervolume
        assert serial.evaluations == pooled.evaluations

    def test_seed_changes_trajectory(self, workload):
        first = self._explore(workload, seed=5)
        other = self._explore(workload, seed=6)
        assert first.seed != other.seed  # trajectories may coincide on
        # tiny spaces, but the seeds must at least be recorded faithfully

    def test_rounds_zero_is_plain_design(self, workload):
        result = self._explore(workload, rounds=0, budget=30)
        assert result.rounds == 0
        assert result.evaluations == 30
        assert result.error_trace == []

    def test_error_trace_records_each_round(self, workload):
        result = self._explore(workload)
        assert len(result.error_trace) == result.rounds
        for entry in result.error_trace:
            assert "runtime" in entry and entry["evaluated"] > 0

    def test_checkpoint_resume_replays_trajectory(self, workload,
                                                  tmp_path):
        program, inputs = workload
        path = str(tmp_path / "explore.json")
        first = self._explore(workload, checkpoint=path)
        resumed = self._explore(workload, checkpoint=path, resume=True)
        assert [p.as_dict() for p in first.frontier] == \
            [p.as_dict() for p in resumed.frontier]
        assert resumed.hypervolume == first.hypervolume
        # everything came from disk: the resumed run spent ~no time in
        # the exact engine relative to a cold run is racy to assert, but
        # the checkpoint must hold every evaluation
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["completed"]) == first.evaluations
        assert payload["settings"]["cache_model"] == "default"

    def test_checkpoint_refuses_different_settings(self, workload,
                                                   tmp_path):
        from repro.hardware.cachemodel import (
            ConstantCacheModel, RooflineFactory,
        )
        path = str(tmp_path / "explore.json")
        self._explore(workload, checkpoint=path)
        with pytest.raises(CheckpointError, match="SKOP706"):
            self._explore(workload, checkpoint=path, resume=True,
                          model_factory=RooflineFactory(
                              ConstantCacheModel(miss_rate=0.5)))

    def test_checkpointed_auto_backend_holds_across_rounds(
            self, workload, tmp_path):
        # 16 of 32 cells in two rounds: the initial design has 8 cells
        # and a later round fewer, so resolving ``auto`` per round would
        # store the rounds under two backends, which the checkpoint
        # refuses (SKOP706)
        program, inputs = workload
        axes = {"bandwidth": [10e9, 20e9, 30e9, 40e9],
                "input:n": [64.0, 128.0, 256.0, 512.0],
                "frequency_hz": [1e9, 2e9]}
        path = str(tmp_path / "explore.json")

        def run(**options):
            return explore(axes, BGQ, ["runtime"], program=program,
                           inputs=inputs, budget=16, rounds=2,
                           checkpoint=path, **options)

        first = run()
        assert first.evaluations == 16 and first.rounds == 2
        resumed = run(resume=True)
        assert resumed.evaluations == 16
        assert resumed.cache_stats["bet_builds"] == 0
        assert resumed.cache_stats["bet_replays"] == 0
        assert [p.as_dict() for p in resumed.frontier] == \
            [p.as_dict() for p in first.frontier]

    def test_checkpoint_resumes_under_another_backend(self, workload,
                                                      tmp_path):
        # a backend is not part of a checkpoint's identity: every round
        # of the vector run is served from disk to the scalar one
        program, inputs = workload
        axes = {"bandwidth": [10e9, 20e9, 30e9, 40e9],
                "input:n": [64.0, 128.0, 256.0, 512.0],
                "frequency_hz": [1e9, 2e9]}
        path = str(tmp_path / "explore.json")

        def run(**options):
            return explore(axes, BGQ, ["runtime"], program=program,
                           inputs=inputs, budget=16, rounds=2,
                           checkpoint=path, **options)

        first = run(backend="vector")
        resumed = run(backend="scalar", resume=True)
        assert resumed.evaluations == first.evaluations == 16
        assert resumed.cache_stats["bet_builds"] == 0
        assert resumed.cache_stats["bet_replays"] == 0
        assert [p.as_dict() for p in resumed.frontier] == \
            [p.as_dict() for p in first.frontier]

    def test_three_objectives_monte_carlo_path(self, workload):
        program, inputs = workload
        result = explore(AXES, BGQ,
                         ["runtime", "bandwidth:min", "input:n:max"],
                         program=program, inputs=inputs, budget=50,
                         rounds=2, seed=1)
        assert result.frontier
        assert len(result.reference) == 3
        assert verify_frontier(result, BGQ, program=program,
                               inputs=inputs) == len(result.frontier)

    def test_surrogate_tree_also_works(self, workload):
        result = self._explore(workload, surrogate="tree", budget=50)
        assert result.surrogate == "tree"
        assert result.frontier

    def test_rejects_bad_arguments(self, workload):
        program, inputs = workload
        with pytest.raises(AnalysisError):
            explore(AXES, BGQ, ["runtime"], program=program,
                    inputs=inputs, budget=1)
        with pytest.raises(AnalysisError):
            explore({"input:bogus": [1.0, 2.0]}, BGQ, ["runtime"],
                    program=program, inputs=inputs)
        with pytest.raises(AnalysisError):
            explore({"warp_drive": [1.0, 2.0]}, BGQ, ["runtime"],
                    program=program, inputs=inputs)
        with pytest.raises(AnalysisError):
            explore({"bandwidth": [1e9, 2e9]}, BGQ, ["runtime"])

    def test_export_schema(self, workload):
        result = self._explore(workload)
        payload = explore_to_dict(result)
        assert payload["schema_version"] == 2
        assert payload["objectives"] == ["runtime:min", "bandwidth:min"]
        assert payload["evaluations"] == result.evaluations
        assert payload["eval_fraction"] == result.eval_fraction
        assert len(payload["frontier"]) == len(result.frontier)
        json.dumps(payload)   # JSON-clean


# -- CLI ----------------------------------------------------------------------

class TestExploreCLI:
    ARGS = ["explore", "pedagogical",
            "--param", "bandwidth=5e9,10e9,20e9,30e9",
            "--param", "cores=1,2,4,8",
            "--param", "input:n=200,400,800,1600",
            "--objectives", "runtime,bandwidth:min",
            "--budget", "24", "--rounds", "2", "--seed", "3"]

    def _run(self, capsys, *extra):
        code = cli_main(self.ARGS + list(extra))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def test_plain_output(self, capsys):
        out = self._run(capsys)
        assert "frontier" in out and "exact evals" in out
        assert "frontier verified" in out

    def test_json_output(self, capsys):
        payload = json.loads(self._run(capsys, "--json"))
        assert payload["schema_version"] == 2
        assert payload["frontier_verified"] == len(payload["frontier"])
        assert payload["evaluations"] <= 24

    def test_stats_output(self, capsys):
        out = self._run(capsys, "--stats")
        assert "surrogate error trace" in out
        assert "acquire seconds" in out

    def test_checkpoint_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "explore-cli.json")
        first = self._run(capsys, "--json", "--checkpoint", path)
        second = self._run(capsys, "--json", "--checkpoint", path,
                           "--resume")
        assert json.loads(first)["frontier"] == \
            json.loads(second)["frontier"]

    def test_bad_objective_fails_cleanly(self, capsys):
        code = cli_main(self.ARGS[:-8] + ["--objectives", "warp"])
        captured = capsys.readouterr()
        assert code == 1
        assert "warp" in captured.err

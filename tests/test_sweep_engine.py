"""Tests for the parallel + cached design-space sweep engine
(`repro.parallel`): the bounded LRU cache, BET-build memoization, grid
sweeps, batched analyses, and the serial/parallel equivalence guarantee.
"""

import json

import numpy as np
import pytest

from repro.analysis.sensitivity import sweep_machine
from repro.bet import build_bet
from repro.errors import AnalysisError
from repro.experiments import analyze, cache_stats, clear_cache
from repro.experiments import pipeline
from repro.hardware import BGQ, XEON_E5_2420
from repro.parallel import (
    CacheStats, LRUCache, analyze_matrix, bet_cache_stats,
    build_bet_cached, clear_bet_cache, evaluate_cells, sweep_grid,
    sweep_inputs,
)
from repro.workloads import load


@pytest.fixture(scope="module")
def pedagogical():
    return load("pedagogical")


@pytest.fixture(scope="module")
def pedagogical_bet(pedagogical):
    program, inputs = pedagogical
    return build_bet(program, inputs=inputs)


# -- LRU cache ----------------------------------------------------------------

class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_default(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("nope") is None
        assert cache.get("nope", 42) == 42

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")            # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert "b" not in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)        # rewrite refreshes too
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert cache.get("a") == 10

    def test_counters(self):
        cache = LRUCache(maxsize=1)
        cache.get("a")            # miss
        cache.put("a", 1)
        cache.get("a")            # hit
        cache.put("b", 2)         # evicts "a"
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.requests == 2
        assert stats.hit_rate == 0.5

    def test_stats_reporting(self):
        stats = CacheStats(hits=3, misses=1, evictions=2)
        assert stats.as_dict() == {"hits": 3, "misses": 1,
                                   "evictions": 2, "quota_evictions": 0,
                                   "hit_rate": 0.75}
        assert "hit_rate=75%" in str(stats)
        assert CacheStats().hit_rate == 0.0

    def test_get_or_create_runs_factory_once(self):
        cache = LRUCache(maxsize=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_create("k", lambda: calls.append(1) or 7)
        assert value == 7
        assert len(calls) == 1
        assert cache.stats.hits == 2

    # -- per-owner quotas: one hot tenant cannot flush a shared cache --

    def test_quota_evicts_owner_lru_only(self):
        cache = LRUCache(maxsize=8, owner_quota=2)
        cache.put("a1", 1, owner="a")
        cache.put("a2", 2, owner="a")
        cache.put("b1", 3, owner="b")
        cache.put("a3", 4, owner="a")     # evicts a1, a's LRU entry
        assert "a1" not in cache
        assert cache.get("a2") == 2 and cache.get("a3") == 4
        assert cache.get("b1") == 3      # other owner untouched
        assert cache.stats.quota_evictions == 1
        assert cache.stats.evictions == 0

    def test_occupancy_reports_per_owner(self):
        cache = LRUCache(maxsize=8, owner_quota=4)
        cache.put("a1", 1, owner="a")
        cache.put("a2", 2, owner="a")
        cache.put("b1", 3, owner="b")
        cache.put("s", 4)                 # SHARED_OWNER
        assert cache.occupancy() == {"a": 2, "b": 1, "shared": 1}

    def test_rewrite_can_change_owner(self):
        cache = LRUCache(maxsize=4, owner_quota=2)
        cache.put("k", 1, owner="a")
        cache.put("k", 2, owner="b")      # entry changes hands
        assert cache.occupancy() == {"b": 1}
        assert cache.get("k") == 2

    def test_global_eviction_updates_owner_books(self):
        cache = LRUCache(maxsize=2, owner_quota=2)
        cache.put("a1", 1, owner="a")
        cache.put("b1", 2, owner="b")
        cache.put("b2", 3, owner="b")     # global eviction of a1
        assert cache.occupancy() == {"b": 2}
        assert cache.stats.evictions == 1

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=4, owner_quota=0)

    def test_get_or_create_evicts_when_full(self):
        cache = LRUCache(maxsize=1)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_clear_keeps_stats_by_default(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        cache.clear(reset_stats=True)
        assert cache.stats.hits == 0

    def test_rejects_unusable_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_never_grows_past_maxsize(self):
        cache = LRUCache(maxsize=3)
        for index in range(10):
            cache.put(index, index)
            assert len(cache) <= 3
        assert cache.stats.evictions == 7


# -- BET-build memoization ----------------------------------------------------

class TestBuildBetCached:
    def test_second_build_returns_same_tree(self, pedagogical):
        program, inputs = pedagogical
        clear_bet_cache()
        first = build_bet_cached(program, inputs)
        second = build_bet_cached(program, inputs)
        assert second is first

    def test_counts_hits_and_misses(self, pedagogical):
        program, inputs = pedagogical
        clear_bet_cache()
        before = bet_cache_stats().as_dict()
        build_bet_cached(program, inputs)
        build_bet_cached(program, inputs)
        after = bet_cache_stats().as_dict()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_different_inputs_are_different_entries(self, pedagogical):
        program, inputs = pedagogical
        clear_bet_cache()
        base = build_bet_cached(program, inputs)
        bumped = build_bet_cached(
            program, dict(inputs, n=2 * int(inputs.get("n", 64))))
        assert bumped is not base

    def test_matches_uncached_build(self, pedagogical, pedagogical_bet):
        from repro.bet.nodes import render_tree
        program, inputs = pedagogical
        clear_bet_cache()
        cached = build_bet_cached(program, inputs)
        assert cached.size() == pedagogical_bet.size()
        assert render_tree(cached) == render_tree(pedagogical_bet)


# -- grid sweeps --------------------------------------------------------------

class TestSweepGrid:
    def test_row_major_product_order(self, pedagogical_bet):
        grid = {"bandwidth": [10e9, 20e9],
                "frequency_hz": [1e9, 2e9, 3e9]}
        result = sweep_grid(pedagogical_bet, BGQ, grid)
        assert result.shape == (2, 3)
        assert result.parameters == ["bandwidth", "frequency_hz"]
        combos = [(p.overrides["bandwidth"], p.overrides["frequency_hz"])
                  for p in result.points]
        # last parameter varies fastest
        assert combos == [(10e9, 1e9), (10e9, 2e9), (10e9, 3e9),
                          (20e9, 1e9), (20e9, 2e9), (20e9, 3e9)]

    def test_point_lookup_and_best(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 40e9]})
        point = result.point(bandwidth=40e9)
        assert point.machine.bandwidth == 40e9
        assert result.best().runtime == min(result.runtime_curve())
        with pytest.raises(AnalysisError):
            result.point(bandwidth=123.0)

    def test_machines_get_descriptive_names(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9],
                             "frequency_hz": [2e9]})
        name = result.points[0].machine.name
        assert "bandwidth=1e+10" in name and "frequency_hz=2e+09" in name

    def test_point_machines_survive_copies_and_pickles(self,
                                                      pedagogical_bet):
        # each point builds its machine on first read; a copy or a
        # pickle made before that read still names the cell's machine
        import copy
        import pickle
        grid = {"bandwidth": [10e9, 20e9], "cores": [4, 8.0]}
        fresh = sweep_grid(pedagogical_bet, BGQ, grid).points
        copies = [copy.deepcopy(point) for point in fresh]
        pickles = [pickle.loads(pickle.dumps(point)) for point in fresh]
        for point in fresh:
            assert point.machine == BGQ.with_overrides(
                name=f"{BGQ.name}[bandwidth={point.overrides['bandwidth']:g}"
                     f",cores={point.overrides['cores']:g}]",
                **point.overrides)
        assert copies == pickles == fresh
        assert [type(point.machine.cores) for point in pickles] == \
            [int, float, int, float]
        with pytest.raises(AttributeError):
            fresh[0].speed

    def test_render_mentions_every_cell(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 20e9]})
        text = result.render()
        assert "design-space grid" in text
        assert text.count("\n") >= 1 + len(result.points)

    def test_timings_and_cache_stats_recorded(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"bandwidth": [10e9, 20e9]})
        for key in ("project", "total", "workers", "points"):
            assert key in result.timings
        assert result.timings["points"] == 2.0
        assert set(result.cache_stats) == \
            {"hits", "misses", "evictions", "quota_evictions",
             "hit_rate"}

    def test_cell_list_grid_is_the_axis_union(self, pedagogical_bet):
        # each axis lists its values in first-appearance order, equal
        # values (1 and 1.0) once, as first seen
        cells = [{"bandwidth": 20e9, "cores": 1}, {"bandwidth": 10e9},
                 {"cores": 1.0, "bandwidth": 20e9}, {"cores": 4},
                 {"bandwidth": 10e9, "cores": 2}, {"cores": 4.0}]
        result = evaluate_cells(BGQ, cells, bet=pedagogical_bet)
        assert result.grid == {"bandwidth": [20e9, 10e9],
                               "cores": [1, 4, 2]}
        assert [type(value) for value in result.grid["cores"]] == \
            [int, int, int]
        assert [point.overrides for point in result.points] == cells
        with pytest.raises(AnalysisError, match="not a number"):
            evaluate_cells(BGQ, [{"bandwidth": [10e9]}],
                           bet=pedagogical_bet)

    @pytest.mark.parametrize("entry", ["grid", "cells", "inputs"])
    def test_fully_resumed_run_reports_no_project_time(
            self, pedagogical, pedagogical_bet, tmp_path, entry):
        program, inputs = pedagogical
        path = str(tmp_path / "sweep.json")
        runs = {
            "grid": lambda **kw: sweep_grid(
                pedagogical_bet, BGQ, {"bandwidth": [10e9, 20e9, 30e9]},
                **kw),
            "cells": lambda **kw: evaluate_cells(
                BGQ, [{"bandwidth": 10e9, "input:n": 100.0},
                      {"bandwidth": 20e9, "input:n": 200.0},
                      {"input:n": 300.0}],
                program=program, inputs=inputs, **kw),
            "inputs": lambda **kw: sweep_inputs(
                program, BGQ, {"n": [100.0, 200.0, 300.0]},
                base_inputs=inputs, **kw)}
        first = runs[entry](checkpoint=path)
        assert first.timings["project"] > 0.0
        resumed = runs[entry](checkpoint=path, resume=True)
        assert resumed.timings["resumed"] == 3.0
        # no cell was projected, whatever the run's wall time
        assert resumed.timings["project"] == 0.0
        assert resumed.timings["total"] > 0.0

    def test_rejects_empty_grid(self, pedagogical_bet):
        with pytest.raises(AnalysisError):
            sweep_grid(pedagogical_bet, BGQ, {})
        with pytest.raises(AnalysisError):
            sweep_grid(pedagogical_bet, BGQ, {"bandwidth": []})

    def test_rejects_unknown_parameter(self, pedagogical_bet):
        with pytest.raises(AnalysisError):
            sweep_grid(pedagogical_bet, BGQ, {"warp_drive": [1.0]})


# -- numpy-typed axis values --------------------------------------------------

class TestNumpyAxisValues:
    """Axis values from ``np.arange``/``np.linspace`` behave exactly like
    the Python numbers they equal: they enter the engine converted."""

    def test_numpy_int_machine_axis_validates(self, pedagogical_bet):
        result = sweep_grid(pedagogical_bet, BGQ,
                            {"cores": np.arange(1, 4)})
        assert not result.failures
        assert _grid_signature(result) == _grid_signature(
            sweep_grid(pedagogical_bet, BGQ, {"cores": [1, 2, 3]}))
        assert [type(point.machine.cores) for point in result.points] == \
            [int] * 3
        swept = sweep_machine(pedagogical_bet, BGQ, "cores",
                              np.arange(1, 4))
        assert not swept.failures and len(swept.points) == 3

    def test_numpy_int_input_axis_batches(self, pedagogical):
        program, inputs = pedagogical
        result = sweep_inputs(program, BGQ, {"n": np.arange(100, 120)},
                              base_inputs=inputs)
        assert result.backend == "vector"
        assert result.cache_stats["lanes_vectorized"] == 20
        assert result.cache_stats["lanes_fallback"] == 0

    def test_numpy_float_axis_checkpoint_resumes_with_python_floats(
            self, pedagogical_bet, tmp_path):
        path = str(tmp_path / "grid.json")
        first = sweep_grid(pedagogical_bet, BGQ,
                           {"bandwidth": np.linspace(1e10, 3e10, 3)},
                           checkpoint=path, checkpoint_key="numpy-axis")
        again = sweep_grid(pedagogical_bet, BGQ,
                           {"bandwidth": [1e10, 2e10, 3e10]},
                           checkpoint=path, checkpoint_key="numpy-axis",
                           resume=True)
        assert again.timings["resumed"] == 3.0
        assert _grid_signature(again) == _grid_signature(first)

    def test_numpy_int_cell_exports_as_json(self, pedagogical):
        from repro.export import grid_to_dict
        program, inputs = pedagogical
        result = sweep_grid(None, BGQ, {"input:n": np.arange(100, 103)},
                            program=program, inputs=inputs)
        payload = json.loads(json.dumps(grid_to_dict(result)))
        assert [point["overrides"] for point in payload["points"]] == \
            [{"input:n": n} for n in (100, 101, 102)]


# -- serial/parallel equivalence (ISSUE: bit-identical results) ---------------

def _grid_signature(result):
    return [(p.overrides, p.machine.name, p.runtime, tuple(p.ranking),
             p.top_label, p.memory_fraction) for p in result.points]


class TestParallelEquivalence:
    def test_sweep_machine_parallel_matches_serial(self, pedagogical_bet):
        values = tuple(gbs * 1e9 for gbs in (5, 10, 20, 40))
        serial = sweep_machine(pedagogical_bet, BGQ, "bandwidth", values)
        fanned = sweep_machine(pedagogical_bet, BGQ, "bandwidth", values,
                               workers=2)
        assert [p.value for p in fanned.points] == \
            [p.value for p in serial.points]
        assert fanned.runtime_curve() == serial.runtime_curve()
        assert [p.ranking for p in fanned.points] == \
            [p.ranking for p in serial.points]
        assert [p.memory_fraction for p in fanned.points] == \
            [p.memory_fraction for p in serial.points]
        assert fanned.timings["workers"] == 2.0

    def test_sweep_grid_parallel_matches_serial(self, pedagogical_bet):
        grid = {"bandwidth": [10e9, 20e9, 40e9],
                "frequency_hz": [1e9, 2e9]}
        serial = sweep_grid(pedagogical_bet, BGQ, grid)
        fanned = sweep_grid(pedagogical_bet, BGQ, grid, workers=2)
        assert _grid_signature(fanned) == _grid_signature(serial)

    def test_analyze_matrix_parallel_matches_serial(self):
        clear_cache()
        serial = analyze_matrix(["pedagogical"], [BGQ, XEON_E5_2420])
        clear_cache()
        fanned = analyze_matrix(["pedagogical"], [BGQ, XEON_E5_2420],
                                workers=2)
        assert len(serial) == len(fanned) == 2
        for a, b in zip(serial, fanned):
            assert (a.name, a.machine) == (b.name, b.machine)
            assert a.projected_total == b.projected_total
            assert a.measured_total == b.measured_total
            assert a.model_sites() == b.model_sites()
            assert a.quality() == b.quality()


# -- batched analyses ---------------------------------------------------------

class TestAnalyzeMatrix:
    def test_row_major_task_order(self):
        clear_cache()
        results = analyze_matrix(
            ["pedagogical"], [BGQ, XEON_E5_2420],
            ablations=[{}, {"overlap": False}])
        assert [(r.name, r.machine.name) for r in results] == \
            [("pedagogical", BGQ.name), ("pedagogical", BGQ.name),
             ("pedagogical", XEON_E5_2420.name),
             ("pedagogical", XEON_E5_2420.name)]

    def test_parallel_results_seed_parent_cache(self):
        clear_cache()
        results = analyze_matrix(["pedagogical"], [BGQ, XEON_E5_2420],
                                 workers=2)
        hits_before = cache_stats().hits
        again = analyze("pedagogical", BGQ)
        assert cache_stats().hits == hits_before + 1
        assert again.projected_total == results[0].projected_total

    def test_matrix_total_timing_stamped(self):
        clear_cache()
        results = analyze_matrix(["pedagogical"], [BGQ])
        assert "matrix_total" in results[0].timings
        assert results[0].timings["matrix_total"] >= 0.0

    def test_ablation_options_respected(self):
        clear_cache()
        base, ablated = analyze_matrix(
            ["pedagogical"], [BGQ],
            ablations=[{}, {"miss_rate": 0.5}])
        assert base.projected_total != ablated.projected_total


# -- bounded pipeline cache ---------------------------------------------------

class TestPipelineCache:
    def test_analysis_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CACHE", LRUCache(maxsize=2))
        for name in ("pedagogical", "stassuij", "chargei"):
            analyze(name, BGQ)
        assert len(pipeline._CACHE) <= 2
        assert pipeline.cache_stats().evictions >= 1

    def test_repeat_analysis_hits(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CACHE", LRUCache(maxsize=2))
        first = analyze("pedagogical", BGQ)
        second = analyze("pedagogical", BGQ)
        assert second is first
        assert pipeline.cache_stats().hits == 1

    def test_clear_cache_forces_recompute(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CACHE", LRUCache(maxsize=2))
        first = analyze("pedagogical", BGQ)
        clear_cache()
        second = analyze("pedagogical", BGQ)
        assert second is not first
        assert second.projected_total == first.projected_total

    def test_per_stage_timings_recorded(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_CACHE", LRUCache(maxsize=2))
        analysis = analyze("pedagogical", BGQ)
        for key in ("profile", "build_bet", "characterize", "select",
                    "total"):
            assert key in analysis.timings
            assert analysis.timings[key] >= 0.0
        assert analysis.timings["total"] >= \
            analysis.timings["characterize"]


# -- CLI ----------------------------------------------------------------------

class TestSweepCommand:
    def test_single_parameter_sweep(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical",
                     "--param", "bandwidth=10e9,20e9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sensitivity sweep over 'bandwidth'" in out
        assert "[2 points in" in out and "workers=1]" in out

    def test_grid_sweep(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical",
                     "--param", "bandwidth=10e9,20e9",
                     "--param", "frequency_hz=1e9,2e9",
                     "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "design-space grid over bandwidth x frequency_hz" in out
        assert "[4 points in" in out and "workers=2]" in out

    def test_json_output(self, capsys):
        import json
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--json",
                     "--param", "bandwidth=10e9,20e9",
                     "--param", "frequency_hz=1e9,2e9"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"] == ["bandwidth", "frequency_hz"]
        assert len(payload["points"]) == 4
        assert "cache_stats" in payload and "timings" in payload

    def test_bad_param_syntax_is_an_error(self, capsys):
        from repro.cli import main
        code = main(["sweep", "pedagogical", "--param", "bandwidth"])
        assert code != 0
        assert "NAME=V1,V2" in capsys.readouterr().err

"""``tools/abpairs.py``: statistics, verdicts and the run schedule, on
canned perfbench output and a fake runner (no perfbench run starts)."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" \
    / "abpairs.py"
_SPEC = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abpairs)
BENCH = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
METRICS = [spec["name"] for spec in BENCH["end_to_end"]]
WORKLOADS = [entry["name"] for entry in BENCH["workloads"]]

RATE = {"name": "ops_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.25}
LATENCY = {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
           "bound": 0.25}


def _stdout(correct=True, failed=0, **metrics):
    """perfbench's output: a few report lines, then the JSON summary."""
    summary = {"correct": correct, "attempted": 100, "failed": failed,
               "metrics": {name: {"value": value, "unit": ""}
                           for name, value in metrics.items()}}
    return ("environment: {}\ndetails: {}\n"
            + "".join(f"  {name} {value}\n"
                      for name, value in metrics.items())
            + json.dumps(summary) + "\n")


def test_quartiles_are_inclusive():
    assert abpairs.quartiles([float(v) for v in range(1, 11)]) == \
        (3.25, 5.5, 7.75)
    assert abpairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_a_run_reads_its_last_line():
    record = abpairs.parse_run(0, _stdout(ops_per_s=300.0))
    assert record["ok"] and record["metrics"] == {"ops_per_s": 300.0}
    assert not abpairs.parse_run(0, _stdout(correct=False))["ok"]
    assert not abpairs.parse_run(0, _stdout(failed=2))["ok"]
    assert not abpairs.parse_run(1, _stdout(ops_per_s=300.0))["ok"]
    broken = abpairs.parse_run(0, "Traceback (most recent call last):\n")
    assert not broken["ok"] and broken["error"]


def test_ties_count_for_neither_side():
    base = [10.0, 11.0, 12.0, 13.0]
    head = [10.0, 12.0, 11.0, 13.0]
    result = abpairs.judge(RATE, base, head)
    assert (result["wins"], result["losses"], result["ties"]) == (1, 1, 2)
    assert result["ratio"] == 1.0
    assert result["verdict"] == "within bound"


def test_direction_comes_from_better():
    base = [100.0 + i for i in range(10)]
    faster = [value * 0.5 for value in base]
    # half the latency wins every pair; half the rate loses every pair
    assert abpairs.judge(LATENCY, base, faster)["wins"] == 10
    assert abpairs.judge(RATE, base, faster)["losses"] == 10
    assert abpairs.judge(LATENCY, base, faster)["verdict"] == "gain"
    assert abpairs.judge(RATE, base, faster)["verdict"] == "worse"


def test_gain_needs_nine_wins_and_a_move_beyond_the_spread():
    base = [100.0 + i for i in range(10)]
    nine = [value + 20.0 for value in base]
    nine[0] = base[0] - 1.0
    assert abpairs.judge(RATE, base, nine)["verdict"] == "gain"
    eight = list(nine)
    eight[1] = base[1] - 1.0
    assert abpairs.judge(RATE, base, eight)["verdict"] == "within bound"
    # every pair won, but by less than the parent's IQR (4.5)
    small = [value + 1.0 for value in base]
    assert abpairs.judge(RATE, base, small)["wins"] == 10
    assert abpairs.judge(RATE, base, small)["verdict"] == "within bound"


def test_a_wide_parent_spread_leaves_the_metric_unresolved():
    base = [50.0, 60.0, 100.0, 140.0, 150.0]    # IQR 80 of median 100
    head = [40.0, 50.0, 70.0, 110.0, 145.0]     # median 30% worse
    result = abpairs.judge(RATE, base, head)
    assert result["parent_rel_iqr"] == pytest.approx(0.8)
    assert result["verdict"] == "unresolved"
    # unless every change run beats every parent run: then a move
    # within the parent's spread is no gain, but it is resolved
    assert abpairs.judge(RATE, base, [160.0] * 5)["verdict"] == \
        "within bound"
    assert abpairs.judge(RATE, base, [40.0] * 5)["verdict"] == \
        "unresolved"
    # a narrow parent resolves the same move as worse
    narrow = [98.0, 99.0, 100.0, 101.0, 102.0]
    assert abpairs.judge(RATE, narrow, head)["verdict"] == "worse"


def test_the_parent_runs_first_on_odd_seeds():
    assert abpairs.schedule([1, 2, 3], ["w"]) == [
        (1, "w", "base"), (1, "w", "head"),
        (2, "w", "head"), (2, "w", "base"),
        (3, "w", "base"), (3, "w", "head")]
    calls = []

    def runner(side, workload, seed):
        calls.append((seed, workload, side))
        return abpairs.parse_run(0, _stdout(ops_per_s=float(seed)))

    runs = abpairs.run_all(runner, [1, 2], ["a", "b"])
    assert calls == abpairs.schedule([1, 2], ["a", "b"])
    assert [run["position"] for run in runs] == list(range(8))
    assert [run["side"] for run in runs if run["workload"] == "b"] == \
        ["base", "head", "head", "base"]


def _fake_main(monkeypatch, tmp_path, runs=None):
    """``abpairs.main`` on a fake runner and fake exports: three pairs,
    held-out seed 9, every metric of BENCHMARK.json.  ``runs`` maps
    ``(side, workload, seed)`` to the output of that one run."""
    def runner(side, workload, seed):
        canned = (runs or {}).get((side, workload, seed))
        if canned is not None:
            return canned
        return abpairs.parse_run(0, _stdout(
            **{name: float(seed) for name in METRICS}))

    def perfbench_runner(trees, seconds):
        # the run length is the benchmark's own
        assert seconds == BENCH["run_seconds"]
        return runner

    monkeypatch.setattr(abpairs, "SEEDS", [1, 2, 3])
    monkeypatch.setattr(abpairs, "HELD_OUT", 9)
    monkeypatch.setattr(abpairs, "OUT", tmp_path / "BENCH_perfbench.json")
    monkeypatch.setattr(abpairs, "export", lambda rev, where: {
        "commit": f"sha-{rev}", "trees": {"src": f"src-{rev}"}})
    monkeypatch.setattr(abpairs, "perfbench_runner", perfbench_runner)
    code = abpairs.main(["parent", "change"])
    return code, json.loads(abpairs.OUT.read_text())


def test_every_run_is_recorded_and_a_failed_run_fails(monkeypatch,
                                                       tmp_path):
    code, payload = _fake_main(monkeypatch, tmp_path)
    assert code == 0
    assert payload["checks"] == {"all_runs_correct": True,
                                 "no_metric_worse": True}
    assert len(payload["runs"]) == 2 * 4 * len(WORKLOADS)
    assert payload["head"] == {"rev": "change", "commit": "sha-change",
                               "trees": {"src": "src-change"}}
    for workload in WORKLOADS:
        entry = payload["workloads"][workload]
        assert entry["held_out"]["seed"] == 9
        assert entry["unjudged"] == []
        assert {metric["verdict"] for metric in
                entry["metrics"].values()} == {"unresolved"}
    failed = abpairs.parse_run(0, _stdout(
        failed=1, **{name: 1.0 for name in METRICS}))
    code, payload = _fake_main(
        monkeypatch, tmp_path, {("head", WORKLOADS[0], 2): failed})
    assert code == 1
    assert payload["checks"]["all_runs_correct"] is False
    assert [run["failed"] for run in payload["runs"]].count(1) == 1


def test_a_run_with_no_summary_is_recorded_and_its_metrics_unjudged(
        monkeypatch, tmp_path):
    crashed = abpairs.parse_run(1, "Traceback (most recent call last):\n")
    code, payload = _fake_main(
        monkeypatch, tmp_path, {("base", WORKLOADS[0], 9): crashed})
    assert code == 1
    assert payload["checks"] == {"all_runs_correct": False,
                                 "no_metric_worse": False}
    assert len(payload["runs"]) == 2 * 4 * len(WORKLOADS)
    assert [run.get("error") for run in payload["runs"]].count(
        "no JSON summary line") == 1
    first, *rest = WORKLOADS
    assert payload["workloads"][first]["metrics"] == {}
    assert payload["workloads"][first]["unjudged"] == METRICS
    for workload in rest:
        assert payload["workloads"][workload]["unjudged"] == []

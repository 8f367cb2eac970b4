"""Sweep-engine benchmark: the parallel batch layer must (a) return
bit-identical results to the serial path on a ≥32-point design-space
sweep, (b) speed the sweep up ≥2× with 4 workers when the host actually
has 4 cores, and (c) make cached re-runs effectively free.

The speedup assertion is gated on host parallelism (CI containers are
often pinned to one core, where a process pool cannot beat the serial
loop); equivalence and caching are asserted unconditionally.
"""

import os
import time

from repro.analysis.sensitivity import project_machine
from repro.bet import build_bet
from repro.experiments import analyze, cache_stats, clear_cache
from repro.hardware import BGQ
from repro.parallel import (
    analyze_matrix, bet_cache_stats, build_bet_cached, clear_bet_cache,
    clear_symbolic_cache, sweep_grid, sweep_inputs,
)
from repro.workloads import load

WORKERS = 4

#: 32 bandwidth variants of BG/Q — a realistic "how much memory bandwidth
#: does this node need" co-design question
MATRIX_MACHINES = [
    BGQ.with_overrides(name=f"bgq-bw{index:02d}",
                       bandwidth=(7 + 2 * index) * 1e9)
    for index in range(32)
]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _matrix_signature(results):
    return [(r.name, r.machine.name, r.projected_total, r.measured_total,
             tuple(r.model_sites()), r.quality()) for r in results]


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def run_matrix_comparison():
    clear_cache()
    serial, serial_s = _timed(
        lambda: analyze_matrix(["cfd"], MATRIX_MACHINES))
    clear_cache()
    fanned, fanned_s = _timed(
        lambda: analyze_matrix(["cfd"], MATRIX_MACHINES, workers=WORKERS))
    return {"serial": serial, "serial_s": serial_s,
            "fanned": fanned, "fanned_s": fanned_s,
            "speedup": serial_s / fanned_s if fanned_s else float("inf")}


def test_parallel_matrix_speedup_and_equivalence(benchmark, save_artifact):
    outcome = benchmark.pedantic(run_matrix_comparison,
                                 rounds=1, iterations=1)
    points = len(outcome["serial"])
    assert points == 32

    # the contract that makes the parallel path safe to default to
    assert _matrix_signature(outcome["fanned"]) == \
        _matrix_signature(outcome["serial"])

    cores = _usable_cores()
    lines = [
        f"design-space matrix: cfd x {points} bandwidth variants of BG/Q",
        f"{'path':>10}  {'wall':>8}  workers",
        f"{'serial':>10}  {outcome['serial_s']:7.3f}s  1",
        f"{'parallel':>10}  {outcome['fanned_s']:7.3f}s  {WORKERS}",
        f"speedup: {outcome['speedup']:.2f}x on {cores} usable core(s)",
        "results: bit-identical",
    ]
    save_artifact("sweep_engine_matrix", "\n".join(lines))

    if cores >= WORKERS:
        assert outcome["speedup"] >= 2.0, \
            f"expected >=2x with {WORKERS} workers on {cores} cores, " \
            f"got {outcome['speedup']:.2f}x"


def test_grid_sweep_parallel_identical(benchmark, save_artifact):
    program, inputs = load("cfd")
    clear_bet_cache()
    bet = build_bet_cached(program, inputs)
    grid = {"bandwidth": [gbs * 1e9
                          for gbs in (5, 10, 20, 40, 60, 80, 120, 160)],
            "frequency_hz": [0.8e9, 1.1e9, 1.6e9, 2.2e9]}

    serial = sweep_grid(bet, BGQ, grid)
    fanned = benchmark.pedantic(
        sweep_grid, args=(bet, BGQ, grid),
        kwargs={"workers": WORKERS}, rounds=1, iterations=1)

    assert len(serial.points) == 32
    assert [(p.overrides, p.runtime, tuple(p.ranking), p.memory_fraction)
            for p in fanned.points] == \
        [(p.overrides, p.runtime, tuple(p.ranking), p.memory_fraction)
         for p in serial.points]
    for result in (serial, fanned):
        assert {"project", "total", "workers", "points"} <= \
            set(result.timings)

    save_artifact(
        "sweep_engine_grid",
        fanned.render() + "\n"
        f"serial {serial.timings['total']:.3f}s vs "
        f"workers={WORKERS} {fanned.timings['total']:.3f}s "
        f"(BET cache: {bet_cache_stats()})")


def test_input_sweep_rebind_speedup(benchmark, save_artifact):
    """A 1000-point *input* sweep must beat per-point BET builds >=3x.

    The baseline rebuilds the tree from scratch for every binding (the
    only option before symbolic reuse); the fast path records one build
    and replays the annotation tape per point.  Both run serially, so
    the ratio measures the algorithmic win, not pool parallelism — and
    the results must be bit-identical.  Each path takes the best of two
    wall times so a scheduler hiccup in either 0.5–2 s window cannot
    skew the ratio.
    """
    program, inputs = load("cfd")
    axis = "nel"
    points = 1000
    values = [inputs[axis] * (0.25 + 1.5 * index / points)
              for index in range(points)]
    base = {name: value for name, value in inputs.items() if name != axis}

    def baseline():
        rows = []
        for value in values:
            bet = build_bet(program, inputs={**base, axis: value})
            rows.append(project_machine(bet, BGQ, None, 10))
        return rows

    def fast():
        # fresh recording each rep, so bind/replay counters stay exact;
        # scalar, because backend="auto" batch-replays 1000 points, and
        # this measures per-point tape replay
        clear_symbolic_cache()
        return sweep_inputs(program, BGQ, {axis: values},
                            base_inputs=base, backend="scalar")

    benchmark.pedantic(fast, rounds=1, iterations=1)  # table entry

    reference, baseline_s = min((_timed(baseline) for _ in range(2)),
                                key=lambda pair: pair[1])
    swept, sweep_s = min((_timed(fast) for _ in range(2)),
                         key=lambda pair: pair[1])

    assert len(swept.points) == points
    assert not swept.failures
    assert [(p.runtime, tuple(p.ranking), p.memory_fraction)
            for p in swept.points] == \
        [(r["runtime"], tuple(r["ranking"]), r["memory_fraction"])
         for r in reference]
    assert swept.cache_stats["bet_builds"] == 1
    assert swept.cache_stats["bet_replays"] == points - 1

    speedup = baseline_s / sweep_s if sweep_s else float("inf")
    timings = swept.timings
    save_artifact(
        "sweep_engine_inputs",
        f"input sweep: cfd, {points} values of {axis} (serial)\n"
        f"{'path':>16}  {'wall':>8}\n"
        f"{'fresh builds':>16}  {baseline_s:7.3f}s\n"
        f"{'symbolic rebind':>16}  {sweep_s:7.3f}s\n"
        f"speedup: {speedup:.2f}x  (target >=3x)\n"
        f"stages: build {timings['build']:.3f}s, "
        f"rebind {timings['rebind']:.3f}s, "
        f"compile {timings['compile']:.3f}s, "
        f"project {timings['project']:.3f}s\n"
        f"replays: {swept.cache_stats['bet_replays']:.0f}, "
        f"shape rebuilds: {swept.cache_stats['bet_shape_rebuilds']:.0f}\n"
        "results: bit-identical to per-point builds")

    assert speedup >= 3.0, \
        f"expected >=3x over per-point builds, got {speedup:.2f}x"


def test_cached_rerun_is_free(benchmark, save_artifact):
    program, inputs = load("cfd")
    clear_cache()
    clear_bet_cache()

    _, cold_s = _timed(lambda: analyze("cfd", BGQ))
    _, warm_s = _timed(lambda: analyze("cfd", BGQ))
    bet_cold = build_bet_cached(program, inputs)
    bet_warm = benchmark.pedantic(build_bet_cached,
                                  args=(program, inputs),
                                  rounds=1, iterations=1)

    assert bet_warm is bet_cold           # memoized tree, not a rebuild
    assert warm_s < cold_s                # cache hit beats recompute
    assert cache_stats().hits >= 1

    save_artifact(
        "sweep_engine_cache",
        f"analyze cfd@bgq: cold {cold_s * 1000:.1f}ms, "
        f"warm {warm_s * 1000:.3f}ms "
        f"({cold_s / warm_s if warm_s else float('inf'):.0f}x)\n"
        f"pipeline cache: {cache_stats()}\n"
        f"BET cache: {bet_cache_stats()}")

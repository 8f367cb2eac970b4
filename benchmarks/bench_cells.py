#!/usr/bin/env python
"""Lane-grouped cell evaluation benchmark (ISSUE 10 gate).

Drives :func:`repro.parallel.evaluate_cells` over a 1000-cell mixed
machine×input workload — five machine settings times two
hundred input points, deterministically shuffled so the cell list
interleaves them the way the explorer and the service coalescer hand
them over — and compares the scalar point loop against the grouped
vector path, where the whole list is one lane array with the machines
as columns (DESIGN.md §15).  A second section projects a 200-cell
machine-only grid (bandwidth × cores × frequency) over each bundled
workload's default BET as machine lanes against the scalar loop.  A
third serves a mixed sweep through a live
:class:`repro.service.AnalysisService` on a loopback port, scalar vs
auto, measuring served wall-clock.

Gates recorded in ``BENCH_cells.json`` (all must hold for CI):

* **speedup_5x** — the grouped path is >= 5x faster than scalar on the
  1000-cell mixed workload;
* **grouped_not_slower** — and never slower, the cells-fastpath CI
  floor;
* **bit_identical** — every grouped point equals its scalar twin
  (``==`` on runtime, ranking, top label, memory fraction), in the
  caller's original cell order;
* **fresh_build_sample_identical** — a deterministic sample of cells
  re-derived from scratch (fresh ``build_bet`` + fresh projection)
  matches both backends bit-identically;
* **zero_unexpected_fallbacks** — every lane vectorized, none demoted
  to the scalar fallback;
* **machine_grid_5x** / **machine_grid_bit_identical** /
  **machine_grid_zero_fallbacks** — the machine-only grids, summed over
  the six workloads, run >= 5x faster as machine lanes than on the
  scalar loop, every cell equal to its scalar twin (machine and name
  tag included), every lane vectorized;
* **served_not_slower** — the served mixed sweep on backend=auto is
  not slower than backend=scalar through the same live server.

Usage:
    python benchmarks/bench_cells.py [--quick] [--output PATH]
"""

import argparse
import http.client
import json
import pathlib
import random
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.sensitivity import project_with_model       # noqa: E402
from repro.bet import build_bet                                 # noqa: E402
from repro.hardware import RooflineModel, machine_by_name       # noqa: E402
from repro.parallel import clear_symbolic_cache, sweep_grid     # noqa: E402
from repro.parallel.engine import (                             # noqa: E402
    _cell_machine, evaluate_cells,
)
from repro.parallel.lanes import split_overrides                # noqa: E402
from repro.service import ServiceConfig, start_in_thread        # noqa: E402
from repro.workloads import load                                # noqa: E402

SEED = 20260808
WORKLOAD = "pedagogical"
BANDWIDTHS = [5e9, 1e10, 1.5e10, 2e10, 3e10]   # 5 machine settings
WORKLOADS = ("cfd", "chargei", "pedagogical", "sord", "srad", "stassuij")
#: the 10 x 5 x 4 = 200-cell machine-only grid
MACHINE_GRID = {"bandwidth": [b * 1e9 for b in range(4, 44, 4)],
                "cores": [1.0, 2.0, 8.0, 16.0, 64.0],
                "frequency_hz": [8e8, 1.2e9, 1.6e9, 2.2e9]}


def mixed_cells(points_per_group):
    """The shuffled 5 x points_per_group mixed machine x input list."""
    cells = [{"bandwidth": bandwidth, "input:n": 100.0 + 10.0 * index}
             for bandwidth in BANDWIDTHS
             for index in range(points_per_group)]
    random.Random(SEED).shuffle(cells)
    return cells


def point_tuple(point):
    return (point.overrides, point.runtime, point.ranking,
            point.top_label, point.memory_fraction)


def bench_grouped(cells, repeats):
    """Scalar vs grouped evaluate_cells over one mixed cell list."""
    program, inputs = load(WORKLOAD)
    machine = machine_by_name("bgq")
    elapsed = {}
    results = {}
    for backend in ("scalar", "auto"):
        best = float("inf")
        for _ in range(repeats):
            clear_symbolic_cache()
            started = time.perf_counter()
            results[backend] = evaluate_cells(
                machine, cells, program=program, inputs=inputs,
                backend=backend, validate=False)
            best = min(best, time.perf_counter() - started)
        elapsed[backend] = best
    grouped = results["auto"]
    scalar = results["scalar"]
    bit_identical = ([point_tuple(p) for p in grouped.points]
                     == [point_tuple(p) for p in scalar.points]
                     and not grouped.failures and not scalar.failures)
    stats = grouped.cache_stats
    # ground truth: re-derive a seeded sample of cells from nothing
    sample = random.Random(SEED + 1).sample(range(len(cells)),
                                            min(20, len(cells)))
    fresh_identical = True
    by_position = {index: point
                   for index, point in enumerate(grouped.points)}
    for index in sample:
        machine_part, input_part = split_overrides(cells[index])
        cell_machine = _cell_machine(machine, machine_part)
        bet = build_bet(program, inputs={**inputs, **input_part})
        projection = project_with_model(
            bet, RooflineModel(cell_machine), 10)
        point = by_position[index]
        if (projection["runtime"] != point.runtime
                or projection["memory_fraction"]
                != point.memory_fraction
                or list(projection["ranking"][:10]) != point.ranking):
            fresh_identical = False
    return {
        "cells": len(cells),
        # the machines are lane columns: one lane array for the list
        "lane_groups_expected": 1,
        "scalar_s": elapsed["scalar"],
        "grouped_s": elapsed["auto"],
        "speedup": elapsed["scalar"] / elapsed["auto"],
        "resolved_backend": grouped.backend,
        "lanes_vectorized": stats.get("lanes_vectorized", 0.0),
        "lanes_fallback": stats.get("lanes_fallback", 0.0),
        "lane_groups": stats.get("lane_groups", 0.0),
        "bit_identical": bit_identical,
        "fresh_build_sample_identical": fresh_identical,
        "fresh_build_sample_size": len(sample),
    }


def bench_machine_grids(repeats):
    """Machine lanes vs the scalar loop on a 200-cell machine-only grid
    over each workload's prebuilt default-input BET."""
    machine = machine_by_name("bgq")
    rows = {}
    for name in WORKLOADS:
        program, inputs = load(name)
        bet = build_bet(program, inputs=inputs)
        elapsed, results = {}, {}
        for backend in ("scalar", "auto"):
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                results[backend] = sweep_grid(bet, machine, MACHINE_GRID,
                                              backend=backend)
                best = min(best, time.perf_counter() - started)
            elapsed[backend] = best
        lanes, scalar = results["auto"], results["scalar"]
        stats = lanes.cache_stats
        rows[name] = {
            "cells": len(lanes.points),
            "scalar_s": elapsed["scalar"],
            "lanes_s": elapsed["auto"],
            "speedup": elapsed["scalar"] / elapsed["auto"],
            "resolved_backend": lanes.backend,
            "lanes_vectorized": stats.get("lanes_vectorized", 0.0),
            "lanes_fallback": stats.get("lanes_fallback", 0.0),
            "lane_groups": stats.get("lane_groups", 0.0),
            "bit_identical": (
                [(p.overrides, p.machine, p.runtime, p.ranking,
                  p.top_label, p.memory_fraction, p.completeness)
                 for p in lanes.points]
                == [(p.overrides, p.machine, p.runtime, p.ranking,
                     p.top_label, p.memory_fraction, p.completeness)
                    for p in scalar.points]
                and not lanes.failures and not scalar.failures),
        }
    scalar_s = sum(row["scalar_s"] for row in rows.values())
    lanes_s = sum(row["lanes_s"] for row in rows.values())
    return {"grid": MACHINE_GRID, "workloads": rows,
            "scalar_s": scalar_s, "lanes_s": lanes_s,
            "speedup": scalar_s / lanes_s}


def http_sweep(port, payload, timeout=120.0):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    conn.request("POST", "/sweep", body=json.dumps(payload).encode())
    response = conn.getresponse()
    body = json.loads(response.read())
    conn.close()
    return response.status, body


def bench_served(points_per_group, repeats):
    """Served mixed sweep, scalar vs auto, through a live server."""
    grid = {"bandwidth": BANDWIDTHS,
            "input:n": [100.0 + 10.0 * index
                        for index in range(points_per_group)]}
    total = len(BANDWIDTHS) * points_per_group
    handle = start_in_thread(ServiceConfig(
        port=0, dispatchers=1, chunk_cells=16,
        max_cells_per_request=max(512, total)))
    try:
        elapsed = {}
        points = {}
        for backend in ("scalar", "auto"):
            best = float("inf")
            for _ in range(repeats):
                clear_symbolic_cache()
                started = time.perf_counter()
                status, body = http_sweep(handle.port, {
                    "workload": WORKLOAD, "params": grid,
                    "backend": backend})
                best = min(best, time.perf_counter() - started)
                assert status == 200 and body["status"] == "ok", (
                    f"served sweep failed: HTTP {status} "
                    f"{str(body)[:200]}")
            elapsed[backend] = best
            points[backend] = json.dumps(body["points"],
                                         sort_keys=True)
        _, stats = _statsz(handle.port)
        return {
            "cells": total,
            "scalar_s": elapsed["scalar"],
            "auto_s": elapsed["auto"],
            "speedup": elapsed["scalar"] / elapsed["auto"],
            "bit_identical": points["scalar"] == points["auto"],
            "lanes": stats.get("lanes", {}),
        }
    finally:
        handle.stop()


def _statsz(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", "/statsz")
    response = conn.getresponse()
    body = json.loads(response.read())
    conn.close()
    return response.status, body


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizing for CI (fewer repeats, "
                             "smaller served sweep; the 1000-cell "
                             "grouped gate always runs full size)")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "BENCH_cells.json"))
    args = parser.parse_args(argv)

    repeats = 2 if args.quick else 3
    served_points = 40 if args.quick else 100    # x5 groups = cells

    grouped = bench_grouped(mixed_cells(200), repeats)
    grids = bench_machine_grids(repeats)
    served = bench_served(served_points, repeats)

    checks = {
        "speedup_5x": grouped["speedup"] >= 5.0,
        "grouped_not_slower": grouped["speedup"] >= 1.0,
        "bit_identical": grouped["bit_identical"],
        "fresh_build_sample_identical":
            grouped["fresh_build_sample_identical"],
        "zero_unexpected_fallbacks": (
            grouped["lanes_fallback"] == 0.0
            and grouped["lanes_vectorized"] == float(grouped["cells"])
            and grouped["resolved_backend"] == "vector"),
        "machine_grid_5x": grids["speedup"] >= 5.0,
        "machine_grid_bit_identical": all(
            row["bit_identical"] for row in grids["workloads"].values()),
        "machine_grid_zero_fallbacks": all(
            row["lanes_fallback"] == 0.0
            and row["lanes_vectorized"] == float(row["cells"])
            and row["resolved_backend"] == "vector"
            for row in grids["workloads"].values()),
        "served_not_slower": (served["speedup"] >= 1.0
                              and served["bit_identical"]),
    }

    report = {
        "mode": "quick" if args.quick else "full",
        "seed": SEED,
        "workload": WORKLOAD,
        "grouped": grouped,
        "machine_grids": grids,
        "served": served,
        "checks": checks,
    }
    pathlib.Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    lines = [
        f"lane-grouped evaluate_cells ({report['mode']} mode, "
        f"{grouped['cells']} mixed cells, {len(BANDWIDTHS)} machine "
        f"settings)",
        "",
        f"scalar  {grouped['scalar_s']:8.3f}s",
        f"grouped {grouped['grouped_s']:8.3f}s   "
        f"{grouped['speedup']:.2f}x   "
        f"lanes {int(grouped['lanes_vectorized'])} vectorized / "
        f"{int(grouped['lanes_fallback'])} fallback in "
        f"{int(grouped['lane_groups'])} groups",
        f"bit-identical: {grouped['bit_identical']}, fresh-build "
        f"sample ({grouped['fresh_build_sample_size']} cells): "
        f"{grouped['fresh_build_sample_identical']}",
        "",
        "200-cell machine-only grids (bandwidth x cores x frequency), "
        "machine lanes vs scalar:",
        *(f"  {name:<12} scalar {row['scalar_s'] * 1e3:7.1f} ms  "
          f"lanes {row['lanes_s'] * 1e3:6.1f} ms  "
          f"{row['speedup']:5.2f}x  bit-identical: {row['bit_identical']}"
          for name, row in grids["workloads"].items()),
        f"  {'all six':<12} scalar {grids['scalar_s'] * 1e3:7.1f} ms  "
        f"lanes {grids['lanes_s'] * 1e3:6.1f} ms  "
        f"{grids['speedup']:5.2f}x",
        "",
        f"served mixed sweep ({served['cells']} cells): scalar "
        f"{served['scalar_s']:.3f}s vs auto {served['auto_s']:.3f}s "
        f"({served['speedup']:.2f}x), bit-identical: "
        f"{served['bit_identical']}",
    ]
    text = "\n".join(lines)
    print(text)
    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "bench_cells.txt").write_text(text + "\n",
                                                 encoding="utf-8")

    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        print(f"\nFAILED gates: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

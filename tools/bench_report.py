#!/usr/bin/env python
"""Aggregate every ``BENCH_*.json`` into one benchmark-trajectory table.

Each benchmark script in ``benchmarks/`` writes a ``BENCH_<name>.json``
with a ``checks`` dict of named gates; this tool collects them all into
a single report — one row per benchmark with its headline metric and
gate status — so a PR (or a CI run) can see the whole performance
trajectory of the repo at a glance instead of opening five JSON files.

The report is printed, written to ``results/bench_report.txt``, and
(with ``--json``) emitted as a combined machine-readable payload.  Exit
status is non-zero when any gate in any benchmark failed, so CI can use
the aggregation itself as the final gate.

Usage:
    python tools/bench_report.py [--dir PATH] [--json PATH]
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _gate_ok(value):
    """A gate passes when it is truthy-boolean or an empty failure list."""
    if isinstance(value, bool):
        return value
    if isinstance(value, list):
        return not value
    return bool(value)


def _headline(name, payload):
    """One human-sized metric per known benchmark (best-effort)."""
    try:
        if name == "explore":
            quality = payload["quality"]
            return (f"{100 * quality['eval_fraction']:.2f}% exact evals "
                    f"of {quality['grid_size']:,} cells, "
                    f"HV ratio {quality['hv_ratio']:.3f}")
        if name == "vector":
            agg = payload["aggregate"]
            return f"vector {agg['speedup']:.1f}x over scalar"
        if name == "compile":
            agg = payload["aggregate"]
            return f"compiled eval {agg['speedup']:.2f}x interpreted"
        if name == "shard":
            ratio = payload["throughput"]["overhead_ratio"]
            return f"sharded pool {ratio:.2f}x flat pool"
        if name == "service":
            verification = payload["verification"]
            return (f"{payload['throughput_rps']:.0f} rps, "
                    f"{verification['exact_points']} exact + "
                    f"{verification['degraded_points']} degraded pts, "
                    f"{payload['queue']['shed_total']} shed")
        if name == "cells":
            grouped = payload["grouped"]
            served = payload["served"]
            grids = payload["machine_grids"]
            return (f"grouped {grouped['grouped_s'] * 1e3:.1f} ms, "
                    f"{grouped['speedup']:.1f}x over scalar on "
                    f"{grouped['cells']} mixed cells "
                    f"({int(grouped['lane_groups'])} groups, "
                    f"{int(grouped['lanes_fallback'])} fallback), "
                    f"six machine grids {grids['lanes_s'] * 1e3:.1f} ms, "
                    f"{grids['speedup']:.1f}x, "
                    f"served {served['speedup']:.1f}x")
        if name == "parse":
            return (f"parse at most {payload['max_ratio']:.2f}x build_bet "
                    f"on {len(payload['workloads'])} workloads")
        if name == "perfbench":
            return "; ".join(
                f"{workload} ops/s {rate['base']['median']:.4g} -> "
                f"{rate['head']['median']:.4g} "
                f"({rate['wins']}/{rate['pairs']}, {rate['verdict']})"
                for workload, entry in payload["workloads"].items()
                for rate in [entry["metrics"]["ops_per_s"]])
        if name == "cachemodel":
            return f"{len(payload.get('workloads', []))} workloads, " \
                   f"{payload.get('elapsed_s', 0.0):.1f}s"
    except (KeyError, TypeError):
        pass
    return ""


def collect(directory):
    rows = []
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            rows.append({"name": name, "file": path.name, "error": str(err),
                         "checks": {}, "failed": ["unreadable"],
                         "headline": ""})
            continue
        checks = payload.get("checks", {})
        failed = [gate for gate, value in sorted(checks.items())
                  if not _gate_ok(value)]
        rows.append({"name": name, "file": path.name,
                     "checks": {gate: _gate_ok(value)
                                for gate, value in sorted(checks.items())},
                     "failed": failed,
                     "headline": _headline(name, payload)})
    return rows


def render(rows):
    if not rows:
        return "no BENCH_*.json files found"
    width = max(len(row["name"]) for row in rows)
    lines = [f"benchmark trajectory ({len(rows)} suites)", ""]
    for row in rows:
        status = "FAIL" if row["failed"] else "ok"
        gates = len(row["checks"])
        detail = row["headline"] or row.get("error", "")
        lines.append(f"  {row['name']:<{width}}  {status:<4} "
                     f"{gates - len(row['failed'])}/{gates} gates"
                     + (f"  {detail}" if detail else ""))
        for gate in row["failed"]:
            lines.append(f"  {'':<{width}}       failed: {gate}")
    total_failed = sum(len(row["failed"]) for row in rows)
    total = sum(len(row["checks"]) for row in rows)
    lines += ["", f"{total - total_failed}/{total} gates passed across "
                  f"{len(rows)} benchmarks"]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=str(REPO_ROOT),
                        help="directory holding BENCH_*.json files")
    parser.add_argument("--json", default="",
                        help="also write the combined payload here")
    args = parser.parse_args(argv)

    rows = collect(pathlib.Path(args.dir))
    text = render(rows)
    print(text)
    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "bench_report.txt").write_text(text + "\n",
                                                  encoding="utf-8")
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps({"benchmarks": rows}, indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
    return 1 if any(row["failed"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Skeleton parse cost against the BET build it feeds.

Every analysis parses a skeleton and then builds its BET, so the parse
should never cost more than the build.  For each bundled workload this
alternates one ``parse_skeleton`` of the workload's text with one
``build_bet`` of the program just parsed, at the workload's default
inputs, and reports the median of each and their ratio.  Interleaving
exposes both to the same host speed, so the ratio does not depend on how
fast the host is.

Gate recorded in ``BENCH_parse.json`` (CI fails the job when it trips):

* **parse_not_slower_than_build** — on every workload the median parse
  takes at most as long as the median build.

Writes ``BENCH_parse.json`` (repo root by default) and
``results/bench_parse.txt``.

Usage:
    python benchmarks/bench_parse.py [--output PATH]
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bet import build_bet                                 # noqa: E402
from repro.skeleton import parse_skeleton                       # noqa: E402
from repro.workloads import names, spec                         # noqa: E402

#: untimed parse + build pairs before the timed ones
WARMUP = 5
#: timed parse + build pairs per workload
ROUNDS = 101


def bench_workload(name):
    workload = spec(name)
    text, source_name = workload.skeleton_text, f"<{name}.skop>"
    inputs = dict(workload.default_inputs)
    parse_s, build_s = [], []
    for round_index in range(WARMUP + ROUNDS):
        started = time.perf_counter()
        program = parse_skeleton(text, source_name=source_name)
        parsed = time.perf_counter()
        build_bet(program, inputs=inputs)
        built = time.perf_counter()
        if round_index >= WARMUP:
            parse_s.append(parsed - started)
            build_s.append(built - parsed)
    parse = statistics.median(parse_s)
    build = statistics.median(build_s)
    return {"lines": len(text.splitlines()),
            "parse_ms": parse * 1e3, "build_ms": build * 1e3,
            "ratio": parse / build}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "BENCH_parse.json"))
    args = parser.parse_args(argv)

    workloads = {name: bench_workload(name) for name in names()}
    checks = {"parse_not_slower_than_build": all(
        row["ratio"] <= 1.0 for row in workloads.values())}
    report = {"rounds": ROUNDS, "workloads": workloads,
              "max_ratio": max(row["ratio"] for row in workloads.values()),
              "checks": checks}
    pathlib.Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    lines = [f"parse_skeleton vs build_bet, interleaved medians of "
             f"{ROUNDS} pairs at default inputs", "",
             f"  {'workload':<12} {'lines':>5} {'parse':>10} {'build':>10}"
             f" {'parse/build':>12}"]
    lines += [f"  {name:<12} {row['lines']:5d} {row['parse_ms']:7.3f} ms"
              f" {row['build_ms']:7.3f} ms {row['ratio']:12.2f}"
              for name, row in workloads.items()]
    lines += ["", "gate: " + ", ".join(
        f"{gate} {'ok' if ok else 'FAILED'}" for gate, ok in checks.items())]
    text = "\n".join(lines)
    print(text)
    results = REPO_ROOT / "results"
    results.mkdir(exist_ok=True)
    (results / "bench_parse.txt").write_text(text + "\n", encoding="utf-8")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

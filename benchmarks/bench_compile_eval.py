#!/usr/bin/env python
"""Expression fast-path benchmark: compiled closures vs the tree-walking
interpreter, symbolic BET replays vs fresh builds, and the vectorized
sweep backend vs point-by-point scalar sweeps.

Writes ``BENCH_compile.json`` and ``BENCH_vector.json`` (repo root by
default) with throughput numbers, plus rendered summaries under
``results/``.  Exits non-zero if compiled evaluation is slower than
interpretation or the vector backend is slower than the scalar sweep —
CI runs ``python benchmarks/bench_compile_eval.py --quick`` (a 256-point
sweep) as a smoke gate and uploads the JSON as artifacts; the full run
sweeps 1000 points.

Usage:
    python benchmarks/bench_compile_eval.py [--quick] [--output PATH]
                                            [--vector-output PATH]
"""

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bet import SymbolicBET, build_bet                    # noqa: E402
from repro.expressions import compile_expr, parse_expr          # noqa: E402
from repro.workloads import load                                # noqa: E402

#: representative skeleton expressions: loop bounds, op counts, branch
#: conditions, and library sizes as they appear in the bundled workloads
EXPRESSIONS = [
    "n",
    "n * m",
    "2 * nel + 5",
    "(n + 1) / 2",
    "n * m / 4 + k",
    "ceil(n / 64) * 64",
    "log2(n) + 1",
    "min(n, m) * max(k, 2)",
    "n > 1 and m < 4096",
    "sqrt(n * m) / (k + 1)",
]

ENV = {"n": 1024, "m": 48, "k": 7, "nel": 97000}


def _throughput(fn, env, iterations):
    started = time.perf_counter()
    for _ in range(iterations):
        fn(env)
    elapsed = time.perf_counter() - started
    return iterations / elapsed if elapsed else float("inf")


def bench_expressions(iterations):
    rows = []
    for source in EXPRESSIONS:
        expr = parse_expr(source)
        compiled = compile_expr(expr)
        assert compiled(ENV) == expr._eval(ENV)
        interpreted_eps = _throughput(expr._eval, ENV, iterations)
        compiled_eps = _throughput(compiled, ENV, iterations)
        rows.append({"source": source,
                     "interpreted_eval_per_s": interpreted_eps,
                     "compiled_eval_per_s": compiled_eps,
                     "speedup": compiled_eps / interpreted_eps})
    return rows


def bench_rebind(workloads, rounds):
    rows = {}
    for name in workloads:
        program, inputs = load(name)
        sym = SymbolicBET(program)
        sym.bind(inputs)                      # record once

        started = time.perf_counter()
        for index in range(rounds):
            scaled = {key: value * (1.0 + 0.01 * index)
                      for key, value in inputs.items()}
            build_bet(program, inputs=scaled)
        build_s = (time.perf_counter() - started) / rounds

        started = time.perf_counter()
        for index in range(rounds):
            scaled = {key: value * (1.0 + 0.01 * index)
                      for key, value in inputs.items()}
            sym.bind(scaled)
        replay_s = (time.perf_counter() - started) / rounds

        rows[name] = {"fresh_build_ms": build_s * 1e3,
                      "replay_ms": replay_s * 1e3,
                      "speedup": build_s / replay_s,
                      "shape_rebuilds": sym.stats["shape_rebuilds"]}
    return rows


def bench_vector_sweep(points_count, workloads):
    """Whole input sweeps: batched array replay vs scalar point loop.

    Both backends produce identical points (asserted), so the comparison
    is pure backend overhead at equal output.
    """
    from repro.hardware import machine_by_name
    from repro.parallel import clear_symbolic_cache, sweep_inputs

    machine = machine_by_name("bgq")
    rows = {}
    for name in workloads:
        program, inputs = load(name)
        axis = next(iter(inputs))
        base = float(inputs[axis])
        axes = {axis: [base * (1.0 + index / points_count)
                       for index in range(points_count)]}
        elapsed = {}
        results = {}
        for backend in ("scalar", "vector"):
            clear_symbolic_cache()
            started = time.perf_counter()
            results[backend] = sweep_inputs(program, machine, axes,
                                            base_inputs=inputs,
                                            backend=backend)
            elapsed[backend] = time.perf_counter() - started
        assert [(p.runtime, p.ranking) for p in
                results["vector"].points] == \
            [(p.runtime, p.ranking) for p in results["scalar"].points]
        stats = results["vector"].cache_stats
        rows[name] = {
            "points": points_count,
            "scalar_s": elapsed["scalar"],
            "vector_s": elapsed["vector"],
            "speedup": elapsed["scalar"] / elapsed["vector"],
            "lanes_vectorized": stats.get("lanes_vectorized", 0.0),
            "lanes_fallback": stats.get("lanes_fallback", 0.0),
        }
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizing for CI")
    parser.add_argument("--output", default=str(REPO_ROOT /
                                               "BENCH_compile.json"))
    parser.add_argument("--vector-output",
                        default=str(REPO_ROOT / "BENCH_vector.json"))
    args = parser.parse_args(argv)

    iterations = 20_000 if args.quick else 200_000
    rounds = 20 if args.quick else 100
    sweep_points = 256 if args.quick else 1000
    workloads = ["pedagogical", "cfd"] if args.quick else \
        ["pedagogical", "cfd", "srad", "sord"]

    expressions = bench_expressions(iterations)
    rebind = bench_rebind(workloads, rounds)
    vector = bench_vector_sweep(sweep_points, workloads)

    total_interp = sum(r["interpreted_eval_per_s"] for r in expressions)
    total_compiled = sum(r["compiled_eval_per_s"] for r in expressions)
    aggregate_speedup = total_compiled / total_interp
    compiled_not_slower = total_compiled >= total_interp

    report = {
        "mode": "quick" if args.quick else "full",
        "iterations_per_expression": iterations,
        "rebind_rounds": rounds,
        "expressions": expressions,
        "aggregate": {
            "interpreted_eval_per_s": total_interp,
            "compiled_eval_per_s": total_compiled,
            "speedup": aggregate_speedup,
        },
        "rebind": rebind,
        "checks": {"compiled_not_slower": compiled_not_slower},
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")

    vector_ok = all(row["speedup"] >= 1.0 for row in vector.values())
    vector_report = {
        "mode": "quick" if args.quick else "full",
        "sweep_points": sweep_points,
        "workloads": vector,
        "aggregate": {
            "scalar_s": sum(r["scalar_s"] for r in vector.values()),
            "vector_s": sum(r["vector_s"] for r in vector.values()),
            "speedup": (sum(r["scalar_s"] for r in vector.values())
                        / sum(r["vector_s"] for r in vector.values()))
            if vector else 0.0,
        },
        "checks": {"vector_not_slower_than_scalar": vector_ok},
    }
    vector_output = pathlib.Path(args.vector_output)
    vector_output.write_text(
        json.dumps(vector_report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    lines = ["compiled vs interpreted expression evaluation "
             f"({iterations} evals each)",
             f"{'expression':<28} {'interp/s':>12} {'compiled/s':>12} "
             f"{'speedup':>8}"]
    for row in expressions:
        lines.append(f"{row['source']:<28} "
                     f"{row['interpreted_eval_per_s']:12.3g} "
                     f"{row['compiled_eval_per_s']:12.3g} "
                     f"{row['speedup']:7.2f}x")
    lines.append(f"{'aggregate':<28} {total_interp:12.3g} "
                 f"{total_compiled:12.3g} {aggregate_speedup:7.2f}x")
    lines.append("")
    lines.append(f"symbolic rebind vs fresh build ({rounds} rounds)")
    lines.append(f"{'workload':<14} {'build ms':>10} {'replay ms':>10} "
                 f"{'speedup':>8}")
    for name, row in rebind.items():
        lines.append(f"{name:<14} {row['fresh_build_ms']:10.3f} "
                     f"{row['replay_ms']:10.3f} {row['speedup']:7.2f}x")
    if vector:
        lines.append("")
        lines.append(f"vector vs scalar sweep backend "
                     f"({sweep_points}-point input sweeps)")
        lines.append(f"{'workload':<14} {'scalar s':>10} {'vector s':>10} "
                     f"{'speedup':>8} {'fallback':>9}")
        for name, row in vector.items():
            lines.append(f"{name:<14} {row['scalar_s']:10.3f} "
                         f"{row['vector_s']:10.3f} {row['speedup']:7.2f}x "
                         f"{int(row['lanes_fallback']):9d}")
        agg = vector_report["aggregate"]
        lines.append(f"{'aggregate':<14} {agg['scalar_s']:10.3f} "
                     f"{agg['vector_s']:10.3f} {agg['speedup']:7.2f}x")
    summary = "\n".join(lines)
    print(summary)
    print(f"\nwrote {output} and {vector_output}")

    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "bench_compile.txt").write_text(summary + "\n",
                                                   encoding="utf-8")

    if not compiled_not_slower:
        print("FAIL: compiled evaluation is slower than the interpreter",
              file=sys.stderr)
        return 1
    if not vector_ok:
        print("FAIL: the vector sweep backend is slower than the scalar "
              "backend", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

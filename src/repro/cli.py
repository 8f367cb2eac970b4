"""Command-line interface.

::

    repro workloads                      # list benchmark workloads
    repro machines                       # list machine presets
    repro profile sord --machine bgq     # measured flat profile (executor)
    repro project sord --machine bgq     # model-projected hot spots
    repro breakdown sord --machine xeon  # per-spot Tc/Tm/To decomposition
    repro hotpath sord --machine bgq     # merged hot path (--dot, --json)
    repro dataflow sord                  # hot-spot data-flow interactions
    repro bet sord --metrics             # render the BET itself
    repro sweep cfd --machine bgq \
          --param bandwidth=14e9,28e9,56e9 --workers 4
                                         # design-space sweep (1 param) or
                                         # grid (repeat --param), parallel
    repro lint sord                      # skeleton diagnostics (W001-W011)
    repro check model.skop               # parse + lint with error recovery:
                                         # every diagnostic in one pass
                                         # (exit 1 on errors; --json)
    repro trace cfd --out trace.json     # chrome://tracing of simulated time
    repro translate kernel.py --entry main --size n=4096
    repro experiment list                # the paper's tables/figures
    repro experiment fig4                # regenerate one artifact
    repro experiment all --out results   # regenerate everything
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .analysis import (
    characterize, extract_hot_path, format_breakdown_table,
    format_hotspot_table, performance_breakdown, select_hotspots,
)
from .bet import build_bet
from .errors import ReproError
from .hardware import RooflineModel, machine_by_name
from .explore.surrogate import SURROGATE_NAMES
from .hardware.cachemodel import CACHE_MODEL_NAMES, cache_model_by_name
from .simulate import profile
from .skeleton import format_skeleton
from .translate import InputHints, translate_source
from .workloads import load, names, spec

_EXPERIMENTS = {
    "table1": ("hotspot rankings for the full suite (paper Table I)",
               lambda: _table1()),
    "table2": ("CFD top-10 hot spots (paper Table II)",
               lambda: _one("hotspot_ranking_table", "cfd", "bgq")),
    "fig4": ("SORD cross-machine selection quality (paper Fig. 4)",
             lambda: _zero("cross_machine_quality")),
    "fig5": ("SORD coverage curves on BG/Q (paper Fig. 5)",
             lambda: _one("coverage_figure", "sord", "bgq")),
    "fig6": ("SORD per-spot breakdown on BG/Q (paper Fig. 6)",
             lambda: _one("breakdown_figure", "sord", "bgq")),
    "fig7": ("SORD per-spot breakdown on Xeon (paper Fig. 7)",
             lambda: _one("breakdown_figure", "sord", "xeon")),
    "fig8": ("SORD measured counters (paper Fig. 8)",
             lambda: _one("issue_rate_figure", "sord", "bgq")),
    "fig9": ("SORD hot path on BG/Q (paper Fig. 9)",
             lambda: _one("hotpath_figure", "sord", "bgq")),
    "fig10": ("CFD coverage curves (paper Fig. 10)",
              lambda: _one("coverage_figure", "cfd", "bgq")),
    "fig11": ("SRAD coverage curves (paper Fig. 11)",
              lambda: _one("coverage_figure", "srad", "bgq")),
    "fig12": ("CHARGEI coverage curves (paper Fig. 12)",
              lambda: _one("coverage_figure", "chargei", "bgq")),
    "fig13": ("STASSUIJ coverage curves (paper Fig. 13)",
              lambda: _one("coverage_figure", "stassuij", "bgq")),
    "headline": ("suite-wide selection quality (paper Sec. VIII)",
                 lambda: _zero("headline_quality")),
    "betsize": ("BET size vs source statements (paper Sec. IV-B)",
                lambda: _zero("bet_size_table")),
    "scaling": ("analysis-time input-size invariance (paper abstract)",
                lambda: _zero("scaling_invariance")),
    "ablation-division": ("A1: division cost (CFD)",
                          lambda: _zero("ablation_division")),
    "ablation-vectorization": ("A2: vectorization (STASSUIJ)",
                               lambda: _zero("ablation_vectorization")),
    "ablation-overlap": ("A3: overlap extension",
                         lambda: _zero("ablation_overlap")),
    "ablation-cachemiss": ("A4: cache-miss constant sensitivity",
                           lambda: _zero("ablation_cachemiss")),
    "ablation-selection": ("A5: greedy vs exact knapsack selection",
                           lambda: _zero("ablation_selection")),
    "ext-multinode": ("X1: SORD multi-node strong-scaling projection "
                      "(Sec. VIII future work)",
                      lambda: _ext_multinode()),
    "ext-ecm": ("X2: ECM-model hot spots for SORD (Sec. VIII: pluggable "
                "hardware models)",
                lambda: _ext_ecm()),
}


def _ext_multinode() -> str:
    from .hardware import BGQ
    from .multinode import DecompositionModel, project_scaling
    from .multinode.network import TORUS_5D
    program, inputs = load("sord")
    decomposition = DecompositionModel(partitioned=("ny", "nz"),
                                       min_value=4)
    projection = project_scaling(program, inputs, BGQ, TORUS_5D,
                                 decomposition,
                                 ranks=(1, 4, 16, 64, 256),
                                 workload="sord")
    return projection.render()


def _ext_ecm() -> str:
    from .analysis import characterize as _characterize
    from .analysis import group_blocks
    from .bet import build_bet as _build_bet
    from .hardware import BGQ, ECMModel
    program, inputs = load("sord")
    root = _build_bet(program, inputs=inputs)
    spots = group_blocks(_characterize(root, ECMModel(BGQ)))[:10]
    lines = ["SORD hot spots under the ECM model (BG/Q)"]
    total = sum(s.projected_time for s in spots)
    for rank, spot in enumerate(spots, start=1):
        lines.append(f"{rank:2d}  {spot.label:32s} "
                     f"{100 * spot.projected_time / total:5.1f}%  "
                     f"{spot.bound}")
    return "\n".join(lines)


def _zero(name: str) -> str:
    from . import experiments
    return getattr(experiments, name)().render()


def _one(name: str, workload: str, machine: str) -> str:
    from . import experiments
    return getattr(experiments, name)(workload, machine).render()


def _table1() -> str:
    from . import experiments
    parts = []
    for workload, machine in (("sord", "bgq"), ("sord", "xeon"),
                              ("srad", "bgq"), ("chargei", "bgq"),
                              ("stassuij", "bgq")):
        parts.append(experiments.hotspot_ranking_table(
            workload, machine).render())
    return "\n\n".join(parts)


def _parse_bindings(pairs: Optional[List[str]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ReproError(f"expected name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        out[name.strip()] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analytical execution-flow modeling for software-"
                    "hardware co-design (IPDPS 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list benchmark workloads")
    sub.add_parser("machines", help="list machine presets")

    for command, description in (
            ("profile", "run the reference executor and show the measured "
                        "flat profile"),
            ("project", "project hot spots with the analytical model"),
            ("breakdown", "per-hot-spot compute/memory/overlap breakdown"),
            ("dataflow", "data-flow interactions among the hot spots"),
            ("hotpath", "extract and render the merged hot path")):
        p = sub.add_parser(command, help=description)
        p.add_argument("workload", help="workload name (see 'workloads')")
        p.add_argument("--machine", default="bgq",
                       help="machine preset (default bgq)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--top", type=int, default=10)
        p.add_argument("--set", dest="bindings", action="append",
                       metavar="NAME=VALUE",
                       help="override a workload input")
        if command in ("project", "breakdown", "hotpath"):
            p.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")
        if command in ("project", "breakdown", "dataflow", "hotpath"):
            p.add_argument("--cache-model", dest="cache_model",
                           default="constant",
                           choices=CACHE_MODEL_NAMES,
                           help="per-level hit fractions: 'constant' "
                                "(default; the paper's fixed miss ratio) "
                                "or 'analytic' (layer-condition model "
                                "driven by access-pattern clauses)")
            p.add_argument("--keep-going", action="store_true",
                           dest="keep_going",
                           help="degraded mode: quarantine faulty "
                                "subtrees instead of aborting and report "
                                "model completeness + diagnostics")
        if command == "hotpath":
            p.add_argument("--dot", action="store_true",
                           help="emit Graphviz DOT instead of ASCII")

    sweep_parser = sub.add_parser(
        "sweep", help="re-project one BET across a machine design-space "
                      "sweep or grid")
    sweep_parser.add_argument("workload")
    sweep_parser.add_argument("--machine", default="bgq",
                              help="base machine preset (default bgq)")
    sweep_parser.add_argument(
        "--param", dest="params", action="append", required=True,
        metavar="NAME=V1,V2,...",
        help="machine parameter and its values; repeat for a grid "
             "(cells are the cross product); prefix with 'input:' to "
             "sweep a workload input via symbolic rebind instead of a "
             "machine field")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="process-pool width (default 1: serial)")
    sweep_parser.add_argument("--top", type=int, default=10,
                              help="hot spots per point for the memory "
                                   "fraction (default 10)")
    sweep_parser.add_argument("--set", dest="bindings", action="append",
                              metavar="NAME=VALUE",
                              help="override a workload input")
    sweep_parser.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")
    sweep_parser.add_argument("--checkpoint", metavar="PATH",
                              help="write completed points to a JSON "
                                   "checkpoint as the sweep runs")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="reuse completed points from "
                                   "--checkpoint instead of recomputing")
    sweep_parser.add_argument("--strict", action="store_true",
                              help="fail fast on the first bad point "
                                   "instead of recording a PointFailure")
    sweep_parser.add_argument("--retries", type=int, default=0,
                              metavar="N",
                              help="retry each failing point up to N extra "
                                   "times with deterministic backoff")
    sweep_parser.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-point wall-clock bound when "
                                   "workers > 1; a hung point fails "
                                   "without stalling the sweep")
    sweep_parser.add_argument("--backend", default="auto",
                              choices=("scalar", "vector", "auto"),
                              help="evaluation backend: 'vector' "
                                   "evaluates the points as lane arrays "
                                   "(input axes through one array "
                                   "replay, machine parameters as "
                                   "machine lanes), 'scalar' "
                                   "evaluates point-by-point, 'auto' "
                                   "(default) picks vector for sweeps "
                                   "of >= 8 points")
    sweep_parser.add_argument("--executor", default=None,
                              choices=("serial", "pool", "multinode"),
                              help="sharded dispatch substrate: split the "
                                   "sweep into supervised shards with "
                                   "work-stealing, crash recovery, and "
                                   "poison-shard quarantine (default: "
                                   "legacy in-process dispatch)")
    sweep_parser.add_argument("--shards", type=int, default=None,
                              metavar="N",
                              help="shard count for --executor (default: "
                                   "about four shards per worker)")
    sweep_parser.add_argument("--cluster", default=None,
                              metavar="PRESET",
                              help="simulated cluster topology for "
                                   "--executor multinode (dual-node, "
                                   "torus-rack, fabric-pod; default "
                                   "dual-node)")
    sweep_parser.add_argument("--cache-model", dest="cache_model",
                              default="constant",
                              choices=CACHE_MODEL_NAMES,
                              help="per-level hit fractions for every "
                                   "swept point: 'constant' (default) or "
                                   "'analytic' layer conditions")
    sweep_parser.add_argument("--stats", action="store_true",
                              help="print per-stage timings (build, "
                                   "rebind, compile, project, batch) and "
                                   "cache counters — including lanes "
                                   "vectorized vs lanes fallen back to "
                                   "the scalar path — after the sweep")

    explore_parser = sub.add_parser(
        "explore", help="surrogate-guided Pareto exploration of a "
                        "design space too large to sweep exhaustively")
    explore_parser.add_argument("workload")
    explore_parser.add_argument("--machine", default="bgq",
                                help="base machine preset (default bgq)")
    explore_parser.add_argument(
        "--param", dest="params", action="append", required=True,
        metavar="NAME=V1,V2,...",
        help="space axis and its values; repeat for more dimensions "
             "(the space is the lazy cross product, never "
             "materialized); prefix with 'input:' for a workload "
             "input axis")
    explore_parser.add_argument(
        "--objectives", default="runtime",
        metavar="NAME[:min|:max],...",
        help="comma-separated objectives to trade off: 'runtime', "
             "'memory_fraction', or any axis name (default runtime)")
    explore_parser.add_argument("--budget", type=int, default=256,
                                help="exact-evaluation budget across "
                                     "all rounds (default 256)")
    explore_parser.add_argument("--rounds", type=int, default=4,
                                help="acquisition rounds after the "
                                     "initial design (default 4)")
    explore_parser.add_argument("--surrogate", default="ridge",
                                choices=SURROGATE_NAMES,
                                help="surrogate family steering "
                                     "acquisition (default ridge)")
    explore_parser.add_argument("--seed", type=int, default=0,
                                help="determinism seed for the initial "
                                     "design, bootstrap bags, and "
                                     "candidate pools (default 0)")
    explore_parser.add_argument("--workers", type=int, default=1,
                                help="process-pool width for exact "
                                     "batches (default 1: serial)")
    explore_parser.add_argument("--top", type=int, default=10,
                                help="hot spots per point (default 10)")
    explore_parser.add_argument("--set", dest="bindings",
                                action="append", metavar="NAME=VALUE",
                                help="override a workload input")
    explore_parser.add_argument("--backend", default="auto",
                                choices=("scalar", "vector", "auto"),
                                help="exact-batch backend (see sweep)")
    explore_parser.add_argument("--executor", default=None,
                                choices=("serial", "pool", "multinode"),
                                help="sharded dispatch substrate for "
                                     "exact batches (see sweep)")
    explore_parser.add_argument("--shards", type=int, default=None,
                                metavar="N",
                                help="shard count for --executor")
    explore_parser.add_argument("--cluster", default=None,
                                metavar="PRESET",
                                help="cluster topology for --executor "
                                     "multinode")
    explore_parser.add_argument("--cache-model", dest="cache_model",
                                default="constant",
                                choices=CACHE_MODEL_NAMES,
                                help="cache model for every exact "
                                     "evaluation (see sweep)")
    explore_parser.add_argument("--checkpoint", metavar="PATH",
                                help="JSON checkpoint shared by every "
                                     "exact batch of the run")
    explore_parser.add_argument("--resume", action="store_true",
                                help="serve already-evaluated cells "
                                     "from --checkpoint while the "
                                     "deterministic trajectory replays")
    explore_parser.add_argument("--no-verify", action="store_true",
                                dest="no_verify",
                                help="skip the final fresh-build "
                                     "bit-identity check of the "
                                     "frontier")
    explore_parser.add_argument("--json", action="store_true",
                                help="emit machine-readable JSON")
    explore_parser.add_argument("--stats", action="store_true",
                                help="print the surrogate error trace "
                                     "and per-phase timings")

    lint_parser = sub.add_parser(
        "lint", help="static diagnostics for a workload skeleton")
    lint_parser.add_argument("workload")

    check_parser = sub.add_parser(
        "check", help="parse + lint skeleton files with error recovery: "
                      "reports every diagnostic in one pass and exits 1 "
                      "when any is an error")
    check_parser.add_argument(
        "targets", nargs="+", metavar="FILE",
        help="path to a .skop file, or a workload name")
    check_parser.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")
    check_parser.add_argument("--no-snippets", action="store_true",
                              dest="no_snippets",
                              help="omit source snippets and carets")

    bet_parser = sub.add_parser(
        "bet", help="build and render the Bayesian Execution Tree")
    bet_parser.add_argument("workload")
    bet_parser.add_argument("--depth", type=int, default=8,
                            help="maximum rendered depth")
    bet_parser.add_argument("--metrics", action="store_true",
                            help="annotate blocks with metrics and ENR")
    bet_parser.add_argument("--keep-going", action="store_true",
                            dest="keep_going",
                            help="degraded mode: quarantine faulty "
                                 "subtrees (rendered with their "
                                 "diagnostics) instead of aborting")
    bet_parser.add_argument("--set", dest="bindings", action="append",
                            metavar="NAME=VALUE")

    trace_parser = sub.add_parser(
        "trace", help="run the executor and export a chrome://tracing "
                      "flame graph of simulated time")
    trace_parser.add_argument("workload")
    trace_parser.add_argument("--machine", default="bgq")
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--out", default="trace.json",
                              help="output path (chrome trace JSON)")
    trace_parser.add_argument("--set", dest="bindings", action="append",
                              metavar="NAME=VALUE")

    t = sub.add_parser("translate",
                       help="translate a Python file into a code skeleton")
    t.add_argument("path", help="Python source file")
    t.add_argument("--entry", default="main")
    t.add_argument("--size", dest="sizes", action="append",
                   metavar="NAME=VALUE", help="input-size hint")

    e = sub.add_parser("experiment",
                       help="regenerate a paper table/figure")
    e.add_argument("id", help="experiment id, 'list', or 'all'")
    e.add_argument("--out", default="results",
                   help="directory for artifacts when id is 'all'")

    serve_parser = sub.add_parser(
        "serve", help="run the resilient analysis server (HTTP/JSON): "
                      "admission control, load shedding, circuit-"
                      "breaker degradation, streaming sweeps, graceful "
                      "SIGTERM drain")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8177,
                              help="listen port (0 picks a free port; "
                                   "default 8177)")
    serve_parser.add_argument("--queue-limit", type=int, default=64,
                              dest="queue_limit",
                              help="admission queue bound; past it "
                                   "requests shed with 429/SKOP710")
    serve_parser.add_argument("--tenant-queue-limit", type=int,
                              default=16, dest="tenant_queue_limit",
                              help="per-tenant share of the queue")
    serve_parser.add_argument("--dispatchers", type=int, default=2,
                              help="concurrent evaluation batches")
    serve_parser.add_argument("--workers", type=int, default=1,
                              help="engine worker processes per batch")
    serve_parser.add_argument("--executor", default=None,
                              choices=("serial", "pool", "multinode"),
                              help="sharded dispatch substrate for "
                                   "sweeps (default: in-process)")
    serve_parser.add_argument("--shards", type=int, default=None,
                              help="shard count for --executor")
    serve_parser.add_argument("--checkpoint-dir", default=None,
                              dest="checkpoint_dir",
                              help="directory for client-named sweep "
                                   "checkpoints (enables resumable and "
                                   "drain-safe sweeps)")
    serve_parser.add_argument("--deadline", type=float, default=30.0,
                              help="default per-request deadline in "
                                   "seconds")
    serve_parser.add_argument("--breaker-threshold", type=int,
                              default=3, dest="breaker_threshold",
                              help="consecutive executor failures that "
                                   "trip the circuit breaker")
    serve_parser.add_argument("--breaker-cooldown", type=float,
                              default=30.0, dest="breaker_cooldown",
                              help="seconds the breaker stays open "
                                   "before probing")
    serve_parser.add_argument("--allow-chaos", action="store_true",
                              dest="allow_chaos",
                              help="honor per-request chaos schedules "
                                   "(testing/benchmarks only)")
    serve_parser.add_argument("--warm-cache", metavar="PATH",
                              dest="warm_cache", default=None,
                              help="snapshot per-tenant BET/tape cache "
                                   "keys here on SIGTERM drain and "
                                   "pre-warm them on the next start")
    return parser


def _cmd_workloads() -> str:
    lines = []
    for name in names():
        lines.append(f"{name:12s} {spec(name).title}")
    return "\n".join(lines)


def _cmd_machines() -> str:
    from .hardware.presets import _PRESETS
    lines = []
    for name, machine in sorted(_PRESETS.items()):
        info = machine.describe()
        lines.append(
            f"{name:16s} {info['frequency_ghz']:.1f} GHz x{machine.cores}"
            f"  L1 {info['l1_kib']:.0f}K  LLC {info['llc_mib']:.0f}M"
            f"  {info['bandwidth_gbs']:.0f} GB/s  "
            f"peak {info['peak_vector_gflops']:.1f} GF/s(simd)")
    return "\n".join(lines)


def _load(args):
    program, inputs = load(args.workload)
    inputs.update(_parse_bindings(getattr(args, "bindings", None)))
    machine = machine_by_name(args.machine)
    return program, inputs, machine


def _cmd_profile(args) -> str:
    program, inputs, machine = _load(args)
    result = profile(program, machine, inputs=inputs, seed=args.seed)
    return result.format_flat(args.top)


def _model_selection(args):
    """(program, records, selection, report) for the model commands.

    ``report`` is ``None`` on the strict path; with ``--keep-going`` it is
    the degraded :class:`~repro.bet.BuildReport` whose sink also collected
    any projection poisoning.
    """
    from .diagnostics import DiagnosticSink
    program, inputs, machine = _load(args)
    cache_model = cache_model_by_name(
        getattr(args, "cache_model", "constant"))
    report = None
    if getattr(args, "keep_going", False):
        from .bet import build_bet_degraded
        report = build_bet_degraded(program, inputs=inputs,
                                    sink=DiagnosticSink())
        if report.root is None:
            raise ReproError("model could not be built even in degraded "
                             "mode:\n" + report.diagnostics.render())
        root = report.root
        records = characterize(
            root, RooflineModel(machine, cache_model=cache_model),
            sink=report.diagnostics)
    else:
        root = build_bet(program, inputs=inputs)
        records = characterize(
            root, RooflineModel(machine, cache_model=cache_model))
    return program, records, select_hotspots(
        records, program.static_size(), coverage=1.0, leanness=1.0,
        max_spots=args.top), report


def _degraded_footer(report) -> str:
    """Completeness + diagnostics lines appended by ``--keep-going``."""
    if report is None:
        return ""
    lines = [f"model completeness: {100 * report.completeness:.1f}% "
             f"({len(report.quarantined)} subtree(s) quarantined)"]
    if report.diagnostics:
        lines.append(report.diagnostics.render())
    return "\n" + "\n".join(lines)


def _cmd_project(args) -> str:
    program, _, selection, report = _model_selection(args)
    if getattr(args, "json", False):
        from .export import diagnostics_to_dicts, selection_to_dict, to_json
        payload = selection_to_dict(selection)
        if report is not None:
            payload["completeness"] = report.completeness
            payload["diagnostics"] = diagnostics_to_dicts(
                report.diagnostics)
        return to_json(payload)
    return format_hotspot_table(
        selection, title=f"projected hot spots: {args.workload} on "
                         f"{args.machine}") + _degraded_footer(report)


def _cmd_breakdown(args) -> str:
    _, _, selection, report = _model_selection(args)
    rows = performance_breakdown(selection.spots)
    if getattr(args, "json", False):
        from .export import breakdown_to_dict, to_json
        return to_json(breakdown_to_dict(rows))
    return format_breakdown_table(
        rows, title=f"breakdown: {args.workload} on "
                    f"{args.machine}") + _degraded_footer(report)


def _cmd_dataflow(args) -> str:
    from .analysis.dataflow import format_dataflow
    _, _, selection, report = _model_selection(args)
    return format_dataflow(selection.spots) + _degraded_footer(report)


def _cmd_hotpath(args) -> str:
    _, _, selection, report = _model_selection(args)
    path = extract_hot_path(selection.spots)
    if getattr(args, "json", False):
        from .export import hotpath_to_dict, to_json
        return to_json(hotpath_to_dict(path))
    out = path.render_dot() if args.dot else path.render_ascii()
    return out if args.dot else out + _degraded_footer(report)


def _expand_range(token: str) -> List[float]:
    """``start:stop:step`` → the inclusive arithmetic progression."""
    start, stop, step = (float(part) for part in token.split(":"))
    if step <= 0 or stop < start:
        raise ValueError(token)
    count = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _parse_sweep_params(pairs: List[str]) -> Dict[str, List[float]]:
    grid: Dict[str, List[float]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(
                f"expected NAME=V1,V2,... or NAME=START:STOP:STEP, "
                f"got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            values: List[float] = []
            for token in raw.split(","):
                if not token:
                    continue
                if ":" in token:
                    values.extend(_expand_range(token))
                else:
                    values.append(float(token))
        except ValueError:
            raise ReproError(
                f"bad sweep value in {pair!r} (expected numbers or "
                "START:STOP:STEP ranges)") from None
        if not values:
            raise ReproError(f"no values given for parameter {name!r}")
        grid[name.strip()] = values
    return grid


def _render_sweep_stats(result) -> str:
    """Per-stage timings and cache counters for ``--stats``."""
    lines = ["per-stage stats:"]
    timings = result.timings
    for name in ("build", "rebind", "compile", "project", "batch",
                 "total"):
        if name in timings:
            lines.append(f"  {name + ' seconds':<24} {timings[name]:.6f}")
    counters = dict(getattr(result, "cache_stats", None) or {})
    for name in ("compile_cache_hits", "parse_cache_hits"):
        if name in timings:
            counters.setdefault(name, timings[name])
    for name in sorted(counters):
        value = counters[name]
        if isinstance(value, float) and value == int(value):
            value = int(value)
        lines.append(f"  {name:<24} {value}")
    shard_stats = dict(getattr(result, "shard_stats", None) or {})
    if shard_stats:
        lines.append("shard stats:")
        for name in sorted(shard_stats):
            value = shard_stats[name]
            if isinstance(value, float) and value == int(value):
                value = int(value)
            lines.append(f"  {name:<24} {value}")
    return "\n".join(lines)


def _cmd_sweep(args) -> str:
    from .analysis.sensitivity import sweep_machine
    from .parallel import INPUT_PREFIX, build_bet_cached, sweep_grid
    from .parallel.fault import RetryPolicy, sweep_key
    from .validate import preflight
    program, inputs, machine = _load(args)
    grid = _parse_sweep_params(args.params)
    preflight(program, inputs, machine)
    if args.retries < 0:
        raise ReproError(f"--retries must be >= 0, got {args.retries}")
    policy = (RetryPolicy(max_attempts=1 + args.retries, base_delay=0.1)
              if args.retries else None)
    # checkpoint identity: same skeleton + inputs + machine + grid + top-k
    # => same completed work, resumable regardless of pool width
    checkpoint_key = sweep_key(
        program.fingerprint(), tuple(sorted(inputs.items())),
        repr(machine),
        tuple(sorted((name, tuple(values))
                     for name, values in grid.items())),
        args.top) if args.checkpoint else None
    resilience = dict(strict=args.strict, policy=policy,
                      timeout=args.timeout, checkpoint=args.checkpoint,
                      resume=args.resume, checkpoint_key=checkpoint_key)
    cache_model = cache_model_by_name(
        getattr(args, "cache_model", "constant"))
    if cache_model is not None:
        # only deviate from the positional defaults when asked: the
        # constant model keeps the historical call (and bit-identical
        # results), analytic swaps in a picklable factory for the pool
        from .hardware.cachemodel import RooflineFactory
        resilience["model_factory"] = RooflineFactory(
            cache_model=cache_model)
    executor = getattr(args, "executor", None)
    if getattr(args, "cluster", None) is not None \
            and executor != "multinode":
        raise ReproError("--cluster needs --executor multinode")
    if executor is not None:
        if getattr(args, "shards", None) is not None and args.shards < 1:
            raise ReproError(f"--shards must be >= 1, got {args.shards}")
        resilience["executor"] = executor
        resilience["shards"] = getattr(args, "shards", None)
        resilience["topology"] = getattr(args, "cluster", None)
    elif getattr(args, "shards", None) is not None:
        raise ReproError("--shards needs --executor")
    has_input_axes = any(name.startswith(INPUT_PREFIX) for name in grid)
    backend = getattr(args, "backend", "auto")
    if len(grid) == 1 and not has_input_axes and executor is None:
        bet = build_bet_cached(program, inputs)
        parameter, values = next(iter(grid.items()))
        result = sweep_machine(bet, machine, parameter, values,
                               k=args.top, workers=args.workers,
                               backend=backend, **resilience)
        if args.json:
            from .export import sweep_to_dict, to_json
            return to_json(sweep_to_dict(result))
    else:
        # input: axes route through symbolic rebind inside sweep_grid;
        # machine-only grids keep re-projecting one prebuilt tree
        bet = None if has_input_axes else build_bet_cached(program, inputs)
        result = sweep_grid(bet, machine, grid, k=args.top,
                            workers=args.workers, program=program,
                            inputs=inputs, backend=backend, **resilience)
        if args.json:
            from .export import grid_to_dict, to_json
            return to_json(grid_to_dict(result))
    timings = result.timings
    failed = int(timings.get("failed", 0))
    resumed = int(timings.get("resumed", 0))
    backend_used = getattr(result, "backend", None)
    executor_used = getattr(result, "executor", "")
    shard_stats = getattr(result, "shard_stats", None) or {}
    footer = (f"[{int(timings.get('points', 0))} points in "
              f"{timings.get('total', 0.0):.3f}s, "
              + (f"backend={backend_used}, " if backend_used else "")
              + (f"executor={executor_used}, "
                 f"shards={int(shard_stats.get('shards_planned', 0))}, "
                 if executor_used else "")
              + f"workers={int(timings.get('workers', 1))}"
              + (f", {failed} failed" if failed else "")
              + (f", {resumed} resumed" if resumed else "") + "]")
    output = result.render() + "\n" + footer
    for diagnostic in getattr(result, "diagnostics", None) or []:
        output += "\n" + diagnostic.render(show_snippet=False)
    if args.stats:
        output += "\n" + _render_sweep_stats(result)
    return output


def _cmd_explore(args) -> str:
    from .explore import explore, verify_frontier
    from .validate import preflight
    program, inputs, machine = _load(args)
    axes = _parse_sweep_params(args.params)
    preflight(program, inputs, machine)
    objectives = [token.strip()
                  for token in args.objectives.split(",") if token.strip()]
    kwargs = dict(workers=args.workers, backend=args.backend,
                  checkpoint=args.checkpoint, resume=args.resume)
    cache_model = cache_model_by_name(
        getattr(args, "cache_model", "constant"))
    model_factory = None
    if cache_model is not None:
        from .hardware.cachemodel import RooflineFactory
        model_factory = RooflineFactory(cache_model=cache_model)
        kwargs["model_factory"] = model_factory
    executor = getattr(args, "executor", None)
    if getattr(args, "cluster", None) is not None \
            and executor != "multinode":
        raise ReproError("--cluster needs --executor multinode")
    if executor is not None:
        if getattr(args, "shards", None) is not None and args.shards < 1:
            raise ReproError(f"--shards must be >= 1, got {args.shards}")
        kwargs.update(executor=executor,
                      shards=getattr(args, "shards", None),
                      topology=getattr(args, "cluster", None))
    elif getattr(args, "shards", None) is not None:
        raise ReproError("--shards needs --executor")
    result = explore(axes, machine, objectives, program=program,
                     inputs=inputs, k=args.top, budget=args.budget,
                     rounds=args.rounds, surrogate=args.surrogate,
                     seed=args.seed, **kwargs)
    verified = 0
    if not args.no_verify:
        verified = verify_frontier(result, machine, program=program,
                                   inputs=inputs,
                                   model_factory=model_factory,
                                   k=args.top)
    if args.json:
        from .export import explore_to_dict, to_json
        payload = explore_to_dict(result)
        payload["frontier_verified"] = verified
        return to_json(payload)
    timings = result.timings
    footer = (f"[{result.evaluations} exact evals of "
              f"{result.grid_size:,} cells in "
              f"{timings.get('total', 0.0):.3f}s, "
              f"{result.rounds} rounds"
              + (f", backend={result.backend}" if result.backend else "")
              + (f", executor={result.executor}" if result.executor
                 else "")
              + (f", {result.failures} failed" if result.failures else "")
              + (f", frontier verified x{verified}" if verified else "")
              + "]")
    output = result.render() + "\n" + footer
    for diagnostic in result.diagnostics:
        output += "\n" + diagnostic.render(show_snippet=False)
    if args.stats:
        lines = ["surrogate error trace (mean |pred-exact|/|exact|):"]
        for entry in result.error_trace:
            parts = [f"round {int(entry['round'])}"]
            parts.extend(f"{name}={value:.4f}"
                         for name, value in sorted(entry.items())
                         if name not in ("round", "evaluated"))
            parts.append(f"({int(entry.get('evaluated', 0))} pts)")
            lines.append("  " + "  ".join(parts))
        lines.append("timings:")
        for name in ("evaluate", "acquire", "total"):
            if name in timings:
                lines.append(f"  {name + ' seconds':<24} "
                             f"{timings[name]:.6f}")
        counters = dict(getattr(result, "cache_stats", None) or {})
        if counters:
            lines.append("lane stats:")
            for name in sorted(counters):
                value = counters[name]
                if isinstance(value, float) and value == int(value):
                    value = int(value)
                lines.append(f"  {name:<24} {value}")
        output += "\n" + "\n".join(lines)
    return output


def _cmd_translate(args) -> str:
    with open(args.path, "r", encoding="utf-8") as handle:
        source = handle.read()
    hints = InputHints(sizes=_parse_bindings(args.sizes))
    result = translate_source(source, entry=args.entry, hints=hints)
    text = format_skeleton(result.program)
    if result.needs_profiling:
        text += ("\n# NOTE: these sites still need branch profiling "
                 f"(repro.translate.profile_branches): "
                 f"{result.needs_profiling}\n")
    return text


def _cmd_lint(args) -> str:
    from .skeleton.lint import lint_program
    program, _ = load(args.workload)
    warnings = lint_program(program)
    if not warnings:
        return f"{args.workload}: no findings"
    return "\n".join(str(w) for w in warnings)


def _check_target(target: str):
    """Resolve one ``repro check`` argument to (source_name, text).

    A path to an existing file wins; otherwise the target is tried as a
    workload name (matching every other subcommand's addressing).
    """
    import os
    if os.path.exists(target):
        with open(target, "r", encoding="utf-8") as handle:
            return target, handle.read()
    if target in names():
        return f"<{target}.skop>", spec(target).skeleton_text
    raise ReproError(
        f"{target!r} is neither a readable file nor a workload name "
        f"(available workloads: {names()})")


def _cmd_check(args) -> int:
    """``repro check``: recovery-mode parse + lint, all findings at once."""
    from .export import SCHEMA_VERSION, to_json
    from .skeleton import parse_skeleton_recover
    from .skeleton.lint import lint_program

    reports = []
    for target in args.targets:
        source_name, text = _check_target(target)
        result = parse_skeleton_recover(text, source_name=source_name)
        sink = result.diagnostics
        if result.program is not None and not sink.has_errors():
            # lint only clean parses: warnings about half-recovered
            # structure would duplicate the parse errors
            sink.extend(lint_program(result.program))
        reports.append((source_name, result, sink))

    failed = any(sink.has_errors() or result.program is None
                 for _, result, sink in reports)
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "ok": not failed,
            "files": [{
                "source": source_name,
                "ok": result.ok,
                "functions_recovered": len(result.program.functions)
                if result.program is not None else 0,
                "diagnostics": sink.as_dicts(),
            } for source_name, result, sink in reports],
        }
        print(to_json(payload))
        return 1 if failed else 0

    lines = []
    for source_name, result, sink in reports:
        if sink:
            lines.append(sink.render(show_snippets=not args.no_snippets))
        else:
            lines.append(f"{source_name}: ok")
    print("\n".join(lines))
    return 1 if failed else 0


def _cmd_bet(args) -> str:
    from .bet.nodes import render_tree
    program, inputs = load(args.workload)
    inputs.update(_parse_bindings(getattr(args, "bindings", None)))
    if getattr(args, "keep_going", False):
        from .bet import build_bet_degraded
        report = build_bet_degraded(program, inputs=inputs)
        if report.root is None:
            raise ReproError("model could not be built even in degraded "
                             "mode:\n" + report.diagnostics.render())
        root = report.root
        header = (f"BET for {args.workload}: {root.size()} nodes "
                  f"({program.statement_count()} skeleton statements, "
                  f"{100 * report.completeness:.1f}% modeled)\n")
        body = render_tree(root, max_depth=args.depth,
                           show_metrics=args.metrics)
        if report.diagnostics:
            body += "\n" + report.diagnostics.render()
        return header + body
    root = build_bet(program, inputs=inputs)
    header = (f"BET for {args.workload}: {root.size()} nodes "
              f"({program.statement_count()} skeleton statements)\n")
    return header + render_tree(root, max_depth=args.depth,
                                show_metrics=args.metrics)


def _cmd_trace(args) -> str:
    from .simulate import SkeletonExecutor, TraceRecorder
    program, inputs, machine = _load(args)
    recorder = TraceRecorder()
    executor = SkeletonExecutor(program, machine, seed=args.seed,
                                trace=recorder)
    result = executor.run(inputs=inputs)
    recorder.save(args.out)
    note = " (truncated)" if recorder.truncated else ""
    return (f"wrote {len(recorder.events)} events{note} covering "
            f"{result.seconds:.4f}s of simulated time to {args.out}; "
            "open in chrome://tracing or https://ui.perfetto.dev")


def _cmd_experiment(args) -> str:
    if args.id == "list":
        return "\n".join(f"{key:24s} {desc}"
                         for key, (desc, _) in _EXPERIMENTS.items())
    if args.id == "all":
        return _run_all_experiments(args.out)
    try:
        _, runner = _EXPERIMENTS[args.id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {args.id!r}; try 'repro experiment list'")
    return runner()


def _run_all_experiments(out_dir: str) -> str:
    """Regenerate every artifact into ``out_dir`` (one file per id)."""
    import pathlib
    import time as _time
    directory = pathlib.Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for key, (description, runner) in _EXPERIMENTS.items():
        started = _time.perf_counter()
        text = runner()
        elapsed = _time.perf_counter() - started
        path = directory / f"{key.replace('-', '_')}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        lines.append(f"{key:24s} {elapsed:6.2f}s  -> {path}")
    return "\n".join(lines)


def _cmd_serve(args) -> int:
    from .service import ServiceConfig, run as run_service
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        tenant_queue_limit=args.tenant_queue_limit,
        dispatchers=args.dispatchers,
        engine_workers=args.workers,
        executor=args.executor,
        shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        default_deadline_s=args.deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        warm_cache_path=args.warm_cache,
        allow_chaos=args.allow_chaos,
    )
    print(f"repro serve: listening on http://{config.host}:"
          f"{config.port or '<auto>'} "
          f"(queue={config.queue_limit}, "
          f"executor={config.executor or 'in-process'}); "
          "SIGTERM drains gracefully", file=sys.stderr)
    run_service(config)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "workloads":
            output = _cmd_workloads()
        elif args.command == "machines":
            output = _cmd_machines()
        elif args.command == "profile":
            output = _cmd_profile(args)
        elif args.command == "project":
            output = _cmd_project(args)
        elif args.command == "breakdown":
            output = _cmd_breakdown(args)
        elif args.command == "dataflow":
            output = _cmd_dataflow(args)
        elif args.command == "hotpath":
            output = _cmd_hotpath(args)
        elif args.command == "translate":
            output = _cmd_translate(args)
        elif args.command == "lint":
            output = _cmd_lint(args)
        elif args.command == "check":
            return _cmd_check(args)
        elif args.command == "trace":
            output = _cmd_trace(args)
        elif args.command == "sweep":
            output = _cmd_sweep(args)
        elif args.command == "explore":
            output = _cmd_explore(args)
        elif args.command == "bet":
            output = _cmd_bet(args)
        elif args.command == "serve":
            return _cmd_serve(args)
        else:
            output = _cmd_experiment(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

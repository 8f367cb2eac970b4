"""repro (a.k.a. *skopetree*) — analytical execution-flow modeling for
software-hardware co-design.

A from-scratch reproduction of *Analytically Modeling Application Execution
for Software-Hardware Co-Design* (Guo, Meng, Yi, Morozov, Kumaran;
IPDPS 2014): build a probabilistic model of a workload's execution flow —
the **Bayesian Execution Tree** — from a SKOPE-style code skeleton, project
every code block's time on a parameterized machine with an extended roofline
model, and report the workload's **hot spots** and **hot paths** on hardware
you do not have, in time independent of the input size.

Quick start
-----------
>>> from repro import (parse_skeleton, build_bet, RooflineModel, BGQ,
...                    characterize, select_hotspots)
>>> program = parse_skeleton(open("app.skop").read())
>>> bet = build_bet(program, inputs={"n": 4096})
>>> records = characterize(bet, RooflineModel(BGQ))
>>> spots = select_hotspots(records, program.static_size())
>>> print(spots.spots[0].label, spots.coverage)

See ``examples/`` for complete workflows (including translating real Python
code and comparing conceptual machines) and DESIGN.md for the architecture.
"""

from .errors import (
    AnalysisError, CheckpointError, ContextExplosionError, ExpressionError,
    HardwareModelError, ModelError, RecursionLimitError, ReproError,
    RetryExhaustedError, SemanticError, SimulationError,
    SkeletonSyntaxError, TaskTimeoutError, TranslationError,
    UnboundVariableError, ValidationError,
)
from .expressions import Expr, evaluate, parse_expr
from .skeleton import (
    Program, format_skeleton, parse_skeleton, parse_skeleton_file,
)
from .bet import BETBuilder, BETNode, Context, build_bet
from .hardware import (
    BGQ, ECMModel, FUTURE_HBM, FUTURE_MANYCORE, InstructionMix,
    LibraryDatabase, MachineModel, Metrics, RooflineModel, XEON_E5_2420,
    default_library, ensure_valid_machine, machine_by_name,
    validate_machine,
)
from .analysis import (
    HotSpot, HotSpotSelection, characterize, common_spots, coverage,
    coverage_curve, extract_hot_path, format_breakdown_table,
    format_coverage_table, format_hotspot_table, performance_breakdown,
    select_hotspots, selection_quality, sweep_machine, total_time,
)
from .simulate import (
    SkeletonExecutor, annotate_skeleton, collect_branch_stats, execute,
    profile, profile_library,
)
from .translate import (
    InputHints, apply_branch_stats, profile_branches, translate_functions,
    translate_source,
)
from .multinode import (
    DecompositionModel, NetworkModel, ScalingProjection, project_scaling,
)
from .parallel import (
    CacheStats, FaultInjector, GridPoint, GridResult, InputPoint,
    InputSweepResult, LRUCache, PointFailure, RetryPolicy, SweepCheckpoint,
    analyze_matrix, build_bet_cached, sweep_grid, sweep_inputs,
)
from .validate import ensure_valid_inputs, preflight, validate_inputs
from .workloads import load as load_workload
from .workloads import names as workload_names

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "SkeletonSyntaxError", "ExpressionError",
    "UnboundVariableError", "SemanticError", "ModelError",
    "ContextExplosionError", "RecursionLimitError", "HardwareModelError",
    "AnalysisError", "SimulationError", "TranslationError",
    "ValidationError", "TaskTimeoutError", "RetryExhaustedError",
    "CheckpointError",
    # expressions & skeleton
    "Expr", "parse_expr", "evaluate",
    "Program", "parse_skeleton", "parse_skeleton_file", "format_skeleton",
    # BET
    "BETNode", "BETBuilder", "Context", "build_bet",
    # hardware
    "MachineModel", "Metrics", "RooflineModel", "ECMModel",
    "InstructionMix",
    "LibraryDatabase", "default_library", "machine_by_name",
    "BGQ", "XEON_E5_2420", "FUTURE_HBM", "FUTURE_MANYCORE",
    "validate_machine", "ensure_valid_machine",
    "validate_inputs", "ensure_valid_inputs", "preflight",
    # analysis
    "characterize", "total_time", "HotSpot", "HotSpotSelection",
    "select_hotspots", "extract_hot_path", "performance_breakdown",
    "coverage", "coverage_curve", "selection_quality", "common_spots",
    "format_hotspot_table", "format_coverage_table",
    "format_breakdown_table", "sweep_machine",
    # simulate
    "SkeletonExecutor", "execute", "profile", "collect_branch_stats",
    "annotate_skeleton", "profile_library",
    # translate
    "translate_source", "translate_functions", "profile_branches",
    "apply_branch_stats", "InputHints",
    # multinode extension
    "DecompositionModel", "NetworkModel", "ScalingProjection",
    "project_scaling",
    # parallel sweep engine
    "LRUCache", "CacheStats", "GridPoint", "GridResult",
    "InputPoint", "InputSweepResult",
    "build_bet_cached", "sweep_grid", "sweep_inputs", "analyze_matrix",
    # resilience layer
    "PointFailure", "RetryPolicy", "SweepCheckpoint", "FaultInjector",
    # workloads
    "load_workload", "workload_names",
    "__version__",
]

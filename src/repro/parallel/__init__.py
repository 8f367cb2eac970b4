"""Parallel + cached design-space exploration engine.

The BET is machine independent, so co-design is a batch workload: one
tree, thousands of hardware points.  This package supplies the batch
machinery — a bounded LRU cache with observable statistics
(:class:`LRUCache`), memoized BET construction
(:func:`build_bet_cached`), N-dimensional machine grids
(:func:`sweep_grid`), explicit cell lists (:func:`evaluate_cells`),
input sweeps (:func:`sweep_inputs`), and fanned-out full analyses
(:func:`analyze_matrix`).  See DESIGN.md §6.

All of them dispatch one way: chunks of points as shards on the
:class:`ShardScheduler`, onto a :class:`SweepExecutor` (in-process or a
process pool when none is named; DESIGN.md §12).  The resilience layer
(DESIGN.md §7) rides on that route: failing points become structured
:class:`PointFailure` records instead of aborting the batch,
:class:`RetryPolicy` retries transient faults with deterministic
backoff, :class:`SweepCheckpoint` makes long sweeps resumable, and
:class:`FaultInjector` / :class:`CallRecorder` provide the deterministic
fault-injection harness the tests are built on.
"""

from .cache import CacheStats, LRUCache
from .chaos import ChaosEvent, ChaosSchedule
from .engine import (
    INPUT_PREFIX, GridPoint, GridResult, InputPoint, InputSweepResult,
    analyze_matrix, bet_cache_stats, build_bet_cached, clear_bet_cache,
    clear_symbolic_cache, evaluate_cells, sweep_grid, sweep_inputs,
)
from .executors import (
    EXECUTOR_NAMES, MultinodeExecutor, PoolExecutor, SerialExecutor,
    SweepExecutor, resolve_executor,
)
from .fault import (
    NO_RETRY, CallRecorder, FaultInjector, PointFailure, RetryPolicy,
    SweepCheckpoint, factory_tag, overrides_key, run_point, sweep_key,
)
from .pool import abandon_pool, default_workers, reap_abandoned
from .shard import (
    Shard, ShardEnvelope, ShardRunResult, ShardScheduler, SupervisionLog,
    plan_shards,
)

__all__ = [
    "CacheStats",
    "LRUCache",
    "GridPoint",
    "GridResult",
    "analyze_matrix",
    "bet_cache_stats",
    "build_bet_cached",
    "clear_bet_cache",
    "clear_symbolic_cache",
    "sweep_grid",
    "sweep_inputs",
    "evaluate_cells",
    "InputPoint",
    "InputSweepResult",
    "INPUT_PREFIX",
    "default_workers",
    # resilience layer
    "PointFailure",
    "RetryPolicy",
    "NO_RETRY",
    "run_point",
    "SweepCheckpoint",
    "sweep_key",
    "overrides_key",
    "factory_tag",
    "FaultInjector",
    "CallRecorder",
    # sharded executor layer
    "SweepExecutor",
    "SerialExecutor",
    "PoolExecutor",
    "MultinodeExecutor",
    "resolve_executor",
    "EXECUTOR_NAMES",
    "ShardScheduler",
    "ShardEnvelope",
    "ShardRunResult",
    "Shard",
    "SupervisionLog",
    "plan_shards",
    "ChaosSchedule",
    "ChaosEvent",
    "abandon_pool",
    "reap_abandoned",
]

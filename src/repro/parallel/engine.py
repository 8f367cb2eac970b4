"""The parallel + cached design-space exploration engine.

The paper's workflow builds the BET **once** and re-projects it across
hardware points (Sec. V, Sec. VII); co-design studies therefore look like
batch jobs: a grid of machine parameters, or a matrix of
(workload × machine × ablation) analyses.  This module provides that batch
layer:

* :func:`build_bet_cached` — memoized BET construction keyed by
  (program fingerprint, frozen inputs), so one tree serves every sweep
  point of a session;
* :func:`sweep_grid` — an N-dimensional machine-parameter grid projected
  over one BET, with process-pool fan-out and deterministic (row-major)
  point ordering;
* :func:`analyze_matrix` — the full Prof-vs-Modl pipeline fanned out over
  a (workload × machine × ablation) matrix; results are fed back into the
  bounded pipeline cache so later figure slicing is free;
* :func:`evaluate_cells` — an explicit list of machine × input cells;
* :func:`sweep_inputs` — the *input*-axis counterpart (DESIGN.md §8), a
  view over the same cells: each point is a cell of ``input:``-prefixed
  axes, bound through one :class:`~repro.bet.SymbolicBET` per worker, so
  each worker amortizes one recorded build (and the expression-compile
  warmup) across its whole chunk.

Every cell list — a grid, an explicit list, an input sweep — runs
through one core (:func:`_evaluate_cell_list`) and one chunk task
(:func:`_grid_chunk_task`); only :func:`analyze_matrix` has its own
(:func:`_point_chunk_task`).  Every entry point dispatches the same way
(:func:`_run_chunked`): its points ship in chunks as shards on the
:class:`~repro.parallel.shard.ShardScheduler`, onto the named executor
or — with none named — an in-process
:class:`~repro.parallel.executors.SerialExecutor` (``workers=1``) or a
:class:`~repro.parallel.executors.PoolExecutor`.  Each chunk task runs
its points through one per-point attempt loop, so retries, timeouts and
``strict`` mean the same on every route; parallel results are
bit-identical to the serial ones.  Every result carries per-stage wall
seconds and cache statistics so the performance trajectory is
observable (``timings`` / ``cache_stats``).
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..analysis.sensitivity import project_with_model
from ..analysis.vectorized import TreeBlocks, project_batch
from ..bet import SymbolicBET, build_bet
from ..bet.nodes import BETNode, render_tree
from ..errors import (
    AnalysisError, HardwareModelError, RetryExhaustedError, TaskTimeoutError,
)
from ..expressions import compile_stats, parser_stats
from ..hardware.machine import (
    MachineLanes, MachineModel, ensure_valid_machine,
)
from ..hardware.roofline import RooflineModel
from ..skeleton.bst import Program
from .cache import CacheStats, LRUCache
from .executors import (
    PoolExecutor, SerialExecutor, SweepExecutor, resolve_executor,
)
from .pool import close_idle_pool
from .lanes import (
    INPUT_PREFIX, check_inputs, check_parameter, input_columns,
    plan_lanes, split_overrides,
)
from .fault import (
    _ITEM_REPR_LIMIT, PointFailure, RetryPolicy, SweepCheckpoint,
    factory_tag, overrides_key, run_point, sweep_key,
)
from .shard import INFRA_FAULTS, ShardScheduler

# -- BET-build memoization ----------------------------------------------------

#: one tree serves every sweep point: BETs keyed by
#: (program fingerprint, frozen inputs)
_BET_CACHE = LRUCache(maxsize=64)


def _freeze_inputs(inputs: Optional[Dict[str, float]]) -> Tuple:
    return tuple(sorted((inputs or {}).items()))


def build_bet_cached(program: Program,
                     inputs: Optional[Dict[str, float]] = None) -> BETNode:
    """Build (or fetch) the BET of ``program``'s ``main`` with ``inputs``.

    The cache key is the program's content :meth:`~Program.fingerprint`
    plus the frozen inputs, so equivalent programs share one tree no
    matter how many sweeps re-request it.  Returned trees are shared —
    treat them as read-only (all analysis passes do).
    """
    key = (program.fingerprint(), _freeze_inputs(inputs))
    return _BET_CACHE.get_or_create(
        key, lambda: build_bet(program, inputs=inputs))


def bet_cache_stats() -> CacheStats:
    """Counters of the BET-build memo (hits/misses/evictions)."""
    return _BET_CACHE.stats


def clear_bet_cache() -> None:
    _BET_CACHE.clear()


# -- N-dimensional machine grids ----------------------------------------------

@dataclass
class GridPoint:
    """Projection at one cell of a machine-parameter grid.

    A point the engine returns builds its ``machine`` on first read
    (:func:`_cell_machine` of the base machine and ``overrides``): a
    machine costs more to build than most cells cost to project, and
    few callers read it.
    """

    overrides: Dict[str, float]    #: parameter -> value for this cell
    machine: MachineModel
    runtime: float                 #: projected whole-run wall seconds
    ranking: List[str]             #: hot-spot sites, hottest first
    top_label: str
    memory_fraction: float         #: non-overlapped memory share
    completeness: float = 1.0      #: modeled fraction (1.0 = no quarantine)

    def __getattr__(self, name: str):
        # reached only for an unset attribute: the machine of a point
        # from :func:`_grid_point`, before its first read (threads that
        # race here build equal machines)
        base = self.__dict__.get("_base") if name == "machine" else None
        if base is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.machine = machine = _cell_machine(base, self.overrides)
        return machine


@dataclass
class GridResult:
    """A full N-dimensional design-space grid.

    Points are in row-major order over ``grid`` (last parameter varies
    fastest), deterministically, regardless of worker count.  Cells that
    failed (after any configured retries) are absent from ``points`` and
    recorded in ``failures`` instead — one
    :class:`~repro.parallel.PointFailure` each, carrying the exception
    type, message, captured traceback, and attempt count.
    """

    grid: Dict[str, List[float]]   #: parameter -> swept values, in order
    points: List[GridPoint]
    timings: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)
    failures: List[PointFailure] = field(default_factory=list)
    backend: str = "scalar"        #: resolved evaluation backend
    executor: str = ""             #: executor name ("" = none named)
    shard_stats: Dict[str, float] = field(default_factory=dict)
    diagnostics: List[Any] = field(default_factory=list)

    @property
    def parameters(self) -> List[str]:
        return list(self.grid)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(values) for values in self.grid.values())

    @property
    def completeness(self) -> float:
        """Modeled fraction of the projected BET (< 1.0 after a degraded
        build quarantined part of the program)."""
        if not self.points:
            return 1.0
        return min(point.completeness for point in self.points)

    def point(self, **overrides: float) -> GridPoint:
        """The cell whose overrides match exactly."""
        for candidate in self.points:
            if candidate.overrides == overrides:
                return candidate
        raise AnalysisError(f"no grid point with overrides {overrides}")

    def runtime_curve(self) -> List[float]:
        return [point.runtime for point in self.points]

    def best(self) -> GridPoint:
        """The fastest cell (ties keep grid order)."""
        return min(self.points, key=lambda p: p.runtime)

    def render(self) -> str:
        names = self.parameters
        header = "  ".join(f"{name:>12}" for name in names)
        head = (f"design-space grid over {' x '.join(names)} "
                f"({len(self.points)} points"
                + (f", {len(self.failures)} failed" if self.failures
                   else "") + ")")
        if self.completeness < 1.0:
            head += (f" [degraded model: {100 * self.completeness:.1f}% "
                     f"of the program projected]")
        lines = [head,
                 f"{header}  {'runtime':>10}  {'mem%':>6}  top hot spot"]
        for point in self.points:
            cells = "  ".join(f"{point.overrides[name]:12.4g}"
                              for name in names)
            lines.append(
                f"{cells}  {point.runtime:10.4g}  "
                f"{100 * point.memory_fraction:5.1f}%  {point.top_label}")
        for failure in self.failures:
            lines.append(failure.render())
        return "\n".join(lines)


def _python_scalar(value):
    """A numpy scalar as the Python ``int``/``float`` it equals; any other
    value unchanged.  Axis values and cells pass through this once, where
    they enter the engine, so ``np.arange``/``np.linspace`` axes validate,
    batch, checkpoint-key and export like the Python numbers they equal."""
    return value.item() if isinstance(value, np.generic) else value


def _enter_cells(cells) -> Tuple[List[Dict[str, Any]],
                                  Dict[str, Dict[Any, None]]]:
    """One pass over an explicit cell list, where it enters the engine:
    ``(cells, union)``, each cell as a dict of :func:`_python_scalar`
    values, and each name's values in first-appearance order, equal ones
    (1 and 1.0) merged.  The first fault in cell order raises: a name
    :func:`~.lanes.check_parameter` refuses, or a value that is not a
    number."""
    generic = np.generic
    entered: List[Dict[str, Any]] = []
    union: Dict[str, Dict[Any, None]] = {}
    for cell in cells:
        cell = dict(cell)
        for name, value in cell.items():
            if isinstance(value, generic):
                value = cell[name] = value.item()
            values = union.get(name)
            if values is None:
                check_parameter(name)
                values = union[name] = {}
            try:
                values.setdefault(value)
            except TypeError:
                raise AnalysisError(f"cell value {value!r} of {name!r} "
                                    "is not a number") from None
        entered.append(cell)
    return entered, union


def _grid_cells(grid: Dict[str, Sequence[float]]) -> List[Dict[str, float]]:
    names = list(grid)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(grid[name]
                                             for name in names))]


def _cell_machine(base_machine: MachineModel,
                  overrides: Dict[str, float]) -> MachineModel:
    """The derived machine for one grid cell (single source of naming, so
    checkpoint-resumed points are bit-identical to computed ones).

    ``input:``-prefixed axes describe workload inputs, not machine
    fields; they appear in the name tag but are not applied as overrides.
    """
    tag = ",".join(f"{name}={value:g}"
                   for name, value in overrides.items())
    machine_part = {name: value for name, value in overrides.items()
                    if not name.startswith(INPUT_PREFIX)}
    return base_machine.with_overrides(
        name=f"{base_machine.name}[{tag}]", **machine_part)


def _grid_point(base_machine: MachineModel, overrides: Dict[str, float],
                projection: Dict[str, Any]) -> GridPoint:
    """The :class:`GridPoint` of one cell, its machine left to build on
    first read."""
    point = object.__new__(GridPoint)
    point.__dict__.update(projection, overrides=overrides,
                          _base=base_machine)
    return point


def _projection(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A checkpointed point's projection, shaped as the chunk task
    returns it (older payloads also carry the cell's ``overrides``, the
    oldest no ``completeness``).  ``ranking`` is copied, so no result
    shares a list with the checkpoint."""
    return {"runtime": payload["runtime"],
            "ranking": list(payload["ranking"]),
            "top_label": payload["top_label"],
            "memory_fraction": payload["memory_fraction"],
            "completeness": payload.get("completeness", 1.0)}


def _attempt_rows(evaluate: Callable, items: Sequence,
                  indices: Sequence[int], policy: Optional[RetryPolicy],
                  strict: bool, done: Optional[Sequence] = None) -> List:
    """The rows a chunk task returns: one per point, in chunk order.

    A point whose value ``done`` already holds (a batch replay computed
    it) is ``("ok", value, 1)``; every other point runs ``evaluate``
    through :func:`~repro.parallel.fault.run_point`, its attempt loop
    keyed by the point's global index.  Under ``strict`` the chunk stops
    at its first exhausted point, so nothing after it is evaluated.
    """
    rows: List = []
    for slot, (item, index) in enumerate(zip(items, indices)):
        value = done[slot] if done is not None else None
        row = (("ok", value, 1) if value is not None
               else run_point(evaluate, item, index, policy))
        rows.append(row)
        if strict and row[0] == "fail":
            break
    return rows


def _point_chunk_task(payload):
    """Shard task for per-item work — matrix analyses, whose points
    share no setup: ``fn`` over the chunk's items, each through its
    attempt loop."""
    (fn, chunk), indices, policy, strict = payload
    return _attempt_rows(fn, chunk, indices, policy, strict), {}


def _default_grid_key(bet: BETNode, base_machine: MachineModel,
                      grid: Dict[str, Sequence[float]], k: int) -> str:
    """Content key tying a checkpoint to (tree, machine, grid, k)."""
    return sweep_key(render_tree(bet), repr(base_machine),
                     sorted((name, tuple(values))
                            for name, values in grid.items()), k)


def sweep_grid(bet: Optional[BETNode], base_machine: MachineModel,
               grid: Dict[str, Sequence[float]],
               model_factory: Optional[Callable] = None,
               k: int = 10,
               workers: int = 1,
               strict: bool = False,
               policy: Optional[RetryPolicy] = None,
               timeout: Optional[float] = None,
               checkpoint: Optional[str] = None,
               resume: bool = False,
               checkpoint_key: Optional[str] = None,
               validate: bool = True,
               program: Optional[Program] = None,
               inputs: Optional[Dict[str, float]] = None,
               backend: str = "auto",
               executor=None,
               shards: Optional[int] = None,
               topology=None,
               chaos=None) -> GridResult:
    """Project one BET over the cross product of machine parameters.

    Parameters
    ----------
    bet:
        A built BET (machine independent; shared by every cell).  May be
        ``None`` when ``program`` is given and every axis is an input
        axis.
    base_machine:
        The machine whose fields are overridden per cell.
    grid:
        ``{parameter: values, ...}`` — cells are the cross product, in
        row-major order (last parameter varies fastest).  An axis named
        ``input:<name>`` sweeps the workload input ``<name>`` instead of
        a machine field; such grids require ``program`` and are routed
        through :class:`~repro.bet.SymbolicBET` rebinds with chunked
        dispatch (list input axes first so consecutive cells share a
        binding).
    workers:
        Process-pool width; ``1`` runs serially.  Ordering and values are
        identical either way.
    strict:
        ``False`` (default): a failing cell becomes a
        :class:`~repro.parallel.PointFailure` on ``result.failures`` while
        every healthy cell completes.  ``True`` restores fail-fast
        (:class:`~repro.errors.RetryExhaustedError` /
        :class:`~repro.errors.TaskTimeoutError` for the first exhausted
        cell).
    policy:
        :class:`~repro.parallel.RetryPolicy` for transient faults
        (default: no retries — each cell runs exactly once).
    timeout:
        Per-cell bound in seconds, enforced by executors that can
        pre-empt a worker (the process pool; in-process runs cannot).
    checkpoint / resume / checkpoint_key:
        Path for a JSON checkpoint of completed cells, written once per
        settled chunk;
        ``resume=True`` skips cells already checkpointed (the key —
        defaulting to a hash of the rendered BET, the machine, and the
        grid — must match, else :class:`~repro.errors.CheckpointError`).
    validate:
        Pre-flight the base machine
        (:func:`~repro.hardware.validate_machine`) before any work.
    program / inputs:
        The workload behind ``input:`` axes: per-cell bindings of its
        ``main`` are ``inputs`` overlaid with the cell's input-axis
        values.
    backend:
        ``"scalar"``, ``"vector"``, or ``"auto"`` (default).  The vector
        backend evaluates each chunk as one lane array (DESIGN.md §15):
        the cells' machines as the columns of one
        :class:`~repro.hardware.MachineLanes`, their input axes as the
        columns of one batch replay (cells grouped by input-axis names),
        or the prebuilt ``bet`` when there are none.  ``auto`` selects
        it for grids of at least :data:`VECTOR_MIN_LANES` cells and then
        batches only groups of at least that many cells.
    executor / shards / topology / chaos:
        Sharded dispatch (DESIGN.md §12).  ``executor`` names a
        :class:`~repro.parallel.executors.SweepExecutor` (``"serial"`` /
        ``"pool"`` / ``"multinode"``) or is an instance; the grid is
        split into ``shards`` work units scheduled with work-stealing,
        crash/heartbeat supervision, and poison-shard quarantine.  With
        no ``shards`` (or no executor named), chunks are sized
        automatically: about four per worker; on the
        vector backend one per worker, floored at
        :data:`VECTOR_MIN_POINTS` cells; scalar grids with input axes
        floor them at 16 cells, while scalar machine-only grids have no
        floor and ship one cell per chunk on one worker, so each cell is
        checkpointed as it finishes.  ``topology`` selects
        the simulated cluster for ``"multinode"``; ``chaos`` injects a
        :class:`~repro.parallel.chaos.ChaosSchedule` of executor-layer
        faults.  ``executor=None`` (default) dispatches through the same
        scheduler in-process for ``workers=1`` and on a process pool of
        ``workers`` otherwise (in-process when the work does not
        pickle); it reports ``executor == ""`` and no shard stats.
    """
    grid = {name: [_python_scalar(value) for value in values]
            for name, values in grid.items()}
    if not grid or any(len(values) == 0 for values in grid.values()):
        raise AnalysisError("grid needs at least one value per parameter")
    for parameter in grid:
        check_parameter(parameter)
    input_axes = [name for name in grid if name.startswith(INPUT_PREFIX)]
    if input_axes:
        if program is None:
            raise AnalysisError(
                f"grid axes {input_axes} sweep workload inputs; "
                "pass program= (and optionally inputs=) to sweep_grid")
        check_inputs(program, input_axes)
    elif bet is None:
        raise AnalysisError("sweep_grid needs a built BET for "
                            "machine-only grids")
    if checkpoint and not checkpoint_key:
        if input_axes:
            checkpoint_key = sweep_key(
                program.fingerprint(), tuple(sorted((inputs or {}).items())),
                "main", repr(base_machine),
                sorted((name, tuple(values))
                       for name, values in grid.items()), k)
        else:
            checkpoint_key = _default_grid_key(bet, base_machine, grid, k)
    return _evaluate_cell_list(
        _grid_cells(grid), base_machine, grid_spec=grid,
        has_input_axes=bool(input_axes), bet=bet, program=program,
        inputs=inputs, model_factory=model_factory, k=k, workers=workers,
        strict=strict, policy=policy, timeout=timeout,
        checkpoint=checkpoint, resume=resume,
        checkpoint_key=checkpoint_key, validate=validate, backend=backend,
        executor=executor, shards=shards, topology=topology, chaos=chaos)


def evaluate_cells(base_machine: MachineModel,
                   cells: Sequence[Dict[str, float]],
                   bet: Optional[BETNode] = None,
                   model_factory: Optional[Callable] = None,
                   k: int = 10,
                   workers: int = 1,
                   strict: bool = False,
                   policy: Optional[RetryPolicy] = None,
                   timeout: Optional[float] = None,
                   checkpoint: Optional[str] = None,
                   resume: bool = False,
                   checkpoint_key: Optional[str] = None,
                   validate: bool = True,
                   program: Optional[Program] = None,
                   inputs: Optional[Dict[str, float]] = None,
                   backend: str = "auto",
                   executor=None,
                   shards: Optional[int] = None,
                   topology=None,
                   chaos=None) -> GridResult:
    """Project an *explicit list* of machine×input cells, exactly.

    The point-list sibling of :func:`sweep_grid`: instead of the cross
    product of a grid spec, the caller names each cell — a dict of
    machine-field and/or ``input:<name>`` overrides — and gets one
    :class:`GridPoint` per cell (in order, failures recorded aside),
    computed through the same chunked dispatch, vector backend, retry,
    checkpoint, and executor machinery as a full grid, with the same
    bit-identical-to-``sweep_grid`` guarantee.  This is the evaluation
    primitive of the :mod:`repro.explore` active-learning loop, which
    acquires scattered index sets of a lazy
    :class:`~repro.explore.GridSpace` rather than dense boxes.

    ``checkpoint_key`` should be passed when the same checkpoint file
    accumulates several calls over one logical space (the explorer keys
    it by the space fingerprint); the default key hashes the exact cell
    list, so different batches would otherwise refuse to share a file.
    Other parameters match :func:`sweep_grid`.
    """
    cells, union = _enter_cells(cells)
    if not cells:
        raise AnalysisError("evaluate_cells needs at least one cell")
    input_names = [name for name in union if name.startswith(INPUT_PREFIX)]
    if input_names:
        if program is None:
            raise AnalysisError(
                f"cells override workload inputs {sorted(input_names)}; "
                "pass program= (and optionally inputs=) to evaluate_cells")
        check_inputs(program, input_names)
    elif bet is None:
        raise AnalysisError("evaluate_cells needs a built BET for "
                            "machine-only cells")
    keys = None
    if checkpoint and not checkpoint_key:
        keys = list(map(overrides_key, cells))
        checkpoint_key = (
            sweep_key(program.fingerprint(),
                      tuple(sorted((inputs or {}).items())), "main",
                      repr(base_machine), tuple(keys), k)
            if input_names else
            sweep_key(render_tree(bet), repr(base_machine), tuple(keys), k))
    return _evaluate_cell_list(
        cells, base_machine,
        grid_spec={name: list(values) for name, values in union.items()},
        has_input_axes=bool(input_names), bet=bet, program=program,
        inputs=inputs, model_factory=model_factory, k=k, workers=workers,
        strict=strict, policy=policy, timeout=timeout,
        checkpoint=checkpoint, resume=resume,
        checkpoint_key=checkpoint_key, validate=validate, backend=backend,
        executor=executor, shards=shards, topology=topology, chaos=chaos,
        keys=keys)


def _evaluate_cell_list(cells: List[Dict[str, float]],
                        base_machine: MachineModel, *,
                        grid_spec: Dict[str, List[float]],
                        has_input_axes: bool,
                        bet: Optional[BETNode],
                        program: Optional[Program],
                        inputs: Optional[Dict[str, float]],
                        model_factory: Optional[Callable],
                        k: int,
                        workers: int,
                        strict: bool,
                        policy: Optional[RetryPolicy],
                        timeout: Optional[float],
                        checkpoint: Optional[str],
                        resume: bool,
                        checkpoint_key: Optional[str],
                        validate: bool,
                        backend: str,
                        executor,
                        shards: Optional[int],
                        topology,
                        chaos,
                        labels: Optional[Sequence[Dict[str, float]]] = None,
                        point: Optional[Callable[[int, Dict], Any]] = None,
                        keys: Optional[List[str]] = None
                        ) -> GridResult:
    """Shared evaluation core of every cell list — :func:`sweep_grid`'s
    cross products, :func:`evaluate_cells`' explicit lists and
    :func:`sweep_inputs`' points: pre-flight, checkpoint triage,
    chunked/sharded dispatch through :func:`_grid_chunk_task`, and
    result assembly.  Cells with input axes bind through one
    :class:`~repro.bet.SymbolicBET`; machine-only cells re-project the
    prebuilt ``bet``.  On the vector backend, lane groups of fewer than
    :func:`_min_group_lanes` cells run the per-cell scalar loop.

    ``labels`` name the cells in checkpoint records and failure items
    (default: the cells themselves), and ``keys`` are their checkpoint
    keys when the caller made them already (default: computed here, once
    per sweep); ``point(index, projection)`` makes
    one result point (default: a :class:`GridPoint`, see
    :func:`_grid_point`).  The parameters mirror :func:`sweep_grid`'s, with
    ``checkpoint_key`` already defaulted by the caller.
    """
    if validate:
        ensure_valid_machine(base_machine)
    started = time.perf_counter()
    base_inputs = dict(inputs or {})
    min_lanes = _min_group_lanes(backend)
    backend = _resolve_backend(backend, len(cells))
    resolved_executor: Optional[SweepExecutor] = None
    if executor is not None:
        resolved_executor = resolve_executor(executor, workers=workers,
                                             topology=topology, chaos=chaos)
    labels = cells if labels is None else labels
    if point is None:
        def point(index: int, projection: Dict) -> GridPoint:
            return _grid_point(base_machine, cells[index], projection)

    ckpt: Optional[SweepCheckpoint] = None
    prior: Dict[int, Dict[str, Any]] = {}
    if checkpoint:
        ckpt = SweepCheckpoint.load(
            checkpoint, checkpoint_key, resume=resume,
            settings=_checkpoint_settings(backend, model_factory,
                                          resolved_executor))
        if keys is None:
            keys = list(map(overrides_key, labels))
        for index, key in enumerate(keys):
            stored = ckpt.get(key)
            if stored is not None:
                prior[index] = _projection(stored)
    pending = ([index for index in range(len(cells)) if index not in prior]
               if prior else list(range(len(cells))))
    pending_cells = ([cells[index] for index in pending] if prior
                     else cells)

    source: Any = SymbolicBET(program) if has_input_axes else bet
    # the resident-tape key (see _symbolic_for), computed once per sweep
    tape_key = program.fingerprint() if has_input_axes else None
    chunks: Optional[List[List[int]]] = None
    grouped: set = set()      # the cells of lane-group chunks
    if backend == "vector" and pending:
        # grouped dispatch (DESIGN.md §15): partition the pending cells
        # by input-axis names so every shipped chunk — the shard unit —
        # is one lane-group slice, or a slice of the scalar residue
        width = (resolved_executor.width
                 if resolved_executor is not None else workers)
        if resolved_executor is not None and shards:
            group_size = max(1, -(-len(pending) // max(1, int(shards))))
        else:
            group_size = _auto_chunk_size(len(pending), width, vector=True)
        groups, residue = plan_lanes(pending_cells, group_size, min_lanes)
        chunks = groups + residue
        if prior:
            chunks = [[pending[position] for position in chunk]
                      for chunk in chunks]
        for chunk in chunks[:len(groups)]:
            grouped.update(chunk)
    def chunk_payload(chunk: List[int]):
        return (source, tape_key, base_machine,
                [cells[index] for index in chunk],
                base_inputs, model_factory, k,
                len(chunk) >= min_lanes and chunk[0] in grouped)

    # scalar machine-only cells share nothing but the tree: no floor, so
    # a serial run ships one cell per chunk and checkpoints it at once
    floor = (VECTOR_MIN_POINTS if backend == "vector"
             else _MIN_CHUNK_POINTS if has_input_axes else 1)

    shard_stats: Dict[str, float] = {}
    try:
        computed, failures, stages = _run_chunked(
            pending, chunk_payload=chunk_payload,
            chunk_task=_grid_chunk_task,
            describe=lambda index: overrides_key(labels[index]),
            record=None if ckpt is None else (
                lambda points: ckpt.update(
                    {keys[index]: projection
                     for index, projection in points.items()})),
            workers=workers, strict=strict, policy=policy,
            timeout=timeout, executor=resolved_executor, shards=shards,
            shard_stats=shard_stats if resolved_executor else None,
            chunks=chunks, floor=floor)
    finally:
        if ckpt is not None:
            ckpt.flush()

    found = {**prior, **computed} if prior else computed
    points = [point(index, found[index]) for index in sorted(found)]
    elapsed = time.perf_counter() - started
    timings = {"project": stages.get("project_seconds", 0.0),
               "total": elapsed,
               "workers": float(max(workers, 1)),
               "points": float(len(points)),
               "failed": float(len(failures)),
               "resumed": float(len(prior))}
    cache_stats = bet_cache_stats().as_dict()
    if has_input_axes or backend == "vector":
        cache_stats.update(
            lanes_vectorized=stages.get("bet_lanes_vectorized", 0.0),
            lanes_fallback=stages.get("bet_lanes_fallback", 0.0),
            lane_groups=stages.get("lane_groups", 0.0))
    if has_input_axes:
        timings.update(
            build=stages.get("bet_build_seconds", 0.0),
            rebind=stages.get("bet_replay_seconds", 0.0),
            batch=stages.get("bet_batch_seconds", 0.0),
            compile=stages.get("compile_seconds", 0.0))
        cache_stats.update(
            bet_builds=stages.get("bet_builds", 0.0),
            bet_replays=stages.get("bet_replays", 0.0),
            bet_shape_rebuilds=stages.get("bet_shape_rebuilds", 0.0),
            bet_batch_replays=stages.get("bet_batch_replays", 0.0),
            compiles=stages.get("compiles", 0.0),
            compile_cache_hits=stages.get("compile_cache_hits", 0.0),
            parse_cache_hits=stages.get("parse_cache_hits", 0.0))
    return GridResult(
        grid=grid_spec,
        points=points,
        timings=timings,
        cache_stats=cache_stats,
        failures=failures,
        backend=backend,
        executor=(resolved_executor.name if resolved_executor else ""),
        shard_stats=shard_stats,
        diagnostics=list(ckpt.diagnostics) if ckpt is not None else [])


# -- input-axis sweeps (symbolic rebind) --------------------------------------

#: the smallest input sweep or lane group that ``backend="auto"``
#: batch-replays; smaller ones run the per-point scalar loop, where they
#: are faster.  One crossover decides both (:func:`_resolve_backend`,
#: :func:`_min_group_lanes`).  Measured on BG/Q roofline (DESIGN.md
#: §10), the batch route is no slower than the scalar loop from 4-6
#: points on the bundled workloads and takes about half its time at 8;
#: it stays at 8 so the 4-6-point checkpoints written by earlier
#: releases (recorded under the scalar backend) still resume.
VECTOR_MIN_LANES = 8

#: lanes per chunk below which a vector-backend pool run does not split
#: a sweep (:func:`_auto_chunk_size`), and the size from which the
#: service steps a vector-eligible batch in ``vector_chunk_cells``
#: strides instead of ``chunk_cells``.  It no longer picks the backend:
#: that is :data:`VECTOR_MIN_LANES`.
VECTOR_MIN_POINTS = 64

#: floor for the automatic chunk size: chunks smaller than this ship more
#: pickle traffic than work (and starve the vector backend of lanes)
_MIN_CHUNK_POINTS = 16


def _auto_chunk_size(total: int, workers: int, vector: bool = False,
                     floor: int = _MIN_CHUNK_POINTS) -> int:
    """Points per chunk: about four chunks per worker, floored at
    ``floor`` so tiny input sweeps on many workers do not degenerate
    into one-point chunks.  One worker gets one chunk, except on the
    per-item routes (machine-only cells, matrix analyses), which share
    no per-chunk setup and pass ``floor=1``: there every chunk holds one
    point, so each result reaches the checkpoint as soon as it is
    computed.

    On a vector-backend sweep (``vector=True``) a chunk is one
    ``rebind_batch`` lane array, whose fixed cost (one batch replay,
    one projection matrix, one shipped payload) does not grow with its
    lanes: each worker gets one chunk, floored at
    :data:`VECTOR_MIN_POINTS` lanes, so a pool run splits a vector
    sweep no finer than that.
    """
    if total <= 0:
        return 1
    if workers <= 1:
        return 1 if floor == 1 else total
    if vector:
        per_worker, floor = -(-total // workers), VECTOR_MIN_POINTS
    else:
        per_worker = -(-total // (workers * 4))
    return max(1, min(total, max(per_worker, floor)))


def _resolve_backend(backend: str, points: int) -> str:
    """Validate and resolve a sweep's ``backend`` choice.

    ``auto`` picks ``vector`` for any sweep of at least
    :data:`VECTOR_MIN_LANES` points — the crossover that also decides
    which lane groups batch (:func:`_min_group_lanes`).  Input sweeps,
    mixed machine×input cell lists and machine-only cells all qualify:
    a lane array carries the machine as columns too (DESIGN.md §15).
    """
    if backend not in ("scalar", "vector", "auto"):
        raise AnalysisError(
            f"unknown sweep backend {backend!r}; expected 'scalar', "
            f"'vector', or 'auto'")
    if backend == "auto":
        return "vector" if points >= VECTOR_MIN_LANES else "scalar"
    return backend


def _min_group_lanes(backend: str) -> int:
    """Smallest lane group the vector backend batch-replays.

    A backend that ``auto`` picks leaves groups below
    :data:`VECTOR_MIN_LANES` to the scalar loop, where they are faster —
    the same crossover :func:`_resolve_backend` applies to a whole
    sweep; an explicit ``"vector"`` batches every group, however
    small."""
    return VECTOR_MIN_LANES if backend == "auto" else 1


def _checkpoint_settings(backend: str,
                         model_factory: Optional[Callable],
                         resolved_executor: Optional[SweepExecutor],
                         ) -> Dict[str, str]:
    """Evaluation-semantics fingerprint stored inside a checkpoint.

    A resumed run must produce points comparable with the stored ones,
    so the checkpoint refuses (``SKOP706``) to merge across a change of
    backend, cache model, or executor kind — the dimensions that decide
    *how* a point's numbers were computed, as opposed to *which* points
    (those live in the sweep key).  The backend is recorded post-
    resolution: ``auto`` that resolved to ``vector`` is the same
    semantics as an explicit ``vector``.
    """
    return {
        "backend": backend,
        "cache_model": factory_tag(model_factory),
        "executor": resolved_executor.name if resolved_executor is not None
        else "legacy",
    }

#: resident symbolic trees, least recently used first: pool workers
#: persist across chunks and sweeps, so one recorded build serves every
#: chunk a worker (or the parent, in-process) receives for a program
_SYM_CACHE: Dict[str, SymbolicBET] = {}
_SYM_CACHE_LIMIT = 8
_SYM_LOCK = threading.Lock()


def _reset_sym_lock() -> None:
    """A forked worker inherits the lock as it was, possibly held by a
    thread that does not exist in the worker."""
    global _SYM_LOCK
    _SYM_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_sym_lock)


@contextmanager
def _symbolic_for(sym: SymbolicBET, key: str) -> Iterator[SymbolicBET]:
    """Check out the process's resident :class:`SymbolicBET` for
    ``sym``'s program, for one chunk.

    ``key`` is the program's :meth:`~Program.fingerprint`, which is all
    that shapes a tape.  A sweep computes it once, in the parent, and
    ships it with every chunk, so no chunk formats and hashes the
    program again.

    Shipped instances arrive without tape or tree (they pickle to just
    the program); a resident instance means later chunks, and later
    sweeps on a warm worker, replay an already-recorded tape instead of
    rebuilding.  Its :meth:`~repro.bet.SymbolicBET.bind` replays in place
    on one tree, so it serves one chunk at a time: it leaves the cache
    while the chunk runs and returns, as most recently used, when the
    chunk ends.  A chunk that finds none (the first, or one running
    while another thread holds the resident) records a fresh copy, which
    becomes the resident when it returns.
    """
    with _SYM_LOCK:
        resident = _SYM_CACHE.pop(key, None)
    if resident is None:
        resident = SymbolicBET(sym.program)
    try:
        yield resident
    finally:
        with _SYM_LOCK:
            _SYM_CACHE.pop(key, None)
            _SYM_CACHE[key] = resident
            if len(_SYM_CACHE) > _SYM_CACHE_LIMIT:
                del _SYM_CACHE[next(iter(_SYM_CACHE))]


def clear_symbolic_cache() -> None:
    """Drop resident symbolic trees: this process's, and the warm pool
    workers' (by shutting the idle pool down).  For tests and benchmarks
    that time cold sweeps, and after changing module state that a pooled
    task or factory reaches only indirectly, which warm workers would
    still hold as it was at their fork."""
    with _SYM_LOCK:
        _SYM_CACHE.clear()
    close_idle_pool()


def _perf_counters() -> Dict[str, float]:
    """Process-wide expression-layer counters (compile + parse caches)."""
    compiled = compile_stats()
    parsed = parser_stats()
    return {"compile_seconds": float(compiled["compile_seconds"]),
            "compiles": float(compiled["compiles"]),
            "compile_cache_hits": float(compiled["cache_hits"]),
            "parse_cache_hits": float(parsed["cache_hits"])}


def _stage_snapshot(sym: Optional[SymbolicBET]) -> Dict[str, float]:
    """The counters a chunk reports the change of: the expression
    layer's and ``sym``'s (``bet_``-prefixed)."""
    snap = _perf_counters()
    if sym is not None:
        for name, value in sym.stats.items():
            snap["bet_" + name] = float(value)
    return snap


def _stage_delta(sym: Optional[SymbolicBET], before: Dict[str, float],
                 project_seconds: float) -> Dict[str, float]:
    """A chunk's stage stats: each counter's change since ``before``,
    and its projection seconds."""
    delta = {name: value - before.get(name, 0.0)
             for name, value in _stage_snapshot(sym).items()}
    delta["project_seconds"] = project_seconds
    return delta


def _default_executor(workers: int, task: Callable,
                      payloads: Sequence) -> SweepExecutor:
    """The executor behind ``executor=None``.

    In-process for ``workers <= 1`` or a single chunk; otherwise a
    process pool of up to ``workers`` — unless the work does not pickle
    (probed with the first payload only, since the pool pickles each
    one again at submit time), which degrades to in-process.  A pool
    that cannot start its workers degrades the same way (see
    :func:`_run_chunked`).
    """
    if workers <= 1 or len(payloads) < 2:
        return SerialExecutor()
    try:
        pickle.dumps((task, payloads[0]))
    except Exception:
        return SerialExecutor()
    return PoolExecutor(workers=min(workers, len(payloads)))


def _raise_strict(failure: PointFailure, timeout: Optional[float]) -> None:
    """Fail fast for an exhausted point (``strict=True``)."""
    if failure.error_type == "TaskTimeoutError":
        raise TaskTimeoutError(failure.index, timeout or 0.0, failure.item)
    raise RetryExhaustedError(
        failure.index, failure.attempts, failure.error_type,
        failure.message, failure.traceback,
    ) from failure.exception


def _run_chunked(indices: Sequence[int],
                 chunk_payload: Callable[[List[int]], Any],
                 chunk_task: Callable,
                 describe: Callable[[int], str],
                 record: Optional[Callable[[Dict[int, Any]], None]],
                 workers: int,
                 strict: bool,
                 policy: Optional[RetryPolicy],
                 timeout: Optional[float],
                 executor: Optional[SweepExecutor] = None,
                 shards: Optional[int] = None,
                 shard_stats: Optional[Dict[str, float]] = None,
                 chunks: Optional[List[List[int]]] = None,
                 floor: int = _MIN_CHUNK_POINTS):
    """The engine's one dispatch route: chunks of points as shards on the
    :class:`~repro.parallel.shard.ShardScheduler`.

    ``indices`` are the caller's (global) indices of the points to run,
    and a chunk is a list of them.  Contiguous chunks let each worker
    amortize its setup (one symbolic build, the expression-compile
    warmup, its timing models) across the whole chunk.  Chunk ``c``
    ships to ``chunk_task`` as ``(chunk_payload(c), c, policy, strict)``;
    the task runs every point through its attempt loop
    (:func:`_attempt_rows`) and returns ``(rows, stats)``.  So every
    route and executor share one per-point fault contract:

    * a point's run inside its chunk is attempt 1, and later attempts
      happen only while ``policy.should_retry`` allows, with backoff
      keyed by the point's global index (``policy=None``: exactly one
      execution, whatever ``timeout`` or ``strict`` say);
    * a chunk that timed out (``timeout`` × its size) or raised as a
      whole is resubmitted as shards of one under the per-point
      ``timeout``; a shard of one that does so again fails its point;
    * ``strict`` raises :class:`~repro.errors.RetryExhaustedError` /
      :class:`~repro.errors.TaskTimeoutError` for the first exhausted
      point — a chunk stops at it, so in a serial run nothing after it
      is evaluated or recorded;
    * infrastructure faults (crash, heartbeat loss, corrupt envelope)
      are the scheduler's to reassign; a shard it quarantines for them
      turns into one "quarantined" :class:`PointFailure` per point
      (``strict``: the :class:`~repro.errors.ShardQuarantinedError`).

    ``executor=None`` resolves through :func:`_default_executor`; if the
    pool it picks raises ``OSError`` before any shard settled (the host
    cannot start worker processes), the run restarts on a
    :class:`SerialExecutor`.  ``chunks`` overrides contiguous slicing
    with an explicit partition of ``indices`` — the grouped vector path
    passes lane-group slices.  ``describe(index)`` is a failed point's
    ``item`` text, ``record(points)`` (if given) sees each settled
    chunk's computed points once, as ``{index: value}`` — the
    checkpoint writes them with one file write — and ``floor`` is the
    automatic chunk size's floor (see :func:`_auto_chunk_size`).

    Returns ``(computed, failures, stages)`` where ``computed`` maps the
    caller's global index to the point value and ``stages`` accumulates
    per-stage seconds and cache counters across every chunk; scheduler
    counters are summed into ``shard_stats`` when given.
    """
    total = len(indices)
    if chunks is None:
        if executor is not None and shards:
            size = max(1, -(-total // max(1, int(shards))))
        else:
            size = _auto_chunk_size(
                total, executor.width if executor is not None else workers,
                floor=floor)
        chunks = [list(indices[start:start + size])
                  for start in range(0, total, size)]
    else:
        chunks = [chunk for chunk in chunks if chunk]
    chunk_size = max(map(len, chunks), default=1)

    def payload(chunk: List[int]):
        return (chunk_payload(chunk), chunk, policy, strict)

    payloads = [payload(chunk) for chunk in chunks]
    default = executor is None
    if default:
        executor = _default_executor(workers, chunk_task, payloads)

    computed: Dict[int, Any] = {}
    failures: List[PointFailure] = []
    stages: Dict[str, float] = {}
    counts: Dict[str, float] = {}

    def fail(failure: PointFailure, index: int) -> None:
        failure.index = index
        failure.item = str(describe(index))[:_ITEM_REPR_LIMIT]
        if strict:
            _raise_strict(failure, timeout)
        failures.append(failure)

    def dispatch(plan: List[List[int]], plan_payloads: List,
                 shard_timeout: Optional[float]):
        nonlocal executor

        def on_chunk(shard_id: int, result) -> None:
            rows, stats = result
            for name, value in stats.items():
                stages[name] = stages.get(name, 0.0) + value
            settled = {index: row[1]
                       for index, row in zip(plan[shard_id], rows)
                       if row[0] == "ok"}
            computed.update(settled)
            # before fail() can raise: a strict chunk ends at its first
            # exhausted point, and the points before it still count
            if record is not None and settled:
                record(settled)
            for index, row in zip(plan[shard_id], rows):
                if row[0] != "ok":
                    fail(row[1], index)

        sizes = [len(positions) for positions in plan]
        while True:
            scheduler = ShardScheduler(executor, timeout=shard_timeout)
            try:
                run = scheduler.run(chunk_task, plan_payloads, sizes=sizes,
                                    on_result=on_chunk)
                break
            except OSError:
                # the default pool could not start its workers (fork
                # refused by a sandbox, EAGAIN, ENOMEM): before any shard
                # settled, the plan reruns in-process, as for one worker
                if not (default and isinstance(executor, PoolExecutor)) \
                        or scheduler.log.count("result") \
                        or scheduler.log.count("quarantine"):
                    raise
                executor = SerialExecutor()
        for name, value in run.stats.items():
            counts[name] = counts.get(name, 0.0) + value
        return run

    def settle(run, plan: List[List[int]]) -> List[List[int]]:
        """Turn quarantined shards into point failures, except multi-point
        chunks a task fault took down: those are returned, to resubmit."""
        split: List[List[int]] = []
        for shard_id in sorted(run.quarantined):
            error = run.quarantined[shard_id]
            chunk = plan[shard_id]
            message, attempts = error.message, 1
            if error.error_type in INFRA_FAULTS:
                if strict:
                    raise error
                message = (f"shard {shard_id} quarantined after "
                           f"{error.attempts} attempts: {error.message}")
                attempts = error.attempts
            elif len(chunk) > 1:
                split.append(chunk)
                continue
            elif error.error_type == "TaskTimeoutError" and timeout:
                message = (f"no result within the {timeout:g}s "
                           "per-point timeout")
            for index in chunk:
                fail(PointFailure(index=index, error_type=error.error_type,
                                  message=message, traceback="",
                                  attempts=attempts), index)
        return split

    split = settle(dispatch(chunks, payloads,
                            timeout * chunk_size if timeout else None),
                   chunks)
    if split:
        alone = [[index] for chunk in split for index in chunk]
        settle(dispatch(alone, [payload(chunk) for chunk in alone],
                        timeout), alone)
        # a chunk resubmitted as shards of one is not a quarantine: only
        # shards whose points failed for good count
        counts["shards_quarantined"] -= len(split)
    if shard_stats is not None:
        shard_stats.update(counts)
    failures.sort(key=lambda failure: failure.index)
    return computed, failures, stages


@dataclass
class InputPoint:
    """Projection at one input (workload-parameter) binding."""

    inputs: Dict[str, float]       #: swept input -> value for this point
    runtime: float                 #: projected whole-run wall seconds
    ranking: List[str]             #: hot-spot sites, hottest first
    top_label: str
    memory_fraction: float
    completeness: float = 1.0      #: modeled fraction (1.0 = no quarantine)


@dataclass
class InputSweepResult:
    """A sweep over workload inputs with one symbolic tree.

    Points are in row-major order over ``axes`` (last axis varies
    fastest) or in the caller's order for an explicit point list.
    ``timings`` carries per-stage seconds (``build`` / ``rebind`` /
    ``compile`` / ``project``) and ``cache_stats`` the replay and
    expression-cache counters, so the amortization is observable.
    """

    axes: Dict[str, List[float]]   #: input -> swept values ({} for lists)
    base_inputs: Dict[str, float]  #: bindings held constant
    points: List[InputPoint]
    timings: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)
    failures: List[PointFailure] = field(default_factory=list)
    backend: str = "scalar"        #: resolved evaluation backend
    executor: str = ""             #: executor name ("" = none named)
    shard_stats: Dict[str, float] = field(default_factory=dict)
    diagnostics: List[Any] = field(default_factory=list)

    @property
    def parameters(self) -> List[str]:
        if self.axes:
            return list(self.axes)
        names: List[str] = []
        for point in self.points:
            for name in point.inputs:
                if name not in names:
                    names.append(name)
        return names

    @property
    def completeness(self) -> float:
        """Modeled fraction of the swept BETs (< 1.0 after a degraded
        build quarantined part of the program)."""
        if not self.points:
            return 1.0
        return min(point.completeness for point in self.points)

    def point(self, **inputs: float) -> InputPoint:
        """The point whose swept inputs match exactly."""
        for candidate in self.points:
            if candidate.inputs == inputs:
                return candidate
        raise AnalysisError(f"no sweep point with inputs {inputs}")

    def runtime_curve(self) -> List[float]:
        return [point.runtime for point in self.points]

    def best(self) -> InputPoint:
        """The fastest point (ties keep sweep order)."""
        return min(self.points, key=lambda p: p.runtime)

    def render(self) -> str:
        names = self.parameters
        header = "  ".join(f"{name:>12}" for name in names)
        lines = [f"input sweep over {' x '.join(names) or '(none)'} "
                 f"({len(self.points)} points"
                 + (f", {len(self.failures)} failed" if self.failures
                    else "") + ")",
                 f"{header}  {'runtime':>10}  {'mem%':>6}  top hot spot"]
        for point in self.points:
            cells = "  ".join(f"{point.inputs.get(name, 0):12.4g}"
                              for name in names)
            lines.append(
                f"{cells}  {point.runtime:10.4g}  "
                f"{100 * point.memory_fraction:5.1f}%  {point.top_label}")
        for failure in self.failures:
            lines.append(failure.render())
        return "\n".join(lines)


def _input_combos(axes) -> Tuple[Dict[str, List[float]],
                                 List[Dict[str, float]],
                                 List[Dict[str, float]]]:
    """Normalize an axes dict or explicit point list into point dicts
    (numpy scalars become Python numbers, see :func:`_python_scalar`)
    and the cells that sweep them (``input:``-prefixed names)."""
    if isinstance(axes, dict):
        axes = {name: [_python_scalar(value) for value in values]
                for name, values in axes.items()}
        if not axes or any(len(values) == 0 for values in axes.values()):
            raise AnalysisError(
                "input sweep needs at least one value per axis")
        names = list(axes)
        prefixed = [INPUT_PREFIX + name for name in names]
        values = list(itertools.product(*axes.values()))
        return (axes, [dict(zip(names, combo)) for combo in values],
                [dict(zip(prefixed, combo)) for combo in values])
    generic = np.generic
    combos, cells = [], []
    for point in axes:
        combo = {name: value.item() if isinstance(value, generic) else value
                 for name, value in dict(point).items()}
        combos.append(combo)
        cells.append({INPUT_PREFIX + name: value
                      for name, value in combo.items()})
    if not combos:
        raise AnalysisError("input sweep needs at least one point")
    return {}, combos, cells


def _default_input_key(program: Program, machine: MachineModel,
                       axes: Dict[str, List[float]],
                       combos: List[Dict[str, float]],
                       base_inputs: Dict[str, float], k: int) -> str:
    return sweep_key(
        program.fingerprint(), repr(machine),
        sorted((name, tuple(values)) for name, values in axes.items())
        if axes else [tuple(sorted(combo.items())) for combo in combos],
        tuple(sorted(base_inputs.items())), "main", k)


#: the ``cache_stats`` keys of an :class:`InputSweepResult`
_INPUT_CACHE_STATS = ("bet_builds", "bet_replays", "bet_shape_rebuilds",
                      "bet_batch_replays", "lanes_vectorized",
                      "lanes_fallback", "lane_groups", "compiles",
                      "compile_cache_hits", "parse_cache_hits")


def sweep_inputs(program: Program, machine: MachineModel, axes,
                 base_inputs: Optional[Dict[str, float]] = None,
                 model_factory: Optional[Callable] = None,
                 k: int = 10,
                 workers: int = 1,
                 strict: bool = False,
                 policy: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 checkpoint: Optional[str] = None,
                 resume: bool = False,
                 checkpoint_key: Optional[str] = None,
                 validate: bool = True,
                 backend: str = "auto",
                 executor=None,
                 shards: Optional[int] = None,
                 topology=None,
                 chaos=None) -> InputSweepResult:
    """Sweep workload inputs with one symbolic tree per worker.

    Where :func:`sweep_grid` re-projects a fixed BET across machines,
    this routes *input*-axis points through
    :meth:`~repro.bet.SymbolicBET.rebind`: the tree structure is built
    (and its expressions compiled) once, then each point replays only the
    input-dependent annotations; results are bit-identical to building a
    fresh BET per point.  It is a view over the cell route of
    :func:`evaluate_cells`: each point is the cell of its
    ``input:``-prefixed bindings on ``machine``, so points ship, batch,
    retry and checkpoint like any cells.  They keep their own names:
    checkpoint records and failure items name the bindings unprefixed
    (``n=64.0``).

    Parameters
    ----------
    axes:
        Either ``{input: values, ...}`` — points are the cross product in
        row-major order (last axis varies fastest) — or an explicit
        sequence of ``{input: value, ...}`` dicts, swept in order.
    base_inputs:
        Bindings held constant across the sweep (per-point values win);
        the swept program is its ``main``.
    strict / policy / timeout / checkpoint / resume / checkpoint_key:
        The per-*point* fault contract of every sweep (see
        :func:`_run_chunked`): a failing point is retried individually
        under ``policy``, a chunk that hangs past ``timeout`` × its size
        is resubmitted point by point under ``timeout``, and
        ``strict=True`` fail-fasts with the canonical error; completed
        points checkpoint by their input bindings and are skipped on
        ``resume=True``.
    backend:
        ``"scalar"`` binds and projects point by point; ``"vector"``
        evaluates each chunk as one array-batched tape replay plus a
        batched model projection (bit-identical results; points with the
        same input names form one lane array, and lanes the batch cannot
        vectorize transparently take the scalar path); ``"auto"``
        (default) picks vector for sweeps of at least
        :data:`VECTOR_MIN_LANES` points.
    executor / shards / topology / chaos:
        Sharded dispatch with supervision and quarantine — see
        :func:`sweep_grid`; semantics are identical here, with each
        chunk of input points forming one shard.  With no ``shards``,
        pending points spread about four chunks per worker, and a
        serial run ships one chunk.
    """
    axes_dict, combos, cells = _input_combos(axes)
    check_inputs(program, set().union(*cells))
    base = dict(base_inputs or {})
    if checkpoint and not checkpoint_key:
        checkpoint_key = _default_input_key(program, machine, axes_dict,
                                            combos, base, k)
    result = _evaluate_cell_list(
        cells, machine, grid_spec={}, has_input_axes=True, bet=None,
        program=program, inputs=base, model_factory=model_factory, k=k,
        workers=workers, strict=strict, policy=policy, timeout=timeout,
        checkpoint=checkpoint, resume=resume,
        checkpoint_key=checkpoint_key, validate=validate, backend=backend,
        executor=executor, shards=shards, topology=topology, chaos=chaos,
        labels=combos,
        point=lambda index, projection: InputPoint(combos[index],
                                                   **projection))
    return InputSweepResult(
        axes=axes_dict, base_inputs=base, points=result.points,
        timings=result.timings,
        cache_stats={name: result.cache_stats[name]
                     for name in _INPUT_CACHE_STATS},
        failures=result.failures, backend=result.backend,
        executor=result.executor, shard_stats=result.shard_stats,
        diagnostics=result.diagnostics)


def _lane_batch(source, base_machine: MachineModel, cells, base_inputs,
                factory: Callable, k: int):
    """Evaluate one lane group's chunk of cells as one lane array
    (DESIGN.md §15).

    Lanes that override no machine field project on ``base_machine``
    itself, whose timing model pre-flights it, as on the scalar route;
    otherwise the lanes' machines are the columns of one
    :class:`~repro.hardware.MachineLanes`, and a cell whose machine is
    not valid (a ``bad`` lane) leaves the array.  The lanes' inputs are
    either the columns of one batch replay of ``source`` (a
    :class:`~repro.bet.SymbolicBET`) or, ``source`` being a built tree,
    that tree's own rows (:class:`~repro.analysis.vectorized.TreeBlocks`).
    Returns ``(projections, project_seconds, counts)`` with
    ``projections`` in chunk order and ``counts`` the lane counters a
    tree batch adds to the chunk's stages (a replay counts its own).
    ``None`` marks a cell for the scalar attempt loop, which reproduces
    its canonical result or error: a bad lane, a lane the replay
    demoted, or every lane when the replay or the projection raised.
    """
    projections: List[Optional[Dict]] = [None] * len(cells)
    lanes = cells
    slots: Sequence[int] = range(len(cells))   # each lane's chunk position
    machine: Any = base_machine
    if not all(name.startswith(INPUT_PREFIX)
               for name in set().union(*cells)):
        try:
            machine = MachineLanes(base_machine, cells)
            if machine.bad.any():
                slots = np.flatnonzero(~machine.bad).tolist()
                lanes = [cells[slot] for slot in slots]
                machine = MachineLanes(base_machine, lanes)
        except (HardwareModelError, OverflowError):
            # no lane is left, or an int no float64 column holds
            return projections, 0.0, {}
    counts: Dict[str, float] = {}
    replay = isinstance(source, SymbolicBET)
    cols = input_columns(lanes, base_inputs) if replay else None
    if replay and cols is None:
        return projections, 0.0, counts
    batch = None
    try:
        batch = (source.rebind_batch(cols) if replay
                 else TreeBlocks(source, len(lanes)))
        started = time.perf_counter()
        results = project_batch(batch, factory, machine, k)
        seconds = time.perf_counter() - started
    except Exception:
        # every lane reruns on the scalar loop and counts as fallback: a
        # replay recounts the lanes it counted as vectorized, a tree's
        # are counted here.  A projection raises for a user model whose
        # arithmetic is not shape-polymorphic, say
        # ``if metrics.flops > 0``.
        if not replay:
            counts["bet_lanes_fallback"] = float(len(lanes))
        elif batch is not None:
            source.demote_batch(batch)
        return projections, 0.0, counts
    if not replay:
        counts["bet_lanes_vectorized"] = float(len(lanes))
    counts["lane_groups"] = 1.0
    for slot, projection in zip(slots, results):
        projections[slot] = projection
    return projections, seconds, counts


def _grid_chunk_task(payload):
    """Shard task: a chunk of cells (machine overrides and/or ``input:``
    axes); one projection dict per computed cell.

    ``source`` is the :class:`~repro.bet.SymbolicBET` the cells' inputs
    bind through (its resident copy under ``tape_key``), or the built
    tree machine-only cells re-project.  A chunk the planner cut as a
    lane-group slice (``batch``) is one lane array
    (:func:`_lane_batch`).  Cells a lane array does not produce run the
    scalar attempt loop, with one machine (named for its machine fields
    alone) and one timing model per distinct set of machine overrides,
    where consecutive cells with identical input bindings reuse the
    current tree without a rebind.
    """
    body, indices, policy, strict = payload
    (source, tape_key, base_machine, cells, base_inputs, model_factory,
     k, batch) = body
    resident = (_symbolic_for(source, tape_key)
                if isinstance(source, SymbolicBET) else nullcontext())
    with resident as sym:
        if sym is not None:
            source = sym
        before = _stage_snapshot(sym)
        factory = model_factory or RooflineModel
        done, project_seconds, counts = (
            _lane_batch(source, base_machine, cells, base_inputs, factory,
                        k)
            if batch else (None, 0.0, {}))
        machines: Dict[Tuple, MachineModel] = {(): base_machine}
        models: Dict[Tuple, Any] = {}
        bound_key: Any = None     # the input bindings ``bet`` was bound to
        bet = None if sym is not None else source

        def evaluate(cell):
            nonlocal bound_key, bet, project_seconds
            machine_part, input_part = split_overrides(cell)
            key = tuple(machine_part.items())
            machine = machines.get(key)
            if machine is None:       # before the bind: its error first
                machine = machines[key] = _cell_machine(base_machine,
                                                        machine_part)
            if sym is not None:
                inputs = {**base_inputs, **input_part}
                bound = tuple(sorted(inputs.items()))
                if bet is None or bound != bound_key:
                    bet = None            # bind state unknown until it lands
                    bet = sym.bind(inputs)
                    bound_key = bound
            model = models.get(key)
            if model is None:
                model = models[key] = factory(machine)
            started = time.perf_counter()
            projection = project_with_model(bet, model, k)
            project_seconds += time.perf_counter() - started
            return projection

        rows = _attempt_rows(evaluate, cells, indices, policy, strict, done)
        delta = _stage_delta(sym, before, project_seconds)
    delta.update(counts)
    return rows, delta


# -- batched full analyses ----------------------------------------------------

def _analyze_task(payload):
    """One matrix point: a full Prof-vs-Modl pipeline run."""
    from ..experiments import pipeline
    name, machine, options = payload
    return pipeline.analyze(name, machine, **dict(options))


def analyze_matrix(workloads: Sequence[str],
                   machines: Sequence,
                   ablations: Optional[Sequence[Dict]] = None,
                   workers: int = 1,
                   strict: bool = True,
                   policy: Optional[RetryPolicy] = None,
                   timeout: Optional[float] = None):
    """Run the full pipeline over a (workload × machine × ablation) matrix.

    ``ablations`` is a sequence of keyword-option dicts for
    :func:`repro.experiments.analyze` (default: one empty dict — the
    paper's baseline configuration).  Results come back as a flat list in
    row-major (workload, machine, ablation) order, deterministic for any
    worker count, and are inserted into the shared bounded pipeline cache
    so subsequent slicing (figures, tables) hits instead of re-running.

    Analyses are dispatched like every sweep's points (chunks of about
    four per worker, or one analysis per chunk on one worker; each
    analysis is one point), so ``strict``, ``policy`` and ``timeout``
    follow the same per-point contract: with
    ``strict=False`` a failing matrix point (after any retries per
    ``policy``, or exceeding ``timeout`` on a process pool) occupies its
    slot as a :class:`~repro.parallel.PointFailure` record instead of
    aborting the batch, while ``strict=True`` (the default) raises
    :class:`~repro.errors.RetryExhaustedError` /
    :class:`~repro.errors.TaskTimeoutError` for it.
    """
    from ..experiments import pipeline
    option_sets = [dict(options) for options in (ablations or [{}])]
    tasks = [(name, machine, tuple(sorted(options.items())))
             for name in workloads
             for machine in machines
             for options in option_sets]

    def remember(analyses: Dict[int, Any]) -> None:
        # seed the parent's cache (results from pool workers miss it)
        for index, analysis in analyses.items():
            pipeline.remember(analysis, **dict(tasks[index][2]))

    started = time.perf_counter()
    computed, failures, _ = _run_chunked(
        range(len(tasks)),
        chunk_payload=lambda chunk: (_analyze_task,
                                     [tasks[index] for index in chunk]),
        chunk_task=_point_chunk_task,
        describe=lambda index: (
            f"{tasks[index][0]}@"
            f"{getattr(tasks[index][1], 'name', tasks[index][1])}"),
        record=remember,
        workers=workers, strict=strict, policy=policy, timeout=timeout,
        floor=1)
    failed = {failure.index: failure for failure in failures}
    results = [computed[index] if index in computed else failed[index]
               for index in range(len(tasks))]
    elapsed = time.perf_counter() - started
    for analysis in results:
        if hasattr(analysis, "timings"):
            analysis.timings.setdefault("matrix_total", elapsed)
    return results

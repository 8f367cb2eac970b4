"""The parallel + cached design-space exploration engine.

The paper's workflow builds the BET **once** and re-projects it across
hardware points (Sec. V, Sec. VII); co-design studies therefore look like
batch jobs: a grid of machine parameters, or a matrix of
(workload × machine × ablation) analyses.  This module provides that batch
layer:

* :func:`build_bet_cached` — memoized BET construction keyed by
  (program fingerprint, frozen inputs, entry), so one tree serves every
  sweep point of a session;
* :func:`sweep_grid` — an N-dimensional machine-parameter grid projected
  over one BET, with process-pool fan-out and deterministic (row-major)
  point ordering;
* :func:`analyze_matrix` — the full Prof-vs-Modl pipeline fanned out over
  a (workload × machine × ablation) matrix; results are fed back into the
  bounded pipeline cache so later figure slicing is free;
* :func:`sweep_inputs` — the *input*-axis counterpart (DESIGN.md §8):
  points that change the workload's inputs are routed through
  :class:`~repro.bet.SymbolicBET` rebinds in contiguous chunks, so each
  worker amortizes one recorded build (and the expression-compile
  warmup) across its whole chunk; ``input:``-prefixed axes mix the same
  machinery into :func:`sweep_grid`.

Every result carries per-stage wall seconds and cache statistics so the
performance trajectory is observable (``timings`` / ``cache_stats``).
``workers=1`` always takes the plain serial path; parallel results are
bit-identical to it.
"""

from __future__ import annotations

import itertools
import time
import traceback as _tb
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import arrayops as _aops
from ..analysis.sensitivity import project_machine, project_with_model
from ..analysis.vectorized import project_batch
from ..bet import SymbolicBET, build_bet
from ..bet.nodes import BETNode, render_tree
from ..errors import AnalysisError
from ..hardware.machine import MachineModel, ensure_valid_machine
from ..hardware.roofline import RooflineModel
from ..skeleton.bst import Program
from .cache import CacheStats, LRUCache
from .executors import SweepExecutor, resolve_executor
from .lanes import (
    INPUT_PREFIX, LanePack, pack_cells, plan_lane_chunks, split_overrides,
)
from .fault import (
    MapOutcome, PointFailure, RetryPolicy, SweepCheckpoint, factory_tag,
    overrides_key, resilient_map, sweep_key,
)
from .pool import parallel_map
from .shard import ShardScheduler

# -- BET-build memoization ----------------------------------------------------

#: one tree serves every sweep point: BETs keyed by
#: (program fingerprint, frozen inputs, entry)
_BET_CACHE = LRUCache(maxsize=64)


def _freeze_inputs(inputs: Optional[Dict[str, float]]) -> Tuple:
    return tuple(sorted((inputs or {}).items()))


def build_bet_cached(program: Program,
                     inputs: Optional[Dict[str, float]] = None,
                     entry: str = "main") -> BETNode:
    """Build (or fetch) the BET for ``program`` with ``inputs``.

    The cache key is the program's content :meth:`~Program.fingerprint`
    plus the frozen inputs, so equivalent programs share one tree no
    matter how many sweeps re-request it.  Returned trees are shared —
    treat them as read-only (all analysis passes do).
    """
    key = (program.fingerprint(), _freeze_inputs(inputs), entry)
    return _BET_CACHE.get_or_create(
        key, lambda: build_bet(program, inputs=inputs, entry=entry))


def bet_cache_stats() -> CacheStats:
    """Counters of the BET-build memo (hits/misses/evictions)."""
    return _BET_CACHE.stats


def clear_bet_cache() -> None:
    _BET_CACHE.clear()


# -- N-dimensional machine grids ----------------------------------------------

@dataclass
class GridPoint:
    """Projection at one cell of a machine-parameter grid."""

    overrides: Dict[str, float]    #: parameter -> value for this cell
    machine: MachineModel
    runtime: float                 #: projected whole-run wall seconds
    ranking: List[str]             #: hot-spot sites, hottest first
    top_label: str
    memory_fraction: float         #: non-overlapped memory share
    completeness: float = 1.0      #: modeled fraction (1.0 = no quarantine)


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
    executor: str = ""             #: executor name ("" = legacy dispatch)
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


def _grid_one(bet: BETNode, base_machine: MachineModel,
              overrides: Dict[str, float],
              model_factory: Optional[Callable], k: int) -> GridPoint:
    machine = _cell_machine(base_machine, overrides)
    projection = project_machine(bet, machine, model_factory, k)
    return GridPoint(overrides=dict(overrides), machine=machine,
                     **projection)


def _grid_point_task(payload) -> GridPoint:
    """Process-pool task: project one grid cell (per-point dispatch, so a
    failing or hanging cell is isolated to its own task)."""
    bet, base_machine, overrides, model_factory, k = payload
    return _grid_one(bet, base_machine, overrides, model_factory, k)


def _point_chunk_task(payload):
    """Executor shard task: a batch of independent per-point payloads.

    Wraps any per-point task into the chunked ``(rows, stats)`` protocol
    so machine-only grids shard exactly like input sweeps: per-point
    errors become fail rows (phase-2 territory), never shard faults.
    """
    task, point_payloads = payload
    rows = []
    for point_payload in point_payloads:
        try:
            rows.append(("ok", task(point_payload)))
        except Exception as exc:
            rows.append(("fail", type(exc).__name__, str(exc),
                         _tb.format_exc()))
    return rows, {}


def _grid_point_to_dict(point: GridPoint) -> Dict[str, Any]:
    """JSON-ready checkpoint payload for one completed cell."""
    return {"overrides": dict(point.overrides),
            "runtime": point.runtime,
            "ranking": list(point.ranking),
            "top_label": point.top_label,
            "memory_fraction": point.memory_fraction,
            "completeness": point.completeness}


def _grid_point_from_dict(payload: Dict[str, Any],
                          base_machine: MachineModel,
                          overrides: Optional[Dict[str, float]] = None
                          ) -> GridPoint:
    """Rebuild a checkpointed cell (floats round-trip exactly through
    JSON, so resumed results equal an uninterrupted run's).

    ``overrides`` is the caller's canonical cell dict: the checkpoint
    stores dicts key-sorted, so rebuilding from the payload alone would
    give resumed cells a differently-ordered machine name tag.
    """
    if overrides is None:
        overrides = {name: value
                     for name, value in payload["overrides"].items()}
    return GridPoint(overrides=dict(overrides),
                     machine=_cell_machine(base_machine, overrides),
                     runtime=payload["runtime"],
                     ranking=list(payload["ranking"]),
                     top_label=payload["top_label"],
                     memory_fraction=payload["memory_fraction"],
                     completeness=payload.get("completeness", 1.0))


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
               entry: str = "main",
               library=None,
               chunk_size: Optional[int] = None,
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
        :class:`~repro.errors.TaskTimeoutError`).
    policy:
        :class:`~repro.parallel.RetryPolicy` for transient faults
        (default: no retries).
    timeout:
        Per-cell bound in seconds, enforced on the parallel path.
    checkpoint / resume / checkpoint_key:
        Path for periodic JSON checkpoints of completed cells;
        ``resume=True`` skips cells already checkpointed (the key —
        defaulting to a hash of the rendered BET, the machine, and the
        grid — must match, else :class:`~repro.errors.CheckpointError`).
    validate:
        Pre-flight the base machine
        (:func:`~repro.hardware.validate_machine`) before any work.
    program / inputs / entry / library:
        The workload behind ``input:`` axes: per-cell bindings are
        ``inputs`` overlaid with the cell's input-axis values.
    chunk_size:
        Cells per shipped chunk on the input-axis path (default: about
        four chunks per worker, floored at 16 cells).
    backend:
        ``"scalar"``, ``"vector"``, or ``"auto"`` (default).  The vector
        backend batch-replays the input axes of each chunk (cells
        grouped by machine overrides); ``auto`` selects it for grids
        with input axes of at least :data:`VECTOR_MIN_POINTS` cells and
        then batch-replays only groups of at least
        :data:`VECTOR_MIN_LANES` cells.
    executor / shards / topology / chaos:
        Sharded dispatch (DESIGN.md §12).  ``executor`` names a
        :class:`~repro.parallel.executors.SweepExecutor` (``"serial"`` /
        ``"pool"`` / ``"multinode"``) or is an instance; the grid is
        split into ``shards`` work units (default: about four per
        executor worker) scheduled with work-stealing, crash/heartbeat
        supervision, and poison-shard quarantine.  ``topology`` selects
        the simulated cluster for ``"multinode"``; ``chaos`` injects a
        :class:`~repro.parallel.chaos.ChaosSchedule` of executor-layer
        faults.  ``executor=None`` (default) keeps the legacy dispatch
        path, bit-identically.
    """
    if not grid or any(len(list(values)) == 0 for values in grid.values()):
        raise AnalysisError("grid needs at least one value per parameter")
    input_axes = [name for name in grid if name.startswith(INPUT_PREFIX)]
    for parameter in grid:
        if parameter.startswith(INPUT_PREFIX):
            continue
        if not hasattr(base_machine, parameter):
            raise AnalysisError(
                f"machine has no parameter {parameter!r}")
    if input_axes and program is None:
        raise AnalysisError(
            f"grid axes {input_axes} sweep workload inputs; "
            "pass program= (and optionally inputs=) to sweep_grid")
    if not input_axes and bet is None:
        raise AnalysisError("sweep_grid needs a built BET for "
                            "machine-only grids")
    if validate:
        ensure_valid_machine(base_machine)
    started = time.perf_counter()
    cells = _grid_cells(grid)
    base_inputs = dict(inputs or {})
    machine_axes = [name for name in grid
                    if not name.startswith(INPUT_PREFIX)]
    min_lanes = _min_group_lanes(backend)
    backend = _resolve_backend(backend, len(cells),
                               has_machine_axes=bool(machine_axes),
                               has_input_axes=bool(input_axes))
    resolved_executor: Optional[SweepExecutor] = None
    if executor is not None:
        resolved_executor = resolve_executor(executor, workers=workers,
                                             topology=topology, chaos=chaos)
    shard_stats: Dict[str, float] = {}

    ckpt: Optional[SweepCheckpoint] = None
    if checkpoint:
        if checkpoint_key:
            key = checkpoint_key
        elif input_axes:
            key = sweep_key(program.fingerprint(),
                            tuple(sorted(base_inputs.items())), entry,
                            repr(base_machine),
                            sorted((name, tuple(values))
                                   for name, values in grid.items()), k)
        else:
            key = _default_grid_key(bet, base_machine, grid, k)
        ckpt = SweepCheckpoint.load(
            checkpoint, key, resume=resume,
            settings=_checkpoint_settings(backend, model_factory,
                                          resolved_executor))

    return _evaluate_cell_list(
        cells, base_machine,
        grid_spec={name: list(values) for name, values in grid.items()},
        has_input_axes=bool(input_axes), bet=bet, program=program,
        base_inputs=base_inputs, entry=entry, library=library,
        model_factory=model_factory, k=k, workers=workers, strict=strict,
        policy=policy, timeout=timeout, chunk_size=chunk_size,
        backend=backend, min_lanes=min_lanes,
        resolved_executor=resolved_executor,
        shards=shards, shard_stats=shard_stats, ckpt=ckpt,
        started=started)


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
                   entry: str = "main",
                   library=None,
                   chunk_size: Optional[int] = None,
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
    cells = [dict(cell) for cell in cells]
    if not cells:
        raise AnalysisError("evaluate_cells needs at least one cell")
    input_names: set = set()
    machine_names: set = set()
    for cell in cells:
        for name in cell:
            if name.startswith(INPUT_PREFIX):
                input_names.add(name)
            elif hasattr(base_machine, name):
                machine_names.add(name)
            else:
                raise AnalysisError(
                    f"machine has no parameter {name!r}")
    if input_names and program is None:
        raise AnalysisError(
            f"cells override workload inputs {sorted(input_names)}; "
            "pass program= (and optionally inputs=) to evaluate_cells")
    if not input_names and bet is None:
        raise AnalysisError("evaluate_cells needs a built BET for "
                            "machine-only cells")
    if validate:
        ensure_valid_machine(base_machine)
    started = time.perf_counter()
    base_inputs = dict(inputs or {})
    min_lanes = _min_group_lanes(backend)
    backend = _resolve_backend(backend, len(cells),
                               has_machine_axes=bool(machine_names),
                               has_input_axes=bool(input_names))
    resolved_executor: Optional[SweepExecutor] = None
    if executor is not None:
        resolved_executor = resolve_executor(executor, workers=workers,
                                             topology=topology, chaos=chaos)
    shard_stats: Dict[str, float] = {}

    ckpt: Optional[SweepCheckpoint] = None
    if checkpoint:
        if checkpoint_key:
            key = checkpoint_key
        elif input_names:
            key = sweep_key(program.fingerprint(),
                            tuple(sorted(base_inputs.items())), entry,
                            repr(base_machine),
                            tuple(overrides_key(cell) for cell in cells),
                            k)
        else:
            key = sweep_key(render_tree(bet), repr(base_machine),
                            tuple(overrides_key(cell) for cell in cells),
                            k)
        ckpt = SweepCheckpoint.load(
            checkpoint, key, resume=resume,
            settings=_checkpoint_settings(backend, model_factory,
                                          resolved_executor))

    # the axis union, for the result's informational grid field
    spec: Dict[str, List[float]] = {}
    for cell in cells:
        for name, value in cell.items():
            values = spec.setdefault(name, [])
            if value not in values:
                values.append(value)
    return _evaluate_cell_list(
        cells, base_machine, grid_spec=spec,
        has_input_axes=bool(input_names), bet=bet, program=program,
        base_inputs=base_inputs, entry=entry, library=library,
        model_factory=model_factory, k=k, workers=workers, strict=strict,
        policy=policy, timeout=timeout, chunk_size=chunk_size,
        backend=backend, min_lanes=min_lanes,
        resolved_executor=resolved_executor,
        shards=shards, shard_stats=shard_stats, ckpt=ckpt,
        started=started)


def _evaluate_cell_list(cells: List[Dict[str, float]],
                        base_machine: MachineModel,
                        grid_spec: Dict[str, List[float]],
                        has_input_axes: bool,
                        bet: Optional[BETNode],
                        program: Optional[Program],
                        base_inputs: Dict[str, float],
                        entry: str,
                        library,
                        model_factory: Optional[Callable],
                        k: int,
                        workers: int,
                        strict: bool,
                        policy: Optional[RetryPolicy],
                        timeout: Optional[float],
                        chunk_size: Optional[int],
                        backend: str,
                        min_lanes: int,
                        resolved_executor: Optional[SweepExecutor],
                        shards: Optional[int],
                        shard_stats: Dict[str, float],
                        ckpt: Optional[SweepCheckpoint],
                        started: float) -> GridResult:
    """Shared evaluation core of :func:`sweep_grid` (cross products) and
    :func:`evaluate_cells` (explicit cell lists): checkpoint triage,
    chunked/sharded dispatch, and result assembly.  On the vector
    backend, lane groups of fewer than ``min_lanes`` cells run the
    per-cell scalar loop (see :func:`_min_group_lanes`)."""
    prior: Dict[int, GridPoint] = {}
    pending_indices: List[int] = []
    pending_cells: List[Dict[str, float]] = []
    for index, overrides in enumerate(cells):
        stored = ckpt.get(overrides_key(overrides)) if ckpt else None
        if stored is not None:
            prior[index] = _grid_point_from_dict(stored, base_machine,
                                                 overrides)
        else:
            pending_indices.append(index)
            pending_cells.append(overrides)

    stages: Dict[str, float] = {}
    if has_input_axes:
        sym = SymbolicBET(program, entry=entry, library=library)

        def record(global_index: int, point: GridPoint) -> None:
            if ckpt is not None:
                ckpt.record(overrides_key(cells[global_index]),
                            _grid_point_to_dict(point))

        lane_chunks: Optional[List[List[int]]] = None
        if backend == "vector" and pending_cells:
            # grouped dispatch (DESIGN.md §15): partition the pending
            # cells by machine signature so every shipped chunk — the
            # shard unit — is one lane-group slice, then pack each
            # vector-eligible chunk as a columnar SoA payload instead of
            # N per-point dicts
            width = (resolved_executor.width
                     if resolved_executor is not None else workers)
            if resolved_executor is not None and shards:
                group_size = max(1, -(-len(pending_cells)
                                      // max(1, int(shards))))
            elif chunk_size is not None:
                group_size = max(1, chunk_size)
            else:
                group_size = _auto_chunk_size(len(pending_cells), width,
                                              vector=True)
            lane_chunks = plan_lane_chunks(pending_cells, group_size)

        def grid_chunk_payload(chunk):
            shipped: Any = None
            if backend == "vector":
                shipped = pack_cells(chunk)
            if shipped is None:
                shipped = list(chunk)
            return (sym, base_machine, shipped, base_inputs,
                    model_factory, k, backend, min_lanes)

        try:
            computed, failures, stages = _run_chunked(
                pending_cells, pending_indices,
                chunk_payload=grid_chunk_payload,
                point_payload=lambda overrides: (sym, base_machine,
                                                 overrides, base_inputs,
                                                 model_factory, k),
                chunk_task=_grid_chunk_task,
                point_task=_grid_input_point_task,
                describe=overrides_key, record=record,
                workers=workers, strict=strict, policy=policy,
                timeout=timeout, chunk_size=chunk_size,
                executor=resolved_executor, shards=shards,
                shard_stats=shard_stats, chunks=lane_chunks,
                vector=(backend == "vector"))
        finally:
            if ckpt is not None:
                ckpt.flush()
    elif resolved_executor is not None:
        # machine-only grid on an executor: per-point payloads batched
        # into shards through the generic chunk wrapper

        def record_cell(global_index: int, point: GridPoint) -> None:
            if ckpt is not None:
                ckpt.record(overrides_key(cells[global_index]),
                            _grid_point_to_dict(point))

        try:
            computed, failures, stages = _run_chunked(
                pending_cells, pending_indices,
                chunk_payload=lambda chunk: (
                    _grid_point_task,
                    [(bet, base_machine, overrides, model_factory, k)
                     for overrides in chunk]),
                point_payload=lambda overrides: (bet, base_machine,
                                                 overrides, model_factory,
                                                 k),
                chunk_task=_point_chunk_task,
                point_task=_grid_point_task,
                describe=overrides_key, record=record_cell,
                workers=workers, strict=strict, policy=policy,
                timeout=timeout, chunk_size=chunk_size,
                executor=resolved_executor, shards=shards,
                shard_stats=shard_stats)
        finally:
            if ckpt is not None:
                ckpt.flush()
    else:
        payloads = [(bet, base_machine, overrides, model_factory, k)
                    for overrides in pending_cells]

        def checkpoint_point(local: int, point: GridPoint) -> None:
            if ckpt is not None:
                ckpt.record(overrides_key(pending_cells[local]),
                            _grid_point_to_dict(point))

        try:
            outcome = resilient_map(
                _grid_point_task, payloads, workers=workers, policy=policy,
                timeout=timeout, strict=strict, indices=pending_indices,
                describe=lambda payload: overrides_key(payload[2]),
                on_point=checkpoint_point)
        finally:
            if ckpt is not None:
                ckpt.flush()
        computed = {pending_indices[local]: point
                    for local, point in enumerate(outcome.results)
                    if point is not None}
        failures = outcome.failures

    points = [prior.get(index) or computed.get(index)
              for index in range(len(cells))]
    points = [point for point in points if point is not None]
    elapsed = time.perf_counter() - started
    timings = {"project": stages.get("project_seconds", elapsed),
               "total": elapsed,
               "workers": float(max(workers, 1)),
               "points": float(len(points)),
               "failed": float(len(failures)),
               "resumed": float(len(prior))}
    cache_stats = bet_cache_stats().as_dict()
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
            lanes_vectorized=stages.get("bet_lanes_vectorized", 0.0),
            lanes_fallback=stages.get("bet_lanes_fallback", 0.0),
            lane_groups=stages.get("lane_groups", 0.0),
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

#: ``backend="auto"`` picks the vector backend at this many input points —
#: below it the batch-replay setup costs more than it saves
VECTOR_MIN_POINTS = 64

#: under ``backend="auto"``, a machine-signature lane group of a mixed
#: cell list batch-replays only from this many lanes; smaller groups run
#: the per-cell scalar loop.  Measured on BG/Q roofline over groups of
#: 1-16 lanes: pedagogical, cfd and sord are 5-7x slower vectorized at
#: 1 lane; cfd and sord are still slower at 6 lanes, and all three are
#: faster from 7-8 lanes on.
VECTOR_MIN_LANES = 8

#: floor for the automatic chunk size: chunks smaller than this ship more
#: pickle traffic than work (and starve the vector backend of lanes)
_MIN_CHUNK_POINTS = 16


def _auto_chunk_size(total: int, workers: int,
                     vector: bool = False) -> int:
    """Points per chunk: about four chunks per worker, floored so tiny
    sweeps on many workers do not degenerate into one-point chunks.

    On a vector-backend sweep (``vector=True``) the floor rises to
    :data:`VECTOR_MIN_POINTS`: a chunk is one ``rebind_batch`` lane
    array, and splitting a vector-eligible group below the
    auto-vectorization threshold would leave its lanes running scalar
    for no reason.
    """
    if total <= 0:
        return 1
    if workers <= 1:
        return total
    floor = VECTOR_MIN_POINTS if vector else _MIN_CHUNK_POINTS
    per_worker = -(-total // (workers * 4))
    return max(1, min(total, max(per_worker, floor)))


def _resolve_backend(backend: str, points: int, has_machine_axes: bool,
                     has_input_axes: bool = True) -> str:
    """Validate and resolve a sweep's ``backend`` choice.

    ``auto`` picks ``vector`` when it is a clear win: numpy present,
    input axes to batch over, and at least :data:`VECTOR_MIN_POINTS`
    points to amortize the batch setup.  Mixed machine×input cell lists
    qualify too — the grouped dispatch path partitions them into
    machine-signature lane groups (DESIGN.md §15) so each group replays
    as one lane array.
    """
    if backend not in ("scalar", "vector", "auto"):
        raise AnalysisError(
            f"unknown sweep backend {backend!r}; expected 'scalar', "
            f"'vector', or 'auto'")
    if backend == "vector":
        if not _aops.HAVE_NUMPY:
            raise AnalysisError("backend='vector' requires numpy")
        if not has_input_axes:
            raise AnalysisError("the vector backend batches over input "
                                "axes; this sweep has none")
        return "vector"
    if backend == "auto" and _aops.HAVE_NUMPY and has_input_axes \
            and points >= VECTOR_MIN_POINTS:
        return "vector"
    return "scalar"


def _min_group_lanes(backend: str) -> int:
    """Smallest lane group the vector backend batch-replays.

    A backend that ``auto`` picks leaves groups below
    :data:`VECTOR_MIN_LANES` to the scalar loop, where they are faster;
    an explicit ``"vector"`` batches every group, however small."""
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

#: worker-resident symbolic trees: pool workers persist across chunks, so
#: one recorded build serves every chunk a worker receives for a program
_SYM_CACHE: Dict[Tuple, SymbolicBET] = {}
_SYM_CACHE_LIMIT = 8


def _symbolic_for(sym: SymbolicBET) -> SymbolicBET:
    """The worker's resident :class:`SymbolicBET` for ``sym``'s program.

    Shipped instances arrive without tape or tree (they pickle to just the
    program); keeping the first arrival per content key means later chunks
    replay an already-recorded tape instead of rebuilding.  Instances with
    a custom library are not content-keyed and are used as shipped.
    """
    if sym.library is not None:
        return sym
    key = (sym.program.fingerprint(), sym.entry,
           repr(sorted(sym.builder_kwargs.items())))
    cached = _SYM_CACHE.get(key)
    if cached is None:
        if len(_SYM_CACHE) >= _SYM_CACHE_LIMIT:
            _SYM_CACHE.pop(next(iter(_SYM_CACHE)))
        _SYM_CACHE[key] = cached = sym
    return cached


def clear_symbolic_cache() -> None:
    """Drop worker-resident symbolic trees (mainly for tests)."""
    _SYM_CACHE.clear()


def _perf_counters() -> Dict[str, float]:
    """Process-wide expression-layer counters (compile + parse caches)."""
    from ..expressions import compile_stats, parser_stats
    compiled = compile_stats()
    parsed = parser_stats()
    return {"compile_seconds": float(compiled["compile_seconds"]),
            "compiles": float(compiled["compiles"]),
            "compile_cache_hits": float(compiled["cache_hits"]),
            "parse_cache_hits": float(parsed["cache_hits"])}


def _stage_snapshot(sym: SymbolicBET) -> Dict[str, float]:
    snap = {f"bet_{name}": float(value)
            for name, value in sym.stats.items()}
    snap.update(_perf_counters())
    snap["project_seconds"] = 0.0
    return snap


def _stage_delta(sym: SymbolicBET, before: Dict[str, float],
                 project_seconds: float) -> Dict[str, float]:
    after = _stage_snapshot(sym)
    after["project_seconds"] = project_seconds
    return {name: after[name] - before.get(name, 0.0)
            for name in after}


#: partition one cell into (machine overrides, input bindings) — the
#: canonical definition lives with the lane planner in :mod:`.lanes`
_split_overrides = split_overrides


def _run_chunked(items: Sequence,
                 indices: Sequence[int],
                 chunk_payload: Callable[[Sequence], Any],
                 point_payload: Callable[[Any], Any],
                 chunk_task: Callable,
                 point_task: Callable,
                 describe: Callable[[Any], str],
                 record: Callable[[int, Any], None],
                 workers: int,
                 strict: bool,
                 policy: Optional[RetryPolicy],
                 timeout: Optional[float],
                 chunk_size: Optional[int],
                 executor: Optional[SweepExecutor] = None,
                 shards: Optional[int] = None,
                 shard_stats: Optional[Dict[str, float]] = None,
                 chunks: Optional[List[List[int]]] = None,
                 vector: bool = False):
    """Chunked two-phase dispatch shared by the input-sweep paths.

    Phase 1 ships contiguous chunks so each worker amortizes one symbolic
    build (and the expression-compile warmup) across its whole chunk; the
    chunk task traps per-point errors, so one bad point never poisons its
    chunk-mates.  Phase 2 re-dispatches only the failed points one at a
    time through :func:`resilient_map` whenever retry / timeout / strict
    semantics are configured — exactly PR 2's per-point fault model —
    and otherwise converts the captured errors straight into
    :class:`PointFailure` records.

    ``chunks`` overrides the default contiguous slicing with explicit
    position lists into ``items`` (they must form a partition) — the
    grouped vector path passes lane-group-aligned chunks so each shipped
    chunk is one lane-group slice; results still scatter back through
    the caller's ``indices``, bit-identically to contiguous dispatch.
    ``vector=True`` only raises the automatic chunk-size floor to
    :data:`VECTOR_MIN_POINTS` (lane-group slices should not be starved
    below the batching threshold).

    With an ``executor``, phase 1 routes through the
    :class:`~repro.parallel.shard.ShardScheduler` instead of
    :func:`resilient_map`: each chunk becomes one shard (``shards``
    overrides the chunk count), dispatched with work-stealing and
    supervised for crashes, heartbeat loss, timeouts, and envelope
    corruption.  A shard the scheduler quarantines is terminal — its
    points become :class:`PointFailure` records directly (phase 2 never
    sees them), preserving the sweep's completeness accounting.  Points
    that fail *inside* a healthy shard keep the normal phase-2 per-point
    semantics, so results are bit-identical to the executor-less path.

    Returns ``(computed, failures, stages)`` where ``computed`` maps the
    caller's global index to the point value and ``stages`` accumulates
    per-stage seconds and cache counters across every chunk; scheduler
    counters are merged into the caller's ``shard_stats`` dict.
    """
    total = len(items)
    if chunks is None:
        if executor is not None and shards:
            chunk_size = max(1, -(-total // max(1, int(shards))))
        elif chunk_size is None:
            chunk_size = _auto_chunk_size(
                total, executor.width if executor is not None else workers,
                vector=vector)
        chunk_size = max(1, chunk_size)
        chunks = [list(range(start, min(start + chunk_size, total)))
                  for start in range(0, total, chunk_size)]
    else:
        chunks = [list(positions) for positions in chunks if positions]
        chunk_size = max((len(positions) for positions in chunks),
                         default=1)
    chunk_items = [[items[position] for position in positions]
                   for positions in chunks]
    payloads = [chunk_payload(chunk) for chunk in chunk_items]

    computed: Dict[int, Any] = {}
    fail_rows: Dict[int, Any] = {}
    stages: Dict[str, float] = {}

    def on_chunk(local: int, result) -> None:
        rows, stats = result
        for name, value in stats.items():
            stages[name] = stages.get(name, 0.0) + value
        for offset, row in enumerate(rows):
            global_index = indices[chunks[local][offset]]
            if row[0] == "ok":
                computed[global_index] = row[1]
                record(global_index, row[1])
            else:
                fail_rows[global_index] = row

    quarantine_failures: List[PointFailure] = []
    if executor is not None:
        scheduler = ShardScheduler(
            executor, policy=policy,
            timeout=(timeout * chunk_size if timeout else None))
        run = scheduler.run(chunk_task, payloads,
                            sizes=[len(chunk) for chunk in chunk_items],
                            on_result=on_chunk)
        if shard_stats is not None:
            shard_stats.update(run.stats)
        for shard_id in sorted(run.quarantined):
            error = run.quarantined[shard_id]
            if strict:
                raise error
            for position in chunks[shard_id]:
                quarantine_failures.append(PointFailure(
                    index=indices[position],
                    error_type=error.error_type,
                    message=(f"shard {shard_id} quarantined after "
                             f"{error.attempts} attempts: "
                             f"{error.message}"),
                    traceback="", attempts=error.attempts,
                    item=describe(items[position])))
    else:
        outcome = resilient_map(
            chunk_task, payloads, workers=workers, policy=None,
            timeout=(timeout * chunk_size if timeout else None),
            strict=False,
            describe=lambda payload: f"chunk[{len(payload[2])} points]",
            on_point=on_chunk)
        for failure in outcome.failures:
            for position in chunks[failure.index]:
                fail_rows[indices[position]] = failure

    failures: List[PointFailure] = []
    if fail_rows:
        position = {global_index: local
                    for local, global_index in enumerate(indices)}
        targets = sorted(fail_rows)
        if policy is not None or timeout is not None or strict:
            # phase 2: the failed points get PR 2's full per-point
            # semantics — retries with backoff, exact timeouts, fail-fast
            retry_payloads = [point_payload(items[position[g]])
                              for g in targets]

            def on_retry(local: int, value) -> None:
                computed[targets[local]] = value
                record(targets[local], value)

            retried = resilient_map(
                point_task, retry_payloads, workers=workers,
                policy=policy, timeout=timeout, strict=strict,
                indices=targets,
                describe=lambda payload: describe(payload[2]),
                on_point=on_retry)
            failures = retried.failures
        else:
            for global_index in targets:
                row = fail_rows[global_index]
                item = describe(items[position[global_index]])
                if isinstance(row, PointFailure):
                    failures.append(PointFailure(
                        index=global_index, error_type=row.error_type,
                        message=row.message, traceback=row.traceback,
                        attempts=row.attempts, item=item))
                else:
                    failures.append(PointFailure(
                        index=global_index, error_type=row[1],
                        message=row[2], traceback=row[3],
                        attempts=1, item=item))
    if quarantine_failures:
        failures = sorted(failures + quarantine_failures,
                          key=lambda failure: failure.index)
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
    executor: str = ""             #: executor name ("" = legacy dispatch)
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
                                 List[Dict[str, float]]]:
    """Normalize an axes dict or explicit point list into point dicts."""
    if isinstance(axes, dict):
        if not axes or any(len(list(values)) == 0
                           for values in axes.values()):
            raise AnalysisError(
                "input sweep needs at least one value per axis")
        names = list(axes)
        combos = [dict(zip(names, combo))
                  for combo in itertools.product(*(axes[name]
                                                   for name in names))]
        return {name: list(values) for name, values in axes.items()}, combos
    combos = [dict(point) for point in axes]
    if not combos:
        raise AnalysisError("input sweep needs at least one point")
    return {}, combos


def _soa_columns(points: List[Dict[str, float]]
                 ) -> Optional[Dict[str, List[float]]]:
    """Structure-of-arrays transpose of uniform numeric point dicts.

    Returns ``None`` when the points cannot be batched: ragged key sets
    or non-numeric / bool values (the scalar path handles those).
    """
    if not points or not points[0]:
        return None
    names = points[0].keys()
    cols: Dict[str, List[float]] = {name: [] for name in names}
    for point in points:
        if point.keys() != names:
            return None
        for name, value in point.items():
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                return None
            cols[name].append(value)
    return cols


def _vector_input_rows(sym: SymbolicBET, model, combos, base_inputs,
                       k: int):
    """Batch-evaluate a chunk of input points through the vector backend.

    Returns ``(rows, project_seconds)`` — one row per combo, in order —
    or ``None`` when the chunk cannot be batched at all (the caller runs
    the scalar loop instead).  Lanes the batch masks out are transparently
    re-routed through scalar rebinds, reproducing the canonical per-point
    result or error.
    """
    points = [{**base_inputs, **combo} for combo in combos]
    cols = _soa_columns(points)
    if cols is None:
        return None
    try:
        batch = sym.rebind_batch(cols)
        started = time.perf_counter()
        projections = project_batch(batch, model, k)
        project_seconds = time.perf_counter() - started
    except Exception:
        return None
    rows = []
    for lane, projection in enumerate(projections):
        if projection is None:
            # fallback lane: the scalar path is the source of truth for
            # both the value and the canonical error
            try:
                bet = sym.bind(points[lane])
                started = time.perf_counter()
                projection = project_with_model(bet, model, k)
                project_seconds += time.perf_counter() - started
            except Exception as exc:
                rows.append(("fail", type(exc).__name__, str(exc),
                             _tb.format_exc()))
                continue
        rows.append(("ok", projection))
    return rows, project_seconds


def _input_chunk_task(payload):
    """Process-pool task: bind + project a whole chunk of input points.

    One symbolic build (first chunk per worker; replays after) amortizes
    across every point; per-point errors are captured as rows, never
    raised, so chunk-mates always complete.  With ``backend="vector"``
    the whole chunk is evaluated as one batch replay (arrays serialized
    once per chunk), falling back to the scalar loop when batching is
    impossible.
    """
    sym, machine, combos, base_inputs, model_factory, k = payload[:6]
    backend = payload[6] if len(payload) > 6 else "scalar"
    sym = _symbolic_for(sym)
    before = _stage_snapshot(sym)
    # the machine is fixed across an input sweep: build (and validate)
    # the timing model once per chunk, not once per point
    model = (model_factory or RooflineModel)(machine)
    if backend == "vector":
        vectored = _vector_input_rows(sym, model, combos, base_inputs, k)
        if vectored is not None:
            rows, project_seconds = vectored
            delta = _stage_delta(sym, before, project_seconds)
            delta["lane_groups"] = 1.0   # one lane array per input chunk
            return rows, delta
    project_seconds = 0.0
    rows = []
    for combo in combos:
        try:
            bet = sym.bind({**base_inputs, **combo})
            started = time.perf_counter()
            projection = project_with_model(bet, model, k)
            project_seconds += time.perf_counter() - started
            rows.append(("ok", projection))
        except Exception as exc:              # captured, re-raised in phase 2
            rows.append(("fail", type(exc).__name__, str(exc),
                         _tb.format_exc()))
    return rows, _stage_delta(sym, before, project_seconds)


def _input_point_task(payload):
    """Process-pool task: one input point (phase-2 / retry dispatch)."""
    sym, machine, combo, base_inputs, model_factory, k = payload
    sym = _symbolic_for(sym)
    bet = sym.bind({**base_inputs, **combo})
    return project_machine(bet, machine, model_factory, k)


def _input_point_to_dict(projection: Dict[str, Any]) -> Dict[str, Any]:
    return {"runtime": projection["runtime"],
            "ranking": list(projection["ranking"]),
            "top_label": projection["top_label"],
            "memory_fraction": projection["memory_fraction"],
            "completeness": projection.get("completeness", 1.0)}


def _default_input_key(program: Program, machine: MachineModel,
                       axes: Dict[str, List[float]],
                       combos: List[Dict[str, float]],
                       base_inputs: Dict[str, float],
                       entry: str, k: int) -> str:
    return sweep_key(
        program.fingerprint(), repr(machine),
        sorted((name, tuple(values)) for name, values in axes.items())
        if axes else [tuple(sorted(combo.items())) for combo in combos],
        tuple(sorted(base_inputs.items())), entry, k)


def sweep_inputs(program: Program, machine: MachineModel, axes,
                 base_inputs: Optional[Dict[str, float]] = None,
                 entry: str = "main",
                 library=None,
                 model_factory: Optional[Callable] = None,
                 k: int = 10,
                 workers: int = 1,
                 chunk_size: Optional[int] = None,
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
    input-dependent annotations.  Points are shipped in contiguous
    chunks, so each worker amortizes one recorded build across its whole
    chunk; results are bit-identical to building a fresh BET per point.

    Parameters
    ----------
    axes:
        Either ``{input: values, ...}`` — points are the cross product in
        row-major order (last axis varies fastest) — or an explicit
        sequence of ``{input: value, ...}`` dicts, swept in order.
    base_inputs:
        Bindings held constant across the sweep (per-point values win).
    chunk_size:
        Points per shipped chunk (default: spread pending points about
        four chunks per worker; serial runs use one chunk).
    strict / policy / timeout / checkpoint / resume / checkpoint_key:
        PR 2's fault semantics, preserved per *point*: failed points are
        retried individually under ``policy`` with exact per-point
        ``timeout``; ``strict=True`` fail-fasts with the canonical error;
        completed points checkpoint by their input bindings and are
        skipped on ``resume=True``.
    backend:
        ``"scalar"`` binds and projects point by point; ``"vector"``
        evaluates each chunk as one array-batched tape replay plus a
        batched model projection (bit-identical results; lanes the batch
        cannot vectorize transparently take the scalar path);
        ``"auto"`` (default) picks vector for sweeps of at least
        :data:`VECTOR_MIN_POINTS` points when numpy is available.
    executor / shards / topology / chaos:
        Sharded dispatch with supervision and quarantine — see
        :func:`sweep_grid`; semantics are identical here, with each
        chunk of input points forming one shard.
    """
    axes_dict, combos = _input_combos(axes)
    base = dict(base_inputs or {})
    backend = _resolve_backend(backend, len(combos),
                               has_machine_axes=False)
    resolved_executor: Optional[SweepExecutor] = None
    if executor is not None:
        resolved_executor = resolve_executor(executor, workers=workers,
                                             topology=topology, chaos=chaos)
    shard_stats: Dict[str, float] = {}
    if validate:
        ensure_valid_machine(machine)
    started = time.perf_counter()

    ckpt: Optional[SweepCheckpoint] = None
    if checkpoint:
        key = checkpoint_key or _default_input_key(
            program, machine, axes_dict, combos, base, entry, k)
        ckpt = SweepCheckpoint.load(
            checkpoint, key, resume=resume,
            settings=_checkpoint_settings(backend, model_factory,
                                          resolved_executor))

    prior: Dict[int, Dict[str, Any]] = {}
    pending_indices: List[int] = []
    pending_combos: List[Dict[str, float]] = []
    for index, combo in enumerate(combos):
        stored = ckpt.get(overrides_key(combo)) if ckpt else None
        if stored is not None:
            prior[index] = stored
        else:
            pending_indices.append(index)
            pending_combos.append(combo)

    sym = SymbolicBET(program, entry=entry, library=library)

    def record(global_index: int, projection: Dict[str, Any]) -> None:
        if ckpt is not None:
            ckpt.record(overrides_key(combos[global_index]),
                        _input_point_to_dict(projection))

    try:
        computed, failures, stages = _run_chunked(
            pending_combos, pending_indices,
            chunk_payload=lambda chunk: (sym, machine, list(chunk), base,
                                         model_factory, k, backend),
            point_payload=lambda combo: (sym, machine, combo, base,
                                         model_factory, k),
            chunk_task=_input_chunk_task, point_task=_input_point_task,
            describe=overrides_key, record=record,
            workers=workers, strict=strict, policy=policy,
            timeout=timeout, chunk_size=chunk_size,
            executor=resolved_executor, shards=shards,
            shard_stats=shard_stats, vector=(backend == "vector"))
    finally:
        if ckpt is not None:
            ckpt.flush()

    points = []
    for index, combo in enumerate(combos):
        projection = prior.get(index) or computed.get(index)
        if projection is not None:
            points.append(InputPoint(inputs=dict(combo),
                                     runtime=projection["runtime"],
                                     ranking=list(projection["ranking"]),
                                     top_label=projection["top_label"],
                                     memory_fraction=projection[
                                         "memory_fraction"],
                                     completeness=projection.get(
                                         "completeness", 1.0)))
    elapsed = time.perf_counter() - started
    timings = {"build": stages.get("bet_build_seconds", 0.0),
               "rebind": stages.get("bet_replay_seconds", 0.0),
               "batch": stages.get("bet_batch_seconds", 0.0),
               "compile": stages.get("compile_seconds", 0.0),
               "project": stages.get("project_seconds", 0.0),
               "total": elapsed,
               "workers": float(max(workers, 1)),
               "points": float(len(points)),
               "failed": float(len(failures)),
               "resumed": float(len(prior))}
    cache_stats = {"bet_builds": stages.get("bet_builds", 0.0),
                   "bet_replays": stages.get("bet_replays", 0.0),
                   "bet_shape_rebuilds": stages.get("bet_shape_rebuilds",
                                                    0.0),
                   "bet_batch_replays": stages.get("bet_batch_replays",
                                                   0.0),
                   "lanes_vectorized": stages.get("bet_lanes_vectorized",
                                                  0.0),
                   "lanes_fallback": stages.get("bet_lanes_fallback",
                                                0.0),
                   "lane_groups": stages.get("lane_groups", 0.0),
                   "compiles": stages.get("compiles", 0.0),
                   "compile_cache_hits": stages.get("compile_cache_hits",
                                                    0.0),
                   "parse_cache_hits": stages.get("parse_cache_hits",
                                                  0.0)}
    return InputSweepResult(
        axes=axes_dict, base_inputs=base,
        points=points, timings=timings,
        cache_stats=cache_stats, failures=failures,
        backend=backend,
        executor=(resolved_executor.name if resolved_executor else ""),
        shard_stats=shard_stats,
        diagnostics=list(ckpt.diagnostics) if ckpt is not None else [])


def _vector_grid_rows(sym: SymbolicBET, base_machine: MachineModel,
                      cells, base_inputs, model_factory, k: int,
                      min_lanes: int):
    """Batch-evaluate a chunk of grid cells, grouped by machine overrides.

    Cells sharing one set of machine overrides form an input batch
    against a single timing model (our models depend only on the
    machine's numeric fields, which are identical across a group).
    Each group's lane array carries the group's slot positions as a
    non-contiguous lane index map, so :func:`project_batch` scatters
    results straight back into chunk order.  Returns ``(rows,
    project_seconds, lane_groups)``; lanes that cannot be vectorized,
    and groups of fewer than ``min_lanes`` cells, take the scalar
    per-cell path.
    """
    groups: Dict[Tuple, List[int]] = {}
    order: List[Tuple] = []
    for slot, overrides in enumerate(cells):
        machine_part, _ = _split_overrides(overrides)
        key = tuple(sorted(machine_part.items()))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(slot)
    rows: List[Any] = [None] * len(cells)
    scattered: List[Optional[Dict]] = [None] * len(cells)
    project_seconds = 0.0
    lane_groups = 0
    for key in order:
        slots = groups[key]
        machines = [_cell_machine(base_machine, cells[slot])
                    for slot in slots]
        inputs_rows = [{**base_inputs, **_split_overrides(cells[slot])[1]}
                       for slot in slots]
        try:
            model = (model_factory or RooflineModel)(machines[0])
        except Exception as exc:
            row = ("fail", type(exc).__name__, str(exc), _tb.format_exc())
            for slot in slots:
                rows[slot] = row
            continue
        vectorized = False
        cols = _soa_columns(inputs_rows) if len(slots) >= min_lanes \
            else None
        if cols is not None:
            try:
                batch = sym.rebind_batch(cols, lane_index=slots)
                started = time.perf_counter()
                project_batch(batch, model, k, out=scattered)
                project_seconds += time.perf_counter() - started
                vectorized = True
                lane_groups += 1
            except Exception:
                vectorized = False
        for local, slot in enumerate(slots):
            projection = scattered[slot] if vectorized else None
            machine = machines[local]
            if projection is None:
                try:
                    bet = sym.bind(inputs_rows[local])
                    started = time.perf_counter()
                    projection = project_machine(bet, machine,
                                                 model_factory, k)
                    project_seconds += time.perf_counter() - started
                except Exception as exc:
                    rows[slot] = ("fail", type(exc).__name__, str(exc),
                                  _tb.format_exc())
                    continue
            rows[slot] = ("ok", GridPoint(overrides=dict(cells[slot]),
                                          machine=machine, **projection))
    return rows, project_seconds, lane_groups


def _lane_pack_rows(sym: SymbolicBET, base_machine: MachineModel,
                    pack: LanePack, base_inputs, model_factory, k: int,
                    min_lanes: int):
    """Batch-evaluate one packed lane-group slice (DESIGN.md §15).

    The pack is a single machine signature, so the whole chunk is one
    ``rebind_batch`` lane array against one timing model; per-lane
    failures (shape flips, domain errors, unsafe values) demote that
    lane to the scalar path — which reproduces the canonical per-cell
    result or error — rather than failing the group.  A pack of fewer
    than ``min_lanes`` lanes runs every lane on the scalar path.
    Returns ``(rows, project_seconds, lane_groups)`` in lane (=
    original chunk) order.
    """
    cells = pack.cells()
    try:
        machine = _cell_machine(base_machine, pack.machine_part())
        model = (model_factory or RooflineModel)(machine)
    except Exception as exc:
        row = ("fail", type(exc).__name__, str(exc), _tb.format_exc())
        return [row] * len(cells), 0.0, 0
    project_seconds = 0.0
    lane_groups = 0
    projections: List[Optional[Dict]] = [None] * pack.count
    if pack.count >= min_lanes:
        try:
            batch = sym.rebind_batch(pack.input_columns(base_inputs))
            started = time.perf_counter()
            projections = project_batch(batch, model, k)
            project_seconds += time.perf_counter() - started
            lane_groups = 1
        except Exception:
            projections = [None] * pack.count
    rows: List[Any] = []
    for lane, overrides in enumerate(cells):
        # per-cell machine: same physical fields as the group machine,
        # but the name tag carries the full overrides (incl. ``input:``
        # axes) exactly like the scalar path, so exported points are
        # byte-for-byte interchangeable
        point_machine = _cell_machine(base_machine, overrides)
        projection = projections[lane]
        if projection is None:
            try:
                inputs = {**base_inputs, **_split_overrides(overrides)[1]}
                bet = sym.bind(inputs)
                started = time.perf_counter()
                projection = project_machine(bet, point_machine,
                                             model_factory, k)
                project_seconds += time.perf_counter() - started
            except Exception as exc:
                rows.append(("fail", type(exc).__name__, str(exc),
                             _tb.format_exc()))
                continue
        rows.append(("ok", GridPoint(overrides=dict(overrides),
                                     machine=point_machine,
                                     **projection)))
    return rows, project_seconds, lane_groups


def _grid_chunk_task(payload):
    """Process-pool task: a chunk of mixed machine x input grid cells.

    Consecutive cells with identical input bindings reuse the current
    tree without a rebind (row-major order makes runs of equal bindings
    common when input axes come first in the grid dict).  With
    ``backend="vector"`` the chunk's cells are grouped by machine
    overrides and each group is batch-replayed in one pass; a chunk
    shipped as a :class:`~repro.parallel.lanes.LanePack` (one machine
    signature, columnar inputs) is a single pre-planned lane group.
    """
    sym, base_machine, cells, base_inputs, model_factory, k = payload[:6]
    backend = payload[6] if len(payload) > 6 else "scalar"
    min_lanes = payload[7] if len(payload) > 7 else 1
    sym = _symbolic_for(sym)
    before = _stage_snapshot(sym)
    if isinstance(cells, LanePack):
        rows, project_seconds, lane_groups = _lane_pack_rows(
            sym, base_machine, cells, base_inputs, model_factory, k,
            min_lanes)
        delta = _stage_delta(sym, before, project_seconds)
        delta["lane_groups"] = float(lane_groups)
        return rows, delta
    if backend == "vector":
        rows, project_seconds, lane_groups = _vector_grid_rows(
            sym, base_machine, cells, base_inputs, model_factory, k,
            min_lanes)
        delta = _stage_delta(sym, before, project_seconds)
        delta["lane_groups"] = float(lane_groups)
        return rows, delta
    project_seconds = 0.0
    rows = []
    bound_key: Any = None
    bet: Optional[BETNode] = None
    for overrides in cells:
        machine_part, input_part = _split_overrides(overrides)
        try:
            machine = _cell_machine(base_machine, overrides)
            inputs = {**base_inputs, **input_part}
            key = tuple(sorted(inputs.items()))
            if bet is None or key != bound_key:
                bet = sym.bind(inputs)
                bound_key = key
            started = time.perf_counter()
            projection = project_machine(bet, machine, model_factory, k)
            project_seconds += time.perf_counter() - started
            rows.append(("ok", GridPoint(overrides=dict(overrides),
                                         machine=machine, **projection)))
        except Exception as exc:
            rows.append(("fail", type(exc).__name__, str(exc),
                         _tb.format_exc()))
            bet, bound_key = None, None   # bind state unknown after a fault
    return rows, _stage_delta(sym, before, project_seconds)


def _grid_input_point_task(payload) -> GridPoint:
    """Process-pool task: one mixed grid cell (phase-2 / retry dispatch)."""
    sym, base_machine, overrides, base_inputs, model_factory, k = payload
    sym = _symbolic_for(sym)
    _, input_part = _split_overrides(overrides)
    machine = _cell_machine(base_machine, overrides)
    bet = sym.bind({**base_inputs, **input_part})
    projection = project_machine(bet, machine, model_factory, k)
    return GridPoint(overrides=dict(overrides), machine=machine,
                     **projection)


# -- batched full analyses ----------------------------------------------------

def _analyze_task(payload):
    """Process-pool task: one full Prof-vs-Modl pipeline run."""
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

    With ``strict=False`` a failing matrix point (after any retries per
    ``policy``, or exceeding ``timeout`` on the parallel path) occupies
    its slot as a :class:`~repro.parallel.PointFailure` record instead of
    aborting the batch; healthy points are unaffected.
    """
    from ..experiments import pipeline
    option_sets = [dict(options) for options in (ablations or [{}])]
    tasks = [(name, machine, tuple(sorted(options.items())))
             for name in workloads
             for machine in machines
             for options in option_sets]
    started = time.perf_counter()
    if strict and policy is None and timeout is None:
        if workers > 1 and len(tasks) > 1:
            results = parallel_map(_analyze_task, tasks, workers=workers)
            for analysis, (name, machine, options) in zip(results, tasks):
                pipeline.remember(analysis, **dict(options))
        else:
            results = [_analyze_task(task) for task in tasks]
    else:
        outcome = resilient_map(
            _analyze_task, tasks, workers=workers, policy=policy,
            timeout=timeout, strict=strict,
            describe=lambda task: f"{task[0]}@{getattr(task[1], 'name', task[1])}")
        results = []
        for slot, (value, task) in enumerate(zip(outcome.results, tasks)):
            if value is None:
                failure = next(f for f in outcome.failures
                               if f.index == slot)
                results.append(failure)
                continue
            if workers > 1:
                pipeline.remember(value, **dict(task[2]))
            results.append(value)
    elapsed = time.perf_counter() - started
    for analysis in results:
        if hasattr(analysis, "timings"):
            analysis.timings.setdefault("matrix_total", elapsed)
    return results

"""The active-learning exploration loop.

:func:`explore` turns "what does the Pareto frontier of this 10^6-point
machine×input space look like?" from an exhaustive-sweep problem into a
budgeted one:

1. a deterministic low-discrepancy initial design
   (:meth:`~repro.explore.GridSpace.sample_initial`) is evaluated
   through the **exact** engine (:func:`~repro.parallel.evaluate_cells`
   — chunked dispatch, vector backend, PR 7 executors, checkpointing);
2. per-objective surrogates with uncertainty are fit on everything
   evaluated so far;
3. a candidate pool (seeded uniform sample plus the lattice neighbors of
   the current frontier) is scored by lower-confidence-bound
   hypervolume improvement over the *exact* frontier, and the best
   ``batch`` candidates are evaluated exactly;
4. repeat for ``rounds`` rounds or until the budget is spent.

Surrogate numbers only ever *choose* cells; every number in the result
came out of the exact model, so each frontier point is bit-identical to
a fresh :class:`~repro.bet.BETBuilder` build plus
:func:`~repro.analysis.sensitivity.project_with_model` —
:func:`verify_frontier` re-derives exactly that, from scratch, and the
property suite runs it under seeded chaos on the pool executor.

Determinism: with a fixed ``seed`` the whole trajectory — initial
design, bootstrap resamples, candidate pools, tie-breaks — is a pure
function of the arguments, identical across serial and pool executors
(exact evaluations are bit-identical across executors, so the
acquisition sequence cannot diverge).  Checkpoint/resume rides on
:class:`~repro.parallel.SweepCheckpoint`: all rounds share one file
keyed by the space/settings fingerprint, so a resumed run replays the
same trajectory with completed cells served from disk.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sensitivity import project_with_model
from ..bet.builder import build_bet
from ..errors import AnalysisError
from ..hardware.machine import MachineModel, ensure_valid_machine
from ..hardware.roofline import RooflineModel
from ..parallel.engine import (
    INPUT_PREFIX, GridPoint, _cell_machine, _resolve_backend,
    evaluate_cells,
)
from ..parallel.fault import overrides_key, sweep_key
from ..parallel.lanes import check_inputs, check_parameter, split_overrides
from ..rng import CounterRNG
from ..skeleton.bst import Program
from .acquire import (
    HypervolumeBox, Objective, POINT_OBJECTIVES, parse_objectives,
    pareto_indices, select_batch,
)
from .space import GridSpace
from .surrogate import surrogate_by_name

__all__ = ["explore", "ExploreResult", "FrontierPoint",
           "verify_frontier"]

#: LCB weight: how optimistic the acquisition is about uncertain cells
_KAPPA = 1.0

#: weight of the pure-uncertainty exploration bonus in the score
_EXPLORE_WEIGHT = 0.1

#: L∞ unit-coordinate spacing enforced within one acquisition batch
_BATCH_SPACING = 0.04

#: reference-point margin beyond the worst observed objective value
_REFERENCE_MARGIN = 0.1


@dataclass
class FrontierPoint:
    """One exact-verified member of the Pareto frontier."""

    index: int                     #: flat index in the space
    cell: Dict[str, float]         #: axis overrides of the cell
    objectives: Dict[str, float]   #: objective name -> exact value
    runtime: float                 #: exact projected wall seconds
    memory_fraction: float         #: exact non-overlapped memory share
    machine_name: str              #: derived machine's canonical name
    top_label: str = ""            #: hottest site at this cell

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "cell": dict(self.cell),
            "objectives": dict(self.objectives),
            "runtime": self.runtime,
            "memory_fraction": self.memory_fraction,
            "machine_name": self.machine_name,
            "top_label": self.top_label,
        }


@dataclass
class ExploreResult:
    """Everything one exploration run produced and what it cost."""

    space: Dict[str, List[float]]       #: axis name -> values
    objectives: List[Objective]
    seed: int
    surrogate: str
    budget: int
    rounds: int                         #: acquisition rounds executed
    grid_size: int
    evaluations: int                    #: exact evaluations performed
    frontier: List[FrontierPoint]
    hypervolume: float                  #: canonical (all-min) HV
    reference: List[float]              #: canonical reference point
    error_trace: List[Dict[str, float]]  #: per-round surrogate error
    timings: Dict[str, float] = field(default_factory=dict)
    backend: str = ""
    executor: str = ""
    failures: int = 0
    diagnostics: List[Any] = field(default_factory=list)
    #: engine cache/lane counters summed over every exact round
    #: (lanes_vectorized / lanes_fallback / lane_groups, ...)
    cache_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def eval_fraction(self) -> float:
        """Exact evaluations as a fraction of the whole space."""
        return self.evaluations / self.grid_size if self.grid_size else 0.0

    def render(self) -> str:
        """Human-readable frontier table."""
        lines = [
            f"explored {self.grid_size:,} points with "
            f"{self.evaluations:,} exact evaluations "
            f"({100.0 * self.eval_fraction:.3f}%), "
            f"{len(self.frontier)} frontier points, "
            f"hypervolume {self.hypervolume:.6g}",
            "",
        ]
        names = [objective.render() for objective in self.objectives]
        lines.append("  ".join(f"{name:>20}" for name in names)
                     + "  cell")
        for point in self.frontier:
            values = "  ".join(
                f"{point.objectives[objective.name]:>20.6g}"
                for objective in self.objectives)
            lines.append(f"{values}  {overrides_key(point.cell)}")
        return "\n".join(lines)


def _objective_values(objectives: Sequence[Objective],
                      cell: Dict[str, float],
                      point: GridPoint) -> Dict[str, float]:
    """Exact objective values of one evaluated cell."""
    values: Dict[str, float] = {}
    for objective in objectives:
        if objective.name in POINT_OBJECTIVES:
            values[objective.name] = float(getattr(point, objective.name))
        else:
            values[objective.name] = float(cell[objective.name])
    return values


def _canonical(objectives: Sequence[Objective],
               values: Dict[str, float]) -> Tuple[float, ...]:
    return tuple(objective.canonical(values[objective.name])
                 for objective in objectives)


def _reference_point(vectors: Sequence[Tuple[float, ...]],
                     ) -> List[float]:
    """Canonical reference: worst observed per dim plus a margin."""
    dims = len(vectors[0])
    reference = []
    for d in range(dims):
        worst = max(v[d] for v in vectors)
        best = min(v[d] for v in vectors)
        span = worst - best
        margin = _REFERENCE_MARGIN * span if span > 0 \
            else max(abs(worst) * _REFERENCE_MARGIN, 1e-12)
        reference.append(worst + margin)
    return reference


def explore(axes: Dict[str, Sequence[float]],
            base_machine: MachineModel,
            objectives: Sequence,
            program: Optional[Program] = None,
            inputs: Optional[Dict[str, float]] = None,
            bet=None,
            model_factory: Optional[Callable] = None,
            k: int = 10,
            budget: int = 256,
            rounds: int = 4,
            initial: Optional[int] = None,
            surrogate: str = "ridge",
            seed: int = 0,
            candidate_pool: int = 2048,
            workers: int = 1,
            backend: str = "auto",
            executor=None,
            shards: Optional[int] = None,
            topology=None,
            chaos=None,
            policy=None,
            timeout: Optional[float] = None,
            checkpoint: Optional[str] = None,
            resume: bool = False,
            validate: bool = True) -> ExploreResult:
    """Explore a lazy design space under an exact-evaluation budget.

    Parameters
    ----------
    axes:
        ``{axis: values}`` — machine fields and/or ``input:<name>``
        workload inputs; the space is their (never-materialized) cross
        product, or pass a prebuilt :class:`GridSpace`.
    program / inputs / bet:
        The workload: ``program``'s ``main`` bound to ``inputs``, which
        ``input:`` axes overlay per cell; or, for a machine-only space,
        a built ``bet`` (default: built from ``program``).
    objectives:
        Objective specs (``"runtime"``, ``"bandwidth:min"``,
        ``"input:n:max"`` …) or :class:`~repro.explore.Objective`
        instances; at least one must be model-derived.
    budget:
        Hard cap on exact evaluations (initial design + all rounds).
    rounds:
        Acquisition rounds after the initial design; ``0`` degenerates
        to a plain low-discrepancy sample of ``budget`` cells.
    initial:
        Initial design size (default: an even budget split,
        ``budget // (rounds + 1)``, floored at 8).
    surrogate / seed / candidate_pool:
        Surrogate family (:data:`~repro.explore.SURROGATE_NAMES`), the
        determinism seed, and the per-round candidate sample size.
    workers / backend / executor / shards / topology / chaos / policy /
    timeout:
        Passed through to :func:`~repro.parallel.evaluate_cells` for
        every exact batch — the explorer inherits the full sweep
        execution stack, including chaos-resilient sharding.
    checkpoint / resume:
        One :class:`~repro.parallel.SweepCheckpoint` file shared by all
        rounds, keyed by the space + workload + settings fingerprint;
        ``resume=True`` serves completed cells from disk while the
        deterministic trajectory replays.  A checkpointed run resolves
        ``backend="auto"`` once, from ``budget``: ``vector`` from
        :data:`~repro.parallel.engine.VECTOR_MIN_LANES` evaluations, so
        every round is stored under the same backend.
    """
    space = axes if isinstance(axes, GridSpace) else GridSpace(axes)
    if isinstance(objectives, (str, Objective)):
        objectives = [objectives]
    parsed: List[Objective] = parse_objectives(
        [spec.render() if isinstance(spec, Objective) else str(spec)
         for spec in objectives], space.names)

    for name in space.names:
        check_parameter(name)
    input_axes = [name for name in space.names
                  if name.startswith(INPUT_PREFIX)]
    if input_axes:
        if program is None:
            raise AnalysisError(
                f"axes {input_axes} sweep workload inputs; pass "
                "program= (and optionally inputs=) to explore")
        check_inputs(program, input_axes)
    elif bet is None:
        if program is None:
            raise AnalysisError("explore needs a program= or a built "
                                "bet= for machine-only spaces")
        bet = build_bet(program, dict(inputs or {}))
    if validate:
        ensure_valid_machine(base_machine)
    if budget < 2:
        raise AnalysisError("budget must be at least 2 evaluations")
    budget = min(budget, space.size)
    if rounds < 0:
        raise AnalysisError("rounds must be >= 0")
    if initial is None:
        initial = max(budget // (rounds + 1), min(8, budget))
    initial = min(initial, budget)

    base_inputs = dict(inputs or {})
    started = time.perf_counter()
    checkpoint_key = None
    if checkpoint:
        workload_id = program.fingerprint() if program is not None \
            else "prebuilt-bet"
        # the cache-model factory is deliberately NOT part of the key:
        # it lives in the checkpoint's settings fingerprint instead, so a
        # mismatched resume gets the precise SKOP706 diagnostic rather
        # than a generic "different sweep" refusal
        checkpoint_key = sweep_key(
            "explore", space.fingerprint(), workload_id,
            tuple(sorted(base_inputs.items())), "main",
            repr(base_machine), k, seed)
        # the checkpoint refuses rounds computed by different backends,
        # so ``auto`` is resolved once for the whole run, from its
        # budget, as the server resolves it for a checkpointed /sweep
        backend = _resolve_backend(backend, budget)

    archive: Dict[int, Dict[str, Any]] = {}
    evaluated_order: List[int] = []
    failures = 0
    diagnostics: List[Any] = []
    cache_stats: Dict[str, float] = {}
    eval_seconds = 0.0
    result_backend = ""
    result_executor = ""

    def run_exact(indices: List[int], resume_flag: bool) -> None:
        nonlocal failures, eval_seconds, result_backend, result_executor
        if not indices:
            return
        cells = [space.cell(index) for index in indices]
        batch = evaluate_cells(
            base_machine, cells, bet=bet, program=program,
            inputs=base_inputs, model_factory=model_factory, k=k,
            workers=workers, policy=policy, timeout=timeout,
            backend=backend, executor=executor, shards=shards,
            topology=topology, chaos=chaos, checkpoint=checkpoint,
            resume=resume_flag, checkpoint_key=checkpoint_key,
            validate=False)
        eval_seconds += batch.timings.get("total", 0.0)
        failures += len(batch.failures)
        for name, value in (batch.cache_stats or {}).items():
            cache_stats[name] = cache_stats.get(name, 0.0) + value
        diagnostics.extend(batch.diagnostics)
        result_backend = batch.backend
        result_executor = batch.executor
        # points come in cell order, failed cells left out
        failed = {failure.index for failure in batch.failures}
        points = iter(batch.points)
        for slot, (index, cell) in enumerate(zip(indices, cells)):
            if slot in failed:
                continue                     # failed cell: not archived
            point = next(points)
            values = _objective_values(parsed, cell, point)
            archive[index] = {
                "cell": cell, "point": point, "values": values,
                "canonical": _canonical(parsed, values),
            }
            evaluated_order.append(index)

    # -- round 0: corners + the low-discrepancy design ------------------
    # axis-objective frontiers terminate on lattice edges; seeding the
    # corners (capped at half the design) anchors those extremes exactly
    design = space.corners(limit=max(2, initial // 2))
    design += space.sample_initial(initial - len(design), seed=seed,
                                   exclude=design)
    run_exact(design[:initial], resume_flag=resume)
    if not archive:
        raise AnalysisError(
            "every cell of the initial design failed; nothing to "
            "explore (inspect the sweep failures with a direct "
            "evaluate_cells call)")

    point_objectives = [objective for objective in parsed
                        if objective.name in POINT_OBJECTIVES]
    error_trace: List[Dict[str, float]] = []
    rounds_run = 0
    fit_seconds = 0.0

    for round_number in range(1, rounds + 1):
        remaining = budget - len(evaluated_order)
        if remaining <= 0 or len(archive) >= space.size:
            break
        batch_size = max(1, math.ceil(
            remaining / (rounds + 1 - round_number)))
        batch_size = min(batch_size, remaining)

        fit_started = time.perf_counter()
        # train one surrogate per model-derived objective on everything
        # exact so far (canonical orientation, so lower is better)
        order = list(evaluated_order)
        features = space.unit_coords_array(order)
        models: Dict[str, Any] = {}
        for objective in point_objectives:
            model = surrogate_by_name(surrogate, seed=seed)
            model.fit(features, [
                objective.canonical(archive[index]["values"]
                                    [objective.name])
                for index in order])
            models[objective.name] = model

        # candidate pool: seeded uniform sample of the unexplored space
        # plus the lattice neighborhood of the current exact frontier,
        # as one sorted array of distinct unevaluated indices
        evaluated = archive.keys()
        rng = CounterRNG("candidates", seed, round_number)
        sample = rng.sample_distinct(
            space.size, min(candidate_pool, space.size - len(evaluated)),
            exclude=evaluated)
        vectors = [archive[index]["canonical"] for index in order]
        front_local = pareto_indices(vectors)
        neighbors = [neighbor for local in front_local
                     for neighbor in space.neighbors(order[local])
                     if neighbor not in evaluated]
        pool = np.sort(np.asarray(sample + neighbors, dtype=np.int64))
        pool = pool[np.diff(pool, prepend=-1) > 0]
        if not len(pool):
            break

        # score the whole pool: LCB hypervolume improvement plus an
        # exploration bonus, one array column per objective
        reference = _reference_point(vectors)
        box = HypervolumeBox([vectors[i] for i in front_local],
                             reference, seed=seed)
        spans = [max(reference[d] - min(v[d] for v in vectors), 1e-300)
                 for d in range(len(parsed))]
        span_volume = 1.0
        for span in spans:
            span_volume *= span
        pool_coords = space.unit_coords_array(pool)
        lcb = np.empty((len(pool), len(parsed)))
        spread = np.zeros(len(pool))
        means: Dict[str, "np.ndarray"] = {}
        for d, objective in enumerate(parsed):
            if objective.name in models:
                mean, std = models[objective.name].predict_array(
                    pool_coords)
                means[objective.name] = mean
                lcb[:, d] = mean - _KAPPA * std
                spread = spread + std / spans[d]
            else:
                lcb[:, d] = objective.sign * space.axis_values(
                    pool, objective.name)
        scores = box.improvements(lcb) / span_volume \
            + _EXPLORE_WEIGHT * spread / max(len(models), 1)

        picked = select_batch(pool, scores, pool_coords, batch_size,
                              spacing=_BATCH_SPACING)
        fit_seconds += time.perf_counter() - fit_started
        if not picked:
            break
        before = set(archive)
        run_exact(picked, resume_flag=True if checkpoint else False)
        rounds_run = round_number

        # surrogate-error trace: prediction vs exact on the fresh batch
        positions = np.searchsorted(pool, picked)
        errors: Dict[str, float] = {"round": float(round_number),
                                    "evaluated": 0.0}
        for objective in point_objectives:
            total, count = 0.0, 0
            predicted = means[objective.name][positions].tolist()
            for index, mean in zip(picked, predicted):
                if index in before or index not in archive:
                    continue
                actual = objective.canonical(
                    archive[index]["values"][objective.name])
                total += abs(mean - actual) / max(abs(actual), 1e-300)
                count += 1
            if count:
                errors[objective.name] = total / count
                errors["evaluated"] = float(count)
        error_trace.append(errors)

    # -- final exact frontier -------------------------------------------
    order = list(evaluated_order)
    vectors = [archive[index]["canonical"] for index in order]
    front_local = pareto_indices(vectors)
    front_vectors = [vectors[i] for i in front_local]
    reference = _reference_point(vectors)
    volume = HypervolumeBox(front_vectors, reference, seed=seed).volume

    frontier = []
    for local in sorted(front_local, key=lambda i: vectors[i]):
        index = order[local]
        record = archive[index]
        point: GridPoint = record["point"]
        frontier.append(FrontierPoint(
            index=index, cell=dict(record["cell"]),
            objectives=dict(record["values"]),
            runtime=point.runtime,
            memory_fraction=point.memory_fraction,
            machine_name=point.machine.name,
            top_label=point.top_label))

    elapsed = time.perf_counter() - started
    return ExploreResult(
        space=space.as_dict(),
        objectives=parsed,
        seed=seed,
        surrogate=surrogate,
        budget=budget,
        rounds=rounds_run,
        grid_size=space.size,
        evaluations=len(evaluated_order),
        frontier=frontier,
        hypervolume=volume,
        reference=reference,
        error_trace=error_trace,
        timings={"total": elapsed, "evaluate": eval_seconds,
                 "acquire": fit_seconds,
                 "evaluations": float(len(evaluated_order))},
        backend=result_backend,
        executor=result_executor,
        failures=failures,
        diagnostics=diagnostics,
        cache_stats=cache_stats)


def verify_frontier(result: ExploreResult,
                    base_machine: MachineModel,
                    program: Optional[Program] = None,
                    inputs: Optional[Dict[str, float]] = None,
                    bet=None,
                    model_factory: Optional[Callable] = None,
                    k: int = 10) -> int:
    """Re-derive every frontier point from scratch; raise on any drift.

    Each point gets a *fresh* :func:`~repro.bet.builder.build_bet` (no
    symbolic replay, no cache) and a fresh
    :func:`~repro.analysis.sensitivity.project_with_model`; the
    re-derived runtime, memory fraction, and objective values must be
    **bit-identical** (``==``, not approximately) to what the explorer
    reported.  A second pass then re-evaluates the whole frontier as
    one :func:`~repro.parallel.evaluate_cells` batch through the
    grouped vector path (machine and input lanes), proving the
    lane-batched dispatch agrees with the per-point scratch builds.
    Returns the number of points verified.
    """
    for frontier_point in result.frontier:
        _, input_part = split_overrides(frontier_point.cell)
        machine = _cell_machine(base_machine, frontier_point.cell)
        if program is not None:
            fresh_bet = build_bet(program,
                                  inputs={**dict(inputs or {}),
                                          **input_part})
        else:
            if bet is None:
                raise AnalysisError(
                    "verify_frontier needs program= or bet=")
            fresh_bet = bet
        model = (model_factory or RooflineModel)(machine)
        projection = project_with_model(fresh_bet, model, k)
        drift = []
        if projection["runtime"] != frontier_point.runtime:
            drift.append(f"runtime {projection['runtime']!r} != "
                         f"{frontier_point.runtime!r}")
        if projection["memory_fraction"] != \
                frontier_point.memory_fraction:
            drift.append(
                f"memory_fraction {projection['memory_fraction']!r} != "
                f"{frontier_point.memory_fraction!r}")
        for objective in result.objectives:
            expected = frontier_point.objectives[objective.name]
            if objective.name in POINT_OBJECTIVES:
                actual = float(projection[objective.name])
            else:
                actual = float(frontier_point.cell[objective.name])
            if actual != expected:
                drift.append(f"{objective.name} {actual!r} != "
                             f"{expected!r}")
        if drift:
            raise AnalysisError(
                "frontier point is not bit-identical to a fresh build "
                f"at cell {overrides_key(frontier_point.cell)}: "
                + "; ".join(drift))
    if result.frontier:
        cells = [dict(frontier_point.cell)
                 for frontier_point in result.frontier]
        has_input_axes = any(name.startswith(INPUT_PREFIX)
                             for cell in cells for name in cell)
        batch_bet = bet
        if batch_bet is None and not has_input_axes:
            # machine-only cells need a built BET; the per-point pass
            # above guarantees program is not None here
            batch_bet = build_bet(program, inputs=dict(inputs or {}))
        batch = evaluate_cells(
            base_machine, cells, bet=batch_bet, program=program,
            inputs=inputs, model_factory=model_factory, k=k,
            backend="vector", validate=False)
        if batch.failures:
            cell = result.frontier[batch.failures[0].index].cell
            raise AnalysisError(
                "grouped re-evaluation failed for frontier cell "
                f"{overrides_key(cell)}")
        # points come in cell order
        for frontier_point, point in zip(result.frontier, batch.points):
            if (point.runtime != frontier_point.runtime
                    or point.memory_fraction
                    != frontier_point.memory_fraction):
                raise AnalysisError(
                    "grouped (vector) re-evaluation is not "
                    "bit-identical to the frontier at cell "
                    f"{overrides_key(frontier_point.cell)}: runtime "
                    f"{point.runtime!r} != {frontier_point.runtime!r} "
                    f"or memory_fraction {point.memory_fraction!r} != "
                    f"{frontier_point.memory_fraction!r}")
    return len(result.frontier)

"""Execute the in-process ops of the benchmark workloads.

Every op calls the public ``repro`` API the way a user would.  Spans
wrap each call into a layer; layers the engine reaches internally are
derived from the ``timings`` / ``cache_stats`` / ``shard_stats`` its
results carry.  Outputs are sampled inside the timed loop (a few points
per op, chosen by the schedule) and checked against a fresh
``build_bet`` + ``project_with_model`` after the loop, so checking never
slows the measured ops.
"""

import json
import math
import os
import random
import re
from time import perf_counter

import schedule as sched

from repro import (RooflineModel, build_bet, characterize, extract_hot_path,
                   machine_by_name, parse_skeleton, select_hotspots,
                   total_time)
from repro.analysis.sensitivity import project_with_model
from repro.expressions import compile_stats
from repro.explore import explore
from repro.export import grid_point_to_dict
from repro.parallel import evaluate_cells, sweep_grid, sweep_inputs
from repro.workloads import spec as workload_spec

K = 10
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: inputs the registry leaves alone when it scales a workload
ITERATION_INPUTS = ("nt", "niter", "nloop", "reps")

MACHINES = {name: machine_by_name(name) for name in sched.MACHINES}


def scaled_inputs(workload, scale):
    """The workload's default inputs with size-like ones scaled (the
    registry's ``load(name, scale)`` rule)."""
    out = dict(workload_spec(workload).default_inputs)
    if scale != 1.0:
        for key, value in out.items():
            if key not in ITERATION_INPUTS:
                out[key] = max(1, int(round(value * scale)))
    return out


def _size_point(workload, scale):
    """One input-sweep point: every size-like input scaled."""
    defaults = workload_spec(workload).default_inputs
    return {key: float(max(1, int(round(value * scale))))
            for key, value in defaults.items()
            if key not in ITERATION_INPUTS}


def _seeded_points(op):
    rng = random.Random(op["seed"])
    return [_size_point(op["workload"], sched._scale(rng))
            for _ in range(op["points"])]


def _seeded_cells(op, count):
    """A shuffled mixed machine x input cell list from the op's seed."""
    rng = random.Random(op["seed"])
    key = sched.SIZE_INPUT[op["workload"]]
    default = workload_spec(op["workload"]).default_inputs[key]
    cells = []
    for _ in range(count):
        cell = dict(rng.choice(sched.MACHINE_SIGNATURES))
        cell["input:" + key] = float(
            max(1, int(round(default * sched._scale(rng)))))
        cells.append(cell)
    return cells


def oracle(program, machine_name, inputs, overrides):
    """A fresh ``build_bet`` + ``project_with_model`` for one point."""
    machine = MACHINES[machine_name]
    machine_part = {name: value for name, value in overrides.items()
                    if not name.startswith("input:")}
    if machine_part:
        machine = machine.with_overrides(**machine_part)
    bet = build_bet(program, inputs=inputs)
    return project_with_model(bet, RooflineModel(machine), K)


def _same_projection(point, want):
    return (point.runtime == want["runtime"]
            and list(point.ranking) == list(want["ranking"])[:len(
                point.ranking)]
            and bool(point.ranking)
            and point.top_label == want["top_label"]
            and point.memory_fraction == want["memory_fraction"])


def read_table1(root):
    """``{(workload, machine): [(site, share), ...]}`` from the committed
    ``results/table1_*.txt`` "Modl spot" columns."""
    tables = {}
    for workload, machine in sched.TABLE1_CASES:
        path = os.path.join(root, "results",
                            f"table1_{workload}_{machine}.txt")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()[3:]
        rows = []
        for line in lines:
            fields = re.split(r"\s{2,}", line.strip())
            if len(fields) == 5 and fields[3] != "-":
                rows.append((fields[3], fields[4]))
        tables[(workload, machine)] = rows
    return tables


def _io_counters():
    """``(wchar, syscw)`` of this process from ``/proc/self/io``."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            fields = dict(line.split(":") for line in handle)
        return int(fields["wchar"]), int(fields["syscw"])
    except (OSError, KeyError, ValueError):
        return 0, 0


class Counters(dict):
    def add(self, name, value):
        self[name] = self.get(name, 0.0) + float(value)


class InProcess:
    """One in-process workload: set-up, timed ops and deferred checks."""

    def __init__(self, name, root, tracer, workdir):
        self.name = name
        self.root = root
        self.tracer = tracer
        self.workdir = workdir
        self.programs = {}
        self.bets = {}
        self.samples = []        # sampled points for the fresh-build oracle
        self.resumes = []        # (op index, serialize, first, resumed)
        self.problems = []       # check failures, as text
        self.failed_ops = set()  # op indices that failed or mismatched
        self.counters = Counters()
        self.table1 = None
        self.ops_run = 0
        self._ckpt_serial = 0

    # -- set-up ------------------------------------------------------------
    def setup(self):
        """Parse every workload, prebuild default-input BETs, read the
        committed rankings, and warm each op kind once (unmeasured)."""
        for workload in sched.WORKLOADS:
            text = workload_spec(workload).skeleton_text
            self.programs[workload] = parse_skeleton(
                text, source_name=f"<{workload}.skop>")
        if self.name == "interactive":
            self.table1 = read_table1(self.root)
        if self.name == "batch":
            for workload in sched.WORKLOADS:
                self.bets[workload] = build_bet(
                    self.programs[workload],
                    inputs=scaled_inputs(workload, 1.0))
        os.makedirs(self.workdir, exist_ok=True)
        warm = sched.blocks(self.name, -1)[0]
        if self.name == "batch":
            # one op of each kind, plus a 4000-point inline sweep of every
            # workload so the peak resident set is reached here, not by
            # whichever workload a seed happens to pair with that size
            warm = list({op["kind"]: op for op in warm}.values()) + [
                {"kind": "sweep", "workload": workload, "machine": "bgq",
                 "points": 4000, "seed": 0, "executor": None, "check": [0]}
                for workload in sched.WORKLOADS]
        tracer, self.tracer = self.tracer, type(self.tracer)(False)
        try:
            for op in warm:
                self.run(op, check=False)
        finally:
            self.tracer = tracer
            self.samples.clear()
            self.resumes.clear()
            self.problems.clear()
            self.failed_ops.clear()
            self.counters.clear()

    # -- ops ---------------------------------------------------------------
    def run(self, op, check=True):
        """Execute one op; return the number of points it projected.

        An op that raises or returns failed points is counted failed and
        reported; it never stops the run.
        """
        self.ops_run += 1
        self.tracer.op = self.ops_run
        handler = getattr(self, "_op_" + op["kind"])
        try:
            with self.tracer.span("op." + op["kind"]):
                return handler(op, check)
        except Exception as exc:  # an op failure is data, not a crash
            self.failed_ops.add(self.ops_run)
            self.problems.append(f"op {self.ops_run} {op['kind']}: "
                                 f"{type(exc).__name__}: {exc}")
            return 0

    def _fail(self, message):
        self.failed_ops.add(self.ops_run)
        self.problems.append(f"op {self.ops_run}: {message}")

    def _engine(self, result, parent):
        """Attribute an engine result's stage seconds and counters."""
        if not self.tracer.enabled:
            return
        timings, stats = result.timings, result.cache_stats
        project = ("analysis.project_batch" if result.backend == "vector"
                   else "analysis.project")
        self.tracer.derive(parent, [
            ("symbolic.record", timings.get("build", 0.0)),
            ("symbolic.replay", timings.get("rebind", 0.0)),
            ("symbolic.batch", timings.get("batch", 0.0)),
            (project, timings.get("project", 0.0))])
        add = self.counters.add
        for source, name in (("bet_replays", "symbolic.replays"),
                             ("bet_shape_rebuilds",
                              "symbolic.shape_rebuilds"),
                             ("bet_batch_replays", "symbolic.batch_replays"),
                             ("lanes_vectorized", "symbolic.lanes_vectorized"),
                             ("lanes_fallback", "symbolic.lanes_fallback"),
                             ("lane_groups", "lanes.groups")):
            add(name, stats.get(source, 0.0))
        shards = result.shard_stats or {}
        add("shard.shards", shards.get("shards_planned", 0.0))
        add("shard.reassigned", shards.get("shard_reassignments", 0.0))

    def _parse(self, workload):
        with self.tracer.span("skeleton.parse"):
            return parse_skeleton(workload_spec(workload).skeleton_text,
                                  source_name=f"<{workload}.skop>")

    def _build(self, program, inputs):
        with self.tracer.span("bet.build"):
            bet = build_bet(program, inputs=inputs)
        if self.tracer.enabled:
            self.counters.add("bet.nodes", sum(1 for _ in bet.walk()))
        return bet

    def _executor(self, op):
        if op.get("executor") == "pool":
            return {"executor": "pool", "workers": WORKERS}
        return {}

    def _differential(self, name, call):
        """Time a companion run (traced runs only) as a child of the op."""
        with self.tracer.span(name):
            started = perf_counter()
            call()
            return perf_counter() - started

    def _sample_points(self, op, result, points_in, check, overrides_of,
                       inputs_of):
        """Keep the schedule's sampled points for the deferred oracle."""
        if result.failures or len(result.points) != len(points_in):
            self._fail(f"{op['kind']}: {len(result.failures)} failed "
                       f"points, {len(result.points)}/{len(points_in)} "
                       "returned")
            return
        if not check:
            return
        picks = op["check"] if isinstance(op["check"], list) \
            else [op["check"]]
        for index in picks:
            self.samples.append((self.ops_run, op["workload"],
                                 op["machine"], inputs_of(index),
                                 overrides_of(index), result.points[index]))

    # interactive ------------------------------------------------------------
    def _op_analysis(self, op, check):
        workload, machine = op["workload"], op["machine"]
        inputs = scaled_inputs(workload, op["scale"])
        program = self._parse(workload)
        bet = self._build(program, inputs)
        with self.tracer.span("analysis.characterize"):
            records = characterize(bet, RooflineModel(MACHINES[machine]))
        with self.tracer.span("analysis.select"):
            selection = select_hotspots(records, program.static_size(),
                                        coverage=1.0, leanness=1.0,
                                        max_spots=K)
        with self.tracer.span("analysis.hotpath"):
            path = extract_hot_path(selection.spots)
        if path is None or not selection.spots:
            self._fail("analysis produced no hot spots")
        elif check and op["scale"] == 1.0 \
                and (workload, machine) in self.table1:
            total = total_time(records)
            got = [(spot.site, f"{100 * spot.projected_time / total:.1f}%")
                   for spot in selection.spots]
            if got != self.table1[(workload, machine)]:
                self._fail(f"{workload} on {machine}: hot spots {got} "
                           "differ from results/table1")
            self.counters.add("checks.table1", 1)
        return 1

    def _op_small_sweep(self, op, check):
        workload = op["workload"]
        program = self._parse(workload)
        base = scaled_inputs(workload, 1.0)
        points = [_size_point(workload, scale) for scale in op["scales"]]
        with self.tracer.span("parallel.sweep_inputs") as span:
            result = sweep_inputs(program, MACHINES[op["machine"]], points,
                                  base_inputs=base, k=K)
        self._engine(result, span)
        self._sample_points(op, result, points, check,
                            overrides_of=lambda index: {},
                            inputs_of=lambda index: {**base, **points[index]})
        return len(result.points)

    # batch ------------------------------------------------------------------
    def _op_cells(self, op, check):
        workload = op["workload"]
        cells = _seeded_cells(op, op["cells"])
        base = scaled_inputs(workload, 1.0)
        call = lambda **extra: evaluate_cells(  # noqa: E731
            MACHINES[op["machine"]], cells, program=self.programs[workload],
            inputs=base, k=K, **extra)
        with self.tracer.span("parallel.evaluate_cells") as span:
            result = call(**self._executor(op))
        self._pool_differential(op, span, call)
        self._engine(result, span)
        self._sample_points(
            op, result, cells, check,
            overrides_of=lambda index: cells[index],
            inputs_of=lambda index: {**base, **{
                name[len("input:"):]: value
                for name, value in cells[index].items()
                if name.startswith("input:")}})
        return len(result.points)

    def _op_sweep(self, op, check):
        workload = op["workload"]
        points = _seeded_points(op)
        base = scaled_inputs(workload, 1.0)
        call = lambda **extra: sweep_inputs(  # noqa: E731
            self.programs[workload], MACHINES[op["machine"]], points,
            base_inputs=base, k=K, **extra)
        with self.tracer.span("parallel.sweep_inputs") as span:
            result = call(**self._executor(op))
        self._pool_differential(op, span, call)
        self._engine(result, span)
        self._sample_points(op, result, points, check,
                            overrides_of=lambda index: {},
                            inputs_of=lambda index: {**base, **points[index]})
        return len(result.points)

    def _pool_differential(self, op, span, call):
        """Traced runs: the same op inline gives the pool's overhead."""
        if not self.tracer.enabled or op.get("executor") != "pool":
            return
        inline = self._differential("differential.inline", call)
        overhead = span.duration - inline
        self.counters.add("executors.pool_overhead_s", overhead)
        self.tracer.derive(span, [("executors.pool_overhead",
                                   max(0.0, overhead))])

    def _op_grid(self, op, check):
        workload = op["workload"]
        base = scaled_inputs(workload, 1.0)
        with self.tracer.span("parallel.sweep_grid") as span:
            result = sweep_grid(self.bets[workload], MACHINES[op["machine"]],
                                op["axes"], k=K)
        if self.tracer.enabled:
            self.tracer.derive(span, [("analysis.project",
                                       result.timings.get("project", 0.0))])
        cells = range(math.prod(len(values)
                                for values in op["axes"].values()))
        self._sample_points(
            op, result, cells, check,
            overrides_of=lambda index: result.points[index].overrides,
            inputs_of=lambda index: base)
        return len(result.points)

    def _op_explore(self, op, check):
        workload = op["workload"]
        base = scaled_inputs(workload, 1.0)
        with self.tracer.span("explore.explore") as span:
            result = explore(sched.EXPLORE_AXES, MACHINES[op["machine"]],
                             sched.EXPLORE_OBJECTIVES,
                             program=self.programs[workload], inputs=base,
                             k=K, budget=op["budget"], rounds=op["rounds"],
                             seed=op["seed"])
        if self.tracer.enabled:
            timings = result.timings
            self.tracer.derive(span, [
                ("explore.acquire", timings.get("acquire", 0.0)),
                ("explore.evaluate", timings.get("evaluate", 0.0))])
            self.counters.add("explore.evaluations",
                              timings.get("evaluations", 0.0))
            for name in ("lanes_vectorized", "lanes_fallback"):
                self.counters.add("symbolic." + name,
                                  result.cache_stats.get(name, 0.0))
            self.counters.add("lanes.groups",
                              result.cache_stats.get("lane_groups", 0.0))
        if result.failures or not result.frontier:
            self._fail(f"explore: {result.failures} failures, "
                       f"{len(result.frontier)} frontier points")
        elif check:
            point = result.frontier[op["seed"] % len(result.frontier)]
            inputs = {**base, **{name[len("input:"):]: value
                                 for name, value in point.cell.items()
                                 if name.startswith("input:")}}
            self.samples.append((self.ops_run, workload, op["machine"],
                                 inputs, dict(point.cell), point))
        return result.evaluations

    # checkpointed -----------------------------------------------------------
    def _op_ckpt_sweep(self, op, check):
        workload = op["workload"]
        points = _seeded_points(op)
        base = scaled_inputs(workload, 1.0)
        call = lambda **extra: sweep_inputs(  # noqa: E731
            self.programs[workload], MACHINES[op["machine"]], points,
            base_inputs=base, k=K, **extra)
        self._checkpointed(op, check, call, points,
                           overrides_of=lambda index: {},
                           inputs_of=lambda index: {**base, **points[index]},
                           serialize=lambda result: json.dumps(
                               [point.__dict__ for point in result.points],
                               sort_keys=True),
                           span_name="parallel.sweep_inputs")
        return len(points)

    def _op_ckpt_cells(self, op, check):
        workload = op["workload"]
        cells = _seeded_cells(op, op["points"])
        base = scaled_inputs(workload, 1.0)
        call = lambda **extra: evaluate_cells(  # noqa: E731
            MACHINES[op["machine"]], cells, program=self.programs[workload],
            inputs=base, k=K, **extra)
        self._checkpointed(
            op, check, call, cells,
            overrides_of=lambda index: cells[index],
            inputs_of=lambda index: {**base, **{
                name[len("input:"):]: value
                for name, value in cells[index].items()
                if name.startswith("input:")}},
            serialize=lambda result: json.dumps(
                [grid_point_to_dict(point) for point in result.points],
                sort_keys=True),
            span_name="parallel.evaluate_cells")
        return len(cells)

    def _checkpointed(self, op, check, call, points, overrides_of,
                      inputs_of, serialize, span_name):
        """A checkpointed run into a fresh file, then a resumed rerun that
        must recompute nothing and return identical results."""
        self._ckpt_serial += 1
        path = os.path.join(self.workdir, f"ckpt-{self._ckpt_serial}.json")
        tracing = self.tracer.enabled
        try:
            io_before = _io_counters() if tracing else None
            with self.tracer.span(span_name) as span:
                first = call(checkpoint=path)
            if tracing:
                io_after = _io_counters()
                self.counters.add("checkpoint.wchar_bytes",
                                  io_after[0] - io_before[0])
                self.counters.add("checkpoint.write_calls",
                                  io_after[1] - io_before[1])
                self.counters.add("checkpoint.points", len(points))
                plain = self._differential("differential.no_checkpoint",
                                           call)
                overhead = span.duration - plain
                self.counters.add("checkpoint.overhead_s", overhead)
                self.tracer.derive(span, [("checkpoint.io",
                                           max(0.0, overhead))])
                self._engine(first, span)
            with self.tracer.span("checkpoint.resume") as span:
                again = call(checkpoint=path, resume=True)
            if tracing:
                self.counters.add("checkpoint.resume_s", span.duration)
        finally:
            if os.path.exists(path):
                os.remove(path)
        self._sample_points(op, first, points, check, overrides_of,
                            inputs_of)
        resumed = again.timings.get("resumed", -1.0)
        if resumed != len(points) or again.failures:
            self._fail(f"resume recomputed {len(points) - resumed:g} of "
                       f"{len(points)} points")
        elif check:
            self.resumes.append((self.ops_run, serialize, first, again))

    # -- deferred checks ---------------------------------------------------
    def verify(self):
        """Check every sampled point against a fresh build; return the
        number of points checked."""
        for op_index, workload, machine, inputs, overrides, point \
                in self.samples:
            want = oracle(self.programs[workload], machine, inputs,
                          overrides)
            if hasattr(point, "ranking"):
                same = _same_projection(point, want)
            else:   # an explorer frontier point
                same = (point.runtime == want["runtime"]
                        and point.memory_fraction
                        == want["memory_fraction"])
            if not same:
                self.failed_ops.add(op_index)
                self.problems.append(
                    f"op {op_index}: {workload} on {machine} at "
                    f"{overrides or inputs} differs from a fresh build")
        for op_index, serialize, first, again in self.resumes:
            if serialize(again) != serialize(first):
                self.failed_ops.add(op_index)
                self.problems.append(f"op {op_index}: resumed results "
                                     "differ from the checkpointed run")
        return len(self.samples)

    def compile_snapshot(self):
        stats = compile_stats()
        return (float(stats.get("compile_seconds", 0.0)),
                float(stats.get("compiles", 0.0)),
                float(stats.get("cache_hits", 0.0)))

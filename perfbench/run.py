#!/usr/bin/env python3
"""The repository benchmark: two workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``interactive`` -- closed loop, one client: hot-path analyses parsed
  from source and small (8-63 point) input sweeps over the six bundled
  workloads on BG/Q and Xeon.  After the timed loop, ``repro serve`` runs
  as its own process and an open-loop phase of seeded Poisson arrivals
  from four tenants is checked byte for byte against in-process answers.
* ``batch`` -- closed loop, one client: 1000-cell mixed cell lists,
  1000- and 4000-point input sweeps, 200-cell machine grids over a
  prebuilt BET and explore runs on the 10^6-cell space, a fixed share on
  the process pool.  After the timed loop, checkpointed sweeps and cell
  lists run into fresh files and their resumed reruns are checked.

``--trace 0`` prints every end-to-end metric of the timed loop.
``--trace 1`` records spans on every other block (the blocks in between
run untraced, for the tracing overhead) and on the checked section,
measures the service layer (``interactive``: a traced open-loop phase
and a rate ladder) or the checkpoint layer (``batch``) differentially,
writes a Chrome trace to ``.perfbench_out/trace-<workload>-<seed>.json``,
prints per-layer self-time tables, and reports every per-layer metric.
The last line of standard output is always one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

Set-up time is the median of several fresh processes that each import,
load and warm up, then stop.

Host speed: the benchmark gets a few cores of a host shared with other
tenants, and how fast they run this process moves by a quarter or more
within minutes (CPU time moves with it).  So the timed loop samples the
host's speed with a fixed pure-Python reference loop that shares no code
with ``repro`` -- every ``SAMPLE_EVERY_S`` seconds of ops and after each
block -- and scales each op's time to a host on which that loop takes
``REFERENCE_LOOP_S``; each set-up probe samples it right after set-up.
Every end-to-end time and rate is at that reference speed.  The program
cannot move the reference loop, so a change to the program moves the
figures as it would on a quiet host.  The unscaled latencies and the
sampled speeds are on the details line.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("interactive", "batch")


# -- statistics ---------------------------------------------------------------

def tail(latencies):
    """``(value, percentile, samples)``: the highest percentile with at
    least ten samples beyond it (the 11th-largest value), or the maximum
    when there are fewer than eleven samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    rank = count - 11
    return ordered[rank], 100.0 * (rank + 1) / count, count


def fingerprint(seed, workdir):
    """nproc, Python/numpy versions, checkpoint filesystem, commit, seed."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    fstype, best = "unknown", ""
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) > 2 and workdir.startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, fstype = fields[1], fields[2]
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "checkpoint_fs": fstype, "git_commit": commit or "unknown",
            "seed": seed}


# -- host speed ---------------------------------------------------------------

#: seconds :func:`reference_loop` takes on a host of reference speed
REFERENCE_LOOP_S = 2.5e-3
#: seconds of timed ops between two host-speed samples
SAMPLE_EVERY_S = 0.2


def reference_loop():
    """Seconds a fixed pure-Python loop takes now.  The loop shares no
    code with ``repro``, so only the host's speed moves it."""
    started = perf_counter()
    table = {}
    total = 0.0
    for _ in range(3):
        for index in range(4000):
            key = index % 97
            table[key] = table.get(key, 0.0) + math.sqrt(index + 1.0)
            total += table[key] * 1e-3
        total += sorted(table.items(), key=lambda item: -item[1])[0][1]
    return perf_counter() - started


def host_speed():
    """The host's speed now, relative to the reference: above 1 when
    the reference loop takes less than :data:`REFERENCE_LOOP_S`."""
    return REFERENCE_LOOP_S / reference_loop()


# -- set-up -------------------------------------------------------------------

def _setup(workload, seed):
    """Import, load and warm up; return the ready-to-measure harness and
    its tracer (off until the timed loop turns it on)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import ops
    import tracing
    tracer = tracing.Tracer(False)
    workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    harness = ops.InProcess(workload, ROOT, tracer, workdir)
    harness.setup()
    return tracer, harness, workdir


def setup_probe(workload, seed):
    """Child side of a set-up measurement: set up, say so, sample the
    host's speed, clean up."""
    _, _, workdir = _setup(workload, seed)
    print("ready", flush=True)
    print(host_speed(), flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload, seed, probes):
    """``(seconds, host speed)`` for each of ``probes`` fresh processes:
    the seconds from spawning one until it is ready to run its first
    timed op, and the speed it sampled right after."""
    samples = []
    for _ in range(probes):
        started = perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True)
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - started
            speed = child.stdout.readline()
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append((elapsed, float(speed)))
    return samples


# -- the timed loop -----------------------------------------------------------

def run_loop(harness, tracer, blocks, seconds, traced):
    """Consume whole blocks for ``seconds``.  With ``traced``, odd blocks
    record spans and even blocks run untraced.

    The host's speed is sampled once ops have run for
    :data:`SAMPLE_EVERY_S` since the last sample, and after every block.
    Each op's latency is scaled to reference speed by the mean of the
    samples on either side of it, and a block's rates divide by its
    scaled op time.  The samples stay out of the wall time the traced
    tables account for."""
    modes = {on: {"wall": 0.0, "ops": 0, "latencies": [], "unscaled": [],
                  "points": 0, "rates": [], "speeds": []}
             for on in (False, True)}
    compile_delta = [0.0, 0.0, 0.0]
    speed = host_speed()
    started = perf_counter()
    for index, block in enumerate(blocks):
        if perf_counter() - started >= seconds:
            break
        on = traced and index % 2 == 1
        tracer.enabled = on
        mode = modes[on]
        before = harness.compile_snapshot() if on else None
        block_points, block_wall, block_scaled = 0, 0.0, 0.0
        pending = []    # latencies since the last speed sample
        for position, op in enumerate(block):
            op_start = perf_counter()
            block_points += harness.run(op)
            pending.append(perf_counter() - op_start)
            if sum(pending) < SAMPLE_EVERY_S \
                    and position < len(block) - 1:
                continue
            previous, speed = speed, host_speed()
            factor = (previous + speed) / 2
            mode["speeds"].append(speed)
            mode["unscaled"].extend(pending)
            mode["latencies"].extend(latency * factor
                                     for latency in pending)
            block_wall += sum(pending)
            block_scaled += sum(pending) * factor
            pending = []
        mode["rates"].append((len(block) / block_scaled,
                              block_points / block_scaled))
        mode["ops"] += len(block)
        mode["points"] += block_points
        mode["wall"] += block_wall
        if on:
            after = harness.compile_snapshot()
            for slot in range(3):
                compile_delta[slot] += after[slot] - before[slot]
    tracer.enabled = False
    return modes, compile_delta


def end_to_end(mode, rss_mb):
    """Throughputs are medians over the run's blocks.  Every block holds
    the same op mix and projects the same number of points, so a block's
    rate is a full sample, and the median keeps a few seconds of host
    contention from moving the whole run's figure.  Times are at
    reference host speed; the details keep the unscaled ones."""
    value, percentile, samples = tail(mode["latencies"])
    speeds = mode["speeds"]
    return {"ops_per_s": statistics.median(ops for ops, _ in mode["rates"]),
            "points_per_s": statistics.median(
                points for _, points in mode["rates"]),
            "latency_p50_ms": 1e3 * statistics.median(mode["latencies"]),
            "latency_tail_ms": 1e3 * value,
            "peak_rss_mb": rss_mb}, {
                "tail_percentile": percentile, "tail_samples": samples,
                "host_speed": {"median": statistics.median(speeds),
                               "min": min(speeds), "max": max(speeds),
                               "samples": len(speeds)},
                "unscaled_latency_p50_ms": 1e3 * statistics.median(
                    mode["unscaled"]),
                "unscaled_latency_tail_ms": 1e3 * tail(
                    mode["unscaled"])[0]}


# -- per-layer reporting ------------------------------------------------------

def layer_metrics(tracer, counters, compile_delta):
    """Per-layer metrics from span self times and engine counters."""
    table = tracer.self_times()
    self_s = lambda name: table.get(name, (0.0, 0))[0]   # noqa: E731
    calls = lambda name: table.get(name, (0.0, 0))[1]    # noqa: E731
    count = lambda name: counters.get(name, 0.0)         # noqa: E731
    vectorized = count("symbolic.lanes_vectorized")
    fallback = count("symbolic.lanes_fallback")
    groups = count("lanes.groups")
    points = count("checkpoint.points")
    compiled_s, compiles, hits = compile_delta
    return {
        "skeleton.parse_s": self_s("skeleton.parse"),
        "skeleton.parse_calls": calls("skeleton.parse"),
        "bet.build_s": self_s("bet.build"),
        "bet.build_calls": calls("bet.build"),
        "bet.nodes": count("bet.nodes"),
        "expressions.compile_s": compiled_s,
        "expressions.compile_hit_ratio": (hits / (hits + compiles)
                                          if hits + compiles else 0.0),
        "symbolic.record_s": self_s("symbolic.record"),
        "symbolic.replay_s": self_s("symbolic.replay"),
        "symbolic.replays": count("symbolic.replays"),
        "symbolic.shape_rebuilds": count("symbolic.shape_rebuilds"),
        "symbolic.batch_s": self_s("symbolic.batch"),
        "symbolic.batch_replays": count("symbolic.batch_replays"),
        "symbolic.lanes_vectorized": vectorized,
        "symbolic.lanes_fallback": fallback,
        "symbolic.lane_yield": (vectorized / (vectorized + fallback)
                                if vectorized + fallback else 0.0),
        "analysis.characterize_s": self_s("analysis.characterize"),
        "analysis.project_s": self_s("analysis.project"),
        "analysis.project_batch_s": self_s("analysis.project_batch"),
        "analysis.select_s": self_s("analysis.select"),
        "analysis.hotpath_s": self_s("analysis.hotpath"),
        "lanes.groups": groups,
        "lanes.cells_per_group": vectorized / groups if groups else 0.0,
        "engine.dispatch_s": sum((seconds for name, (seconds, _)
                                  in table.items()
                                  if name.startswith("parallel.")), 0.0),
        "shard.shards": count("shard.shards"),
        "shard.reassigned": count("shard.reassigned"),
        "executors.pool_overhead_s": count("executors.pool_overhead_s"),
        "checkpoint.overhead_s": count("checkpoint.overhead_s"),
        "checkpoint.wchar_bytes": count("checkpoint.wchar_bytes"),
        "checkpoint.write_calls": count("checkpoint.write_calls"),
        "checkpoint.bytes_per_point": (count("checkpoint.wchar_bytes")
                                       / points if points else 0.0),
        "checkpoint.resume_s": count("checkpoint.resume_s"),
        "explore.evaluate_s": self_s("explore.evaluate"),
        "explore.acquire_s": self_s("explore.acquire"),
        "explore.evaluations": count("explore.evaluations"),
    }


def format_table(tracer, wall, lanes=1):
    """The per-layer self-time table, plus the unattributed remainder:
    attributed self time + remainder = ``wall`` x ``lanes``."""
    table = tracer.self_times()
    attributed = sum(seconds for seconds, _ in table.values())
    budget = wall * lanes
    lines = [f"{'layer (span)':<34} {'self_s':>10} {'count':>7} "
             f"{'share':>7}"]
    for name, (seconds, count) in sorted(table.items(),
                                         key=lambda item: -item[1][0]):
        lines.append(f"{name:<34} {seconds:10.4f} {count:7d} "
                     f"{100 * seconds / budget:6.2f}%")
    remainder = budget - attributed
    lines.append(f"{'(unattributed)':<34} {remainder:10.4f} {'':>7} "
                 f"{100 * remainder / budget:6.2f}%")
    label = "= wall" + (f" x {lanes} lanes" if lanes > 1 else "")
    lines.append(f"{label:<34} {budget:10.4f}")
    return "\n".join(lines), remainder


def write_trace(tracers, args):
    spans = [span for tracer in tracers for span in tracer.spans]
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    origin = min((span.start for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(tracers[0].chrome_trace(origin, spans))
    print(f"chrome trace: {os.path.relpath(path, ROOT)} "
          f"({len(spans)} spans)")


# -- checked sections ---------------------------------------------------------

def checkpoint_section(harness, tracer, seed, traced):
    """Checkpointed ops plus resumed reruns (``batch``); traced runs also
    measure the checkpoint layer against the same ops without it."""
    import schedule as sched
    ops = sched.checkpoint_ops(seed)
    tracer.enabled = traced
    started = perf_counter()
    for op in ops:
        harness.run(op)
    tracer.enabled = False
    return {"ops": len(ops), "wall": perf_counter() - started}


def _sustained(server, settings, seed):
    """The highest ladder rung whose tail latency stays under the limit
    with every request answered and no growing backlog."""
    import serve
    best, rungs = 0.0, []
    limit = settings["latency_limit_ms"] / 1e3
    for rate in settings["ladder_rps"]:
        requests = serve.phase_requests(f"{seed}:ladder", rate,
                                        settings["ladder_rung_seconds"])
        records = serve.run_phase(server.port, requests)
        records.sort(key=lambda record: record["due"])
        value, _, _ = tail([r["done"] - r["due"] for r in records])
        waits = [record["sent"] - record["due"] for record in records]
        quarter = max(1, len(waits) // 4)
        growing = (statistics.mean(waits[-quarter:])
                   - statistics.mean(waits[:quarter])) > limit / 2
        answered = all(record["status"] == 200 for record in records)
        held = value <= limit and not growing and answered
        rungs.append({"rps": rate, "tail_ms": 1e3 * value,
                      "backlog_growing": growing, "all_200": answered,
                      "held": held})
        if not held:
            break
        best = float(rate)
    return best, rungs


def serve_section(seed, settings, workdir, traced):
    """Open-loop requests to ``repro serve``, checked byte for byte
    against in-process answers (``interactive``).  Traced runs add a
    traced phase, the ``/statsz`` service counters, the served-versus-
    in-process overhead and the rate ladder."""
    import serve
    import tracing
    tracer = tracing.Tracer(traced)
    server = serve.Server(ROOT, os.path.join(workdir, "server.log"))
    problems, layers = [], {}
    rate, seconds = settings["nominal_rps"], settings["phase_seconds"]
    try:
        server.start()
        server.warm()
        records = serve.run_phase(
            server.port, serve.phase_requests(seed, rate, seconds))
        before = server.get("/statsz")
        if traced:
            traced_records = serve.run_phase(
                server.port, serve.phase_requests(f"{seed}:traced", rate,
                                                  seconds), tracer)
            after = server.get("/statsz")
            sustained, rungs = _sustained(server, settings, seed)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    lateness = max(r["woke"] - r["due"] for r in records)
    if 1e3 * lateness > settings["max_generator_lateness_ms"]:
        problems.append(f"request generator ran {1e3 * lateness:.0f} ms "
                        "late: invalid run")
    reference = serve.Reference()
    ok, _ = serve.check_records(records, reference, problems)
    summary = {"requests": len(records), "ok": len(ok),
               "server_peak_rss_mb": rss_mb,
               "generator_lateness_ms": 1e3 * lateness}
    attempted, failed = len(records), len(records) - len(ok)
    if traced:
        ok_traced, inproc = serve.check_records(traced_records, reference,
                                                problems)
        attempted += len(traced_records)
        failed += len(traced_records) - len(ok_traced)
        overheads = []
        for index, record in enumerate(traced_records):
            if index in inproc:
                overheads.append(record["done"] - record["sent"]
                                 - inproc[index])
                tracer.derive(record["span"], [("service.compute",
                                                inproc[index])])
        wall = (max(r["done"] for r in traced_records)
                - min(r["due"] for r in traced_records))
        table, _ = format_table(tracer, wall, lanes=serve.SLOTS)
        print(f"per-layer self time, served phase ({len(traced_records)} "
              f"requests, {serve.SLOTS} connections):\n{table}")
        print("rate ladder: " + json.dumps(rungs))
        counters = lambda stats: stats.get("counters", {})    # noqa: E731
        delta = lambda name: (counters(after).get(name, 0)    # noqa: E731
                              - counters(before).get(name, 0))
        bet_before = before["caches"]["bet"]["stats"]
        bet_after = after["caches"]["bet"]["stats"]
        hits = bet_after["hits"] - bet_before["hits"]
        misses = bet_after["misses"] - bet_before["misses"]
        layers = {
            "service.overhead_ms": (1e3 * statistics.mean(overheads)
                                    if overheads else 0.0),
            "service.coalesced_ratio": (delta("coalesced_requests")
                                        / delta("sweep_total")
                                        if delta("sweep_total") else 0.0),
            "service.shed_total": float(
                after["queue"].get("shed_total", 0)
                - before["queue"].get("shed_total", 0)),
            "service.degraded_responses": float(
                delta("degraded_responses")),
            "service.cache_hit_ratio": (hits / (hits + misses)
                                        if hits + misses else 0.0),
            "serve_sustained_rps": sustained,
        }
        summary["ladder"] = rungs
    return {"attempted": attempted, "failed": failed,
            "problems": problems, "layers": layers, "summary": summary,
            "tracer": tracer}


# -- main ---------------------------------------------------------------------

ZERO_SERVICE = {"service.overhead_ms": 0.0, "service.coalesced_ratio": 0.0,
                "service.shed_total": 0.0,
                "service.degraded_responses": 0.0,
                "service.cache_hit_ratio": 0.0, "serve_sustained_rps": 0.0}


def measure(args, settings, harness, tracer, blocks, workdir):
    """Run the timed loop and the checked section; return
    ``(metrics, details, attempted, failed, problems)``."""
    traced = bool(args.trace)
    modes, compile_delta = run_loop(harness, tracer, blocks, args.seconds,
                                    traced)
    loop_ops = harness.ops_run
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {}
    attempted = modes[False]["ops"] + modes[True]["ops"]
    problems = []
    failed_extra = 0
    if args.workload == "batch":
        section = checkpoint_section(harness, tracer, args.seed, traced)
        attempted += section["ops"]
        layers = dict(ZERO_SERVICE)
        section_tracers = []
    else:
        section = serve_section(args.seed, settings["serve"], workdir,
                                traced)
        attempted += section["attempted"]
        failed_extra = section["failed"]
        problems += section["problems"]
        details["served"] = section["summary"]
        layers = dict(ZERO_SERVICE, **section["layers"])
        section_tracers = [section["tracer"]]
    details["checked_points"] = harness.verify()
    details["table1_checks"] = harness.counters.get("checks.table1", 0)
    problems = harness.problems + problems
    failed = len(harness.failed_ops) + failed_extra
    details["problems"] = problems[:10]
    if not traced:
        metrics, more = end_to_end(modes[False], rss_mb)
        details.update(more)
        return metrics, details, attempted, failed, problems
    traced_mode = modes[True]
    wall = traced_mode["wall"] + section.get("wall", 0.0)
    table, remainder = format_table(tracer, wall)
    print(f"per-layer self time, {args.workload} (traced blocks and "
          f"checked section):\n{table}")
    differential = sum(span.duration for span in tracer.spans
                       if span.name.startswith("differential.")
                       and span.op <= loop_ops)
    untraced_rate = modes[False]["ops"] / modes[False]["wall"]
    traced_rate = traced_mode["ops"] / max(1e-9, traced_mode["wall"]
                                           - differential)
    metrics = layer_metrics(tracer, harness.counters, compile_delta)
    metrics.update(layers)
    metrics.update({"error_ratio": failed / attempted,
                    "trace.wall_s": wall,
                    "trace.unattributed_s": remainder,
                    "trace.overhead_pct": 100.0 * (untraced_rate
                                                   / traced_rate - 1.0)})
    details.update(untraced_ops_per_s=untraced_rate,
                   traced_ops_per_s=traced_rate)
    write_trace([tracer] + section_tracers, args)
    return metrics, details, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [path for path in ("src/repro/__init__.py",
                                 "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        settings = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    setup_samples = measure_setup(args.workload, args.seed,
                                  settings["setup_probes"])
    tracer, harness, workdir = _setup(args.workload, args.seed)
    import schedule as sched
    blocks = sched.blocks(args.workload, args.seed)
    try:
        metrics, details, attempted, failed, problems = measure(
            args, settings, harness, tracer, blocks, workdir)
        env = fingerprint(args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    del blocks
    env["schedule_sha256"] = sched.schedule_hash(sched.schedule(
        args.workload, args.seed, settings["serve"]["nominal_rps"],
        settings["serve"]["phase_seconds"]))
    if not args.trace:
        metrics["setup_s"] = statistics.median(
            seconds * speed for seconds, speed in setup_samples)
    details.update(setup_probes=setup_samples,
                   error_ratio=failed / attempted)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in wanted}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("details: " + json.dumps(details, sort_keys=True, default=str))
    for name in units:
        print(f"  {name:<32} {metrics[name]:>16.6g} {units[name]}")
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name],
                                 "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

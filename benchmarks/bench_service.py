#!/usr/bin/env python
"""Chaos-driven load harness for the analysis service (ISSUE 9 gate).

Starts a real :class:`repro.service.AnalysisService` on a loopback port
and drives it with a deterministic (seeded) mixed-client schedule:

* well-formed analyze and sweep requests (constant and analytic cache
  models, unary and streaming, four tenants);
* chaos sweeps carrying seeded :class:`ChaosSchedule` specs that kill
  and corrupt shard workers under the request (exact recovery path);
* injected hard executor failures (a seeded window of chunk
  evaluations raises, simulating a broken worker pool) that must trip
  the circuit breaker into degraded serving;
* malformed JSON, oversized bodies, and slow readers that vanish
  mid-stream.

Gates recorded in ``BENCH_service.json`` (all must hold for CI):

* **zero_server_crashes** — the server thread survives, ``/healthz``
  answers 200 afterwards, and no request ever hit the internal-error
  or dispatcher-crash paths;
* **bounded_memory** — the admission queue never exceeded its
  configured limit, the diagnostic sink stayed within its cap, and the
  BET cache stayed within ``maxsize``;
* **responses_exact_or_degraded** — every served sweep point is either
  bit-identical to a direct :func:`sweep_grid` run of the same grid or
  explicitly marked ``degraded`` and bit-identical to the documented
  constant-cache fallback;
* **sheds_well_formed** — every 429 carried a ``Retry-After`` hint and
  a ``SKOP710`` diagnostic;
* **breaker_exercised** — the injected failure window fired, the
  breaker tripped at least once, and degraded answers were actually
  served;
* **throughput_floor** — completed requests per second stayed above a
  conservative floor despite the chaos.

Usage:
    python benchmarks/bench_service.py [--full] [--output PATH]
"""

import argparse
import http.client
import json
import pathlib
import random
import socket
import sys
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bet import build_bet                                 # noqa: E402
from repro.export import grid_point_to_dict                     # noqa: E402
from repro.hardware import machine_by_name                      # noqa: E402
from repro.hardware.cachemodel import (                         # noqa: E402
    RooflineFactory, cache_model_by_name,
)
from repro.parallel import sweep_grid                           # noqa: E402
from repro.service import ServiceConfig, start_in_thread        # noqa: E402
from repro.workloads import load                                # noqa: E402

SEED = 20260808
TENANTS = ("alice", "bob", "carol", "dave")
WORKLOAD = "pedagogical"

GRIDS = {
    "small": {"cores": [8.0, 16.0], "bandwidth": [1e10, 2e10]},
    "medium": {"cores": [8.0, 16.0, 32.0], "bandwidth": [1e10, 2e10]},
    "input": {"input:n": [500.0, 1000.0, 2000.0]},
}

#: normal-path chunk evaluations that raise (simulated broken pool);
#: three consecutive failures >= the breaker threshold below
FAULT_WINDOW = range(6, 12)

CONFIG = ServiceConfig(
    port=0, dispatchers=2, queue_limit=6, tenant_queue_limit=4,
    chunk_cells=4, breaker_threshold=3, breaker_cooldown_s=1.0,
    max_body_bytes=64 * 1024, allow_chaos=True,
    default_deadline_s=60.0)


def reference_points(grid, cache_model):
    """Direct sweep_grid result the service must match bit-for-bit."""
    program, inputs = load(WORKLOAD)
    machine = machine_by_name("bgq")
    model = cache_model_by_name(cache_model)
    factory = RooflineFactory(cache_model=model) if model else None
    has_input = any(name.startswith("input:") for name in grid)
    bet = None if has_input else build_bet(program, inputs=inputs)
    result = sweep_grid(bet, machine, grid, program=program,
                        inputs=inputs, k=10, model_factory=factory)
    return {json.dumps(point["overrides"], sort_keys=True):
            json.dumps(point, sort_keys=True)
            for point in map(grid_point_to_dict, result.points)}


def http_json(port, method, path, body=None, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, dict(response.getheaders()), (
        json.loads(data) if data else {})


def http_stream_summary(port, payload, timeout=60.0):
    """Drive a streaming sweep; return (status, headers, summary)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    conn.request("POST", "/sweep", body=json.dumps(payload).encode())
    response = conn.getresponse()
    last = {}
    for line in response:
        line = line.strip()
        if line:
            last = json.loads(line)
    conn.close()
    return response.status, dict(response.getheaders()), last


# -- the seeded client schedule ------------------------------------------------

def build_schedule(rng, total):
    """A deterministic list of (kind, spec) client actions."""
    schedule = []
    for _ in range(total):
        roll = rng.random()
        tenant = rng.choice(TENANTS)
        if roll < 0.45:
            grid_name = rng.choice(list(GRIDS))
            schedule.append(("sweep", {
                "tenant": tenant,
                "grid": grid_name,
                "cache_model": rng.choice(("constant", "analytic")),
                "stream": rng.random() < 0.3,
            }))
        elif roll < 0.60:
            schedule.append(("analyze", {"tenant": tenant}))
        elif roll < 0.70:
            schedule.append(("chaos_sweep", {
                "tenant": tenant,
                "grid": rng.choice(("small", "medium")),
                "seed": rng.randrange(10_000),
            }))
        elif roll < 0.80:
            schedule.append(("malformed", {
                "body": rng.choice((b"{nope", b"[1,2,3]",
                                    b"null", b"\xff\xfe garbage")),
            }))
        elif roll < 0.90:
            schedule.append(("oversized", {}))
        else:
            schedule.append(("slow_reader", {
                "tenant": tenant,
                "grid": rng.choice(("small", "medium")),
            }))
    return schedule


def run_action(port, kind, spec, outcomes, lock):
    record = {"kind": kind}
    try:
        if kind == "sweep":
            payload = {"workload": WORKLOAD, "tenant": spec["tenant"],
                       "params": GRIDS[spec["grid"]],
                       "cache_model": spec["cache_model"]}
            if spec["stream"]:
                payload["stream"] = True
                status, headers, body = http_stream_summary(
                    port, payload)
            else:
                status, headers, body = http_json(
                    port, "POST", "/sweep",
                    json.dumps(payload).encode())
            record.update(status=status, headers=headers, body=body,
                          grid=spec["grid"],
                          cache_model=spec["cache_model"])
        elif kind == "chaos_sweep":
            payload = {"workload": WORKLOAD, "tenant": spec["tenant"],
                       "params": GRIDS[spec["grid"]],
                       "chaos": {"seed": spec["seed"], "shards": 4,
                                 "kinds": ["kill", "corrupt"],
                                 "events_per_kind": 1}}
            status, headers, body = http_json(
                port, "POST", "/sweep", json.dumps(payload).encode())
            record.update(status=status, headers=headers, body=body,
                          grid=spec["grid"], cache_model="constant")
        elif kind == "analyze":
            status, headers, body = http_json(
                port, "POST", "/analyze",
                json.dumps({"workload": WORKLOAD,
                            "tenant": spec["tenant"]}).encode())
            record.update(status=status, headers=headers, body=body)
        elif kind == "malformed":
            status, headers, body = http_json(
                port, "POST", "/analyze", spec["body"])
            record.update(status=status, headers=headers, body=body)
        elif kind == "oversized":
            status, headers, body = http_json(
                port, "POST", "/sweep", b"x" * (CONFIG.max_body_bytes
                                                + 4096))
            record.update(status=status, headers=headers, body=body)
        elif kind == "slow_reader":
            payload = json.dumps({
                "workload": WORKLOAD, "tenant": spec["tenant"],
                "params": GRIDS[spec["grid"]],
                "stream": True}).encode()
            sock = socket.create_connection(
                ("127.0.0.1", port), timeout=30)
            sock.sendall(b"POST /sweep HTTP/1.1\r\nHost: h\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(payload)
                         + payload)
            sock.recv(128)
            time.sleep(0.05)
            sock.close()
            record.update(status=None)
    except Exception as exc:  # a client error is data, not a crash
        record.update(status=-1, client_error=repr(exc))
    with lock:
        outcomes.append(record)


# -- verification --------------------------------------------------------------

def verify_sweep_responses(outcomes, references, degraded_refs):
    """Every served point must be exact for its model or marked
    degraded and exact for the constant-cache fallback."""
    verified = mismatched = degraded_points = exact_points = 0
    shed = 0
    problems = []
    for record in outcomes:
        if record["kind"] not in ("sweep", "chaos_sweep"):
            continue
        status = record.get("status")
        if status == 429 or status == 503:
            shed += 1
            continue
        if status != 200:
            problems.append(f"sweep got HTTP {status}: "
                            f"{str(record.get('body'))[:200]}")
            continue
        body = record["body"]
        grid_name = record["grid"]
        expected = references[(grid_name, record["cache_model"])]
        fallback = degraded_refs[grid_name]
        points = body.get("points", [])
        failures = body.get("failures", [])
        cells = body.get("cells", 0)
        if len(points) + len(failures) != cells \
                and body.get("status") != "partial":
            problems.append(
                f"{grid_name}: {len(points)} points + "
                f"{len(failures)} failures != {cells} cells")
        for point in points:
            point = dict(point)
            was_degraded = point.pop("degraded", False)
            key = json.dumps(point["overrides"], sort_keys=True)
            want = (fallback if was_degraded else expected).get(key)
            if want == json.dumps(point, sort_keys=True):
                verified += 1
                if was_degraded:
                    degraded_points += 1
                else:
                    exact_points += 1
            else:
                mismatched += 1
                if len(problems) < 5:
                    problems.append(
                        f"{grid_name} point mismatch at {key} "
                        f"(degraded={was_degraded})")
    return {"verified_points": verified, "exact_points": exact_points,
            "degraded_points": degraded_points,
            "mismatched_points": mismatched, "shed_responses": shed,
            "problems": problems}


def bench_warm_restart():
    """Cold vs pre-warmed first-request latency across drain/restart.

    A first server (with ``warm_cache_path``) answers one analyze
    request cold, then drains — snapshotting its cache descriptors.  A
    restarted server pre-warms from the snapshot before accepting
    traffic, so its first request hits hot BET and tape caches.  The
    before/after latencies are recorded; the *gate* is the round-trip
    itself (snapshot written, entries loaded, no errors), not the
    timing, which is host-noise-sensitive.
    """
    import os
    import tempfile
    path = os.path.join(tempfile.mkdtemp(prefix="repro-warm-"),
                        "warm.json")
    timings = {}
    first = start_in_thread(ServiceConfig(
        port=0, dispatchers=1, warm_cache_path=path))
    try:
        started = time.perf_counter()
        status_cold, _, _ = http_json(
            first.port, "POST", "/analyze",
            json.dumps({"workload": WORKLOAD}).encode())
        timings["cold_first_analyze_s"] = time.perf_counter() - started
    finally:
        first.stop()
    second = start_in_thread(ServiceConfig(
        port=0, dispatchers=1, warm_cache_path=path))
    try:
        _, _, stats = http_json(second.port, "GET", "/statsz")
        started = time.perf_counter()
        status_warm, _, _ = http_json(
            second.port, "POST", "/analyze",
            json.dumps({"workload": WORKLOAD}).encode())
        timings["warm_first_analyze_s"] = time.perf_counter() - started
    finally:
        second.stop()
    warm = stats.get("warm_cache", {})
    return {
        **timings,
        "speedup": (timings["cold_first_analyze_s"]
                    / timings["warm_first_analyze_s"]),
        "snapshot_written": os.path.exists(path),
        "entries_loaded": warm.get("loaded", 0),
        "load_errors": warm.get("errors", 0),
        "requests_ok": status_cold == 200 and status_warm == 200,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="4x the request volume")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "BENCH_service.json"))
    args = parser.parse_args(argv)

    total = 480 if args.full else 120
    rng = random.Random(SEED)
    schedule = build_schedule(rng, total)

    # direct references the service must reproduce bit-for-bit
    references = {(grid_name, cache_model):
                  reference_points(grid, cache_model)
                  for grid_name, grid in GRIDS.items()
                  for cache_model in ("constant", "analytic")}
    degraded_refs = {grid_name: references[(grid_name, "constant")]
                     for grid_name in GRIDS}

    handle = start_in_thread(CONFIG)
    service = handle.service

    # inject a hard-failure window into normal-path chunk evaluation:
    # a seeded stretch of consecutive RuntimeErrors (a broken worker
    # pool) that must trip the breaker into degraded serving
    original = service._evaluate_chunk
    call_counter = {"n": 0}
    counter_lock = threading.Lock()
    faults_armed = threading.Event()
    release = threading.Event()
    release.set()
    parked = threading.Semaphore(0)

    def flaky(plan, cells, degraded, chunk_index):
        if not release.is_set():  # saturation phase holds the dispatchers
            parked.release()
            release.wait()
        if not degraded and faults_armed.is_set():
            with counter_lock:
                call_counter["n"] += 1
                call = call_counter["n"]
            if call in FAULT_WINDOW:
                raise RuntimeError(
                    f"injected worker-pool failure #{call}")
        return original(plan, cells, degraded, chunk_index)

    service._evaluate_chunk = flaky

    # monitor: queue depth and breaker state observed during the storm
    monitor = {"max_depth": 0, "states": set(), "stop": False,
               "statsz_errors": 0}

    def watch():
        while not monitor["stop"]:
            try:
                _, _, stats = http_json(handle.port, "GET", "/statsz",
                                        timeout=10)
                monitor["max_depth"] = max(monitor["max_depth"],
                                           stats["queue"]["depth"])
                monitor["states"].add(stats["breaker"]["state"])
            except Exception:
                monitor["statsz_errors"] += 1
            time.sleep(0.05)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()

    outcomes = []
    lock = threading.Lock()

    # -- saturation phase: park every dispatcher mid-chunk, then offer
    # more sweeps than queue + tenant quotas can hold, so load shedding
    # is exercised deterministically.  A dispatcher pulls compatible
    # queued peers into its batch only when it takes a request, so each
    # one is parked on a lone offer before the burst starts.  The 10
    # burst offers then find both dispatchers busy and room in the queue
    # for only queue_limit (6, at most 4 per tenant): at least 4 are
    # shed.  The offers are plain constant-model sweeps, which record
    # only breaker successes, so the storm starts with a closed breaker
    # and no failure streak.
    release.clear()
    saturation_threads = []

    def offer(index):
        thread = threading.Thread(
            target=run_action,
            args=(handle.port, "sweep",
                  {"tenant": TENANTS[index % 2], "grid": "small",
                   "cache_model": "constant", "stream": False},
                  outcomes, lock))
        thread.start()
        saturation_threads.append(thread)

    for index in range(CONFIG.dispatchers):
        offer(index)
        parked.acquire(timeout=15.0)
    for index in range(CONFIG.dispatchers, 12):
        offer(index)
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        with lock:
            finished = len(outcomes)
        if finished >= 4:  # only sheds can complete while held
            break
        time.sleep(0.02)
    release.set()
    for thread in saturation_threads:
        thread.join()

    # -- main storm: seeded mixed clients with the fault window armed
    faults_armed.set()
    started = time.perf_counter()
    pool = []
    for index, (kind, spec) in enumerate(schedule):
        thread = threading.Thread(
            target=run_action,
            args=(handle.port, kind, spec, outcomes, lock))
        thread.start()
        pool.append(thread)
        # eight client lanes, deterministic schedule order
        if len(pool) >= 8:
            pool.pop(0).join()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started
    monitor["stop"] = True
    watcher.join(5.0)

    # post-storm health and stats
    health_status, _, health = http_json(handle.port, "GET",
                                         "/healthz")
    _, _, stats = http_json(handle.port, "GET", "/statsz")
    handle.stop()

    warm_restart = bench_warm_restart()

    verification = verify_sweep_responses(outcomes, references,
                                          degraded_refs)
    by_status = {}
    for record in outcomes:
        by_status[str(record.get("status"))] = (
            by_status.get(str(record.get("status")), 0) + 1)
    ok_responses = by_status.get("200", 0)
    rejects = sum(by_status.get(code, 0)
                  for code in ("400", "411", "413", "431"))
    sheds = [record for record in outcomes
             if record.get("status") == 429]
    sheds_well_formed = bool(sheds) and all(
        int(record["headers"].get("Retry-After", 0)) >= 1
        and any(d.get("code") == "SKOP710"
                for d in record["body"].get("diagnostics", []))
        for record in sheds)

    counters = stats["counters"]
    cache_entries = sum(
        stats["caches"]["bet"]["occupancy"].values())
    throughput = ok_responses / elapsed if elapsed else 0.0

    checks = {
        "zero_server_crashes": (
            health_status == 200
            and counters.get("internal_errors", 0) == 0
            and counters.get("dispatch_errors", 0) == 0),
        "bounded_memory": (
            monitor["max_depth"] <= CONFIG.queue_limit
            and stats["diagnostics_collected"] <= 2000
            and cache_entries <= CONFIG.bet_cache_size),
        "responses_exact_or_degraded": (
            verification["mismatched_points"] == 0
            and verification["verified_points"] > 0
            and not verification["problems"]),
        "sheds_well_formed": sheds_well_formed,
        "breaker_exercised": (
            stats["breaker"]["trips"] >= 1
            and counters.get("executor_failures", 0) >= 1
            and verification["degraded_points"] > 0),
        "malformed_rejected_cleanly": rejects > 0,
        "throughput_floor": throughput >= 2.0,
        "warm_cache_roundtrip": (
            warm_restart["snapshot_written"]
            and warm_restart["entries_loaded"] >= 1
            and warm_restart["load_errors"] == 0
            and warm_restart["requests_ok"]),
    }

    report = {
        "mode": "full" if args.full else "quick",
        "seed": SEED,
        "requests": total,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(throughput, 2),
        "responses_by_status": by_status,
        "verification": {key: value
                         for key, value in verification.items()
                         if key != "problems"},
        "problems": verification["problems"],
        "max_queue_depth": monitor["max_depth"],
        "breaker_states_seen": sorted(monitor["states"]),
        "breaker": stats["breaker"],
        "queue": stats["queue"],
        "counters": counters,
        "health_after": health,
        "warm_restart": warm_restart,
        "checks": checks,
    }
    pathlib.Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    lines = [
        f"analysis service under chaos load ({report['mode']} mode, "
        f"{total} clients, seed {SEED})",
        "",
        f"throughput: {ok_responses} ok in {elapsed:.2f}s "
        f"({throughput:.1f} rps), statuses {by_status}",
        f"verification: {verification['exact_points']} exact + "
        f"{verification['degraded_points']} degraded points, "
        f"{verification['mismatched_points']} mismatched, "
        f"{verification['shed_responses']} shed",
        f"breaker: trips={stats['breaker']['trips']} "
        f"states seen={sorted(monitor['states'])}",
        f"queue: max depth {monitor['max_depth']} / "
        f"{CONFIG.queue_limit}, shed_total="
        f"{stats['queue']['shed_total']}",
        f"slow clients dropped: "
        f"{counters.get('slow_client_drops', 0)}, coalesced batches: "
        f"{counters.get('coalesced_batches', 0)}",
        f"warm restart: cold first analyze "
        f"{warm_restart['cold_first_analyze_s'] * 1e3:.1f}ms vs warm "
        f"{warm_restart['warm_first_analyze_s'] * 1e3:.1f}ms "
        f"({warm_restart['speedup']:.1f}x), "
        f"{warm_restart['entries_loaded']} entries pre-warmed",
    ]
    text = "\n".join(lines)
    print(text)
    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "bench_service.txt").write_text(
        text + "\n", encoding="utf-8")

    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        print(f"\nFAILED gates: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

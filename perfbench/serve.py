"""The served phase of the ``interactive`` workload: an open-loop client
against ``repro serve``.

The server runs as its own process (``python -m repro.cli serve``).  One
client process sends seeded Poisson arrivals through at most ``SLOTS``
concurrent connections from a single asyncio thread; each request is
timed from when it was *due*, so a stall shows in every request queued
behind it.  The generator's own lateness (due -> woke) is recorded, and a
run where it exceeds the limit in ``spec.json`` is invalid.

Response bodies are kept raw during a phase and parsed afterwards, when
every served point is compared byte for byte with the same payload run
in-process (``evaluate_cells`` / ``project_with_model`` / ``explore``).
"""

import asyncio
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import urllib.request
from time import perf_counter, sleep

import schedule as sched
from ops import MACHINES, K, scaled_inputs

from repro import RooflineModel, build_bet
from repro.analysis.sensitivity import project_with_model
from repro.explore import explore
from repro.export import explore_to_dict, grid_point_to_dict
from repro.parallel import evaluate_cells
from repro.workloads import load as load_workload

SLOTS = max(1, min(2, os.cpu_count() or 1))
EXPLORE_COMPARED = ("frontier", "hypervolume", "evaluations",
                    "error_trace", "reference")


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# -- payloads -----------------------------------------------------------------

def payload(request):
    """``(path, body dict)`` of one scheduled request."""
    kind = request["kind"]
    body = {"tenant": request["tenant"], "workload": request["workload"],
            "machine": request["machine"]}
    if kind == "explore":
        body.update(params=request["axes"],
                    objectives=sched.EXPLORE_OBJECTIVES,
                    budget=request["budget"], rounds=request["rounds"],
                    seed=request["seed"])
        return "/explore", body
    workload = request["workload"]
    inputs = scaled_inputs(workload, request["scale"])
    defaults = scaled_inputs(workload, 1.0)
    body["inputs"] = {name: value for name, value in inputs.items()
                      if value != defaults[name]}
    if kind == "analyze":
        return "/analyze", body
    params = dict(request["machine_axes"])
    if kind == "mixed_sweep":
        key = sched.SIZE_INPUT[workload]
        params["input:" + key] = [
            float(max(1, int(round(inputs[key] * scale))))
            for scale in request["input_scales"]]
    body["params"] = params
    return "/sweep", body


class Reference:
    """In-process answers for served payloads, with a BET cache keyed
    like the server's, so served-versus-in-process timing compares the
    same work."""

    def __init__(self):
        self.bets = {}

    def _source(self, body):
        program, inputs = load_workload(body["workload"])
        inputs = dict(inputs, **{name: float(value) for name, value
                                 in body.get("inputs", {}).items()})
        return program, inputs, MACHINES[body["machine"]]

    def _bet(self, program, inputs):
        key = (program.fingerprint(), tuple(sorted(inputs.items())))
        if key not in self.bets:
            self.bets[key] = build_bet(program, inputs=inputs)
        return self.bets[key]

    def answer(self, path, body):
        """``(comparable JSON text, in-process seconds)``."""
        started = perf_counter()
        program, inputs, machine = self._source(body)
        if path == "/analyze":
            projection = project_with_model(self._bet(program, inputs),
                                            RooflineModel(machine), K)
            out = {"runtime_seconds": projection["runtime"],
                   "ranking": list(projection["ranking"][:K]),
                   "top_spot": projection["top_label"],
                   "memory_fraction": projection["memory_fraction"],
                   "completeness": projection.get("completeness", 1.0)}
        elif path == "/sweep":
            names = list(body["params"])
            cells = [dict(zip(names, combo)) for combo in itertools.product(
                *(body["params"][name] for name in names))]
            has_input = any(name.startswith("input:") for name in names)
            bet = None if has_input else self._bet(program, inputs)
            result = evaluate_cells(machine, cells, bet=bet,
                                    program=program, inputs=inputs, k=K,
                                    validate=False)
            out = [grid_point_to_dict(point) for point in result.points]
        else:
            axes = {name: [float(value) for value in values]
                    for name, values in body["params"].items()}
            result = explore(axes, machine, list(body["objectives"]),
                             program=program, inputs=inputs, k=K,
                             budget=min(body["budget"], 128),
                             rounds=min(body["rounds"], 16),
                             seed=body["seed"], workers=1)
            full = explore_to_dict(result)
            out = {name: full[name] for name in EXPLORE_COMPARED}
        text = json.dumps(out, sort_keys=True)
        return text, perf_counter() - started


def served_view(path, response):
    """The part of a served response comparable with :class:`Reference`."""
    if path == "/analyze":
        return json.dumps({name: response[name] for name in (
            "runtime_seconds", "ranking", "top_spot", "memory_fraction",
            "completeness")}, sort_keys=True)
    if path == "/sweep":
        return json.dumps(response["points"], sort_keys=True)
    return json.dumps({name: response[name] for name in EXPLORE_COMPARED},
                      sort_keys=True)


# -- the server process -------------------------------------------------------

class Server:
    def __init__(self, root, log_path):
        self.root = root
        self.log_path = log_path
        self.proc = None
        self.port = None
        self._log = None

    def start(self, timeout=60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.port = _free_port()
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", str(self.port), "--dispatchers",
             str(SLOTS)],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=self._log)
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code "
                                   f"{self.proc.returncode}; see "
                                   f"{self.log_path}")
            try:
                if self.get("/healthz")["status"] == "ok":
                    return
            except OSError:
                sleep(0.02)
        raise RuntimeError("repro serve did not become healthy")

    def get(self, path):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{self.port}{path}", timeout=10) as reply:
            return json.loads(reply.read())

    def post(self, path, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=json.dumps(body).encode(), method="POST")
        with urllib.request.urlopen(request, timeout=60) as reply:
            return json.loads(reply.read())

    def peak_rss_mb(self):
        """The server's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM drains the server; kill it if the drain hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None

    def warm(self):
        """One analyze and one small sweep per workload, sequentially."""
        for workload in sched.WORKLOADS:
            self.post("/analyze", {"workload": workload, "tenant": "warm"})
            self.post("/sweep", {"workload": workload, "tenant": "warm",
                                 "params": {"cores": [8.0, 16.0]}})


# -- the open-loop client -----------------------------------------------------

def _request_bytes(path, body):
    data = json.dumps(body).encode()
    head = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n")
    return head.encode("latin-1") + data


async def _exchange(port, data):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    return raw


def run_phase(port, requests, tracer=None):
    """Send ``[(offset_s, path, body), ...]`` open-loop; return records.

    Each record holds the due, woke, sent and done times, the slot, the
    HTTP status and the raw response body (parsed later).
    """
    prepared = [(offset, path, body, _request_bytes(path, body))
                for offset, path, body in requests]

    async def main():
        slots = asyncio.Queue()
        for slot in range(SLOTS):
            slots.put_nowait(slot)
        origin = perf_counter() + 0.05
        records = []

        async def one(offset, path, body, data):
            due = origin + offset
            await asyncio.sleep(max(0.0, due - perf_counter()))
            woke = perf_counter()
            slot = await slots.get()
            sent = perf_counter()
            try:
                raw = await _exchange(port, data)
                error = None
            except OSError as exc:
                raw, error = b"", repr(exc)
            done = perf_counter()
            slots.put_nowait(slot)
            head, _, payload_bytes = raw.partition(b"\r\n\r\n")
            try:
                status = int(head.split(b" ", 2)[1])
            except (IndexError, ValueError):
                status = -1
            records.append({"path": path, "body": body, "due": due,
                            "woke": woke, "sent": sent, "done": done,
                            "slot": slot, "status": status,
                            "raw": payload_bytes, "error": error})

        await asyncio.gather(*(one(*item) for item in prepared))
        return records

    records = asyncio.run(main())
    if tracer is not None and tracer.enabled:
        for index, record in enumerate(records):
            record["span"] = tracer.record(
                "http" + record["path"].replace("/", "."), record["sent"],
                record["done"], lane=1 + record["slot"], op=index)
    return records


def phase_requests(seed, rate, seconds):
    """``[(offset_s, path, body), ...]`` of one seeded open-loop phase."""
    return [(offset, *payload(request))
            for offset, request in sched.serve_schedule(seed, rate,
                                                        seconds)]


def check_records(records, reference, problems):
    """Parse responses, compare with in-process answers; return
    ``(ok records, in-process seconds per record)``."""
    ok, inproc = [], {}
    cache = {}
    for index, record in enumerate(records):
        path, body = record["path"], record["body"]
        if record["status"] != 200:
            problems.append(f"{path} got HTTP {record['status']} "
                            f"{record['error'] or record['raw'][:120]!r}")
            continue
        response = json.loads(record["raw"])
        if response.get("status") != "ok" or response.get("degraded"):
            problems.append(f"{path} came back {response.get('status')}")
            continue
        key = json.dumps([path, body], sort_keys=True)
        if key not in cache:
            cache[key] = reference.answer(path, body)
        want, seconds = cache[key]
        inproc[index] = seconds
        if served_view(path, response) != want:
            problems.append(f"{path} {body} differs from in-process")
            continue
        ok.append(record)
    return ok, inproc

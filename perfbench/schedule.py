"""Seeded op schedules of the benchmark workloads.

Everything here is plain data built from ``random.Random(seed)``; nothing
imports ``repro``, so the schedule a seed yields cannot depend on the
program under test.  Inputs are expressed as *scale factors* on each
bundled workload's default inputs; ``ops.py`` and ``serve.py`` turn them
into concrete bindings and payloads when they execute an op.

Every schedule is generated in fixed-composition *blocks*: one block
holds the same mix of op kinds for every seed, and only the parameters
inside each op (scales, sizes, orders, sub-seeds) vary.  A run consumes
whole blocks, so the op mix of a run is exact, which keeps medians and
tails from jumping between op kinds from one seed to the next.
"""

import hashlib
import json
import random

WORKLOADS = ("cfd", "chargei", "pedagogical", "sord", "srad", "stassuij")
MACHINES = ("bgq", "xeon")

#: the size-like input of each workload that sweeps and cell lists vary
SIZE_INPUT = {"cfd": "nel", "chargei": "mi", "pedagogical": "n",
              "sord": "nx", "srad": "rows", "stassuij": "ncol"}

#: (workload, machine) pairs with a committed ``results/table1_*.txt``
TABLE1_CASES = (("chargei", "bgq"), ("sord", "bgq"), ("sord", "xeon"),
                ("srad", "bgq"), ("stassuij", "bgq"))

#: five machine signatures for mixed cell lists (overrides on the base)
MACHINE_SIGNATURES = (
    {"bandwidth": 1.0e10, "cores": 8.0},
    {"bandwidth": 2.0e10, "cores": 16.0},
    {"bandwidth": 3.0e10, "cores": 16.0, "frequency_hz": 1.2e9},
    {"bandwidth": 4.0e10, "cores": 32.0},
    {"bandwidth": 6.0e10, "cores": 64.0, "frequency_hz": 2.0e9},
)

#: the explorer's 25 x 8 x 10 x 500 = 10^6-cell space (pedagogical)
EXPLORE_AXES = {
    "bandwidth": [b * 1e9 for b in range(2, 52, 2)],
    "cores": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0],
    "frequency_hz": [f * 1e8 for f in range(8, 28, 2)],
    "input:n": [float(n) for n in range(100, 5100, 10)],
}
EXPLORE_OBJECTIVES = ["runtime", "bandwidth:min"]

TENANTS = ("alice", "bob", "carol", "dave")

#: blocks generated per run: several times what a 30-second run uses
BLOCKS = {"interactive": 250, "batch": 100}


class Deck:
    """Seeded draws that cycle through every (workload, machine) pair
    before repeating one, so a run's workload mix is even."""

    def __init__(self, rng):
        self.rng = rng
        self.cards = []

    def draw(self):
        if not self.cards:
            self.cards = [(workload, machine) for workload in WORKLOADS
                          for machine in MACHINES]
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def _scale(rng):
    """A seeded input scale factor in [0.5, 2], log-uniform."""
    return round(2.0 ** rng.uniform(-1.0, 1.0), 6)


def _machine_axes(rng, bandwidths, cores):
    return {"bandwidth": sorted(rng.sample(
                [b * 1e9 for b in range(4, 68, 4)], bandwidths)),
            "cores": sorted(rng.sample(
                [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0], cores))}


# -- interactive --------------------------------------------------------------

#: point counts of the twelve small sweeps of one interactive block:
#: 8 to 63 (below the engine's 64-point vector threshold), dealt to the
#: sweeps in seeded order so every block projects the same 438 points
SMALL_SWEEP_POINTS = tuple(range(8, 64, 5))


def interactive_block(rng, index):
    """Every (workload, machine) pair once as an analysis and once as a
    small input sweep, in seeded order.  The sweep sizes rotate over the
    pairs from one block to the next, so every twelve blocks give each
    pair each size once: the run's slowest sweeps (the largest sizes on
    the costliest workload) then recur at a fixed rate instead of as
    often as a seed happens to deal them.  Analyses of the first block,
    and a quarter of later ones, run at default inputs (scale 1) so the
    committed Table I rankings are checked in every run."""
    ops = []
    pairs = [(workload, machine) for workload in WORKLOADS
             for machine in MACHINES]
    for slot, (workload, machine) in enumerate(pairs):
        scale = 1.0 if index == 0 or rng.random() < 0.25 else _scale(rng)
        ops.append({"kind": "analysis", "workload": workload,
                    "machine": machine, "scale": scale})
        points = SMALL_SWEEP_POINTS[(slot + index)
                                    % len(SMALL_SWEEP_POINTS)]
        ops.append({"kind": "small_sweep", "workload": workload,
                    "machine": machine,
                    "scales": [_scale(rng) for _ in range(points)],
                    "check": rng.randrange(points)})
    rng.shuffle(ops)
    return ops


# -- batch --------------------------------------------------------------------

def _cells_op(rng, workload, machine, executor):
    return {"kind": "cells", "workload": workload, "machine": machine,
            "cells": 1000, "seed": rng.randrange(2 ** 31),
            "executor": executor, "check": sorted(rng.sample(range(1000), 2))}


def _sweep_op(rng, workload, machine, executor, points):
    return {"kind": "sweep", "workload": workload, "machine": machine,
            "points": points,
            "seed": rng.randrange(2 ** 31), "executor": executor,
            "check": sorted(rng.sample(range(points), 2))}


def _grid_op(rng, workload, machine):
    """A 10 x 5 x 4 = 200-cell machine-only grid."""
    axes = _machine_axes(rng, 10, 5)
    axes["frequency_hz"] = sorted(rng.sample(
        [f * 1e8 for f in range(8, 28, 2)], 4))
    return {"kind": "grid", "workload": workload, "machine": machine,
            "axes": axes, "check": sorted(rng.sample(range(200), 2))}


def batch_block(rng, decks):
    """Three mixed cell lists, two input sweeps (1000 and 4000 points),
    two machine grids and one explore run; one cell list and one sweep go
    to the process pool."""
    cells, sweeps, grids = decks
    # one 1000-point and one 4000-point sweep per block; which of them
    # goes to the pool is seeded
    inline, pooled = rng.sample((1000, 4000), 2)
    ops = [_cells_op(rng, *cells.draw(), None),
           _cells_op(rng, *cells.draw(), None),
           _cells_op(rng, *cells.draw(), "pool"),
           _sweep_op(rng, *sweeps.draw(), None, inline),
           _sweep_op(rng, *sweeps.draw(), "pool", pooled),
           _grid_op(rng, *grids.draw()), _grid_op(rng, *grids.draw()),
           {"kind": "explore", "workload": "pedagogical", "machine": "bgq",
            "budget": 256, "rounds": 4, "seed": rng.randrange(2 ** 31)}]
    rng.shuffle(ops)
    return ops


# -- checkpointed ops ---------------------------------------------------------

def checkpoint_ops(seed):
    """The batch workload's checkpoint check: a checkpointed input sweep
    and a checkpointed mixed cell list at 96 and 160 points, each
    followed by a ``resume=True`` rerun on the same file."""
    rng = random.Random(f"checkpoint:{seed}")
    deck = Deck(rng)
    ops = []
    for points in (96, 160):
        for kind in ("ckpt_sweep", "ckpt_cells"):
            workload, machine = deck.draw()
            ops.append({"kind": kind, "workload": workload,
                        "machine": machine, "points": points,
                        "seed": rng.randrange(2 ** 31),
                        "check": rng.randrange(points)})
    return ops


# -- serve --------------------------------------------------------------------

#: (bandwidths, cores) shapes of the small sweeps of one serve block
SMALL_SWEEP_SHAPES = ((2, 2), (3, 2), (4, 3), (6, 4)) * 2
#: ((bandwidths, cores, inputs), count) of the mixed sweeps of one block:
#: 64 to 512 cells (the server's default ``max_cells_per_request``)
MIXED_SWEEP_SHAPES = (((2, 2, 16), 2), ((4, 2, 16), 1), ((4, 4, 16), 4),
                      ((8, 4, 16), 1))


def _serve_common(rng, kind, deck):
    # each request revisits one of a few input scales, so the server's
    # per-tenant BET cache sees repeats as well as misses
    workload, machine = deck.draw()
    return {"kind": kind, "tenant": rng.choice(TENANTS),
            "workload": workload, "machine": machine,
            "scale": rng.choice((1.0, 0.5, 2.0, _scale(rng)))}


def serve_block(rng, decks):
    """Forty requests from four tenants, in seeded order: 23 ``/analyze``,
    8 small ``/sweep`` (4-24 cells), 8 mixed machine x input ``/sweep``
    (64-512 cells) and one ``/explore``."""
    analyze, small, mixed = decks
    ops = [_serve_common(rng, "analyze", analyze) for _ in range(23)]
    for bandwidths, cores in SMALL_SWEEP_SHAPES:
        op = _serve_common(rng, "small_sweep", small)
        op["machine_axes"] = _machine_axes(rng, bandwidths, cores)
        ops.append(op)
    for ((bandwidths, cores, inputs), count), deck in zip(
            MIXED_SWEEP_SHAPES, mixed):
        for _ in range(count):
            op = _serve_common(rng, "mixed_sweep", deck)
            op["machine_axes"] = _machine_axes(rng, bandwidths, cores)
            scales = set()
            while len(scales) < inputs:
                scales.add(_scale(rng))
            op["input_scales"] = sorted(scales)
            ops.append(op)
    ops.append({"kind": "explore", "tenant": rng.choice(TENANTS),
                "workload": "pedagogical", "machine": "bgq", "budget": 32,
                "rounds": 2, "seed": rng.randrange(2 ** 31),
                "axes": {"bandwidth": EXPLORE_AXES["bandwidth"][::2],
                         "cores": EXPLORE_AXES["cores"],
                         "input:n": EXPLORE_AXES["input:n"][::25]}})
    rng.shuffle(ops)
    return ops


def serve_schedule(seed, rate, seconds):
    """``[(offset_s, request), ...]`` for one open-loop phase.

    Arrivals are a Poisson process at ``rate`` conditioned on its
    expected count: ``round(rate * seconds)`` offsets drawn uniformly over
    the phase and sorted, so every seed offers the same load.  When that
    count is a multiple of the block size the phase holds whole blocks,
    so its request mix is exact too.
    """
    rng = random.Random(f"serve:{seed}:{rate}:{seconds}")
    count = max(1, round(rate * seconds))
    offsets = sorted(round(rng.uniform(0.0, seconds), 6)
                     for _ in range(count))
    decks = [Deck(rng), Deck(rng),
             [Deck(rng) for _ in MIXED_SWEEP_SHAPES]]
    requests = []
    while len(requests) < count:
        requests.extend(serve_block(rng, decks))
    return list(zip(offsets, requests))


# -- entry points -------------------------------------------------------------

_BLOCK = {"interactive": interactive_block, "batch": batch_block}


def blocks(workload, seed):
    """The seeded block list of an in-process workload."""
    rng = random.Random(f"{workload}:{seed}")
    builder = _BLOCK[workload]
    if workload == "interactive":
        return [builder(rng, index) for index in range(BLOCKS[workload])]
    decks = [Deck(rng) for _ in range(3)]
    return [builder(rng, decks) for _ in range(BLOCKS[workload])]


def schedule(workload, seed, serve_rate, serve_seconds):
    """Every op a run of ``workload`` may execute for ``seed``: its timed
    blocks, then the checked section that follows them (the served
    requests after ``interactive``, the checkpointed ops after
    ``batch``)."""
    ops = [op for block in blocks(workload, seed) for op in block]
    if workload == "batch":
        return ops + checkpoint_ops(seed)
    return ops + serve_schedule(seed, serve_rate, serve_seconds)


def schedule_hash(ops):
    """SHA-256 of the canonical JSON of an op list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

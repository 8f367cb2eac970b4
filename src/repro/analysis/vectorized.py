"""Array-batched model projection for the vectorized sweep backend.

:func:`project_batch` is the lane-parallel twin of
:func:`~repro.analysis.sensitivity.project_with_model`.  It evaluates the
timing model once over a blocks × lanes matrix of the recorded tree (one
row per code block, one column per sweep point), folds the block totals
into runtimes and hot-spot times, and assembles one projection dict per
lane.  Every element goes through the scalar pipeline's operations —
same formulas, same poisoning rules, sums in block order through
:func:`~repro.analysis.block_metrics.left_sum`, same hot-spot ordering —
so a non-fallback lane's projection is bit-identical to running
``characterize`` → ``group_blocks`` → ``project_with_model`` on a fresh
scalar build of that point (see DESIGN.md §10).  The machine may vary
across lanes too (a :class:`~repro.hardware.MachineLanes`), over a batch
replay or over one prebuilt tree (:class:`TreeBlocks`), DESIGN.md §15.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Callable, Dict, List, Optional

from .. import arrayops as _aops
from ..bet.nodes import BETNode
from ..bet.symbolic import _metrics_base
from ..hardware.machine import MachineLanes
from ..hardware.metrics import Metrics
from .block_metrics import left_sum

#: hot-spot container kinds excluded as candidates (same as group_blocks)
_CONTAINER_KINDS = ("function", "call")

#: blocks × lanes elements evaluated at once: wide sweeps are projected
#: in lane tiles, so each temporary stays within 64 KiB whatever the lane
#: count (a 4000-lane projection peaks below what a per-block loop over
#: whole lane arrays did)
TILE_ELEMENTS = 1 << 13


class TreeBlocks:
    """A built BET as the rows of a ``lanes``-wide batch.

    What :func:`project_batch` reads of a
    :class:`~repro.bet.symbolic.BatchBET` — blocks in pre-order, their
    ENRs, parallel widths and metric fields — taken from the tree's own
    scalar annotations, the values ``characterize`` reads, so every lane
    sees the same tree and only the machine varies across lanes.
    """

    __slots__ = ("root", "lanes", "bad", "memo", "blocks", "block_enr",
                 "block_width")

    def __init__(self, root: BETNode, lanes: int):
        self.root = root
        self.lanes = lanes
        self.bad = _aops.np.zeros(lanes, dtype=bool)
        self.memo: Dict = {}
        self.blocks = list(root.blocks())
        self.block_enr = [node.enr for node in self.blocks]
        self.block_width = [node.parallel_width() for node in self.blocks]

    @staticmethod
    def metric_fields(node: BETNode):
        return _metrics_base(node.own_metrics)


class _SitePlan:
    """The hot-spot candidates of one recorded tree, sorted by site.

    ``sites`` and ``labels`` are object arrays (the label is that of the
    site's first block in pre-order).  ``steps[r]`` pairs the positions
    of the sites with more than ``r`` blocks with the row of each one's
    ``r``-th block, so adding step by step from zero folds every site's
    blocks in block order, all sites at once.
    """

    __slots__ = ("sites", "labels", "steps")

    def __init__(self, blocks):
        np = _aops.np
        rows: Dict[str, List[int]] = {}
        labels: Dict[str, str] = {}
        for row, node in enumerate(blocks):
            if node.kind in _CONTAINER_KINDS:
                continue
            site = node.site
            if site not in rows:
                rows[site] = []
                labels[site] = node.label
            rows[site].append(row)
        sites = sorted(rows)
        self.sites = np.array(sites, dtype=object)
        self.labels = np.array([labels[site] for site in sites],
                               dtype=object)
        self.steps = []
        for rank in range(max(map(len, rows.values()), default=0)):
            deep = [position for position, site in enumerate(sites)
                    if len(rows[site]) > rank]
            self.steps.append((
                slice(None) if len(deep) == len(sites)
                else np.array(deep, dtype=np.intp),
                np.array([rows[sites[position]][rank] for position in deep],
                         dtype=np.intp)))


class _TableLayout:
    """Where a batch's per-block values land in the ``(14, blocks,
    lanes)`` table of :func:`_block_totals`, for one pattern of value
    types.

    The values arrive block-major (each block's twelve metric fields,
    then every block's ENR, then every block's parallel width); rows of
    the table are field-major.  ``scalar_rows``/``array_rows`` give the
    rows of the scalar and the lane-array values, in arrival order, and
    the masks pick those values out of the arrival list.
    """

    __slots__ = ("types", "scalar_mask", "array_mask", "scalar_rows",
                 "array_rows")

    def __init__(self, types, blocks: int):
        np = _aops.np
        rows = [field * blocks + block for block in range(blocks)
                for field in range(12)]
        rows.extend(range(12 * blocks, 14 * blocks))
        self.types = types
        self.array_mask = [kind is np.ndarray for kind in types]
        self.scalar_mask = [not lane for lane in self.array_mask]
        self.scalar_rows = np.array(list(compress(rows, self.scalar_mask)),
                                    dtype=np.intp)
        self.array_rows = np.array(list(compress(rows, self.array_mask)),
                                   dtype=np.intp)


def _block_columns(batch):
    """``(layout, scalars, arrays)``: every per-block value of the batch
    split by its :class:`_TableLayout` (cached per type pattern in the
    batch's memo)."""
    np = _aops.np
    values = [*chain.from_iterable(map(batch.metric_fields, batch.blocks)),
              *batch.block_enr, *batch.block_width]
    types = list(map(type, values))
    layout = batch.memo.get(_TableLayout)
    if layout is None or layout.types != types:
        layout = batch.memo[_TableLayout] = _TableLayout(
            types, len(batch.blocks))
    return (layout,
            np.fromiter(compress(values, layout.scalar_mask), np.float64),
            list(compress(values, layout.array_mask)))


def _block_totals(batch, model, columns, lo: int, hi: int):
    """``(3, blocks, hi - lo)``: each block's whole-run total, memory and
    overlap time for lanes ``lo:hi`` — characterize's arithmetic on
    ``(blocks, lanes)`` matrices, with the same zeroing of non-finite
    (poisoned) elements.  ``model`` is the model of those lanes."""
    np = _aops.np
    machine = model.machine
    layout, scalars, arrays = columns
    blocks = len(batch.blocks)
    table = np.empty((14 * blocks, hi - lo))
    table[layout.scalar_rows] = scalars[:, None]
    if arrays:
        if hi - lo < batch.lanes:
            arrays = [values[lo:hi] for values in arrays]
        table[layout.array_rows] = np.concatenate(arrays).reshape(
            len(arrays), hi - lo)
    table = table.reshape(14, blocks, hi - lo)
    time = model.block_time(Metrics._raw(*table[:12]))
    enr, width = table[12], table[13]
    compute_speedup = np.minimum(machine.cores, width)
    memory_speedup = np.minimum(compute_speedup,
                                machine.bandwidth_saturation_cores)
    total_compute = time.compute * enr / compute_speedup
    total_memory = time.memory * enr / memory_speedup
    serial_min = np.minimum(time.compute, time.memory)
    positive = serial_min > 0
    overlap_fraction = np.where(
        positive, time.overlap / np.where(positive, serial_min, 1.0), 0.0)
    total_overlap = np.minimum(total_compute, total_memory) \
        * overlap_fraction
    total = total_compute + total_memory - total_overlap
    finite = (np.isfinite(time.compute) & np.isfinite(time.memory)
              & np.isfinite(time.overlap) & np.isfinite(enr)
              & np.isfinite(total))
    out = np.empty((3, blocks, hi - lo))
    out[0] = total
    out[1] = total_memory
    out[2] = total_overlap
    return np.where(finite, out, 0.0)


def project_batch(batch, factory: Callable, machine, k: int = 10
                  ) -> List[Optional[Dict]]:
    """Project every lane of a :class:`~repro.bet.symbolic.BatchBET` (or
    a :class:`TreeBlocks`) on ``factory(machine)``.

    Returns one ``project_with_model``-shaped dict per lane, in lane
    order; lanes in the batch's ``bad`` mask get ``None`` (the caller
    re-binds them through the scalar path).  ``factory`` builds a
    block-time model whose arithmetic is shape-polymorphic
    (RooflineModel and ECMModel both are): the model is called once per
    tile of up to
    :data:`TILE_ELEMENTS` blocks × lanes, with every metric field a
    ``(blocks, lanes)`` array.  ``machine`` is one
    :class:`~repro.hardware.MachineModel` for every lane, or a
    :class:`~repro.hardware.MachineLanes` with one machine per lane; then
    each tile's model is built over that tile's slice of the columns.
    """
    np = _aops.np
    plan = batch.memo.get(_SitePlan)
    if plan is None:
        plan = batch.memo[_SitePlan] = _SitePlan(batch.blocks)
    columns = _block_columns(batch)
    report = getattr(batch.root, "meta", None)
    completeness = getattr(report, "completeness", 1.0)
    bad = batch.bad.tolist()
    spots = len(plan.sites)
    top = min(k, spots)
    results: List[Optional[Dict]] = []
    tile = max(1, TILE_ELEMENTS // len(batch.blocks))
    lanes_machine = isinstance(machine, MachineLanes)
    model = None if lanes_machine else factory(machine)
    with np.errstate(all="ignore"):
        for lo in range(0, batch.lanes, tile):
            hi = min(batch.lanes, lo + tile)
            lanes = np.arange(hi - lo)
            if lanes_machine:
                model = factory(machine.tile(lo, hi))
            totals = _block_totals(batch, model, columns, lo, hi)
            runtime = left_sum(totals[0])
            # each site's blocks folded in block order (rows of ``per``:
            # projected time, memory time, overlap time)
            per = np.zeros((3, spots, hi - lo))
            for positions, rows in plan.steps:
                per[:, positions] += totals[:, rows]
            # group_blocks's order per lane: rows pre-sorted by site plus
            # a stable descending-time argsort reproduce the scalar key
            # ``(-projected_time, site)``
            order = np.argsort(-per[0], axis=0, kind="stable")
            ranked = np.stack((per[0], per[1] - per[2]))[:, order, lanes]
            # zero-time spots cannot be hot; positive times lead the
            # descending order, so each lane's ranking is a prefix of it
            counts = np.count_nonzero(ranked[0] > 0, axis=0)
            # the top-k spots' times and memory times, folded in rank
            # order; ranks past a lane's count add 0.0, which changes
            # nothing
            taken = np.arange(top)[:, None] < counts
            hot_total, hot_memory = left_sum(
                np.where(taken, ranked[:, :top], 0.0).swapaxes(0, 1))
            hot = hot_total != 0
            fraction = np.where(
                hot, hot_memory / np.where(hot, hot_total, 1.0), 0.0)
            runtime_row = runtime.tolist()
            fraction_row = fraction.tolist()
            counts_row = counts.tolist()
            names = plan.sites[order].T.tolist()
            firsts = plan.labels[order[0]].tolist() if spots \
                else ["-"] * (hi - lo)
            for col in range(hi - lo):
                projection = None
                if not bad[lo + col]:
                    count = counts_row[col]
                    projection = {
                        "runtime": runtime_row[col],
                        "ranking": names[col][:count],
                        "top_label": firsts[col] if count else "-",
                        "memory_fraction": fraction_row[col],
                        "completeness": completeness,
                    }
                results.append(projection)
    return results

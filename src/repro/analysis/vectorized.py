"""Array-batched model projection for the vectorized sweep backend.

:func:`project_batch` is the lane-parallel twin of
:func:`~repro.analysis.sensitivity.project_with_model`: it walks the
recorded tree once, evaluates the timing model on lane-array metrics
(one lane per sweep point), and assembles one projection dict per lane.
Every arithmetic step mirrors the scalar pipeline operation-for-operation
— same accumulation order, same poisoning rules, same hot-spot ordering —
so a non-fallback lane's projection is bit-identical to running
``characterize`` → ``group_blocks`` → ``project_with_model`` on a fresh
scalar build of that point (see DESIGN.md §10).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .. import arrayops as _aops
from ..arrayops import is_array, vmin
from ..hardware.metrics import Metrics

#: hot-spot container kinds excluded as candidates (same as group_blocks)
_CONTAINER_KINDS = ("function", "call")


def _lanes(value, count: int):
    """Broadcast an input-independent scalar to a full lane column."""
    if is_array(value):
        return value
    return _aops.np.full(count, value, dtype=_aops.np.float64)


def project_batch(batch, model, k: int = 10,
                  out: Optional[List[Optional[Dict]]] = None
                  ) -> List[Optional[Dict]]:
    """Project every lane of a :class:`~repro.bet.symbolic.BatchBET`.

    Returns one ``project_with_model``-shaped dict per lane; lanes in the
    batch's ``bad`` mask get ``None`` (the caller re-binds them through
    the scalar path).  ``model`` is any block-time model whose arithmetic
    is shape-polymorphic (RooflineModel and ECMModel both are).

    When the batch carries a non-contiguous ``lane_index`` map and the
    caller passes ``out`` (a pre-sized mutable list), each lane's
    projection is additionally scattered to ``out[lane_index[i]]`` —
    ``None`` for bad lanes — so a lane group gathered from a
    heterogeneous cell list lands back in original cell order without a
    caller-side permutation pass.  Without a ``lane_index``, lanes
    scatter to their own position.
    """
    np = _aops.np
    lanes = batch.lanes
    machine = model.machine

    # -- per-block projection (characterize's arithmetic, lane-wise) ----
    runtime = 0                      # matches sum()'s int start
    spot_sites: List[str] = []       # first-appearance order
    spot_labels: List[str] = []
    spot_proj: Dict[str, object] = {}
    spot_mem: Dict[str, object] = {}
    spot_ovl: Dict[str, object] = {}

    with np.errstate(all="ignore"):
        for node in batch.root.blocks():
            metrics = Metrics._raw(*batch.metric_fields(node))
            time = model.block_time(metrics)
            enr = batch.enr(node)
            width = batch.parallel_width(node)
            compute_speedup = vmin(machine.cores, width)
            memory_speedup = vmin(compute_speedup,
                                  machine.bandwidth_saturation_cores)
            total_compute = time.compute * enr / compute_speedup
            total_memory = time.memory * enr / memory_speedup
            serial_min = vmin(time.compute, time.memory)
            if is_array(serial_min) or is_array(time.overlap):
                positive = serial_min > 0
                denom = np.where(positive, serial_min, 1.0)
                overlap_fraction = np.where(positive,
                                            time.overlap / denom, 0.0)
            else:
                overlap_fraction = (time.overlap / serial_min
                                    if serial_min > 0 else 0.0)
            total_overlap = (vmin(total_compute, total_memory)
                             * overlap_fraction)
            total = total_compute + total_memory - total_overlap
            # poisoning: a lane with any non-finite quantity contributes
            # zero to every total, exactly like the scalar characterize
            if (is_array(total) or is_array(time.overlap)
                    or is_array(enr)):
                finite = (np.isfinite(time.compute)
                          & np.isfinite(time.memory)
                          & np.isfinite(time.overlap)
                          & np.isfinite(enr) & np.isfinite(total))
                total = np.where(finite, total, 0.0)
                total_memory = np.where(finite, total_memory, 0.0)
                total_overlap = np.where(finite, total_overlap, 0.0)
            elif not (math.isfinite(time.compute)
                      and math.isfinite(time.memory)
                      and math.isfinite(time.overlap)
                      and math.isfinite(enr) and math.isfinite(total)):
                total = total_memory = total_overlap = 0.0
            runtime = runtime + total
            if node.kind in _CONTAINER_KINDS:
                continue
            site = node.site
            if site not in spot_proj:
                spot_sites.append(site)
                spot_labels.append(node.label)
                spot_proj[site] = spot_mem[site] = spot_ovl[site] = 0
            spot_proj[site] = spot_proj[site] + total
            spot_mem[site] = spot_mem[site] + total_memory
            spot_ovl[site] = spot_ovl[site] + total_overlap

        # -- hot-spot ordering (group_blocks's sort key, per lane) ------
        # pre-sort rows by ascending site, then a stable descending-time
        # argsort reproduces the scalar key ``(-projected_time, site)``
        by_site = sorted(range(len(spot_sites)),
                         key=lambda i: spot_sites[i])
        sites = [spot_sites[i] for i in by_site]
        labels = [spot_labels[i] for i in by_site]
        if sites:
            proj = np.stack([_lanes(spot_proj[s], lanes) for s in sites])
            memd = np.stack(
                [_lanes(spot_mem[s] - spot_ovl[s], lanes) for s in sites])
            order = np.argsort(-proj, axis=0, kind="stable")
            proj_rows = proj.T.tolist()
            memd_rows = memd.T.tolist()
            order_rows = order.T.tolist()
        runtime_row = _lanes(runtime, lanes).tolist()

    report = getattr(batch.root, "meta", None)
    completeness = getattr(report, "completeness", 1.0)
    bad = batch.bad
    lane_index = getattr(batch, "lane_index", None)

    def scatter(lane: int, projection: Optional[Dict]) -> None:
        if out is None:
            return
        target = lane_index[lane] if lane_index is not None else lane
        out[target] = projection

    # -- per-lane assembly (pure Python floats: scalar sum semantics) ---
    results: List[Optional[Dict]] = []
    for lane in range(lanes):
        if bad[lane]:
            results.append(None)
            scatter(lane, None)
            continue
        ranking: List[str] = []
        top_label = "-"
        hot_total = 0
        hot_memory = 0
        taken = 0
        if sites:
            row_p = proj_rows[lane]
            row_m = memd_rows[lane]
            for pos in order_rows[lane]:
                p = row_p[pos]
                if not p > 0:        # zero-time spots cannot be hot
                    continue
                if not ranking:
                    top_label = labels[pos]
                ranking.append(sites[pos])
                if taken < k:
                    hot_total = hot_total + p
                    hot_memory = hot_memory + row_m[pos]
                    taken += 1
        projection = {
            "runtime": runtime_row[lane],
            "ranking": ranking,
            "top_label": top_label,
            "memory_fraction": (hot_memory / hot_total
                                if hot_total else 0.0),
            "completeness": completeness,
        }
        results.append(projection)
        scatter(lane, projection)
    return results

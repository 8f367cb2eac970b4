"""Per-block performance characterization (paper Sec. V-A).

Every BET code block (function mount, loop, branch arm, library call) gets a
:class:`BlockRecord` holding its per-invocation metrics, the roofline's
:class:`~repro.hardware.roofline.BlockTime`, and the whole-run total
``time.total × ENR``.  Because leaf statements fold into exactly one block,
summing record totals partitions the projected runtime.
"""

from __future__ import annotations

import builtins
import math
import operator
import sys
from dataclasses import dataclass
from functools import partial, reduce
from typing import Iterable, List, Optional

import numpy as np

from ..bet.nodes import BETNode
from ..diagnostics import Diagnostic, DiagnosticSink
from ..hardware.metrics import Metrics
from ..hardware.roofline import BlockTime


@dataclass(slots=True)
class BlockRecord:
    """One BET code block with its projected timing.

    ``total_*`` fields are whole-run *wall-clock* seconds: for blocks under
    a ``forall`` loop, the work (``time × enr``) is spread over the node's
    cores — compute scales with the concurrency, memory time stops
    improving at the machine's bandwidth-saturation core count, and the
    overlapped share keeps its per-invocation proportion.
    """

    node: BETNode
    metrics: Metrics          #: per-invocation metrics
    time: BlockTime           #: per-invocation roofline projection
    total: float              #: whole-run wall seconds
    total_compute: float
    total_memory: float
    total_overlap: float
    concurrency: float = 1.0  #: cores exploited by this block
    poisoned: bool = False    #: projection was non-finite; totals zeroed
    poison_reason: str = ""   #: which quantity went non-finite, and how

    @property
    def site(self) -> str:
        return self.node.site

    @property
    def label(self) -> str:
        return self.node.label

    @property
    def enr(self) -> float:
        return self.node.enr


def _poison_reason(time: BlockTime, enr: float, total: float) -> str:
    """Name the first non-finite quantity in a block projection, or ''.

    Checked in dependency order so the reason points at the *cause*
    (a NaN per-invocation time) rather than a symptom (the NaN total
    it propagates into).
    """
    for label, value in (("per-invocation compute time", time.compute),
                         ("per-invocation memory time", time.memory),
                         ("per-invocation overlap time", time.overlap),
                         ("expected repetitions (ENR)", enr),
                         ("whole-run total", total)):
        if not math.isfinite(value):
            return f"{label} is {value!r}"
    return ""


def characterize(root: BETNode, roofline,
                 sink: Optional[DiagnosticSink] = None) -> List[BlockRecord]:
    """Project the wall time of every code block in the BET.

    ``roofline`` is any object with ``machine`` and
    ``block_time(metrics) -> BlockTime`` (RooflineModel, ECMModel, ...).
    Returns records in pre-order; blocks whose ENR is zero are included
    with zero totals so reports stay complete.

    A block whose projection is non-finite (NaN or infinite metrics,
    times, or ENR) is **poisoned** rather than propagated: its totals
    are zeroed so whole-run sums stay finite, the record carries
    ``poisoned=True`` with a ``poison_reason`` naming the offending
    quantity, and — when ``sink`` is given — a ``SKOP501`` diagnostic
    records the provenance (see DESIGN.md Sec. 9).
    """
    machine = roofline.machine
    records: List[BlockRecord] = []
    for node in root.blocks():
        metrics = node.own_metrics
        time = roofline.block_time(metrics)
        width = node.parallel_width()
        compute_speedup = min(machine.cores, width)
        memory_speedup = min(compute_speedup,
                             machine.bandwidth_saturation_cores)
        total_compute = time.compute * node.enr / compute_speedup
        total_memory = time.memory * node.enr / memory_speedup
        serial_min = min(time.compute, time.memory)
        overlap_fraction = time.overlap / serial_min if serial_min > 0 \
            else 0.0
        total_overlap = min(total_compute, total_memory) * overlap_fraction
        total = total_compute + total_memory - total_overlap
        reason = _poison_reason(time, node.enr, total)
        if reason:
            if sink is not None:
                sink.add(Diagnostic(
                    code="SKOP501",
                    message=f"block {node.label} has a non-finite "
                            f"projection: {reason}; its time is excluded "
                            f"from totals",
                    severity="warning", site=node.site, phase="project",
                    hint="check the block's metrics expressions for "
                         "overflow or division by zero"))
            records.append(BlockRecord(
                node=node, metrics=metrics, time=time,
                total=0.0, total_compute=0.0, total_memory=0.0,
                total_overlap=0.0, concurrency=compute_speedup,
                poisoned=True, poison_reason=reason))
            continue
        records.append(BlockRecord(
            node=node, metrics=metrics, time=time,
            total=total,
            total_compute=total_compute,
            total_memory=total_memory,
            total_overlap=total_overlap,
            concurrency=compute_speedup))
    return records


#: the builtin ``sum`` is a left fold up to CPython 3.11, and several
#: times cheaper per term than ``reduce``; from 3.12 it compensates float
#: rounding instead
_fold = (builtins.sum if sys.version_info < (3, 12)
         else partial(reduce, operator.add))


def left_sum(terms: Iterable, start=0):
    """``start + t0 + t1 + ...``, added strictly left to right.

    The builtin ``sum`` adds floats this way up to CPython 3.11; from
    3.12 it compensates their rounding (Neumaier), which the batch
    route's lane-array adds cannot reproduce.  Every projected time is
    summed through here, on both routes, so they agree bit for bit on
    any CPython.  Terms may be lane arrays; an array of terms is folded
    along its first axis in one ``np.add.accumulate``, which adds in
    the same order.
    """
    if isinstance(terms, np.ndarray):
        first = np.broadcast_to(start, (1,) + terms.shape[1:])
        return np.add.accumulate(np.concatenate((first, terms)))[-1]
    return _fold(terms, start)


def total_time(records: List[BlockRecord]) -> float:
    """Whole-run projected time: the sum over the block partition."""
    return left_sum(record.total for record in records)

"""An ECM-style alternative performance model (paper Sec. VIII).

"Our execution flow modeling is independent of hardware performance models.
In this paper, we use the roofline model ... However, more sophisticated
models can be used."  This module demonstrates that independence with a
simplified Execution-Cache-Memory (ECM) model: any object exposing
``block_time(metrics) -> BlockTime`` plugs into
:func:`~repro.analysis.characterize` unchanged.

The ECM view decomposes a block into:

* ``T_core`` — arithmetic cycles at the core's issue rate (with the same
  optional division/vectorization switches as the roofline);
* ``T_nOL`` — non-overlappable load/store issue cycles;
* per-level line-transfer terms ``T_L1L2`` and ``T_L2Mem`` derived from the
  machine's latencies, memory-level parallelism, and DRAM bandwidth, using
  the same constant miss ratio as the paper's first-order roofline;

and predicts ``T = max(T_core, T_nOL + T_L1L2 + T_L2Mem)`` — the classic
ECM single-core composition where data transfers overlap with arithmetic
but not with each other.
"""

from __future__ import annotations

from ..arrayops import is_array, vmax, vmin, vwhere
from ..errors import HardwareModelError
from .machine import MachineModel, ensure_valid_machine
from .metrics import Metrics
from .roofline import DEFAULT_MISS_RATE, BlockTime


class ECMModel:
    """Simplified Execution-Cache-Memory block-time model.

    Parameters mirror :class:`~repro.hardware.RooflineModel` so experiment
    drivers can swap models without other changes.
    """

    def __init__(self, machine: MachineModel,
                 miss_rate: float = DEFAULT_MISS_RATE,
                 model_division: bool = False,
                 model_vectorization: bool = False,
                 cache_model=None):
        if not (0.0 <= miss_rate <= 1.0):
            raise HardwareModelError(
                f"miss_rate must be within [0, 1], got {miss_rate}")
        # same pre-flight gate as the roofline: degenerate bandwidth or
        # peak-flops fields fail loudly with the field name
        ensure_valid_machine(machine)
        self.machine = machine
        self.miss_rate = miss_rate
        self.model_division = model_division
        self.model_vectorization = model_vectorization
        #: optional per-level hit-fraction predictor
        #: (:mod:`repro.hardware.cachemodel`); ``None`` keeps the
        #: constant-ratio path bit-identical to previous releases
        self.cache_model = cache_model

    # -- components ------------------------------------------------------
    def core_cycles(self, metrics: Metrics) -> float:
        """T_core: arithmetic-only cycles."""
        machine = self.machine
        plain = metrics.flops
        cycles = 0.0
        if self.model_division:
            plain = plain - metrics.div_flops   # never in place on lanes
            cycles += metrics.div_flops * machine.div_cost
        if self.model_vectorization:
            vec = metrics.vec_flops
            if is_array(vec) or is_array(plain):
                # lane-wise twin: lanes without vectorizable flops add 0.0
                vectorized = vwhere(vec > 0, vmin(vec, plain), 0.0)
                plain = plain - vectorized
                cycles = (cycles
                          + vectorized / machine.vector_flops_per_cycle)
            elif vec > 0:
                vectorized = min(vec, plain)
                plain -= vectorized
                cycles += vectorized / machine.vector_flops_per_cycle
        cycles += plain / machine.scalar_flops_per_cycle
        cycles += metrics.iops * machine.iop_latency / machine.issue_width
        return cycles

    def data_cycles(self, metrics: Metrics) -> float:
        """T_nOL + T_L1L2 + T_L2Mem: the serialized data-path cycles."""
        machine = self.machine
        if self.cache_model is not None:
            f_l1, f_llc, f_dram = self.cache_model.fractions(metrics,
                                                             machine)
            t_nol = metrics.accesses / machine.issue_width
            # L1 misses (LLC- or DRAM-served) cross the L1–L2 link;
            # DRAM-served bytes additionally cross the L2–memory link
            l2_lines = ((f_llc + f_dram) * metrics.total_bytes
                        / machine.cache_line)
            mem_lines = f_dram * metrics.total_bytes / machine.cache_line
            t_l1l2 = l2_lines * machine.llc_latency / machine.mlp
            latency_term = mem_lines * machine.dram_latency / machine.mlp
            bandwidth_term = (f_dram * metrics.total_bytes
                              * machine.frequency_hz / machine.bandwidth)
            return t_nol + t_l1l2 + vmax(latency_term, bandwidth_term)
        miss = self.miss_rate
        # L1 load/store issue slots (non-overlappable part)
        t_nol = metrics.accesses / machine.issue_width
        # line transfers between levels at the constant miss ratio
        l2_lines = metrics.total_bytes * miss / machine.cache_line
        mem_lines = metrics.total_bytes * miss * miss / machine.cache_line
        t_l1l2 = l2_lines * machine.llc_latency / machine.mlp
        latency_term = mem_lines * machine.dram_latency / machine.mlp
        bandwidth_term = (metrics.total_bytes * miss * miss
                          * machine.frequency_hz / machine.bandwidth)
        t_l2mem = vmax(latency_term, bandwidth_term)
        return t_nol + t_l1l2 + t_l2mem

    # -- combined ----------------------------------------------------------
    def block_time(self, metrics: Metrics) -> BlockTime:
        """``T = max(T_core, T_data)`` with the data path serialized.

        Like the roofline, accepts array-shaped metrics fields and then
        returns a lane-shaped :class:`BlockTime`.
        """
        cycle_time = self.machine.cycle_time
        compute = self.core_cycles(metrics) * cycle_time
        memory = self.data_cycles(metrics) * cycle_time
        total = vmax(compute, memory)
        overlap = compute + memory - total   # == min(compute, memory)
        return BlockTime(compute=compute, memory=memory, overlap=overlap,
                         total=total)

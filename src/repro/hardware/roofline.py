"""The extended roofline model (paper Sec. V-A).

Given a block's :class:`~repro.hardware.metrics.Metrics`, the model computes

* ``Tc`` — time to process the operations at the machine's (scalar) issue
  rate, assuming perfect instruction-level parallelism;
* ``Tm`` — time to move the required data, as the maximum of a bandwidth
  bound (DRAM traffic under a constant cache-miss ratio) and a latency bound
  (average access cost divided by the machine's memory-level parallelism);
* ``To`` — overlapped time, ``min(Tc, Tm) · δ`` with
  ``δ = 1 − 1/max(Num_fp_ops, 1)`` (reconstruction of the paper's corrupted
  formula; see DESIGN.md §2) — the chance of overlap grows with the number
  of floating-point operations in the block;

and reports ``T = Tc + Tm − To``.

Two ablation switches deliberately default to *off* because the paper's
first-order model ignores them (and Sec. VII-B documents the resulting
errors): ``model_division`` charges the machine's per-division cost, and
``model_vectorization`` lets vectorizable flops use the SIMD ceiling.
"""

from __future__ import annotations

from typing import NamedTuple

from ..arrayops import is_array, vmax, vmin, vwhere
from ..errors import HardwareModelError
from .cachemodel import DEFAULT_MISS_RATE
from .machine import MachineModel, ensure_valid_machine
from .metrics import Metrics

__all__ = ["DEFAULT_MISS_RATE", "BlockTime", "RooflineModel"]


class BlockTime(NamedTuple):
    """Projected timing of one invocation of a code block (seconds).

    A named tuple rather than a (frozen) dataclass: sweeps construct one
    per block per point, and tuple construction is several times cheaper
    than ``object.__setattr__``-based frozen-dataclass init — same
    immutability, same field access.
    """

    compute: float      #: Tc
    memory: float       #: Tm
    overlap: float      #: To
    total: float        #: T = Tc + Tm − To

    # Fields are floats on the scalar path and 1-D lane arrays when the
    # vector sweep backend projects a whole input sweep at once; the
    # arithmetic below is shape-polymorphic either way.

    @property
    def bound(self) -> str:
        """``"compute"`` or ``"memory"`` — which term dominates.

        Lane-shaped BlockTimes (from the vector sweep backend) yield an
        array with one ``"compute"``/``"memory"`` label per lane; the
        scalar comparison would raise the ambiguous-truth-value error.
        """
        if is_array(self.compute) or is_array(self.memory):
            return vwhere(self.compute >= self.memory, "compute", "memory")
        return "compute" if self.compute >= self.memory else "memory"

    def scaled(self, factor: float) -> "BlockTime":
        return BlockTime(self.compute * factor, self.memory * factor,
                         self.overlap * factor, self.total * factor)


class RooflineModel:
    """Parameterized per-block performance projection.

    Parameters
    ----------
    machine:
        Target hardware description.
    miss_rate:
        Constant cache-miss ratio applied to both L1 and LLC
        (paper footnote 1).
    model_division, model_vectorization:
        Ablation switches; both ``False`` reproduces the paper's model.
    overlap:
        When ``False``, falls back to the naive roofline ``max(Tc, Tm)``
        without the overlap extension (ablation A3 in DESIGN.md).
    cache_model:
        Optional per-level hit-fraction predictor exposing
        ``fractions(metrics, machine)`` (see
        :mod:`repro.hardware.cachemodel`).  ``None`` (the default) keeps
        the paper's constant-ratio code path, bit-identical to previous
        releases.
    """

    def __init__(self, machine: MachineModel,
                 miss_rate: float = DEFAULT_MISS_RATE,
                 model_division: bool = False,
                 model_vectorization: bool = False,
                 overlap: bool = True,
                 cache_model=None):
        if not (0.0 <= miss_rate <= 1.0):
            raise HardwareModelError(
                f"miss_rate must be within [0, 1], got {miss_rate}")
        # pre-flight: a zero/negative/NaN bandwidth or peak-flops field
        # must fail here, naming the field, not leak a ZeroDivisionError
        # out of the middle of a sweep
        ensure_valid_machine(machine)
        self.machine = machine
        self.miss_rate = miss_rate
        self.model_division = model_division
        self.model_vectorization = model_vectorization
        self.overlap = overlap
        self.cache_model = cache_model

    # -- component times --------------------------------------------------
    def compute_time(self, metrics: Metrics) -> float:
        """Tc: operation-processing time for one invocation (seconds)."""
        machine = self.machine
        plain_flops = metrics.flops
        cycles = 0.0
        if self.model_division:
            # rebind, never ``-=``: on lane arrays that would write
            # through to ``metrics.flops``, which overlap_degree reads
            plain_flops = plain_flops - metrics.div_flops
            cycles += metrics.div_flops * machine.div_cost
        if self.model_vectorization:
            vec = metrics.vec_flops
            if is_array(vec) or is_array(plain_flops):
                # lane-wise twin of the scalar branch below: lanes with
                # no vectorizable flops contribute an exact 0.0
                vectorized = vwhere(vec > 0, vmin(vec, plain_flops), 0.0)
                plain_flops = plain_flops - vectorized
                cycles = (cycles
                          + vectorized / machine.vector_flops_per_cycle)
            elif vec > 0:
                vectorized = min(vec, plain_flops)
                plain_flops -= vectorized
                cycles += vectorized / machine.vector_flops_per_cycle
        cycles += plain_flops / machine.scalar_flops_per_cycle
        cycles += metrics.iops * machine.iop_latency / machine.issue_width
        return cycles * machine.cycle_time

    def memory_time(self, metrics: Metrics) -> float:
        """Tm: data-movement time for one invocation (seconds).

        Maximum of the bandwidth bound (DRAM traffic at the modeled miss
        fractions) and the latency bound (line fills over the machine's
        memory-level parallelism); see
        :meth:`~repro.hardware.machine.MachineModel.memory_cycles`.

        The per-level fractions come from ``cache_model`` when one is
        installed; otherwise the constant-ratio arithmetic below runs
        unchanged (bit-identical to pre-cache-model releases).
        """
        machine = self.machine
        if self.cache_model is not None:
            f_l1, f_llc, f_dram = self.cache_model.fractions(metrics,
                                                             machine)
            cycles = machine.memory_cycles(
                nbytes=metrics.total_bytes,
                elements=metrics.accesses,
                f_l1=f_l1, f_llc=f_llc, f_dram=f_dram,
            )
            return cycles * machine.cycle_time
        miss = self.miss_rate
        cycles = machine.memory_cycles(
            nbytes=metrics.total_bytes,
            elements=metrics.accesses,
            f_l1=1.0 - miss,
            f_llc=miss * (1.0 - miss),
            f_dram=miss * miss,
        )
        return cycles * machine.cycle_time

    @staticmethod
    def overlap_degree(metrics: Metrics) -> float:
        """δ = 1 − 1/max(Num_fp_ops, 1): overlap likelihood heuristic."""
        return 1.0 - 1.0 / vmax(metrics.flops, 1.0)

    # -- combined ---------------------------------------------------------
    def block_time(self, metrics: Metrics) -> BlockTime:
        """Project one invocation of a block: ``T = Tc + Tm − To``.

        Accepts array-shaped metrics fields (one lane per sweep point)
        and returns a lane-shaped :class:`BlockTime` in that case.
        """
        compute = self.compute_time(metrics)
        memory = self.memory_time(metrics)
        if not self.overlap:
            # naive roofline: assume perfect overlap always
            shorter = vmin(compute, memory)
            return BlockTime(compute, memory, shorter,
                             vmax(compute, memory))
        overlapped = vmin(compute, memory) * self.overlap_degree(metrics)
        return BlockTime(compute, memory, overlapped,
                         compute + memory - overlapped)

    def attainable_gflops(self, intensity: float) -> float:
        """Classic roofline ceiling at operational ``intensity`` (flop/byte).

        Provided for roofline plots and co-design sweeps; not used by the
        block timing path.

        Accepts lane arrays: negative lanes are poisoned to NaN rather
        than crashing the whole sweep (a scalar negative intensity still
        raises — one bad point is a caller bug, not a lane to skip).
        """
        peak = self.machine.peak_scalar_gflops
        bandwidth_gbs = self.machine.bandwidth / 1e9
        if is_array(intensity):
            ceiling = vmin(peak, bandwidth_gbs * intensity)
            return vwhere(intensity < 0, float("nan"), ceiling)
        if intensity < 0:
            raise HardwareModelError("operational intensity must be >= 0")
        return min(peak, bandwidth_gbs * intensity)

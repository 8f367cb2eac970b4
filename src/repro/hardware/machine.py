"""Machine descriptions.

A :class:`MachineModel` captures the hardware parameters the paper's
performance model is parameterized with (Sec. V-A): "peak flop rate,
frequency, instruction latency, issue width, vector width, shared cache
access latency, memory latency, and peak memory bandwidth" — plus the
second-order knobs the reference executor uses (division expansion cost,
SIMD efficiency, memory-level parallelism, and cache geometry for the
executor's reuse model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from ..arrayops import vmax
from ..errors import HardwareModelError, ValidationError

#: machine fields that must be strictly positive for any model to be
#: meaningful (shared by construction-time checks and pre-flight
#: validation)
POSITIVE_FIELDS = (
    "frequency_hz", "cores", "issue_width", "vector_width",
    "flop_latency", "iop_latency", "l1_size", "llc_size",
    "l1_latency", "llc_latency", "dram_latency", "bandwidth",
    "cache_line", "div_cost", "mlp", "bandwidth_saturation_cores",
)

#: every numeric machine field: the ones pre-flight checks, the ones a
#: sweep cell may override, and the ones a :class:`MachineLanes` view
#: carries lane by lane
NUMERIC_FIELDS = POSITIVE_FIELDS + ("simd_efficiency",)


@dataclass(frozen=True)
class MachineModel:
    """One compute node, described at roofline granularity.

    The analytical model consumes the first group of fields only; the
    executor additionally honours the second group.  All latencies are in
    core clock cycles; sizes in bytes; bandwidth in bytes/second.
    """

    name: str
    frequency_hz: float            #: core clock
    cores: int                     #: cores per node (peak-rate bookkeeping)
    issue_width: int               #: instructions issued per cycle
    vector_width: int              #: doubles per SIMD lane-group
    flop_latency: float            #: pipelined fp latency (cycles)
    iop_latency: float             #: fixed-point op latency (cycles)
    l1_size: int                   #: private L1D capacity
    llc_size: int                  #: shared last-level cache capacity
    l1_latency: float              #: L1 hit latency (cycles)
    llc_latency: float             #: LLC hit latency (cycles)
    dram_latency: float            #: memory latency (cycles)
    bandwidth: float               #: peak node memory bandwidth (B/s)
    cache_line: int = 64           #: line size (bytes)

    # -- executor-only second-order behaviour --------------------------------
    div_cost: float = 1.0          #: cycles per fp division (1 = like any flop)
    simd_efficiency: float = 1.0   #: fraction of vector_width realized on
                                   #: vectorizable code (executor only)
    mlp: float = 32.0              #: outstanding line fills (memory-level
                                   #: parallelism incl. hardware prefetch)
    bandwidth_saturation_cores: float = 4.0
    #: cores needed to saturate the node's memory bandwidth: parallel
    #: (``forall``) compute scales with ``cores`` but memory time stops
    #: improving beyond this concurrency
    notes: str = ""

    def __post_init__(self):
        for name in POSITIVE_FIELDS:
            if getattr(self, name) <= 0:
                raise HardwareModelError(
                    f"{self.name}: {name} must be positive, got "
                    f"{getattr(self, name)!r}")
        if not (0.0 < self.simd_efficiency <= 1.0):
            raise HardwareModelError(
                f"{self.name}: simd_efficiency must be in (0, 1]")
        if self.llc_size < self.l1_size:
            raise HardwareModelError(
                f"{self.name}: llc_size smaller than l1_size")

    # -- derived peaks -------------------------------------------------------
    @property
    def cycle_time(self) -> float:
        """Seconds per core clock cycle."""
        return 1.0 / self.frequency_hz

    @property
    def scalar_flops_per_cycle(self) -> float:
        """Per-core scalar fp throughput (the analytical model's ceiling:
        vectorization is deliberately not modeled, paper Sec. VII-B)."""
        return self.issue_width / self.flop_latency

    @property
    def vector_flops_per_cycle(self) -> float:
        """Per-core SIMD fp throughput (executor ceiling)."""
        return (self.issue_width * self.vector_width * self.simd_efficiency
                / self.flop_latency)

    @property
    def peak_scalar_gflops(self) -> float:
        """Single-core scalar peak in GFLOP/s."""
        return self.scalar_flops_per_cycle * self.frequency_hz / 1e9

    @property
    def peak_vector_gflops(self) -> float:
        """Single-core SIMD peak in GFLOP/s."""
        return self.vector_flops_per_cycle * self.frequency_hz / 1e9

    @property
    def ridge_intensity(self) -> float:
        """Roofline ridge point (flops/byte) at scalar peak."""
        return (self.peak_scalar_gflops * 1e9) / self.bandwidth

    def with_overrides(self, **kwargs) -> "MachineModel":
        """Return a copy with some fields replaced (design-space sweeps)."""
        return replace(self, **kwargs)

    def memory_cycles(self, nbytes: float, elements: float, f_l1: float,
                      f_llc: float, f_dram: float) -> float:
        """Cycles to move ``nbytes`` (``elements`` accesses) given the
        fractions served by L1 / LLC / DRAM.

        The cost is the maximum of a bandwidth bound (DRAM traffic at peak
        bandwidth) and a latency bound (cache-line fills divided by the
        machine's memory-level parallelism ``mlp``, which subsumes hardware
        prefetch depth).  This helper is shared by the analytical roofline
        (constant miss fractions) and the reference executor (simulated
        fractions), so the two disagree only where the paper says they
        should: in the miss fractions themselves.
        """
        llc_lines = f_llc * nbytes / self.cache_line
        dram_lines = f_dram * nbytes / self.cache_line
        latency_cycles = (llc_lines * self.llc_latency
                          + dram_lines * self.dram_latency
                          + elements * f_l1 * self.l1_latency) / self.mlp
        dram_bytes = f_dram * nbytes
        bandwidth_cycles = dram_bytes * self.frequency_hz / self.bandwidth
        # vmax so the vector sweep backend can pass lane arrays; scalar
        # callers get the builtin max, bit-identical to before
        return vmax(latency_cycles, bandwidth_cycles)

    def describe(self) -> Dict[str, float]:
        """Flat dictionary for reports and sweeps."""
        return {
            "frequency_ghz": self.frequency_hz / 1e9,
            "cores": self.cores,
            "issue_width": self.issue_width,
            "vector_width": self.vector_width,
            "l1_kib": self.l1_size / 1024,
            "llc_mib": self.llc_size / (1024 * 1024),
            "l1_latency": self.l1_latency,
            "llc_latency": self.llc_latency,
            "dram_latency": self.dram_latency,
            "bandwidth_gbs": self.bandwidth / 1e9,
            "peak_scalar_gflops": self.peak_scalar_gflops,
            "peak_vector_gflops": self.peak_vector_gflops,
            "ridge_intensity": self.ridge_intensity,
        }


# -- pre-flight validation ----------------------------------------------------

def validate_machine(machine) -> List[str]:
    """Diagnose a machine description; return one message per problem.

    Checks every numeric field for NaN/inf (which slip past the
    construction-time positivity checks — ``nan <= 0`` is ``False``), the
    strict-positivity invariants the performance models divide by
    (bandwidth, frequency, latencies, issue width, ...), the
    ``simd_efficiency`` range, and cache-size ordering.  Duck-typed:
    missing fields are skipped, so partial machine stand-ins validate
    what they have.  An empty list means the machine is usable.
    """
    issues: List[str] = []
    for name in NUMERIC_FIELDS:
        value = getattr(machine, name, None)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            issues.append(f"{name} must be numeric, got {value!r}")
        elif not math.isfinite(value):
            issues.append(f"{name} must be finite, got {value!r}")
        elif name != "simd_efficiency" and value <= 0:
            issues.append(f"{name} must be positive, got {value!r}")
    simd = getattr(machine, "simd_efficiency", None)
    if isinstance(simd, (int, float)) and not isinstance(simd, bool) \
            and math.isfinite(simd) and not (0.0 < simd <= 1.0):
        issues.append(
            f"simd_efficiency must be in (0, 1], got {simd!r}")
    l1 = getattr(machine, "l1_size", None)
    llc = getattr(machine, "llc_size", None)
    if isinstance(l1, (int, float)) and isinstance(llc, (int, float)) \
            and math.isfinite(l1) and math.isfinite(llc) and llc < l1:
        issues.append(
            f"llc_size ({llc!r}) smaller than l1_size ({l1!r})")
    return issues


def ensure_valid_machine(machine) -> None:
    """Raise :class:`~repro.errors.ValidationError` for a bad machine.

    The pre-flight gate used by the roofline/ECM models, the analysis
    pipeline, and ``repro sweep`` — degenerate parameters surface as one
    readable report naming the offending fields, before any BET is built
    or any math divides by them.  A :class:`MachineLanes` view fails it
    for each of its ``bad`` lanes.
    """
    if isinstance(machine, MachineLanes):
        issues = [f"lane {lane} is not a valid machine"
                  for lane in np.flatnonzero(machine.bad).tolist()]
    else:
        issues = validate_machine(machine)
    if issues:
        raise ValidationError(
            issues, subject=getattr(machine, "name", "machine lanes"))


# -- machine lanes ------------------------------------------------------------

class MachineLanes:
    """Several machines seen as one, lane by lane (DESIGN.md §15).

    Lane ``i`` is ``base`` with the numeric machine fields of
    ``overrides[i]`` applied (other keys, such as ``input:`` bindings,
    are ignored): each field that differs across the lanes is a float64
    column with one entry per lane, and each field they share keeps its
    one value.  The derived peaks and :meth:`memory_cycles` are
    :class:`MachineModel`'s own, so a timing model built over the view
    (RooflineModel, ECMModel and the cache models, unchanged) evaluates
    every lane's machine at once with the scalar arithmetic, lane-wise.
    The view has no ``name``: a model that reads it cannot run on lanes.

    ``bad`` marks the lanes :class:`MachineModel` construction or
    :func:`validate_machine` would refuse: a field non-finite or not
    positive, ``simd_efficiency`` above 1, or ``llc_size`` below
    ``l1_size``.  The models' pre-flight refuses a view with a bad lane.
    """

    cycle_time = MachineModel.cycle_time
    scalar_flops_per_cycle = MachineModel.scalar_flops_per_cycle
    vector_flops_per_cycle = MachineModel.vector_flops_per_cycle
    peak_scalar_gflops = MachineModel.peak_scalar_gflops
    peak_vector_gflops = MachineModel.peak_vector_gflops
    ridge_intensity = MachineModel.ridge_intensity
    memory_cycles = MachineModel.memory_cycles

    def __init__(self, base: MachineModel,
                 overrides: Sequence[Dict[str, float]]):
        if not overrides:
            raise HardwareModelError("machine lanes need at least one "
                                     "lane")
        self.lanes = len(overrides)
        varied = set().union(*overrides)
        table = np.empty((len(NUMERIC_FIELDS), self.lanes))
        for row, name in enumerate(NUMERIC_FIELDS):
            value = getattr(base, name)
            if name in varied:
                values = [cell.get(name, value) for cell in overrides]
                value = values[0]
                if values.count(value) != self.lanes:
                    value = np.array(values, dtype=np.float64)
            setattr(self, name, value)
            table[row] = value
        self.bad = (~(np.isfinite(table) & (table > 0)).all(axis=0)
                    | (self.simd_efficiency > 1.0)
                    | (self.llc_size < self.l1_size))

    def tile(self, lo: int, hi: int) -> "MachineLanes":
        """Lanes ``lo:hi`` as a view of their own."""
        if lo == 0 and hi == self.lanes:
            return self
        view = object.__new__(MachineLanes)
        for name, value in vars(self).items():
            setattr(view, name, value[lo:hi]
                    if isinstance(value, np.ndarray) else value)
        view.lanes = hi - lo
        return view

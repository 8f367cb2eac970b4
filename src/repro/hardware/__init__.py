"""Parameterized hardware performance models.

A :class:`MachineModel` is a flat description of one node: frequency, issue
width, vector width, cache sizes and latencies, memory bandwidth, and the
instruction-cost details (division expansion, SIMD efficiency) that the
*reference executor* honours but the first-order analytical model
deliberately ignores (paper Secs. V-A and VII-B/C).

The :class:`RooflineModel` implements the paper's extended roofline:
``T = Tc + Tm − To`` with ``To = min(Tc, Tm) · δ`` and a constant cache-miss
ratio.  :class:`InstructionMix` and :class:`LibraryDatabase` provide the
semi-analytical treatment of opaque library functions (paper Sec. IV-C).
"""

from .cachemodel import (
    AnalyticCacheModel, ConstantCacheModel, ECMFactory, RooflineFactory,
    cache_model_by_name,
)
from .machine import (
    MachineLanes, MachineModel, ensure_valid_machine, validate_machine,
)
from .metrics import Metrics
from .presets import BGQ, FUTURE_HBM, FUTURE_MANYCORE, XEON_E5_2420, machine_by_name
from .roofline import BlockTime, RooflineModel
from .instmix import InstructionMix, LibraryDatabase, default_library
from .ecm import ECMModel

__all__ = [
    "AnalyticCacheModel",
    "ConstantCacheModel",
    "RooflineFactory",
    "ECMFactory",
    "cache_model_by_name",
    "MachineModel",
    "MachineLanes",
    "validate_machine",
    "ensure_valid_machine",
    "Metrics",
    "BGQ",
    "XEON_E5_2420",
    "FUTURE_HBM",
    "FUTURE_MANYCORE",
    "machine_by_name",
    "BlockTime",
    "RooflineModel",
    "ECMModel",
    "InstructionMix",
    "LibraryDatabase",
    "default_library",
]

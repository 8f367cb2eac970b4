"""Footprint-granularity cache simulator.

Code skeletons do not carry element addresses, so the executor models
caching at the granularity the skeleton *does* express: named array regions.
Each access statement touches ``(array, bytes)``; a two-level LRU of such
footprints decides what fraction of the access hits L1, hits the LLC, or
goes to DRAM.  This is exactly the effect the analytical model's constant
miss ratio cannot see — e.g. the paper's SORD anecdote where the 4th hot
spot reuses data the 1st brought in and runs faster than projected
(Sec. VII-C).

Accesses without an array attribution are treated as a per-site anonymous
region, which still gives temporal reuse across invocations of the same
block.

Hierarchy accounting is *inclusive*: every access touches both levels with
its full footprint, so whatever lives in L1 also lives in the LLC.  The
per-access split is therefore ``f_l1`` from the L1 lookup, ``f_llc =
max(f_llc_raw - f_l1, 0)`` (the share the LLC serves *beyond* what L1
already caught), and ``f_dram`` the remainder — the three always sum to 1.
The analytic layer-condition model in :mod:`repro.hardware.cachemodel`
mirrors exactly this subtraction when predicting the same fractions.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from ..errors import SimulationError


class _LRULevel:
    """One cache level: an LRU over named footprints.

    A running total of resident bytes is maintained incrementally — every
    mutation of ``resident`` adjusts ``_resident_total`` — so eviction is
    O(evicted entries) rather than O(resident regions) per touch.
    """

    __slots__ = ("capacity", "resident", "_resident_total")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise SimulationError("cache capacity must be positive")
        self.capacity = capacity
        self.resident: "OrderedDict[str, float]" = OrderedDict()
        self._resident_total = 0.0

    def touch(self, region: str, footprint: float) -> float:
        """Access ``footprint`` bytes of ``region``; return the hit fraction.

        The resident share of the region before the access determines the
        hit fraction; the region is then (re)installed, evicting LRU
        entries.  Regions larger than the level exhibit the classic LRU
        streaming cliff: sequential re-traversal evicts every line before
        its reuse, so the hit fraction is zero even though the level ends
        up holding ``capacity`` bytes of the region's tail.
        """
        if footprint <= 0:
            return 1.0
        previous = self.resident.pop(region, 0.0)
        self._resident_total -= previous
        if footprint > self.capacity:
            hit_fraction = 0.0
        else:
            hit_fraction = min(previous / footprint, 1.0)
        keep = min(footprint, self.capacity)
        self.resident[region] = keep
        self._resident_total += keep
        self._evict()
        return hit_fraction

    def _evict(self) -> None:
        total = self._resident_total
        while total > self.capacity and len(self.resident) > 1:
            _, evicted = self.resident.popitem(last=False)
            total -= evicted
        if total > self.capacity:
            # single oversized region: clamp to capacity
            region, _ = next(iter(self.resident.items()))
            self.resident[region] = self.capacity
            total = self.capacity
        self._resident_total = total

    def clear(self) -> None:
        self.resident.clear()
        self._resident_total = 0.0


class CacheSimulator:
    """Two-level (L1 + LLC) footprint cache.

    :meth:`access` returns the fractions of an access served by each level.
    The hierarchy is inclusive (see the module docstring): both levels are
    touched with the full footprint and the LLC fraction is reported net of
    what L1 already served.
    """

    def __init__(self, l1_size: int, llc_size: int):
        if llc_size < l1_size:
            raise SimulationError("LLC must be at least as large as L1")
        self.l1 = _LRULevel(l1_size)
        self.llc = _LRULevel(llc_size)
        self.accesses = 0.0
        self.l1_hits = 0.0

    def access(self, region: str, footprint: float,
               elements: float) -> Tuple[float, float, float]:
        """Touch ``footprint`` bytes (``elements`` accesses) of ``region``.

        Returns ``(f_l1, f_llc, f_dram)`` — the fractions of the access
        served by L1, by the LLC, and by memory; the three sum to 1.
        """
        if footprint < 0 or elements < 0:
            raise SimulationError("negative access size")
        f_l1 = self.l1.touch(region, footprint)
        f_llc_raw = self.llc.touch(region, footprint)
        f_llc = max(f_llc_raw - f_l1, 0.0)
        f_dram = max(1.0 - f_l1 - f_llc, 0.0)
        self.accesses += elements
        self.l1_hits += elements * f_l1
        return f_l1, f_llc, f_dram

    @property
    def l1_miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.l1_hits / self.accesses

    def clear(self) -> None:
        self.l1.clear()
        self.llc.clear()
        self.accesses = self.l1_hits = 0.0

"""Hot-spot identification (paper Sec. V-B).

A *hot spot* is a source-level code block (a BST site); the same spot may be
invoked from several control-flow paths — i.e. appear as several BET nodes
with different contexts — so records are first grouped by site.

Selection follows the paper's two user criteria:

* **time coverage** — the selected spots should together consume at least a
  target fraction of projected runtime;
* **code leanness** — the selected spots may contain at most a target
  fraction of the program's static instructions, and this criterion *takes
  precedence*: when both cannot be met, coverage is maximized under the
  leanness constraint.

The underlying problem is knapsack-like (NP-complete); the paper solves it
greedily, as do we: spots are considered in decreasing projected-time order
and taken whenever they fit the remaining static budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import AnalysisError
from .block_metrics import BlockRecord, left_sum, total_time


@dataclass(slots=True)
class HotSpot:
    """A source-level code block aggregated over all of its invocations."""

    site: str
    label: str
    function: str
    records: List[BlockRecord] = field(default_factory=list)

    @property
    def projected_time(self) -> float:
        return left_sum(r.total for r in self.records)

    @property
    def static_size(self) -> int:
        # all records share the BST block; take one, not the sum
        return max((r.metrics.static_size for r in self.records), default=0)

    @property
    def enr(self) -> float:
        return left_sum(r.enr for r in self.records)

    @property
    def compute_time(self) -> float:
        return left_sum(r.total_compute for r in self.records)

    @property
    def memory_time(self) -> float:
        return left_sum(r.total_memory for r in self.records)

    @property
    def overlap_time(self) -> float:
        return left_sum(r.total_overlap for r in self.records)

    @property
    def bound(self) -> str:
        return "compute" if self.compute_time >= self.memory_time \
            else "memory"

    def __repr__(self):
        return (f"<HotSpot {self.site} t={self.projected_time:.4g}s "
                f"static={self.static_size}>")


@dataclass
class HotSpotSelection:
    """Result of hot-spot selection."""

    spots: List[HotSpot]            #: selected, decreasing projected time
    all_spots: List[HotSpot]        #: every candidate, same ordering
    total_time: float               #: projected whole-run time
    total_static: int               #: program static size (leanness basis)
    coverage_target: float
    leanness_target: float

    @property
    def coverage(self) -> float:
        """Fraction of projected runtime covered by the selection."""
        if self.total_time == 0:
            return 0.0
        return (left_sum(s.projected_time for s in self.spots)
                / self.total_time)

    @property
    def leanness(self) -> float:
        """Fraction of static instructions inside the selection."""
        if self.total_static == 0:
            return 0.0
        return sum(s.static_size for s in self.spots) / self.total_static

    @property
    def sites(self) -> List[str]:
        return [s.site for s in self.spots]

    def top(self, k: int) -> List[HotSpot]:
        return self.spots[:k]

    def meets_targets(self) -> bool:
        return (self.coverage >= self.coverage_target - 1e-12
                and self.leanness <= self.leanness_target + 1e-12)


def group_blocks(records: Sequence[BlockRecord]) -> List[HotSpot]:
    """Group block records by source site, decreasing projected time.

    Zero-time spots are dropped — a block that never executes cannot be hot.
    Container blocks (function mounts and call sites) are excluded as
    hot-spot *candidates*: the paper's spots are "small code blocks (e.g., a
    loop)" and library calls, while whole functions would trivially satisfy
    coverage at terrible leanness.
    """
    by_site: Dict[str, HotSpot] = {}
    order: List[str] = []
    for record in records:
        if record.node.kind in ("function", "call"):
            continue
        site = record.site
        if site not in by_site:
            by_site[site] = HotSpot(
                site=site, label=record.label,
                function=record.node.stmt.function if record.node.stmt
                else "")
            order.append(site)
        by_site[site].records.append(record)
    # sum each spot's time once (== projected_time) for filter and sort;
    # sweeps call this per point, so the repeated property sums add up
    timed = []
    for site in order:
        spot = by_site[site]
        projected = left_sum(r.total for r in spot.records)
        if projected > 0:
            timed.append((projected, spot))
    timed.sort(key=lambda pair: (-pair[0], pair[1].site))
    return [spot for _, spot in timed]


def select_hotspots(records: Sequence[BlockRecord],
                    total_static: int,
                    coverage: float = 0.90,
                    leanness: float = 0.10,
                    max_spots: Optional[int] = None,
                    strategy: str = "greedy") -> HotSpotSelection:
    """Hot-spot selection under the coverage/leanness criteria.

    The underlying problem is a 0/1 knapsack (NP-complete, paper Sec. V-B);
    the paper — and the default here — solves it greedily.  ``strategy=
    "optimal"`` runs the exact dynamic program over static sizes instead,
    maximizing covered time within the leanness budget; the
    greedy-vs-optimal comparison is a shipped test (the gap is negligible
    on real workloads, which is why the paper's greedy choice is sound).

    Parameters
    ----------
    records:
        Output of :func:`~repro.analysis.block_metrics.characterize`.
    total_static:
        The program's static instruction count
        (:meth:`~repro.skeleton.bst.Program.static_size`).
    coverage:
        Minimum fraction of projected runtime the spots should cover.
    leanness:
        Maximum fraction of static instructions the spots may contain
        (takes precedence over coverage).
    max_spots:
        Optional hard cap on the number of spots (paper's top-10 views).
    strategy:
        ``"greedy"`` (the paper's algorithm) or ``"optimal"`` (exact DP).
    """
    if not (0.0 < coverage <= 1.0):
        raise AnalysisError(f"coverage target {coverage} outside (0, 1]")
    if not (0.0 < leanness <= 1.0):
        raise AnalysisError(f"leanness target {leanness} outside (0, 1]")
    if total_static <= 0:
        raise AnalysisError("total_static must be positive")
    if strategy not in ("greedy", "optimal"):
        raise AnalysisError(f"unknown selection strategy {strategy!r}")

    candidates = group_blocks(records)
    whole = total_time(records)
    if whole <= 0:
        raise AnalysisError(
            "model projects zero total runtime; is the BET empty?")

    budget = leanness * total_static
    if strategy == "greedy":
        selected = _select_greedy(candidates, whole, budget, coverage,
                                  max_spots)
    else:
        selected = _select_optimal(candidates, budget, max_spots)
    return HotSpotSelection(
        spots=selected, all_spots=candidates, total_time=whole,
        total_static=total_static, coverage_target=coverage,
        leanness_target=leanness)


def _select_greedy(candidates: List[HotSpot], whole: float, budget: float,
                   coverage: float,
                   max_spots: Optional[int]) -> List[HotSpot]:
    """The paper's algorithm: take the hottest spot that still fits."""
    selected: List[HotSpot] = []
    used_static = 0
    covered = 0.0
    for spot in candidates:
        if max_spots is not None and len(selected) >= max_spots:
            break
        if covered / whole >= coverage:
            break
        if used_static + spot.static_size > budget:
            continue  # leanness takes precedence: skip and try smaller spots
        selected.append(spot)
        used_static += spot.static_size
        covered += spot.projected_time
    return selected


def _select_optimal(candidates: List[HotSpot], budget: float,
                    max_spots: Optional[int]) -> List[HotSpot]:
    """Exact 0/1 knapsack: maximize covered time within the static budget.

    Static sizes are small integers, so the classic ``O(n·W)`` dynamic
    program is exact and fast.  ``max_spots`` (when given) becomes a second
    DP dimension.
    """
    capacity = int(budget)
    if capacity <= 0:
        return []
    count_cap = max_spots if max_spots is not None else len(candidates)
    # best[w][k] = (covered_time, chosen index tuple) using weight <= w,
    # at most k spots; implemented iteratively item by item
    best: Dict[tuple, float] = {(0, 0): 0.0}
    choice: Dict[tuple, tuple] = {(0, 0): ()}
    for index, spot in enumerate(candidates):
        weight = spot.static_size
        value = spot.projected_time
        updates = {}
        for (used, taken), covered in best.items():
            new_used = used + weight
            new_taken = taken + 1
            if new_used > capacity or new_taken > count_cap:
                continue
            key = (new_used, new_taken)
            new_value = covered + value
            if new_value > best.get(key, -1.0) \
                    and new_value > updates.get(key, (-1.0,))[0]:
                updates[key] = (new_value, choice[(used, taken)] + (index,))
        for key, (new_value, picked) in updates.items():
            if new_value > best.get(key, -1.0):
                best[key] = new_value
                choice[key] = picked
    best_key = max(best, key=lambda key: best[key])
    picked = choice[best_key]
    return [candidates[index] for index in picked]

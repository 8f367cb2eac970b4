"""Objectives, Pareto dominance, hypervolume, and acquisition scoring.

The explorer is multi-objective: the user names what to trade off
(``runtime`` against provisioned ``bandwidth``, say, or against the
model's memory-pressure fraction) and the answer is a Pareto frontier,
not a single optimum.  Internally every objective is *minimized*;
``max`` objectives are negated on the way in and restored on the way
out, so the dominance and hypervolume code has one orientation.

Acquisition is lower-confidence-bound hypervolume improvement: each
candidate's surrogate prediction ``mean − κ·std`` per objective is an
optimistic guess, the increase in dominated hypervolume that guess would
add to the current *exact* frontier is its exploitation value, and a
small uncertainty bonus keeps the loop exploring.  Hypervolume is exact
for one and two objectives (the common co-design cases) and a seeded
Monte-Carlo estimate beyond that — again a pure function of the seed,
via :class:`repro.rng.CounterRNG`.

Scoring is whole-pool: :meth:`HypervolumeBox.improvements` takes every
candidate's LCB vector as one array, and :func:`select_batch` ranks and
spaces an aligned score array.  The array arithmetic repeats the
one-candidate computation operation for operation, so a score does not
depend on how many candidates were scored with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Union

import numpy as np

from ..errors import AnalysisError
from ..rng import CounterRNG

__all__ = [
    "Objective", "parse_objectives", "pareto_indices", "hypervolume",
    "HypervolumeBox", "select_batch", "POINT_OBJECTIVES",
]

#: objective names served by the exact model's projection (anything else
#: must name an axis of the space, whose value is known per cell)
POINT_OBJECTIVES = {
    "runtime": "projected whole-run wall seconds",
    "memory_fraction": "non-overlapped memory share (cache-model "
                       "DRAM pressure)",
}

#: default optimization direction per point objective
_DEFAULT_DIRECTION = {"runtime": "min", "memory_fraction": "min"}

#: elements per candidate-by-sample comparison block in the Monte-Carlo
#: improvement, so peak memory does not grow with pool x samples
_MC_BLOCK = 1 << 20


@dataclass(frozen=True)
class Objective:
    """One named quantity to optimize over the space.

    ``name`` is either a point objective (:data:`POINT_OBJECTIVES`) or
    an axis of the space (machine field or ``input:<name>``), whose
    value per cell is known without any model call.  ``direction`` is
    ``"min"`` or ``"max"``.
    """

    name: str
    direction: str = "min"

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise AnalysisError(
                f"objective {self.name!r}: direction must be 'min' or "
                f"'max', not {self.direction!r}")

    @property
    def sign(self) -> float:
        """Multiplier canonicalizing the objective to minimization."""
        return 1.0 if self.direction == "min" else -1.0

    def canonical(self, value: float) -> float:
        return self.sign * value

    def actual(self, canonical_value: float) -> float:
        return self.sign * canonical_value

    def render(self) -> str:
        return f"{self.name}:{self.direction}"


def parse_objectives(specs: Sequence[str],
                     axis_names: Sequence[str]) -> List[Objective]:
    """Parse ``name`` / ``name:min`` / ``name:max`` objective specs.

    Each name must be a point objective or an axis of the space; at
    least one point objective is required (a frontier over axis values
    alone needs no model at all).
    """
    if not specs:
        raise AnalysisError("at least one objective is required")
    objectives: List[Objective] = []
    for spec in specs:
        # only a trailing :min/:max is a direction — axis names may
        # themselves contain colons (input:n)
        name, direction = spec.strip(), ""
        for suffix in ("min", "max"):
            if name.endswith(":" + suffix):
                name, direction = name[:-len(suffix) - 1].strip(), suffix
                break
        direction = direction or _DEFAULT_DIRECTION.get(name, "min")
        if name not in POINT_OBJECTIVES and name not in axis_names:
            raise AnalysisError(
                f"unknown objective {name!r}; expected one of "
                f"{sorted(POINT_OBJECTIVES)} or an axis of the space "
                f"({', '.join(axis_names)})")
        objectives.append(Objective(name, direction))
    if len({o.name for o in objectives}) != len(objectives):
        raise AnalysisError("duplicate objective names")
    if not any(o.name in POINT_OBJECTIVES for o in objectives):
        raise AnalysisError(
            "at least one objective must be model-derived "
            f"({sorted(POINT_OBJECTIVES)}); axis-only frontiers need no "
            "exploration")
    return objectives


# -- dominance and hypervolume (canonical minimization space) ------------

def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse everywhere and better somewhere."""
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def pareto_indices(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated vectors, in input order.

    Exact duplicates keep only their first occurrence, so the frontier
    never lists one trade-off twice.
    """
    front: List[int] = []
    seen: set = set()
    for i, candidate in enumerate(vectors):
        key = tuple(candidate)
        if key in seen:
            continue
        if any(_dominates(vectors[j], candidate) for j in front):
            continue
        front = [j for j in front
                 if not _dominates(candidate, vectors[j])]
        front.append(i)
        seen.add(key)
    return front


def hypervolume(front: Sequence[Sequence[float]],
                reference: Sequence[float],
                seed: int = 0, samples: int = 4096) -> float:
    """Dominated hypervolume of ``front`` w.r.t. ``reference`` (all
    minimized; points at or beyond the reference contribute nothing).

    Exact for 1-D and 2-D; seeded Monte-Carlo beyond (``samples`` draws
    from a :class:`~repro.rng.CounterRNG` keyed by ``seed``)."""
    return HypervolumeBox(front, reference, seed=seed,
                          samples=samples).volume


def _count_dominated(points: "np.ndarray",
                     samples: "np.ndarray") -> "np.ndarray":
    """For each row of ``points``, how many rows of ``samples`` it
    weakly dominates (``<=`` in every objective).

    For finite vectors that is exactly "dominates or equals".  Points
    are compared in blocks of at most :data:`_MC_BLOCK` pairs."""
    counts = np.zeros(len(points), dtype=np.int64)
    step = max(1, _MC_BLOCK // max(len(samples), 1))
    for start in range(0, len(points), step):
        block = points[start:start + step]
        hit = np.ones((len(block), len(samples)), dtype=bool)
        for d in range(points.shape[1]):
            hit &= block[:, d, None] <= samples[None, :, d]
        counts[start:start + step] = hit.sum(axis=1)
    return counts


class HypervolumeBox:
    """Hypervolume of a frontier, with cheap whole-pool improvement.

    Improvement queries share the box's precomputation: in 2-D the
    frontier's own staircase walk is recorded once and every candidate
    replays only where its step changes the walk; in ≥3-D the same
    seeded Monte-Carlo sample is classified once against the frontier
    and each candidate only counts the not-yet-covered samples it
    dominates.
    """

    def __init__(self, front: Sequence[Sequence[float]],
                 reference: Sequence[float], seed: int = 0,
                 samples: int = 4096):
        self.reference = tuple(float(v) for v in reference)
        self.dims = len(self.reference)
        if self.dims < 1:
            raise AnalysisError("hypervolume needs at least 1 objective")
        self.front = [tuple(float(v) for v in point) for point in front
                      if all(v < r for v, r in zip(point,
                                                   self.reference))]
        # the frontier in staircase (lexicographic) order
        self._sorted = np.asarray(sorted(self.front),
                                  dtype=np.float64).reshape(-1, self.dims)
        self._samples = np.zeros((0, self.dims))
        self._uncovered = np.zeros((0, self.dims))
        self._box_volume = 0.0
        if self.dims == 1:
            self._best = min((p[0] for p in self.front),
                             default=self.reference[0])
            self.volume = self.reference[0] - self._best
        elif self.dims == 2:
            self._walk_2d()
        else:
            self._setup_mc(seed, samples)

    # -- 2-D exact staircase --------------------------------------------
    def _walk_2d(self) -> None:
        """Walk the sorted frontier's staircase, recording the running
        area and height before each step and each step's added area."""
        ref0, ref1 = self.reference
        total, upper1 = 0.0, ref1
        totals, uppers, terms = [total], [upper1], []
        for p0, p1 in self._sorted.tolist():
            term = 0.0
            if p1 < upper1:
                term = (ref0 - p0) * (upper1 - p1)
                total += term
                upper1 = p1
            totals.append(total)
            uppers.append(upper1)
            terms.append(term)
        self.volume = total
        self._walk_total = np.asarray(totals)
        self._walk_upper = np.asarray(uppers)
        self._walk_term = np.asarray(terms)

    def _staircase(self, points: "np.ndarray") -> "np.ndarray":
        """Area the frontier plus each row of ``points`` dominates, to
        the bit of walking the merged staircase one step at a time.

        A candidate joins the sorted frontier after every point that
        sorts at or before it (where a stable sort of the frontier with
        the candidate appended puts it).  Up to there its walk is the
        frontier's; if it does not lower the staircase the rest is too.
        Otherwise it adds its own step, the next frontier point below it
        adds a step cut at the candidate's height, and from then on the
        walk again adds the frontier's recorded steps — to a different
        running area, so those additions are replayed in order, as one
        sequential ``np.add.accumulate`` per candidate row (a step the
        walk skips adds an exact ``0.0``)."""
        ref0 = self.reference[0]
        front0, front1 = self._sorted[:, 0], self._sorted[:, 1]
        cand0, cand1 = points[:, 0], points[:, 1]
        slot = ((front0 < cand0[:, None])
                | ((front0 == cand0[:, None])
                   & (front1 <= cand1[:, None]))).sum(axis=1)
        upper1 = self._walk_upper[slot]
        lowers = cand1 < upper1
        # first frontier step at or after the slot that falls below the
        # candidate (a sentinel column makes it len(front) if none does)
        steps = np.arange(len(front0))
        below = np.concatenate(
            [(steps >= slot[:, None]) & (front1 < cand1[:, None]),
             np.ones((len(points), 1), dtype=bool)], axis=1)
        cut = below.argmax(axis=1)
        added = np.where(steps > cut[:, None], self._walk_term, 0.0)
        rows = np.flatnonzero(cut < len(front0))
        at = cut[rows]
        added[rows, at] = (ref0 - front0[at]) * (cand1[rows] - front1[at])
        sequence = np.concatenate(
            [self._walk_total[slot, None],
             ((ref0 - cand0) * (upper1 - cand1))[:, None], added], axis=1)
        total = np.add.accumulate(sequence, axis=1)[:, -1]
        return np.where(lowers, total, self.volume)

    # -- ≥3-D seeded Monte-Carlo ----------------------------------------
    def _setup_mc(self, seed: int, samples: int) -> None:
        if not self.front:
            self.volume = 0.0
            return
        mins = self._sorted.min(axis=0)
        self._box_volume = 1.0
        for low, ref in zip(mins.tolist(), self.reference):
            self._box_volume *= max(ref - low, 0.0)
        rng = CounterRNG("hypervolume", seed, self.dims)
        fractions = np.asarray([rng.fraction()
                                for _ in range(samples * self.dims)])
        self._samples = mins + fractions.reshape(samples, self.dims) \
            * (np.asarray(self.reference) - mins)
        # p <= s in every objective  <=>  -s <= -p in every objective
        covered = _count_dominated(-self._samples, -self._sorted) > 0
        self._uncovered = self._samples[~covered]
        self.volume = (self._box_volume * int(covered.sum())
                       / len(self._samples))

    def improvements(self, candidates: Sequence[Sequence[float]],
                     ) -> "np.ndarray":
        """Hypervolume each row of ``candidates`` adds by joining the
        frontier (0 for a candidate at or beyond the reference)."""
        points = np.asarray(candidates, dtype=np.float64).reshape(
            -1, self.dims)
        reference = np.asarray(self.reference)
        if self.dims == 1:
            gains = self._best - points[:, 0]
            gains = np.where(0.0 > gains, 0.0, gains)
        elif self.dims == 2:
            gains = self._staircase(points) - self.volume
        elif not len(self._samples):
            # empty frontier: the candidate's own box is the improvement
            gains = np.ones(len(points))
            for d in range(self.dims):
                gains = gains * (reference[d] - points[:, d])
        else:
            gains = (self._box_volume
                     * _count_dominated(points, self._uncovered)
                     / len(self._samples))
        inside = ~(points >= reference).any(axis=1)
        return np.where(inside, gains, 0.0)

    def improvement(self, candidate: Sequence[float]) -> float:
        """Hypervolume added by ``candidate`` joining the frontier."""
        return float(self.improvements([candidate])[0])


# -- batch selection -----------------------------------------------------

def select_batch(candidates: Sequence[int],
                 scores: Union[Sequence[float], Mapping[int, float]],
                 coords: Union[Sequence[Sequence[float]],
                               Mapping[int, Sequence[float]]],
                 batch: int,
                 spacing: float = 0.0) -> List[int]:
    """Pick up to ``batch`` candidate indices, best score first.

    ``scores`` and ``coords`` are aligned with ``candidates`` (arrays or
    sequences) or mappings keyed by candidate index.  Ties break on the
    index itself (full determinism).  ``spacing`` enforces diversity: a
    candidate closer than this (L∞ over unit coordinates) to an
    already-picked one is skipped on the first pass and only admitted if
    the batch is still short afterwards.
    """
    indices = np.asarray(candidates, dtype=np.int64)
    if not len(indices) or batch <= 0:
        return []
    if isinstance(scores, Mapping):
        scores = [scores[index] for index in candidates]
    if isinstance(coords, Mapping):
        coords = [coords[index] for index in candidates]
    points = np.asarray(coords, dtype=np.float64).reshape(len(indices), -1)
    ranked = np.lexsort((indices, -np.asarray(scores, dtype=np.float64)))
    picked: List[int] = []
    skipped: List[int] = []
    chosen = np.empty((min(batch, len(indices)), points.shape[1]))
    for position in ranked.tolist():
        if len(picked) >= batch:
            break
        if spacing > 0.0 and picked and (
                np.abs(chosen[:len(picked)] - points[position]).max(axis=1)
                < spacing).any():
            skipped.append(position)
            continue
        chosen[len(picked)] = points[position]
        picked.append(position)
    picked.extend(skipped[:batch - len(picked)])
    return indices[picked].tolist()

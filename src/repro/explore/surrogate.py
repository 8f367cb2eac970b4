"""Cheap surrogates with uncertainty for the exploration loop.

Two numpy families, both giving a *mean and an uncertainty* per
prediction via bagging (an ensemble of models fit on bootstrap
resamples; the spread of their predictions is the uncertainty estimate
the acquisition function feeds on):

* :class:`RidgeSurrogate` — degree-2 polynomial ridge regression on the
  space's unit coordinates.  Smooth, extrapolates sanely, and the normal
  equations are tiny (≤ ~100 features for any realistic axis count).
* :class:`TreeSurrogate` — a bagged ensemble of small regression trees
  with binned threshold candidates.  Captures cliffs and interactions
  (cache-capacity walls, saturation knees) the polynomial smooths over.

Both predict a whole ``(N, axes)`` feature matrix at once
(``predict_array``); ``predict`` is the list-in, list-out form of the
same code.  The array arithmetic keeps the operation order of a
per-row Python evaluation — sums accumulate left to right from zero,
and squared deviations use ``pow`` — so a prediction is the same double
whichever form computed it.

Everything is deterministic: bootstrap resamples come from
:class:`repro.rng.CounterRNG` streams keyed by ``(seed, bag)``, so a
fixed seed reproduces the ensemble bit for bit — no global RNG, no
wall clock.  Surrogate predictions only ever *steer* which cells get an
exact evaluation; no surrogate number is ever reported as a result.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..rng import CounterRNG

__all__ = ["RidgeSurrogate", "TreeSurrogate", "surrogate_by_name",
           "SURROGATE_NAMES"]

#: names accepted by ``repro explore --surrogate``
SURROGATE_NAMES = ("ridge", "tree")

#: uncertainty floor — keeps acquisition scores finite and ordered even
#: when every bag agrees exactly (e.g. a constant objective)
_STD_FLOOR = 1e-12

def _feature_matrix(features: Sequence[Sequence[float]]) -> "np.ndarray":
    """``features`` as an ``(N, axes)`` float64 matrix."""
    matrix = np.asarray(features, dtype=np.float64)
    # an empty feature list carries no axis count
    return matrix if len(matrix) else matrix.reshape(0, 0)


def _poly_basis(coords: "np.ndarray") -> "np.ndarray":
    """Degree-2 polynomial basis, one row per unit-coordinate row.

    Column order: the constant, each coordinate, then every product
    ``coords[i] * coords[j]`` with ``i <= j`` in row-major order."""
    count, axes = coords.shape
    columns = [np.ones(count)]
    columns.extend(coords[:, i] for i in range(axes))
    for i in range(axes):
        for j in range(i, axes):
            columns.append(coords[:, i] * coords[:, j])
    return np.stack(columns, axis=1)


def _bagged_moments(votes: "np.ndarray") -> Tuple["np.ndarray",
                                                  "np.ndarray"]:
    """Per-column (mean, standard deviation) across the rows of
    ``votes`` (one row per bag), accumulated bag by bag from zero.

    Each squared deviation is the C library's ``pow(x, 2.0)``, as a
    per-row Python ``(v - mean) ** 2`` computes it: ``np.float_power``
    with a scalar exponent calls it per element.  ``x * x`` (what
    ``np.square``, ``np.power(x, 2.0)`` and ``x ** 2`` compute on
    arrays) is the correctly rounded square, which glibc's ``pow`` is
    not always."""
    bags = len(votes)
    total = np.zeros(votes.shape[1])
    for vote in votes:
        total = total + vote
    mean = total / bags
    squares = np.float_power(votes - mean, 2.0)
    total = np.zeros(votes.shape[1])
    for square in squares:
        total = total + square
    return mean, np.sqrt(total / bags)


def _floored(stds: "np.ndarray") -> "np.ndarray":
    """``max(std, _STD_FLOOR)`` elementwise, with Python ``max`` ties."""
    return np.where(_STD_FLOOR > stds, _STD_FLOOR, stds)


def _bootstrap(count: int, seed_parts: Tuple, cap: int) -> List[int]:
    """Deterministic bootstrap resample indices (with replacement)."""
    rng = CounterRNG("bootstrap", *seed_parts)
    draws = min(count, cap) if cap else count
    return [rng.randint(count) for _ in range(draws)]


class RidgeSurrogate:
    """Bagged degree-2 polynomial ridge regression."""

    name = "ridge"

    def __init__(self, alpha: float = 1e-6, bags: int = 8, seed: int = 0):
        if bags < 2:
            raise AnalysisError("bagging needs at least 2 bags")
        self.alpha = alpha
        self.bags = bags
        self.seed = seed
        self._weights = np.zeros((0, 0))
        self._y_shift = 0.0
        self._y_scale = 1.0

    def fit(self, features: Sequence[Sequence[float]],
            targets: Sequence[float]) -> None:
        basis = _poly_basis(_feature_matrix(features))
        count = len(basis)
        if count == 0:
            raise AnalysisError("cannot fit a surrogate on zero points")
        # standardize targets for conditioning; undone at predict time
        self._y_shift = sum(targets) / count
        spread = math.sqrt(sum((y - self._y_shift) ** 2
                               for y in targets) / count)
        self._y_scale = spread if spread > 0 else 1.0
        scaled = np.asarray([(y - self._y_shift) / self._y_scale
                             for y in targets], dtype=np.float64)
        weights = []
        for bag in range(self.bags):
            picks = _bootstrap(count, (self.seed, self.name, bag), cap=0)
            weights.append(self._fit_one(basis[picks], scaled[picks]))
        self._weights = np.stack(weights)

    def _fit_one(self, design: "np.ndarray",
                 targets: "np.ndarray") -> "np.ndarray":
        """Ridge weights of one bag (``design`` is C-ordered)."""
        width = design.shape[1]
        normal = design.T @ design + self.alpha * np.eye(width)
        moment = design.T @ targets
        return np.linalg.solve(normal, moment)

    def predict_array(self, features: Sequence[Sequence[float]],
                      ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Per-row (mean, std-across-bags) arrays, un-standardized.

        Every bag's vote accumulates its weighted basis columns left to
        right from zero — the order of a per-row dot product."""
        basis = _poly_basis(_feature_matrix(features))
        votes = np.zeros((len(self._weights), len(basis)))
        for column in range(basis.shape[1]):
            votes += self._weights[:, column, None] * basis[:, column]
        mean, std = _bagged_moments(votes)
        return (mean * self._y_scale + self._y_shift,
                _floored(std * self._y_scale))

    def predict(self, features: Sequence[Sequence[float]],
                ) -> Tuple[List[float], List[float]]:
        """Per-point (mean, std-across-bags), un-standardized."""
        means, stds = self.predict_array(features)
        return means.tolist(), stds.tolist()


class TreeSurrogate:
    """A bagged ensemble of small binned regression trees.

    A fitted tree is a node table: each row holds a split feature, a
    threshold, the low/high child rows and the node's mean target.  A
    leaf's children are the leaf itself, so walking ``depth`` levels
    lands every point on its leaf whatever its path length."""

    name = "tree"

    def __init__(self, bags: int = 8, depth: int = 5, min_leaf: int = 4,
                 thresholds: int = 16, seed: int = 0,
                 sample_cap: int = 1024):
        if bags < 2:
            raise AnalysisError("bagging needs at least 2 bags")
        self.bags = bags
        self.depth = depth
        self.min_leaf = min_leaf
        self.thresholds = thresholds
        self.seed = seed
        self.sample_cap = sample_cap
        # node tables of the fitted trees, one row per tree (see fit)
        self._feature = self._low = self._high = np.zeros(
            (0, 0), dtype=np.int64)
        self._threshold = self._value = np.zeros((0, 0))

    def fit(self, features: Sequence[Sequence[float]],
            targets: Sequence[float]) -> None:
        rows = [tuple(row) for row in _feature_matrix(features).tolist()]
        count = len(rows)
        if count == 0:
            raise AnalysisError("cannot fit a surrogate on zero points")
        tables: List[List[list]] = []
        for bag in range(self.bags):
            picks = _bootstrap(count, (self.seed, self.name, bag),
                               cap=self.sample_cap)
            table: List[list] = []
            self._grow([rows[i] for i in picks],
                       [targets[i] for i in picks], self.depth, table)
            tables.append(table)
        # pad to the largest tree with rows no walk reaches; feature and
        # child numbers are small integers, exact in float64
        width = max(len(table) for table in tables)
        nodes = np.asarray([table + [[0, 0.0, 0, 0, 0.0]]
                            * (width - len(table)) for table in tables])
        self._feature, self._low, self._high = (
            nodes[:, :, column].astype(np.int64) for column in (0, 2, 3))
        self._threshold, self._value = nodes[:, :, 1], nodes[:, :, 4]

    def _grow(self, rows: List[Tuple[float, ...]], targets: List[float],
              depth: int, table: List[list]) -> int:
        """Append the subtree fit on ``rows`` to ``table``; return the
        row of its root."""
        slot = len(table)
        table.append([0, 0.0, slot, slot, sum(targets) / len(targets)])
        if depth <= 0 or len(rows) < 2 * self.min_leaf:
            return slot
        best = self._best_split(rows, targets)
        if best is None:
            return slot
        feature, threshold = best
        low_r, low_t, high_r, high_t = [], [], [], []
        for row, target in zip(rows, targets):
            if row[feature] <= threshold:
                low_r.append(row)
                low_t.append(target)
            else:
                high_r.append(row)
                high_t.append(target)
        low = self._grow(low_r, low_t, depth - 1, table)
        high = self._grow(high_r, high_t, depth - 1, table)
        table[slot][:4] = [feature, threshold, low, high]
        return slot

    def _best_split(self, rows: List[Tuple[float, ...]],
                    targets: List[float]):
        """(feature, threshold) minimizing summed squared error, or
        ``None`` when no candidate separates ``min_leaf`` points."""
        best_score, best = float("inf"), None
        for feature in range(len(rows[0])):
            order = sorted(range(len(rows)),
                           key=lambda i: rows[i][feature])
            values = [rows[i][feature] for i in order]
            ys = [targets[i] for i in order]
            prefix = [0.0]
            prefix_sq = [0.0]
            for y in ys:
                prefix.append(prefix[-1] + y)
                prefix_sq.append(prefix_sq[-1] + y * y)
            total, total_sq = prefix[-1], prefix_sq[-1]
            count = len(ys)
            # binned candidates: up to `thresholds` evenly spaced cuts
            step = max(1, count // (self.thresholds + 1))
            for cut in range(step, count, step):
                if values[cut - 1] == values[cut]:
                    continue      # cannot separate equal coordinates
                if cut < self.min_leaf or count - cut < self.min_leaf:
                    continue
                left, left_sq = prefix[cut], prefix_sq[cut]
                right, right_sq = total - left, total_sq - left_sq
                score = (left_sq - left * left / cut) + \
                    (right_sq - right * right / (count - cut))
                if score < best_score:
                    best_score = score
                    best = (feature,
                            (values[cut - 1] + values[cut]) / 2.0)
        return best

    def predict_array(self, features: Sequence[Sequence[float]],
                      ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Per-row (mean, std) arrays across the bagged trees; every
        tree walks all rows down one level per step."""
        coords = _feature_matrix(features)
        rows = np.arange(len(coords))
        trees = np.arange(len(self._feature))[:, None]
        node = np.zeros((len(self._feature), len(coords)), dtype=np.int64)
        for _ in range(self.depth):
            low = coords[rows, self._feature[trees, node]] \
                <= self._threshold[trees, node]
            node = np.where(low, self._low[trees, node],
                            self._high[trees, node])
        mean, std = _bagged_moments(self._value[trees, node])
        return mean, _floored(std)

    def predict(self, features: Sequence[Sequence[float]],
                ) -> Tuple[List[float], List[float]]:
        """Per-point (mean, std) across the bagged trees."""
        means, stds = self.predict_array(features)
        return means.tolist(), stds.tolist()


def surrogate_by_name(name: str, seed: int = 0):
    """Construct the surrogate for a ``--surrogate`` choice."""
    if name == "ridge":
        return RidgeSurrogate(seed=seed)
    if name == "tree":
        return TreeSurrogate(seed=seed)
    raise AnalysisError(
        f"unknown surrogate {name!r}; expected one of "
        f"{', '.join(SURROGATE_NAMES)}")

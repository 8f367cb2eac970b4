"""Lazy N-dimensional design spaces.

A :class:`GridSpace` is the cross product of named, ordered value axes —
machine fields and ``input:<name>`` workload inputs — addressed *by
index* in the same row-major order as :func:`~repro.parallel.sweep_grid`
(last axis varies fastest).  Nothing is materialized: a 10^8-point space
costs a few hundred bytes, and :meth:`GridSpace.cell` decodes any index
into its override dict on demand.  That is what lets the explorer reason
about spaces far beyond exhaustive reach while still evaluating the few
cells it picks through the exact engine.  The explorer's acquisition
step decodes whole candidate pools at once: :meth:`GridSpace.coords_array`,
:meth:`~GridSpace.unit_coords_array` and :meth:`~GridSpace.axis_values`
turn an index array into coordinate, unit-coordinate and axis-value
arrays with the same arithmetic as the one-index accessors.

Initial designs come from :meth:`GridSpace.sample_initial`: a shifted
Halton sequence (one prime base per axis, with a per-axis SHA-256-seeded
rotation from :mod:`repro.rng`) quantized onto the axis lattice — a
low-discrepancy space-filling set that is a pure function of
``(axes, seed)``, with no wall-clock or global-RNG dependence.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..rng import CounterRNG, unit_fraction

__all__ = ["GridSpace", "halton"]

#: prime bases for the Halton sequence, one per axis (13 axes is far
#: beyond any machine×input co-design space in this repo)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: largest space whose flat indices fit the int64 index arrays
_MAX_SIZE = np.iinfo(np.int64).max


def halton(index: int, base: int) -> float:
    """Element ``index`` (0-based) of the van der Corput sequence in
    ``base`` — the 1-D building block of the Halton sequence."""
    result, f = 0.0, 1.0 / base
    index += 1                      # skip the degenerate 0.0 element
    while index > 0:
        index, digit = divmod(index, base)
        result += digit * f
        f /= base
    return result


class GridSpace:
    """The lazy cross product of ordered value axes.

    ``axes`` maps axis name → sequence of values; axis order is
    significant (row-major addressing, last axis fastest) and preserved.
    Values are kept exactly as given — they are handed verbatim to the
    evaluation engine, so no float round-tripping can break the
    bit-identical guarantee.
    """

    def __init__(self, axes: Dict[str, Sequence[float]]):
        if not axes:
            raise AnalysisError("a GridSpace needs at least one axis")
        self.names: Tuple[str, ...] = tuple(axes)
        self.values: Tuple[Tuple[float, ...], ...] = tuple(
            tuple(values) for values in axes.values())
        for name, values in zip(self.names, self.values):
            if not values:
                raise AnalysisError(
                    f"axis {name!r} needs at least one value")
            if len(set(values)) != len(values):
                raise AnalysisError(
                    f"axis {name!r} has duplicate values")
        if len(self.names) > len(_PRIMES):
            raise AnalysisError(
                f"GridSpace supports at most {len(_PRIMES)} axes")
        self.shape: Tuple[int, ...] = tuple(
            len(values) for values in self.values)
        size = 1
        for extent in self.shape:
            size *= extent
        if size > _MAX_SIZE:
            raise AnalysisError(
                f"GridSpace supports at most {_MAX_SIZE} cells")
        self.size: int = size
        # row-major strides, last axis fastest — matches sweep_grid
        strides: List[int] = [1] * len(self.shape)
        for axis in range(len(self.shape) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * self.shape[axis + 1]
        self.strides: Tuple[int, ...] = tuple(strides)

    # -- addressing -----------------------------------------------------
    def coords(self, index: int) -> Tuple[int, ...]:
        """Per-axis value indices of flat ``index``."""
        return tuple(self.coords_array([index])[0].tolist())

    def index(self, coords: Sequence[int]) -> int:
        """Flat index of per-axis value indices ``coords``."""
        if len(coords) != len(self.shape):
            raise AnalysisError(
                f"expected {len(self.shape)} coordinates, "
                f"got {len(coords)}")
        flat = 0
        for coord, stride, extent in zip(coords, self.strides,
                                         self.shape):
            if not 0 <= coord < extent:
                raise IndexError(f"coordinate {coord} outside axis "
                                 f"extent {extent}")
            flat += coord * stride
        return flat

    def cell(self, index: int) -> Dict[str, float]:
        """The override dict for flat ``index`` (engine-ready)."""
        return {name: values[coord]
                for name, values, coord
                in zip(self.names, self.values, self.coords(index))}

    def unit_coords(self, index: int) -> Tuple[float, ...]:
        """Coordinates normalized to [0, 1] per axis — the surrogate
        feature vector for ``index`` (single-value axes map to 0)."""
        return tuple(self.unit_coords_array([index])[0].tolist())

    # -- whole-array addressing -----------------------------------------
    def coords_array(self, indices: Sequence[int]) -> "np.ndarray":
        """``(N, axes)`` int64 per-axis value indices of flat ``indices``
        — :meth:`coords` for a whole index array."""
        flat = np.asarray(indices, dtype=np.int64).reshape(-1, 1)
        if flat.size and (flat.min() < 0 or flat.max() >= self.size):
            raise IndexError(f"index outside space of {self.size} "
                             "points")
        return (flat // np.asarray(self.strides, dtype=np.int64)) \
            % np.asarray(self.shape, dtype=np.int64)

    def unit_coords_array(self, indices: Sequence[int]) -> "np.ndarray":
        """``(N, axes)`` surrogate feature matrix of flat ``indices``.

        Each coordinate is divided by ``extent - 1`` as a correctly
        rounded float64 quotient of two exact integers, so every entry
        equals the Python ``coord / (extent - 1)``; single-value axes
        map to 0."""
        coords = self.coords_array(indices)
        divisors = np.asarray([max(extent - 1, 1) for extent in self.shape],
                              dtype=np.float64)
        return coords / divisors

    def axis_values(self, indices: Sequence[int],
                    name: str) -> "np.ndarray":
        """Float64 values of axis ``name`` at flat ``indices``."""
        axis = self.names.index(name)
        values = np.asarray(self.values[axis], dtype=np.float64)
        return values[self.coords_array(indices)[:, axis]]

    def neighbors(self, index: int) -> List[int]:
        """Flat indices one lattice step away along each axis."""
        coords = self.coords(index)
        found: List[int] = []
        for axis, (coord, extent) in enumerate(zip(coords, self.shape)):
            for step in (-1, 1):
                moved = coord + step
                if 0 <= moved < extent:
                    found.append(index + step * self.strides[axis])
        return found

    # -- identity -------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the axis spec (checkpoint/export identity)."""
        spec = tuple((name, values)
                     for name, values in zip(self.names, self.values))
        return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, List[float]]:
        """The axes as a plain ``{name: [values]}`` dict (JSON-ready)."""
        return {name: list(values)
                for name, values in zip(self.names, self.values)}

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        extents = ", ".join(f"{name}[{extent}]" for name, extent
                            in zip(self.names, self.shape))
        return f"GridSpace({extents}; {self.size} points)"

    # -- deterministic initial designs ----------------------------------
    def corners(self, limit: int = 0) -> List[int]:
        """Flat indices of the lattice corners (every coordinate at its
        axis minimum or maximum), in deterministic bit-pattern order —
        all-minimum first.  Corner cells anchor the objective extremes
        (axis-objective frontiers end on an edge of the lattice), so
        initial designs seed them before space-filling.  ``limit`` > 0
        caps the count; duplicate corners from single-value axes are
        dropped."""
        dims = len(self.shape)
        total = 1 << dims
        chosen: List[int] = []
        seen = set()
        for pattern in range(total):
            coords = tuple(
                (extent - 1) if pattern >> axis & 1 else 0
                for axis, extent in enumerate(self.shape))
            flat = self.index(coords)
            if flat in seen:
                continue
            seen.add(flat)
            chosen.append(flat)
            if limit and len(chosen) >= limit:
                break
        return chosen

    def sample_initial(self, count: int, seed: int = 0,
                       exclude: Iterable[int] = ()) -> List[int]:
        """``count`` distinct low-discrepancy indices, seedably.

        Axis ``j`` follows the van der Corput sequence in the ``j``-th
        prime base, rotated by a per-axis fraction derived from
        ``seed`` via SHA-256 (:func:`repro.rng.unit_fraction`) so
        different seeds give different — but individually reproducible —
        space-filling designs.  Fractions are quantized onto the axis
        lattice; collisions (inevitable once ``count`` nears an axis
        extent) are skipped and, if the sequence alone cannot reach
        ``count`` distinct cells, topped up from a seeded uniform draw.
        """
        excluded = set(exclude)
        count = min(count, self.size - len(excluded))
        if count <= 0:
            return []
        shifts = [unit_fraction(seed, "halton-shift", axis)
                  for axis in range(len(self.shape))]
        chosen: List[int] = []
        seen = set(excluded)
        draw = 0
        # each miss burns one sequence element; 64x oversampling is far
        # beyond what quantization collisions need before the top-up
        limit = max(count * 64, 256)
        while len(chosen) < count and draw < limit:
            coords = []
            for axis, extent in enumerate(self.shape):
                fraction = halton(draw, _PRIMES[axis]) + shifts[axis]
                fraction -= int(fraction)        # wrap into [0, 1)
                coords.append(min(extent - 1, int(fraction * extent)))
            draw += 1
            flat = self.index(coords)
            if flat in seen:
                continue
            seen.add(flat)
            chosen.append(flat)
        if len(chosen) < count:
            rng = CounterRNG("initial-topup", seed, self.fingerprint())
            chosen.extend(rng.sample_distinct(
                self.size, count - len(chosen), exclude=seen))
        return chosen

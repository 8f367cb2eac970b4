"""Lane grouping for heterogeneous cell lists (DESIGN.md §15).

A cell list interleaves machine overrides and ``input:`` bindings in any
mix.  The scalar path walks the cells one at a time; the vector backend
wants the opposite shape — *lane arrays*: cells evaluated together, the
inputs as columns of one :meth:`~repro.bet.SymbolicBET.rebind_batch`
replay (or one prebuilt tree when there are none) and each lane's machine
as a column of one :class:`~repro.hardware.MachineLanes`.  Only the input
axes constrain a lane array (its input columns must be rectangular); the
machine fields may differ in every lane.  This module is the planning
layer between the two:

:func:`plan_lane_chunks`
    partitions an arbitrary cell list into chunks whose cells all share
    one input-key set, so every shipped chunk is a *lane-group slice* —
    the shard unit of the grouped dispatch path.  Cells that cannot
    batch (non-numeric values) land in scalar residue chunks instead of
    poisoning a group, and so do groups too small to batch.

:class:`LanePack` / :func:`pack_cells`
    the packed SoA transport for one lane-group slice: one column per
    axis instead of N per-point dicts, so pool/multinode executors
    serialize each group once.  The pack reconstructs the original cell
    dicts bit-identically on the worker (:meth:`LanePack.cells`), which
    keeps checkpoint keys, fallback rebinds, and ``GridPoint.overrides``
    indistinguishable from the per-dict path.

The planner never reorders cells *within* a group and never batches
two groups together, so results scatter back to the caller's original
cell order through the chunk's explicit position list (see
``_run_chunked``'s ``chunks`` parameter in
:mod:`repro.parallel.engine`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: axis-name prefix marking an input (workload) parameter in a mixed grid
INPUT_PREFIX = "input:"


def split_overrides(
        overrides: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Partition one cell into (machine overrides, input bindings)."""
    machine_part = {name: value for name, value in overrides.items()
                    if not name.startswith(INPUT_PREFIX)}
    input_part = {name[len(INPUT_PREFIX):]: value
                  for name, value in overrides.items()
                  if name.startswith(INPUT_PREFIX)}
    return machine_part, input_part


def _numeric(value) -> bool:
    return (not isinstance(value, bool)
            and isinstance(value, (int, float)))


def cell_signature(cell: Dict[str, float]) -> Optional[Tuple[str, ...]]:
    """The lane-group key of one cell, or ``None`` if it cannot batch.

    Two cells belong to the same lane group exactly when they override
    the same set of input axes (so the group transposes into rectangular
    input columns); their machine overrides may differ in any field.
    Cells with non-numeric values are unbatchable (``None``) and take
    the scalar residue path.
    """
    if not all(map(_numeric, cell.values())):
        return None
    return tuple(sorted(name for name in cell
                        if name.startswith(INPUT_PREFIX)))


def one_lane_group(cells: Sequence[Dict[str, Any]]) -> bool:
    """Whether ``cells`` all share one batchable signature: a lane-group
    slice as :func:`plan_lane_chunks` cuts them, not a residue chunk."""
    first = cell_signature(cells[0]) if cells else None
    return first is not None and all(
        cell_signature(cell) == first for cell in cells[1:])


class LanePack:
    """One lane-group slice as a packed SoA payload.

    ``columns`` maps each axis name, machine field or
    ``input:``-prefixed, to its per-lane value list; ``order`` is the
    key order of the original cell dicts (shared by every cell in the
    pack, enforced by :func:`pack_cells`).  Values keep their original
    Python types (``int`` stays ``int``) so :meth:`cells` reconstructs
    dicts that compare — and checkpoint-key, and machine-name-tag —
    identically to the originals.
    """

    __slots__ = ("columns", "order", "count")

    def __init__(self, columns: Dict[str, List[Any]],
                 order: Tuple[str, ...], count: int):
        self.columns = columns
        self.order = order
        self.count = count

    def __len__(self) -> int:
        return self.count

    def cells(self) -> List[Dict[str, Any]]:
        """Reconstruct the original per-lane cell dicts, key order and
        all (the machine name tag iterates dict order, so order is part
        of bit-identity)."""
        columns = [self.columns[name] for name in self.order]
        return [dict(zip(self.order, values)) for values in zip(*columns)] \
            if columns else [{} for _ in range(self.count)]


def input_columns(cells: Sequence[Dict[str, Any]],
                  base_inputs: Dict[str, Any]
                  ) -> Optional[Dict[str, List[Any]]]:
    """Merged input columns of one lane group for :meth:`rebind_batch`.

    Base bindings become constant columns; per-lane overrides win,
    mirroring the scalar path's ``{**base_inputs, **input_part}``.
    ``None`` when a base binding is not numeric (the scalar path binds
    it as given).
    """
    if not all(map(_numeric, base_inputs.values())):
        return None
    cols: Dict[str, List[Any]] = {name: [value] * len(cells)
                                  for name, value in base_inputs.items()}
    for name in (cells[0] if cells else ()):
        if name.startswith(INPUT_PREFIX):
            cols[name[len(INPUT_PREFIX):]] = [cell[name] for cell in cells]
    return cols


def pack_cells(cells: Sequence[Dict[str, Any]]) -> Optional[LanePack]:
    """Pack a uniform cell list into one :class:`LanePack`.

    Returns ``None`` when the cells do not share one key *order* (dict
    order feeds the machine name tag) or hold non-numeric values.  The
    caller then ships the plain dict list instead (still evaluated as
    one lane array per chunk); packing is an optimization, never a
    requirement.
    """
    if not cells:
        return None
    order = tuple(cells[0])
    columns: Dict[str, List[Any]] = {name: [] for name in order}
    for cell in cells:
        if tuple(cell) != order or cell_signature(cell) is None:
            return None
        for name, value in cell.items():
            columns[name].append(value)
    return LanePack(columns=columns, order=order, count=len(cells))


def plan_lane_chunks(cells: Sequence[Dict[str, Any]],
                     chunk_size: int,
                     min_lanes: int = 1) -> List[List[int]]:
    """Partition ``cells`` into lane-group-aligned chunks.

    Returns position lists into ``cells``: every chunk is either a slice
    of one lane group (same input keys, original relative order —
    vector-eligible) or a slice of the residue (evaluated scalar): the
    unbatchable cells plus every group of fewer than ``min_lanes``
    cells, which would run the scalar loop anyway and so share chunks
    instead of paying one chunk each.  Groups appear in first-encounter
    order, each split at ``chunk_size``; the residue keeps its own
    original order.  The lists form an exact partition of
    ``range(len(cells))``.
    """
    chunk_size = max(1, int(chunk_size))
    groups: Dict[Tuple, List[int]] = {}
    residue: List[int] = []
    for position, cell in enumerate(cells):
        signature = cell_signature(cell)
        if signature is None:
            residue.append(position)
        else:
            groups.setdefault(signature, []).append(position)
    chunks: List[List[int]] = []
    for positions in groups.values():
        if len(positions) < min_lanes:
            residue.extend(positions)
            continue
        for start in range(0, len(positions), chunk_size):
            chunks.append(positions[start:start + chunk_size])
    residue.sort()
    for start in range(0, len(residue), chunk_size):
        chunks.append(residue[start:start + chunk_size])
    return chunks

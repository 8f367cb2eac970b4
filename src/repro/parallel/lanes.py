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

:func:`plan_lanes`
    partitions an arbitrary cell list into chunks whose cells all share
    one input-key set, so every shipped chunk is a *lane-group slice* —
    the shard unit of the grouped dispatch path.  Cells that cannot
    batch (non-numeric values) land in scalar residue chunks instead of
    poisoning a group, and so do groups too small to batch.  The two
    kinds come back apart, so the engine knows which chunks to batch
    without computing a cell's signature again.

:func:`input_columns`
    one lane group's input bindings as the columns of one batch replay.

The planner never reorders cells *within* a group and never batches
two groups together, so results scatter back to the caller's original
cell order through the chunk's explicit index list (see
``_run_chunked``'s ``chunks`` parameter in
:mod:`repro.parallel.engine`).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..hardware.machine import NUMERIC_FIELDS

#: axis-name prefix marking an input (workload) parameter in a mixed grid
INPUT_PREFIX = "input:"


def check_parameter(name: str) -> None:
    """Refuse a name no cell may override: a cell sets workload inputs
    (``input:<name>``) and numeric machine fields, not the machine's
    ``name``, a derived property (``cycle_time``) or a method."""
    if name not in NUMERIC_FIELDS and not name.startswith(INPUT_PREFIX):
        raise AnalysisError(
            f"machine has no parameter {name!r} (cells override "
            f"{', '.join(NUMERIC_FIELDS)} or input:<name>)")


def check_inputs(program, names: Iterable[str]) -> None:
    """Refuse an ``input:`` name that ``program`` does not take.

    An input binds a top-level ``param`` (overriding its default) or a
    parameter of ``main``.  Any other name would bind as an unused extra,
    so a typo would read as an input the model does not depend on.
    Names without the prefix are :func:`check_parameter`'s to judge.
    """
    known = {*program.params, *program.entry.params}
    for name in names:
        if (name.startswith(INPUT_PREFIX)
                and name[len(INPUT_PREFIX):] not in known):
            raise AnalysisError(
                f"axis {name!r} names no input of the program (its "
                f"params and main's parameters: {sorted(known)})")


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


def plan_lanes(cells: Sequence[Dict[str, Any]],
               chunk_size: int,
               min_lanes: int = 1
               ) -> Tuple[List[List[int]], List[List[int]]]:
    """Partition ``cells`` into lane-group-aligned chunks.

    Returns ``(groups, residue)``, two lists of position lists into
    ``cells``.  Each of ``groups`` is a slice of one lane group (same
    input keys, original relative order — vector-eligible); each of
    ``residue`` a slice of the cells evaluated scalar: the unbatchable
    cells plus every group of fewer than ``min_lanes`` cells, which
    would run the scalar loop anyway and so share chunks instead of
    paying one chunk each.  Groups appear in first-encounter order, each
    split at ``chunk_size``; the residue keeps its own original order.
    Together the lists form an exact partition of ``range(len(cells))``.
    """
    chunk_size = max(1, int(chunk_size))
    # a cell's signature follows from its shape — its keys in order, and
    # its value types unless every value of the list is a plain int or
    # float — so cells are bucketed by shape and each bucket signed once
    if set(map(type, chain.from_iterable(map(dict.values, cells)))) \
            <= {int, float}:
        shapes = list(map(tuple, cells))
    else:
        shapes = [(*cell, *map(type, cell.values())) for cell in cells]
    buckets: Dict[Tuple, List[int]] = {}
    if len(dict.fromkeys(shapes)) == 1:
        buckets[shapes[0]] = list(range(len(cells)))
    else:
        for position, shape in enumerate(shapes):
            bucket = buckets.get(shape)
            if bucket is None:
                bucket = buckets[shape] = []
            bucket.append(position)
    # buckets come in first-appearance order, so groups do too
    groups: Dict[Tuple, List[int]] = {}
    residue: List[int] = []
    for positions in buckets.values():
        signature = cell_signature(cells[positions[0]])
        (residue if signature is None
         else groups.setdefault(signature, [])).extend(positions)
    chunks: List[List[int]] = []
    for positions in groups.values():
        if len(positions) < min_lanes:
            residue.extend(positions)
            continue
        positions.sort()       # a group of several shapes interleaves them
        for start in range(0, len(positions), chunk_size):
            chunks.append(positions[start:start + chunk_size])
    residue.sort()
    return chunks, [residue[start:start + chunk_size]
                    for start in range(0, len(residue), chunk_size)]

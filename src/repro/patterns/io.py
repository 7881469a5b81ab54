"""Pattern (de)serialization.

A single pattern is exchanged as JSON (:func:`save_pattern`,
:func:`load_pattern`, ``repro pattern --save``).  The schema is:

.. code-block:: json

    {"name": "...", "nnodes": 23, "grid": [[0, 1], [2, -1]]}

Malformed input — invalid JSON, missing keys, ragged or non-numeric
grids, an ``nnodes`` that contradicts the grid — raises
:class:`~repro.patterns.base.PatternError` naming the offending file
path, never a raw ``KeyError``/``IndexError``.

A pattern *database* — many patterns keyed by P — is a
:class:`~repro.patterns.store.PatternStore` directory of npz shards;
:func:`pattern_from_arrays` is the validating constructor its reader
builds each entry with.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .base import Pattern, PatternError

__all__ = ["pattern_to_dict", "pattern_from_dict", "pattern_from_arrays",
           "save_pattern", "load_pattern"]


def pattern_to_dict(pattern: Pattern) -> dict:
    return {
        "name": pattern.name,
        "nnodes": pattern.nnodes,
        "grid": pattern.grid.tolist(),
    }


def pattern_from_dict(data: dict, context: str = "") -> Pattern:
    """Build a :class:`Pattern` from the JSON schema, validating shape.

    ``context`` (a file path) is prefixed to every error message so a
    bad file is locatable.
    """
    where = f"{context}: " if context else ""
    if not isinstance(data, dict):
        raise PatternError(f"{where}pattern entry must be a JSON object, "
                           f"got {type(data).__name__}")
    for key in ("grid", "nnodes"):
        if key not in data:
            raise PatternError(f"{where}missing required key {key!r}")
    grid = data["grid"]
    if (not isinstance(grid, list) or not grid
            or not all(isinstance(row, list) for row in grid)):
        raise PatternError(f"{where}'grid' must be a non-empty list of rows")
    ncols = len(grid[0])
    for i, row in enumerate(grid):
        if len(row) != ncols:
            raise PatternError(
                f"{where}ragged grid: row {i} has {len(row)} entries, "
                f"row 0 has {ncols}")
        for j, cell in enumerate(row):
            if not isinstance(cell, int) or isinstance(cell, bool):
                raise PatternError(
                    f"{where}grid[{i}][{j}] must be an integer node id, "
                    f"got {cell!r}")
    nnodes = data["nnodes"]
    if not isinstance(nnodes, int) or isinstance(nnodes, bool) or nnodes <= 0:
        raise PatternError(f"{where}'nnodes' must be a positive integer, "
                           f"got {nnodes!r}")
    max_node = max(max(row) for row in grid)
    if max_node >= nnodes:
        raise PatternError(
            f"{where}grid references node {max_node} but nnodes is {nnodes}")
    try:
        return Pattern(grid, nnodes=nnodes, name=data.get("name", ""))
    except PatternError as exc:
        raise PatternError(f"{where}{exc}") from None


def pattern_from_arrays(cells: np.ndarray, nrows: int, ncols: int,
                        nnodes: int, name: str = "",
                        context: str = "") -> Pattern:
    """Build a :class:`Pattern` from a flattened cell array, validating.

    The columnar counterpart of :func:`pattern_from_dict`, used by the
    npz shard store: ``cells`` is the row-major flattening of the grid.
    All failure modes raise :class:`PatternError` prefixed with
    ``context`` (a shard path plus entry key), never a raw numpy error.
    """
    where = f"{context}: " if context else ""
    cells = np.asarray(cells)
    if cells.ndim != 1:
        raise PatternError(f"{where}cell array must be 1-D, got shape "
                           f"{cells.shape}")
    if not np.issubdtype(cells.dtype, np.integer):
        raise PatternError(f"{where}cell array must be integer-typed, "
                           f"got dtype {cells.dtype}")
    nrows, ncols, nnodes = int(nrows), int(ncols), int(nnodes)
    if nrows < 1 or ncols < 1:
        raise PatternError(f"{where}grid shape must be positive, got "
                           f"{nrows}x{ncols}")
    if cells.size != nrows * ncols:
        raise PatternError(
            f"{where}cell array has {cells.size} entries, expected "
            f"{nrows}x{ncols} = {nrows * ncols}")
    if nnodes < 1:
        raise PatternError(f"{where}'nnodes' must be a positive integer, "
                           f"got {nnodes}")
    if cells.size and int(cells.max()) >= nnodes:
        raise PatternError(
            f"{where}grid references node {int(cells.max())} but nnodes "
            f"is {nnodes}")
    try:
        return Pattern(cells.astype(np.int64).reshape(nrows, ncols),
                       nnodes=nnodes, name=name)
    except PatternError as exc:
        raise PatternError(f"{where}{exc}") from None


def save_pattern(pattern: Pattern, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(pattern_to_dict(pattern), indent=1))


def load_pattern(path: Union[str, Path]) -> Pattern:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PatternError(f"{path}: invalid JSON: {exc}") from None
    return pattern_from_dict(data, context=str(path))

"""Core pattern abstraction.

A *pattern* is a small rectangular grid of node identifiers that is
replicated cyclically over the tiles of a matrix: the tile at position
``(i, j)`` of the matrix is owned by the node stored in cell
``(i mod r, j mod c)`` of the pattern (Section III of the paper).

Patterns for symmetric kernels (Cholesky, SYRK) must be square, and may
leave their *diagonal* cells undefined: a diagonal cell belongs to a
single colrow, so its replicas on the full matrix can be assigned at
distribution time to any node of that colrow without changing the
communication cost (Section V).  Undefined cells are stored as
:data:`UNDEFINED` (−1).

The communication-cost statistics of Section III are exposed as cached
properties:

``row_counts``      number of distinct nodes per pattern row  (x_i)
``col_counts``      number of distinct nodes per pattern column (y_j)
``colrow_counts``   number of distinct nodes per pattern colrow (z_i)
``cost_lu``         T(G) = x̄ + ȳ           (Equation 1, LU)
``cost_cholesky``   T(G) = z̄                (Equation 2, Cholesky)
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.topology import Topology

__all__ = ["UNDEFINED", "Pattern", "PatternError", "hier_mean"]

#: Marker for an undefined (unassigned) pattern cell.  Only diagonal
#: cells of square symmetric patterns may be undefined.
UNDEFINED: int = -1


class PatternError(ValueError):
    """Raised when a pattern grid is structurally invalid."""


class Pattern:
    """An ``r × c`` grid of node identifiers, replicated cyclically.

    Parameters
    ----------
    grid:
        2-D integer array-like. Entries are node identifiers in
        ``0 .. nnodes-1`` or :data:`UNDEFINED` for unassigned diagonal
        cells (square patterns only).
    nnodes:
        Total number of nodes ``P``.  Defaults to ``max(grid) + 1``.
        It may exceed the number of distinct values in the grid (a node
        may own no cell), which is occasionally useful while building
        patterns, but :meth:`validate` flags it.
    name:
        Optional human-readable label (e.g. ``"2DBC 7x3"``).
    """

    __slots__ = ("_grid", "_nnodes", "name", "__dict__")

    def __init__(self, grid, nnodes: int | None = None, name: str = ""):
        arr = np.asarray(grid, dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise PatternError(f"pattern grid must be 2-D and non-empty, got shape {arr.shape}")
        if arr.min(initial=0) < UNDEFINED:
            raise PatternError("pattern entries must be node ids >= 0, or UNDEFINED (-1)")
        undef = arr == UNDEFINED
        if undef.any():
            if arr.shape[0] != arr.shape[1]:
                raise PatternError("only square patterns may contain undefined cells")
            rr, cc = np.nonzero(undef)
            if (rr != cc).any():
                raise PatternError("only diagonal cells may be undefined")
        inferred = int(arr.max(initial=UNDEFINED)) + 1
        if inferred <= 0:
            raise PatternError("pattern must contain at least one defined cell")
        self._nnodes = inferred if nnodes is None else int(nnodes)
        if self._nnodes < inferred:
            raise PatternError(
                f"nnodes={self._nnodes} is smaller than the largest node id + 1 ({inferred})"
            )
        arr.setflags(write=False)
        self._grid = arr
        self.name = name or f"pattern {arr.shape[0]}x{arr.shape[1]} on {self._nnodes} nodes"

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def grid(self) -> np.ndarray:
        """The (read-only) underlying grid."""
        return self._grid

    @property
    def shape(self) -> tuple[int, int]:
        return self._grid.shape  # type: ignore[return-value]

    @property
    def nrows(self) -> int:
        return self._grid.shape[0]

    @property
    def ncols(self) -> int:
        return self._grid.shape[1]

    @property
    def nnodes(self) -> int:
        """Number of nodes ``P`` this pattern distributes over."""
        return self._nnodes

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def has_undefined(self) -> bool:
        return bool((self._grid == UNDEFINED).any())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pattern)
            and self._nnodes == other._nnodes
            and self._grid.shape == other._grid.shape
            and bool((self._grid == other._grid).all())
        )

    def __hash__(self) -> int:
        return hash((self._nnodes, self._grid.shape, self._grid.tobytes()))

    def __reduce__(self):
        """Unpickle through the constructor, so the grid stays read-only."""
        return Pattern, (self._grid, self._nnodes, self.name)

    def __repr__(self) -> str:
        return f"Pattern(name={self.name!r}, shape={self.nrows}x{self.ncols}, nnodes={self.nnodes})"

    def owner(self, i: int, j: int) -> int:
        """Owner of matrix tile ``(i, j)`` under cyclic replication.

        Returns :data:`UNDEFINED` if the corresponding cell is undefined.
        """
        return int(self._grid[i % self.nrows, j % self.ncols])

    # ------------------------------------------------------------------
    # load statistics
    # ------------------------------------------------------------------
    @cached_property
    def cell_counts(self) -> np.ndarray:
        """``cell_counts[p]`` = number of pattern cells assigned to node p."""
        flat = self._grid[self._grid != UNDEFINED]
        return np.bincount(flat, minlength=self._nnodes)

    @property
    def is_balanced(self) -> bool:
        """True when every node owns the same number of (defined) cells."""
        counts = self.cell_counts
        return bool(counts.min() == counts.max())

    @property
    def is_quasi_balanced(self) -> bool:
        """True when node cell counts differ by at most one."""
        counts = self.cell_counts
        return bool(counts.max() - counts.min() <= 1)

    def load_imbalance(self) -> float:
        """``max_load / mean_load`` over defined cells (1.0 = perfect)."""
        counts = self.cell_counts
        mean = counts.mean()
        if mean == 0:
            return float("inf")
        return float(counts.max() / mean)

    # ------------------------------------------------------------------
    # communication statistics (Section III)
    # ------------------------------------------------------------------
    @cached_property
    def row_counts(self) -> np.ndarray:
        """x_i: number of distinct (defined) nodes on each pattern row."""
        return _ndistinct_rows(self._grid)

    @cached_property
    def col_counts(self) -> np.ndarray:
        """y_j: number of distinct (defined) nodes on each pattern column."""
        return _ndistinct_rows(self._grid.T)

    @cached_property
    def colrow_counts(self) -> np.ndarray:
        """z_i: number of distinct (defined) nodes on each pattern colrow.

        Only meaningful for square patterns; colrow ``i`` is the union of
        row ``i`` and column ``i`` (Definition 1).
        """
        return _ndistinct_rows(self._colrow_matrix)

    @cached_property
    def _colrow_matrix(self) -> np.ndarray:
        """Row ``i`` holds colrow ``i``: ``[grid[i, :], grid[:, i]]``."""
        if not self.is_square:
            raise PatternError("colrow statistics require a square pattern")
        return np.concatenate([self._grid, self._grid.T], axis=1)

    @property
    def mean_row_count(self) -> float:
        """x̄ — average number of distinct nodes per row."""
        return float(self.row_counts.mean())

    @property
    def mean_col_count(self) -> float:
        """ȳ — average number of distinct nodes per column."""
        return float(self.col_counts.mean())

    @property
    def mean_colrow_count(self) -> float:
        """z̄ — average number of distinct nodes per colrow (square only)."""
        return float(self.colrow_counts.mean())

    @cached_property
    def cache_key(self) -> tuple:
        """Canonical identity used by the global cost memoization cache."""
        from ..cost.cache import pattern_key  # lazy: repro.cost imports this module

        return pattern_key(self._grid, self._nnodes)

    def _memoized(self, metric, compute) -> float:
        """Look ``metric`` up in the process-global LRU cost cache.

        Equal grids built as distinct instances (search seeds, database
        reloads, benchmark reruns) share one computation.
        """
        from ..cost.cache import COST_CACHE  # lazy: repro.cost imports this module

        return COST_CACHE.get_or_compute(self.cache_key + (metric,), compute)

    @property
    def cost_lu(self) -> float:
        """Communication cost ``T(G) = x̄ + ȳ`` for LU (Section III-C)."""
        return self._memoized("lu", lambda: self.mean_row_count + self.mean_col_count)

    @property
    def cost_cholesky(self) -> float:
        """Communication cost ``T(G) = z̄`` for Cholesky (square patterns)."""
        return self._memoized("cholesky", lambda: self.mean_colrow_count)

    def cost(self, kernel: str) -> float:
        """Dispatch on ``kernel`` in {"lu", "cholesky"}."""
        if kernel == "lu":
            return self.cost_lu
        if kernel == "cholesky":
            return self.cost_cholesky
        raise ValueError(f"unknown kernel {kernel!r}; expected 'lu' or 'cholesky'")

    # ------------------------------------------------------------------
    # hierarchical (two-level) communication statistics
    # ------------------------------------------------------------------
    def _node_grid(self, topology: "Topology") -> np.ndarray:
        """The grid with every rank id replaced by its node id.

        Undefined cells stay :data:`UNDEFINED`; distinct counts over the
        mapped grid are distinct *node* counts.
        """
        if topology.nranks < self._nnodes:
            raise PatternError(
                f"topology covers {topology.nranks} ranks but the pattern "
                f"references {self._nnodes}")
        mapped = self._grid.copy()
        mask = mapped != UNDEFINED
        mapped[mask] = topology.rank_nodes[mapped[mask]]
        return mapped

    def row_node_counts(self, topology: "Topology") -> np.ndarray:
        """Distinct *nodes* per pattern row under ``topology``."""
        return _ndistinct_rows(self._node_grid(topology))

    def col_node_counts(self, topology: "Topology") -> np.ndarray:
        """Distinct *nodes* per pattern column under ``topology``."""
        return _ndistinct_rows(self._node_grid(topology).T)

    def colrow_node_counts(self, topology: "Topology") -> np.ndarray:
        """Distinct *nodes* per pattern colrow under ``topology``."""
        g = self._node_grid(topology)
        if not self.is_square:
            raise PatternError("colrow statistics require a square pattern")
        return _ndistinct_rows(np.concatenate([g, g.T], axis=1))

    def cost_hier(self, kernel: str, topology: "Topology",
                  inter_weight: float = 4.0) -> float:
        """Hierarchical communication cost under a two-level topology.

        Each row/column/colrow contributes a weighted distinct count:
        every distinct *node* costs ``1`` (the message crosses the
        inter-node fabric) and every extra distinct *rank* beyond the
        first on a node costs ``1 / inter_weight`` (an intra-node copy,
        ``inter_weight`` times cheaper).  With ``Topology.flat(P)`` the
        intra term is exactly zero and the result is bit-identical to
        :meth:`cost` for any ``inter_weight``.
        """
        w = float(inter_weight)
        if w <= 0:
            raise ValueError(f"inter_weight must be > 0, got {inter_weight}")
        key = ("hier", kernel, topology.cache_key, w)
        if kernel == "lu":
            return self._memoized(key, lambda: (
                hier_mean(self.row_counts, self.row_node_counts(topology), w)
                + hier_mean(self.col_counts, self.col_node_counts(topology), w)
            ))
        if kernel == "cholesky":
            return self._memoized(key, lambda: hier_mean(
                self.colrow_counts, self.colrow_node_counts(topology), w))
        raise ValueError(f"unknown kernel {kernel!r}; expected 'lu' or 'cholesky'")

    # ------------------------------------------------------------------
    # colrow membership (used by symmetric distributions)
    # ------------------------------------------------------------------
    def colrow_nodes(self, i: int) -> frozenset[int]:
        """Set of defined nodes present on colrow ``i`` (square only)."""
        vals = self._colrow_matrix[i]
        vals = vals[vals != UNDEFINED]
        return frozenset(np.unique(vals).tolist())

    # ------------------------------------------------------------------
    # validation / display
    # ------------------------------------------------------------------
    def validate(self, require_balanced: bool = False, require_all_nodes: bool = True) -> None:
        """Raise :class:`PatternError` when structural expectations fail."""
        if require_all_nodes and (self.cell_counts == 0).any():
            missing = np.nonzero(self.cell_counts == 0)[0]
            raise PatternError(f"nodes own no cell: {missing.tolist()}")
        if require_balanced and not self.is_balanced:
            counts = self.cell_counts
            raise PatternError(
                f"pattern is not balanced: loads in [{counts.min()}, {counts.max()}]"
            )

    def to_text(self) -> str:
        """Render the grid as aligned text (``.`` for undefined cells)."""
        width = max(2, len(str(self._nnodes - 1)))
        lines = []
        for row in self._grid:
            lines.append(
                " ".join(("." * width if v == UNDEFINED else f"{v:>{width}d}") for v in row)
            )
        return "\n".join(lines)


def _ndistinct(values: np.ndarray) -> int:
    """Number of distinct defined node ids in ``values``."""
    vals = values[values != UNDEFINED]
    if vals.size == 0:
        return 0
    return int(np.unique(vals).size)


def _ndistinct_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct defined ids per row of a 2-D array, vectorized.

    One ``np.sort`` over the whole array replaces a Python loop of
    ``np.unique`` calls: after sorting each row, distinct values are
    the positions where consecutive entries differ, and the single
    :data:`UNDEFINED` run (which sorts first) is discounted.  Matches
    the per-row ``_ndistinct`` result exactly, including empty and
    all-undefined rows.
    """
    arr = np.asarray(rows)
    if arr.shape[1] == 0:
        return np.zeros(arr.shape[0], dtype=np.int64)
    s = np.sort(arr, axis=1)
    distinct = (s[:, 1:] != s[:, :-1]).sum(axis=1) + 1
    distinct -= s[:, 0] == UNDEFINED
    return distinct.astype(np.int64)


def hier_mean(rank_counts: np.ndarray, node_counts: np.ndarray,
              inter_weight: float) -> float:
    """Mean weighted distinct count over rows/cols/colrows.

    ``node_counts[i] + (rank_counts[i] - node_counts[i]) / inter_weight``
    charges ``1`` per distinct node and ``1/inter_weight`` per extra
    intra-node rank.  Shared by :meth:`Pattern.cost_hier` and the delta
    evaluator so both reduce the *same* float64 array with
    ``ndarray.mean`` — bit-identical results.  When
    ``node_counts == rank_counts`` (flat topology) the intra term is
    exactly ``0.0`` and the result equals ``float(rank_counts.mean())``
    bit-for-bit.
    """
    weighted = node_counts + (rank_counts - node_counts) / inter_weight
    return float(weighted.mean())


def pattern_from_rows(rows: Sequence[Iterable[int]], nnodes: int | None = None,
                      name: str = "") -> Pattern:
    """Convenience constructor from a list of row iterables."""
    return Pattern(np.array([list(r) for r in rows]), nnodes=nnodes, name=name)

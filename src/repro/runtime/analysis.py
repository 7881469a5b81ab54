"""Task-graph analysis: per-node memory footprint.

The makespan lower bounds live in :mod:`repro.cost.schedbounds`, whose
:func:`~repro.cost.schedbounds.makespan_bounds` (work, node-balance and
owner critical-path bounds) this module re-exports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cost.schedbounds import makespan_bounds
from .cluster import ClusterSpec
from .graph import TaskGraph

__all__ = [
    "makespan_bounds",
    "MemoryStats",
    "memory_footprint",
]


@dataclass(frozen=True)
class MemoryStats:
    """Per-node memory requirements of an execution.

    Distinguishes *owned* tiles (the node's share of the matrix, held
    for the whole run) from *cached* remote tiles (received copies kept
    by the runtime's data cache).  With no eviction — StarPU's default
    for data that keeps being reused — the peak footprint is their sum.
    The paper's Section II-A connects this M to the communication lower
    bounds: fair distribution means owned ≈ m²/P tiles per node, and a
    distribution with more row/column partners also caches more.
    """

    owned_tiles: np.ndarray
    cached_tiles: np.ndarray
    tile_bytes: int

    @property
    def peak_tiles(self) -> np.ndarray:
        return self.owned_tiles + self.cached_tiles

    @property
    def peak_bytes(self) -> np.ndarray:
        return self.peak_tiles * self.tile_bytes

    def overhead(self) -> float:
        """Cluster-wide cached-to-owned ratio (replication overhead)."""
        total_owned = self.owned_tiles.sum()
        return float(self.cached_tiles.sum() / total_owned) if total_owned else 0.0


def memory_footprint(
    graph: TaskGraph,
    cluster: ClusterSpec,
    data_home: np.ndarray | None = None,
) -> MemoryStats:
    """Compute :class:`MemoryStats` for ``graph`` on ``cluster``.

    ``data_home`` gives the initial owner of each datum; when omitted,
    a datum is attributed to the node of its first writer, and data
    that are never written (pure inputs) to their first reader.
    """
    n_data = graph.n_data
    cols = graph.columns
    rd = cols.read_data
    rnode = cols.node[graph.read_task]

    home = np.full(n_data, -1, dtype=np.int64)
    if data_home is not None:
        home[: len(data_home)] = data_home
    # first writer's node, then first reader's node for pure inputs —
    # reversed assignment keeps the *first* occurrence per datum
    fw = graph.first_writer
    no_home = (home < 0) & (fw >= 0)
    home[no_home] = cols.node[fw[no_home]]
    first_reader = np.full(n_data, -1, dtype=np.int64)
    first_reader[rd[::-1]] = rnode[::-1]
    no_home = (home < 0) & (first_reader >= 0)
    home[no_home] = first_reader[no_home]

    used = np.zeros(n_data, dtype=bool)
    used[cols.write_data] = True
    used[rd] = True
    owned = np.bincount(home[used & (home >= 0)], minlength=cluster.nnodes)

    # cached = distinct remote data per reader node
    remote = (home[rd] >= 0) & (home[rd] != rnode)
    pairs = np.unique(rnode[remote].astype(np.int64) * n_data + rd[remote])
    cached = np.bincount(pairs // n_data, minlength=cluster.nnodes)
    return MemoryStats(owned_tiles=owned.astype(np.int64),
                       cached_tiles=cached.astype(np.int64),
                       tile_bytes=cluster.tile_bytes)

"""Task-graph analysis: critical path and makespan lower bounds.

These are the classical scheduling bounds: any execution of the DAG on
the given cluster takes at least

* the *work bound* — total flops over total compute capacity,
* the *node-work bound* — the most loaded node's flops over its own
  capacity (owner-computes pins tasks, so no stealing can help),
* the *critical-path bound* — the longest dependency chain, counting
  kernel durations and one message time per cross-node edge.

The simulator's makespan always dominates all three (asserted by the
test-suite), and comparing measured makespans against them tells
whether a run is compute-, balance- or dependency-limited — the paper's
Figures 5-7 discussions in quantitative form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterSpec
from .graph import TaskGraph
from .network import intra_message_time
from .schedulers import bottom_levels
from .simplan import _csr

__all__ = [
    "GraphBounds",
    "critical_path",
    "makespan_bounds",
    "MemoryStats",
    "memory_footprint",
]


@dataclass(frozen=True)
class GraphBounds:
    """Makespan lower bounds for one (graph, cluster) pair."""

    work_bound: float        #: total flops / aggregate capacity
    node_work_bound: float   #: most loaded node's flops / its capacity
    critical_path: float     #: longest chain incl. message delays
    per_node_flops: np.ndarray

    @property
    def best(self) -> float:
        return max(self.work_bound, self.node_work_bound, self.critical_path)

    def limiting_factor(self, makespan: float) -> str:
        """Name the bound closest to an observed makespan."""
        gaps = {
            "work": makespan - self.work_bound,
            "node-balance": makespan - self.node_work_bound,
            "critical-path": makespan - self.critical_path,
        }
        return min(gaps, key=gaps.get)  # type: ignore[arg-type]


def critical_path(graph: TaskGraph, cluster: ClusterSpec) -> float:
    """Length of the longest dependency chain.

    Every task runs on its owner (:meth:`ClusterSpec.task_time`) and a
    cross-node read adds the least time any network model takes for it
    to the chain: :meth:`ClusterSpec.message_time`, or
    :func:`~repro.runtime.network.intra_message_time` between two ranks
    of one machine (the ``hierarchical`` model's intra-machine link).  One
    :func:`~repro.runtime.schedulers.bottom_levels` sweep over the
    reversed dependency CSR (consumers grouped by producer) gives every
    task's earliest finish time.
    """
    n = len(graph)
    node = graph.columns.node
    indptr, deps = graph.dependencies_csr()
    tids = np.arange(n)
    rev_indptr, consumers = _csr(np.repeat(tids, np.diff(indptr)), deps, n)
    producers = np.repeat(tids, np.diff(rev_indptr))
    src, dst = node[producers], node[consumers]
    delay = np.where(src != dst, cluster.message_time(), 0.0)
    if cluster.ranks_per_node > 1:
        machine = cluster.topology().rank_nodes
        delay[(src != dst) & (machine[src] == machine[dst])] = \
            intra_message_time(cluster)
    finish = bottom_levels(rev_indptr, consumers,
                           cluster.task_time(graph.columns.flops, node), delay)
    return float(finish.max(initial=0.0))


def makespan_bounds(graph: TaskGraph, cluster: ClusterSpec) -> GraphBounds:
    """Compute all lower bounds for ``graph`` on ``cluster``."""
    cols = graph.columns
    # bincount accumulates in scan order, so the per-node float sums are
    # identical to the old per-task loop
    per_node = np.bincount(cols.node, weights=cols.flops,
                           minlength=cluster.nnodes)

    total_capacity = cluster.total_speed() * cluster.core_flops
    node_bound = 0.0
    for node in range(cluster.nnodes):
        speed = cluster.node_speeds[node] if cluster.node_speeds else 1.0
        cap = cluster.cores_per_node * speed * cluster.core_flops
        if per_node[node] > 0:
            node_bound = max(node_bound, per_node[node] / cap)

    return GraphBounds(
        work_bound=graph.total_flops / total_capacity if total_capacity else 0.0,
        node_work_bound=node_bound,
        critical_path=critical_path(graph, cluster),
        per_node_flops=per_node,
    )


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

"""Machine model for the distributed-cluster simulator.

Calibrated by default to the paper's experimental platform (Section
IV-D): PlaFRIM *bora* nodes — 36-core Intel Xeon Skylake Gold 6240,
100 Gb/s OmniPath, 500×500 fp64 tiles, one MPI process per node, one
core reserved for the StarPU scheduler and one for MPI progression.

The numbers matter only through two ratios:

* tile kernel time vs. tile wire time (compute/communication balance);
* cores per node (intra-node parallelism hiding communication).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .schedulers import SCHEDULERS, registered_schedulers

__all__ = ["ClusterSpec", "paper_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Homogeneous cluster of ``nnodes`` multicore nodes.

    Attributes
    ----------
    nnodes:
        Number of nodes.
    cores_per_node:
        Worker cores available to kernels (physical cores minus the
        scheduler and communication cores).
    core_gflops:
        Sustained double-precision GFlop/s of one core running tile
        kernels (DGEMM-bound).
    bandwidth_Bps:
        Point-to-point NIC bandwidth, bytes/s.
    latency_s:
        Per-message latency.
    tile_size:
        Tile edge in elements.
    dtype_bytes:
        8 for fp64.
    rx_serialization:
        When True the receiving NIC also serializes incoming messages;
        the default models sender-side serialization only (eager sends
        with receive overlap, the usual MPI large-message behaviour).
    node_speeds:
        Optional per-node relative speed factors (length ``nnodes``).
        Empty tuple = homogeneous.  A factor of 2.0 makes that node's
        cores twice as fast — the heterogeneous extension of the
        paper's conclusion.
    fork_join:
        When True, a global barrier separates algorithm iterations
        (tasks of iteration ``k+1`` wait for *all* tasks of iteration
        ``k``) — the synchronized MPI-style execution the paper's
        Section II-C contrasts with the task-based model.
    ranks_per_node:
        Simulated ranks packed per *physical* node (two-level topology).
        The default ``1`` is the paper's flat model: each simulated
        "node" is its own machine.  With ``> 1``, the ``"hierarchical"``
        network model routes same-machine traffic over a fast intra-node
        link (see :meth:`topology`).
    bisection_Bps:
        Explicit global bisection bandwidth for the contention-family
        models.  ``None`` derives it from ``bandwidth_Bps`` and the
        node count.  Carried on the spec (rather than only on the model
        instance) so it lands in campaign rows and follows
        :meth:`with_nodes` resizing, where it is rescaled
        proportionally to the node count.
    """

    nnodes: int
    cores_per_node: int = 34
    core_gflops: float = 38.0
    bandwidth_Bps: float = 12.5e9
    latency_s: float = 1.5e-6
    tile_size: int = 500
    dtype_bytes: int = 8
    rx_serialization: bool = False
    node_speeds: tuple = ()
    multicast: str = "p2p"
    scheduler: str = "priority"
    fork_join: bool = False
    ranks_per_node: int = 1
    bisection_Bps: float | None = None

    def __post_init__(self):
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}")
        if self.bisection_Bps is not None and self.bisection_Bps <= 0:
            raise ValueError(
                f"bisection_Bps must be positive, got {self.bisection_Bps}")
        if self.multicast not in ("p2p", "tree"):
            raise ValueError(f"multicast must be 'p2p' or 'tree', got {self.multicast!r}")
        if self.scheduler not in SCHEDULERS:
            # eager validation: an unknown name must never fall through
            # to the event loop silently
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; registered "
                f"policies: {', '.join(registered_schedulers())}"
            )
        if self.node_speeds and len(self.node_speeds) != self.nnodes:
            raise ValueError(
                f"node_speeds has {len(self.node_speeds)} entries for "
                f"{self.nnodes} nodes"
            )
        if any(s <= 0 for s in self.node_speeds):
            raise ValueError("node speeds must be positive")

    # ------------------------------------------------------------------
    @property
    def tile_bytes(self) -> int:
        return self.tile_size * self.tile_size * self.dtype_bytes

    @property
    def core_flops(self) -> float:
        return self.core_gflops * 1e9

    @property
    def node_flops(self) -> float:
        return self.core_flops * self.cores_per_node

    def task_time(self, flops: float, node: int | None = None) -> float:
        """Execution time of one tile kernel on one core of ``node``."""
        t = flops / self.core_flops
        if node is not None and self.node_speeds:
            t /= self.node_speeds[node]
        return t

    @property
    def is_heterogeneous(self) -> bool:
        return bool(self.node_speeds) and len(set(self.node_speeds)) > 1

    def total_speed(self) -> float:
        """Aggregate relative compute capacity of the cluster."""
        if self.node_speeds:
            return float(sum(self.node_speeds)) * self.cores_per_node
        return float(self.nnodes * self.cores_per_node)

    def message_time(self) -> float:
        """Wire time of one tile message."""
        return self.latency_s + self.tile_bytes / self.bandwidth_Bps

    def topology(self):
        """The two-level :class:`~repro.runtime.topology.Topology` of
        this cluster: ``nnodes`` simulated ranks packed
        ``ranks_per_node`` to a machine."""
        from .topology import Topology

        return Topology(nranks=self.nnodes,
                        ranks_per_node=self.ranks_per_node)

    def comm_compute_ratio(self) -> float:
        """Tile wire time / tile GEMM time — the balance point that
        decides how much pattern quality matters."""
        b = self.tile_size
        gemm_time = 2.0 * b**3 / self.core_flops
        return self.message_time() / gemm_time

    def with_nodes(self, nnodes: int) -> "ClusterSpec":
        """Resize the cluster, preserving the machine mix.

        With ``node_speeds`` set, the speeds tuple is resized too
        (``replace`` alone would keep the stale tuple and trip the
        ``__post_init__`` length check): shrinking keeps the first
        ``nnodes`` speeds, growing cycles through the existing profile
        (``speeds[i % len]``) — the same heterogeneity mix extended to
        more nodes.

        A pinned ``bisection_Bps`` is rescaled proportionally to the
        node count: bisection capacity grows with the machine, and a
        value pinned for ``P`` nodes silently mis-models the resized
        cluster.
        """
        if nnodes <= 0:
            raise ValueError(f"nnodes must be positive, got {nnodes}")
        kw = {"nnodes": nnodes}
        if self.bisection_Bps is not None and nnodes != self.nnodes:
            kw["bisection_Bps"] = self.bisection_Bps * (nnodes / self.nnodes)
        speeds = self.node_speeds
        if speeds and len(speeds) != nnodes:
            if nnodes < len(speeds):
                speeds = speeds[:nnodes]
            else:
                speeds = tuple(speeds[i % len(speeds)] for i in range(nnodes))
            kw["node_speeds"] = speeds
        return replace(self, **kw)


def paper_cluster(nnodes: int, tile_size: int = 500) -> ClusterSpec:
    """The PlaFRIM-like platform of the paper's evaluation.

    Per-core sustained DGEMM rate ≈ 38 GFlop/s (Skylake 6240 AVX-512 at
    ~2.4 GHz with realistic efficiency); 34 of the 36 cores run kernels.
    """
    return ClusterSpec(nnodes=nnodes, cores_per_node=34, core_gflops=38.0,
                       bandwidth_Bps=12.5e9, latency_s=1.5e-6, tile_size=tile_size)

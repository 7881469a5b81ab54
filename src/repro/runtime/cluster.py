"""Machine model for the distributed-cluster simulator.

Calibrated by default to the paper's experimental platform (Section
IV-D): PlaFRIM *bora* nodes — 36-core Intel Xeon Skylake Gold 6240,
100 Gb/s OmniPath, 500×500 fp64 tiles, one MPI process per node, one
core reserved for the StarPU scheduler and one for MPI progression.

The numbers matter only through two ratios:

* tile kernel time vs. tile wire time (compute/communication balance);
* cores per node (intra-node parallelism hiding communication).

:class:`ClusterSpec` is the simulator's one machine model; the network
models add only fixed protocol constants (:mod:`~repro.runtime.network`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
        Tile edge in elements; tiles are fp64, so a tile message carries
        ``8 · tile_size²`` bytes.
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

    Construction (also through :meth:`with_nodes` and
    ``dataclasses.replace``) rejects an impossible machine with a
    ``ValueError`` naming the field.
    """

    nnodes: int
    cores_per_node: int = 34
    core_gflops: float = 38.0
    bandwidth_Bps: float = 12.5e9
    latency_s: float = 1.5e-6
    tile_size: int = 500
    node_speeds: tuple = ()
    multicast: str = "p2p"
    scheduler: str = "priority"
    fork_join: bool = False
    ranks_per_node: int = 1

    def __post_init__(self):
        for name in ("nnodes", "cores_per_node", "tile_size",
                     "ranks_per_node"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("core_gflops", "bandwidth_Bps"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if not self.latency_s >= 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")
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
        return self.tile_size * self.tile_size * 8

    @property
    def core_flops(self) -> float:
        return self.core_gflops * 1e9

    @property
    def node_flops(self) -> float:
        return self.core_flops * self.cores_per_node

    def task_time(self, flops: float | np.ndarray,
                  node: int | np.ndarray | None = None) -> float | np.ndarray:
        """Execution time of tile kernels on one core of ``node``
        (scalars, or matching per-task columns)."""
        t = flops / self.core_flops
        if node is not None and self.node_speeds:
            t = t / np.asarray(self.node_speeds, dtype=np.float64)[node]
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

    def full_bisection_Bps(self, nnodes: int) -> float:
        """Shared-link capacity of a full-bisection fabric joining
        ``nnodes`` endpoints: half of them sending at NIC bandwidth."""
        return self.bandwidth_Bps * max(1.0, nnodes / 2.0)

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
        """
        kw = {"nnodes": nnodes}
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

"""One factorization run on the simulator.

:func:`run_factorization` is the one-run call (the CLI, the examples
and the benchmark workloads use it).  Grids of runs, among them the
paper's Figures 1, 5–7, 11 and 12, are campaign cells
(:mod:`repro.experiments.campaign`); both build their task graphs with
:func:`build_factorization`.

Scale note: the paper factors matrices up to 300 000 × 300 000 (600×600
tiles of 500).  The figure runs take the compiled event loop, but their
time and memory grow with the cube of the tile count: a 400-tile LU run
has 21.3M tasks and needs about 2.6 GB, so the figure drivers default
to reduced tile counts.  Pattern-quality *ordering* is preserved — the
communication volume per node scales as ``n²·T(G)/P`` against compute
``n³/P``, and the reduced sizes sit in the same comm-sensitive regime
as the paper's measured range (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..distribution import TileDistribution
from ..dla.cholesky import build_cholesky_graph
from ..dla.lu import build_lu_graph
from ..patterns.base import Pattern
from ..runtime.cluster import ClusterSpec
from ..runtime.graph import TaskGraph
from ..runtime.simulator import simulate
from ..runtime.trace import ExecutionTrace
from .machine import sim_cluster

__all__ = ["build_factorization", "run_factorization"]


def build_factorization(
    pattern: Pattern, n_tiles: int, kernel: str, tile_size: int,
) -> Tuple[TileDistribution, TaskGraph, np.ndarray]:
    """``(distribution, task graph, data home)`` of one ``kernel``
    factorization of ``n_tiles``×``n_tiles`` tiles under ``pattern``."""
    if kernel not in ("lu", "cholesky"):
        raise ValueError(f"unknown kernel {kernel!r}")
    lu = kernel == "lu"
    dist = TileDistribution(pattern, n_tiles, symmetric=not lu)
    build = build_lu_graph if lu else build_cholesky_graph
    graph, home = build(dist, tile_size)
    return dist, graph, home


def run_factorization(
    pattern: Pattern,
    n_tiles: int,
    kernel: str,
    cluster: Optional[ClusterSpec] = None,
    tile_size: int = 500,
    network: Optional[str] = None,
    faults=None,
    trace_writer=None,
    scheduler: Optional[str] = None,
    attach_bounds: bool = False,
    ranks_per_node: int = 1,
    resize=None,
) -> ExecutionTrace:
    """Simulate one factorization run under ``pattern``.

    ``network`` names the simulator's communication model (``"nic"``,
    ``"contention"`` or ``"hierarchical"``; ``None`` = legacy
    ``"nic"``).  ``faults`` is a
    :class:`~repro.runtime.faults.FaultPlan` or spec string; when set,
    failed nodes are re-homed onto their pattern colrow peers
    (:func:`~repro.runtime.faults.colrow_recovery`).  ``scheduler``
    overrides the cluster's scheduling policy (a registry name);
    ``attach_bounds=True`` computes
    :func:`~repro.cost.schedbounds.schedule_lower_bounds` and attaches
    them to the returned trace, so ``trace.optimality_ratio`` and the
    bound entries of ``summary()`` are populated.  ``ranks_per_node > 1``
    packs the pattern's ranks onto physical machines (two-level
    topology); unless a network is named explicitly, such runs use the
    ``"hierarchical"`` model so same-machine traffic takes the fast
    intra-node link.  ``resize`` is a
    :class:`~repro.runtime.resize.ResizeEvent` or ``"P@t"`` spec for a
    planned elastic resize mid-run (cannot combine with ``faults``).

    ``tile_size`` sizes the tasks' flops and, without a ``cluster``, the
    default cluster's messages; a given ``cluster`` must have the same
    ``tile_size``, or a ``ValueError`` names both.
    """
    if cluster is None:
        cluster = sim_cluster(pattern.nnodes, tile_size=tile_size)
    elif cluster.tile_size != tile_size:
        raise ValueError(
            f"tile_size={tile_size} differs from the cluster's "
            f"tile_size={cluster.tile_size}: the tasks' flops and the "
            f"messages would use different tiles")
    elif cluster.nnodes < pattern.nnodes:
        cluster = cluster.with_nodes(pattern.nnodes)
    if scheduler is not None and scheduler != cluster.scheduler:
        from dataclasses import replace

        cluster = replace(cluster, scheduler=scheduler)
    if ranks_per_node > 1 and cluster.ranks_per_node != ranks_per_node:
        from dataclasses import replace

        cluster = replace(cluster, ranks_per_node=ranks_per_node)
    if cluster.ranks_per_node > 1 and network is None:
        network = "hierarchical"
    _, graph, home = build_factorization(pattern, n_tiles, kernel, tile_size)
    recovery = None
    if faults is not None:
        from ..runtime.faults import colrow_recovery
        recovery = colrow_recovery(pattern)
    if trace_writer is not None and getattr(trace_writer, "graph", False) is None:
        trace_writer.graph = graph  # kernel-labelled slices for free
    trace = simulate(graph, cluster, data_home=home,
                     network=network, faults=faults, recovery=recovery,
                     trace_writer=trace_writer, resize=resize)
    if attach_bounds:
        from ..cost.schedbounds import schedule_lower_bounds

        trace.sched_bounds = schedule_lower_bounds(
            graph, cluster, data_home=home, network=network or "nic")
    return trace

"""Experiment harness: pattern × matrix-size grids on the simulator.

The paper reports *total* and *per-node* GFlop/s of LU / Cholesky runs
for different distributions (Figures 1, 5, 6, 7, 11, 12).  The harness
reproduces those rows on the simulated cluster.

Scale note: the paper factors matrices up to 300 000 × 300 000 (600×600
tiles of 500).  A pure-Python event simulator cannot replay the tens of
millions of tasks those runs contain, so the harness defaults to
reduced tile counts.  Pattern-quality *ordering* is preserved — the
communication volume per node scales as ``n²·T(G)/P`` against compute
``n³/P``, and the reduced sizes sit in the same comm-sensitive regime
as the paper's measured range (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..distribution import TileDistribution
from ..dla.cholesky import build_cholesky_graph
from ..dla.lu import build_lu_graph
from ..patterns.base import Pattern
from ..runtime.cluster import ClusterSpec, paper_cluster
from ..runtime.simulator import simulate
from ..runtime.trace import ExecutionTrace
from .machine import sim_cluster

__all__ = ["ResultRow", "run_factorization", "sweep", "format_rows"]


@dataclass
class ResultRow:
    """One (distribution, matrix size) measurement."""

    label: str
    kernel: str
    P: int
    n_tiles: int
    matrix_size: int
    pattern_cost: float
    makespan_s: float
    gflops: float
    gflops_per_node: float
    n_messages: int
    utilization: float

    def as_dict(self) -> dict:
        return asdict(self)


def run_factorization(
    pattern: Pattern,
    n_tiles: int,
    kernel: str,
    cluster: Optional[ClusterSpec] = None,
    tile_size: int = 500,
    network: Optional[str] = None,
    record_tasks: bool = False,
    faults=None,
    recovery=None,
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
    :class:`~repro.runtime.faults.FaultPlan` or spec string; when set
    (and no explicit ``recovery`` policy is given), failed nodes are
    re-homed onto their pattern colrow peers
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
    """
    if cluster is None:
        cluster = sim_cluster(pattern.nnodes, tile_size=tile_size)
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
    if kernel == "lu":
        dist = TileDistribution(pattern, n_tiles, symmetric=False)
        graph, home = build_lu_graph(dist, tile_size)
    elif kernel == "cholesky":
        dist = TileDistribution(pattern, n_tiles, symmetric=True)
        graph, home = build_cholesky_graph(dist, tile_size)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    if faults is not None and recovery is None:
        from ..runtime.faults import colrow_recovery
        recovery = colrow_recovery(pattern)
    if trace_writer is not None and getattr(trace_writer, "graph", False) is None:
        trace_writer.graph = graph  # kernel-labelled slices for free
    trace = simulate(graph, cluster, data_home=home,
                     network=network, record_tasks=record_tasks,
                     faults=faults, recovery=recovery,
                     trace_writer=trace_writer, resize=resize)
    if attach_bounds:
        from ..cost.schedbounds import schedule_lower_bounds

        trace.sched_bounds = schedule_lower_bounds(
            graph, cluster, data_home=home, network=network or "nic")
    return trace


def sweep(
    patterns: Dict[str, Pattern],
    n_tiles_list: Sequence[int],
    kernel: str,
    tile_size: int = 500,
    cluster_factory=sim_cluster,
    network: Optional[str] = None,
) -> List[ResultRow]:
    """Run every pattern at every size; return flat result rows.

    ``network`` is forwarded to :func:`run_factorization` so sweeps and
    figures can run under either communication model (previously it was
    silently dropped and every sweep used the legacy ``"nic"`` model).
    """
    rows: List[ResultRow] = []
    for label, pattern in patterns.items():
        cluster = cluster_factory(pattern.nnodes, tile_size=tile_size)
        for n_tiles in n_tiles_list:
            trace = run_factorization(pattern, n_tiles, kernel, cluster,
                                      tile_size, network=network)
            rows.append(
                ResultRow(
                    label=label,
                    kernel=kernel,
                    P=pattern.nnodes,
                    n_tiles=n_tiles,
                    matrix_size=n_tiles * tile_size,
                    pattern_cost=pattern.cost(kernel),
                    makespan_s=trace.makespan,
                    gflops=trace.gflops,
                    gflops_per_node=trace.gflops_per_node,
                    n_messages=trace.n_messages,
                    utilization=trace.utilization,
                )
            )
    return rows


def format_rows(rows: Iterable[ResultRow]) -> str:
    """Render result rows as an aligned text table."""
    header = (
        f"{'distribution':<24} {'P':>4} {'m':>8} {'T(G)':>8} "
        f"{'GFlop/s':>10} {'GF/s/node':>10} {'msgs':>9} {'util':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.label:<24} {r.P:>4} {r.matrix_size:>8} {r.pattern_cost:>8.3f} "
            f"{r.gflops:>10.1f} {r.gflops_per_node:>10.1f} {r.n_messages:>9} "
            f"{r.utilization:>6.1%}"
        )
    return "\n".join(lines)

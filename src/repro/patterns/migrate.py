"""COSTA-style migration planning between patterns (P → P′).

The paper's thesis is that good patterns exist for *any* number of
nodes — so an elastic cluster that grows from ``P`` to ``P′`` (or
shrinks) should move to the good pattern for ``P′``.  The price is a
redistribution: every tile whose owner changes crosses the network
once.  COSTA (Kabić et al., PAPERS.md) frames that cost as a process
*relabeling* problem: the ``P′`` logical nodes of the target pattern
are arbitrary labels, so we are free to identify each label with
whichever physical node already holds the most tiles of that label's
share.  Maximizing total overlap is an assignment problem on the
``(label, physical)`` tile-overlap matrix, solved exactly with
:func:`scipy.optimize.linear_sum_assignment` (the same bipartite
machinery :mod:`repro.patterns.gcrm` uses for colrow matching).

Physical nodes live in ``0..max(P, P′)-1`` in *both* directions: on a
grow the new machines are ``P..P′-1``; on a shrink the relabeling picks
which ``P′`` of the existing machines survive (the ones keeping the
most tiles).  Working on the padded square matrix keeps the matching
symmetric — the optimal matching weight of an overlap matrix equals
that of its transpose, so ``tiles_moved(A → B) == tiles_moved(B → A)``.

:func:`plan_migration` emits a :class:`MigrationPlan`: the relabeling,
per-edge tile counts, total bytes, per-node in/out bytes, an analytic
lower bound (:func:`repro.cost.bounds.migration_lower_bound`) and a
predicted transfer time under each registered network model.  The plan
is pure math — replaying it on the simulated network is
:mod:`repro.runtime.resize`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..distribution import TileDistribution
from ..runtime.network import INTRA_BANDWIDTH_SCALE
from .base import UNDEFINED, Pattern

__all__ = [
    "MigrationPlan",
    "costa_relabel",
    "overlap_matrix",
    "plan_from_owners",
    "plan_migration",
    "relabel_distribution",
    "relabel_pattern",
]


# ----------------------------------------------------------------------
# relabeling core
# ----------------------------------------------------------------------
def overlap_matrix(src_owner: np.ndarray, dst_label: np.ndarray,
                   nnodes: int) -> np.ndarray:
    """``overlap[q, p]`` — tiles labelled ``q`` by the target that
    physically sit on node ``p`` under the source distribution.

    Both inputs are flat per-tile arrays over the same tile set (the
    lower triangle for symmetric kernels, the full grid otherwise).
    """
    src_owner = np.asarray(src_owner, dtype=np.int64).ravel()
    dst_label = np.asarray(dst_label, dtype=np.int64).ravel()
    if src_owner.shape != dst_label.shape:
        raise ValueError(
            f"owner arrays disagree: {src_owner.shape} vs {dst_label.shape}")
    flat = dst_label * nnodes + src_owner
    return np.bincount(flat, minlength=nnodes * nnodes).reshape(nnodes, nnodes)


def costa_relabel(overlap: np.ndarray) -> np.ndarray:
    """Max-overlap assignment: ``relabel[q]`` = physical node of label ``q``.

    Solves the square assignment problem on ``-overlap`` (SciPy
    minimizes), i.e. COSTA's communication-optimal process relabeling.
    """
    from scipy.optimize import linear_sum_assignment

    overlap = np.asarray(overlap, dtype=np.int64)
    rows, cols = linear_sum_assignment(-overlap)
    relabel = np.empty(overlap.shape[0], dtype=np.int64)
    relabel[rows] = cols
    return relabel


def relabel_pattern(pattern: Pattern, relabel: np.ndarray,
                    nnodes: Optional[int] = None) -> Pattern:
    """Apply a relabeling to a pattern's grid (UNDEFINED preserved)."""
    relabel = np.asarray(relabel, dtype=np.int64)
    grid = pattern.grid
    new = np.where(grid == UNDEFINED, np.int64(UNDEFINED), relabel[grid])
    if nnodes is None:
        nnodes = int(relabel.max()) + 1
    return Pattern(new, nnodes=nnodes,
                   name=f"{pattern.name or 'pattern'}@relabel")


def relabel_distribution(dist: TileDistribution,
                         relabel: np.ndarray) -> TileDistribution:
    """Relabeled copy of a materialized distribution.

    Re-materializing the relabeled *pattern* would re-run the
    extended-SBC least-load diagonal rule, whose tie-breaks depend on
    node ids — the owners could then disagree with
    ``relabel[dist.owners]``.  Copying the owner map keeps the
    relabeled distribution exactly consistent with the migration plan.
    """
    relabel = np.asarray(relabel, dtype=np.int64)
    new = object.__new__(TileDistribution)
    new.pattern = relabel_pattern(dist.pattern, relabel,
                                  nnodes=int(relabel.size))
    new.n_tiles = dist.n_tiles
    new.symmetric = dist.symmetric
    new._owners = relabel[dist.owners]
    return new


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigrationPlan:
    """Communication plan for moving a matrix from P to P′ nodes.

    ``relabel`` maps each target-pattern label to its physical node in
    ``0..max(P_src, P_dst)-1``; ``edges`` lists ``(src, dst, tiles)``
    for every node pair that exchanges tiles.  ``predicted_s`` holds an
    *analytic* transfer-time estimate per network model (the simulated
    makespan of the replay is reported by
    :class:`~repro.runtime.resize.MigrationStats`).
    """

    P_src: int
    P_dst: int
    n_tiles: int
    symmetric: bool
    tile_bytes: int
    relabel: Tuple[int, ...]
    tiles_total: int
    tiles_moved: int
    tiles_moved_identity: int
    edges: Tuple[Tuple[int, int, int], ...]
    bytes_total: int
    out_bytes: Tuple[int, ...]
    in_bytes: Tuple[int, ...]
    lower_bound_s: float
    predicted_s: Dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.tiles_moved > 0

    @property
    def nnodes(self) -> int:
        """Size of the shared physical node space, ``max(P_src, P_dst)``."""
        return max(self.P_src, self.P_dst)

    @property
    def tiles_saved(self) -> int:
        """Tiles the COSTA relabeling avoids moving vs identity."""
        return self.tiles_moved_identity - self.tiles_moved

    def summary(self) -> Dict[str, object]:
        return {
            "P_src": self.P_src,
            "P_dst": self.P_dst,
            "tiles_total": self.tiles_total,
            "tiles_moved": self.tiles_moved,
            "tiles_moved_identity": self.tiles_moved_identity,
            "tiles_saved": self.tiles_saved,
            "bytes_total": self.bytes_total,
            "lower_bound_s": self.lower_bound_s,
            **{f"predicted_{k}_s": v for k, v in sorted(self.predicted_s.items())},
        }


def _predict_transfer(cluster, nnodes: int, edges, out_bytes, in_bytes,
                      out_msgs, in_msgs, bytes_total: int) -> Dict[str, float]:
    """Analytic per-model transfer-time estimates for a plan.

    Deliberately coarse — each model's first-order bottleneck only:

    * ``nic``: every NIC serializes its own traffic, so the busiest
      endpoint (in messages) paces the transfer.
    * ``contention``: per-NIC bound or the shared bisection, whichever
      binds.
    * ``hierarchical``: same-machine edges ride the fast intra link;
      inter-machine traffic pays the NIC price or the bisection of
      ``⌈nnodes / ranks_per_node⌉`` machines, as the model sizes it.
    """
    mt = cluster.message_time()
    bw = cluster.bandwidth_Bps
    busiest_msgs = int(max(out_msgs.max(initial=0), in_msgs.max(initial=0)))
    per_nic_s = float(max(out_bytes.max(initial=0), in_bytes.max(initial=0))) / bw
    pred = {"nic": busiest_msgs * mt}

    pred["contention"] = max(
        per_nic_s, bytes_total / cluster.full_bisection_Bps(nnodes)) \
        + (cluster.latency_s if bytes_total else 0.0)

    rpn = cluster.ranks_per_node
    tile_b = cluster.tile_bytes
    intra_bw = bw * INTRA_BANDWIDTH_SCALE
    intra_bytes = np.zeros(nnodes, dtype=np.int64)
    inter_out = np.zeros(nnodes, dtype=np.int64)
    inter_in = np.zeros(nnodes, dtype=np.int64)
    for src, dst, count in edges:
        b = count * tile_b
        if src // rpn == dst // rpn:
            intra_bytes[src] += b
        else:
            inter_out[src] += b
            inter_in[dst] += b
    intra_s = float(intra_bytes.max(initial=0)) / intra_bw
    inter_s = float(max(inter_out.max(initial=0), inter_in.max(initial=0))) / bw
    machines = -(-nnodes // rpn)
    inter_total = float(inter_out.sum()) / cluster.full_bisection_Bps(machines)
    pred["hierarchical"] = max(intra_s, inter_s, inter_total) \
        + (cluster.latency_s if bytes_total else 0.0)
    return pred


def plan_migration(
    source: Union[Pattern, TileDistribution],
    target: Union[Pattern, TileDistribution],
    n_tiles: Optional[int] = None,
    *,
    symmetric: Optional[bool] = None,
    cluster=None,
    tile_bytes: Optional[int] = None,
) -> MigrationPlan:
    """Plan the redistribution from ``source`` to ``target``.

    ``source``/``target`` are patterns (materialized over ``n_tiles``)
    or already-built :class:`TileDistribution` objects.  ``symmetric``
    counts lower-triangle tiles only (Cholesky); it defaults to the
    distributions' own symmetry flag.  ``cluster`` (a
    :class:`~repro.runtime.cluster.ClusterSpec`) supplies tile size,
    bandwidths and topology for the byte totals and time predictions;
    without one, ``tile_bytes`` may be given directly (else byte fields
    and predictions are zero).
    """
    if isinstance(source, Pattern) or isinstance(target, Pattern):
        if n_tiles is None:
            raise ValueError("n_tiles is required when passing patterns")
        sym = bool(symmetric)
        if isinstance(source, Pattern):
            source = TileDistribution(source, n_tiles, symmetric=sym)
        if isinstance(target, Pattern):
            target = TileDistribution(target, n_tiles, symmetric=sym)
    if source.n_tiles != target.n_tiles:
        raise ValueError(
            f"distributions disagree on n_tiles: "
            f"{source.n_tiles} vs {target.n_tiles}")
    if symmetric is None:
        symmetric = source.symmetric
    n = source.n_tiles
    if symmetric:
        ti, tj = np.tril_indices(n)
        src_owner = source.owners[ti, tj]
        dst_label = target.owners[ti, tj]
    else:
        src_owner = source.owners.ravel()
        dst_label = target.owners.ravel()
    return plan_from_owners(
        src_owner, dst_label, source.nnodes, target.nnodes,
        n_tiles=n, symmetric=bool(symmetric), cluster=cluster,
        tile_bytes=tile_bytes)


def plan_from_owners(
    src_owner: np.ndarray,
    dst_label: np.ndarray,
    P_src: int,
    P_dst: int,
    *,
    n_tiles: int,
    symmetric: bool,
    cluster=None,
    tile_bytes: Optional[int] = None,
) -> MigrationPlan:
    """Plan from raw per-tile owner/label arrays (the runtime entry).

    ``src_owner[i]`` is the physical node currently holding tile ``i``;
    ``dst_label[i]`` the target pattern's *label* for it.  Used by
    :mod:`repro.runtime.resize`, which works from ``data_home`` arrays
    rather than :class:`TileDistribution` objects.
    """
    src_owner = np.asarray(src_owner, dtype=np.int64).ravel()
    dst_label = np.asarray(dst_label, dtype=np.int64).ravel()
    nnodes = max(P_src, P_dst)
    overlap = overlap_matrix(src_owner, dst_label, nnodes)
    relabel = costa_relabel(overlap)
    tiles_total = int(src_owner.size)
    tiles_moved = tiles_total - int(overlap[np.arange(nnodes), relabel].sum())
    tiles_moved_identity = tiles_total - int(np.trace(overlap))

    new_owner = relabel[dst_label]
    moved = new_owner != src_owner
    pair = src_owner[moved] * nnodes + new_owner[moved]
    counts = np.bincount(pair, minlength=nnodes * nnodes)
    nz = np.nonzero(counts)[0]
    edges = tuple(
        (int(p // nnodes), int(p % nnodes), int(counts[p])) for p in nz)
    out_tiles = np.bincount(src_owner[moved], minlength=nnodes)
    in_tiles = np.bincount(new_owner[moved], minlength=nnodes)

    if tile_bytes is None:
        tile_bytes = cluster.tile_bytes if cluster is not None else 0
    out_bytes = out_tiles * tile_bytes
    in_bytes = in_tiles * tile_bytes
    if cluster is not None:
        from ..cost.bounds import migration_lower_bound

        lower = migration_lower_bound(out_bytes, in_bytes,
                                      cluster.bandwidth_Bps)
        predicted = _predict_transfer(
            cluster, nnodes, edges, out_bytes, in_bytes,
            out_tiles, in_tiles, int(tiles_moved) * tile_bytes)
    else:
        lower, predicted = 0.0, {}

    return MigrationPlan(
        P_src=P_src,
        P_dst=P_dst,
        n_tiles=int(n_tiles),
        symmetric=bool(symmetric),
        tile_bytes=int(tile_bytes),
        relabel=tuple(int(x) for x in relabel),
        tiles_total=tiles_total,
        tiles_moved=int(tiles_moved),
        tiles_moved_identity=int(tiles_moved_identity),
        edges=edges,
        bytes_total=int(tiles_moved) * int(tile_bytes),
        out_bytes=tuple(int(x) for x in out_bytes),
        in_bytes=tuple(int(x) for x in in_bytes),
        lower_bound_s=float(lower),
        predicted_s=predicted,
    )

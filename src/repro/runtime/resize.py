"""Elastic resize: drain → migrate → resume as one simulated run.

The fault layer (:mod:`repro.runtime.faults`) models nodes *leaving*
unexpectedly.  This module models the planned case — the cluster grows
or shrinks from ``P`` to ``P′`` at a chosen instant ``t`` — as a
first-class simulated phase:

1. **Drain** — tasks that started before ``t`` run to completion (the
   deterministic event schedule up to ``t`` does not depend on anything
   after ``t``, so the prefix of the unresized run *is* the drained
   prefix); in-flight messages are allowed to land.
2. **Migrate** — every tile whose owner changes under the COSTA-style
   relabeled target pattern (:mod:`repro.patterns.migrate`) crosses the
   network once; the transfer is replayed on a fresh model of the run's
   network, bound to the resized cluster, so migration pays the same
   serialization / contention / hierarchy costs as algorithm traffic.
3. **Resume** — the not-yet-started tasks are re-homed under the
   relabeled target distribution and simulated on the resized cluster,
   with versions renumbered so the remaining graph is self-contained
   (done writes form a dense version prefix per datum: the producer of
   version ``v+1`` reads ``v``, so it cannot start before ``v``'s
   producer did).

The combined trace reports the stitched makespan
(``drain + migration + resumed phase``) plus :class:`MigrationStats`:
tiles moved vs the naive identity relabeling, the migration makespan,
and the *break-even horizon* — the fraction of a full run that must
still be ahead of you for the move to ``P′`` to pay for itself.

A resize that moves nothing and changes nothing (e.g. ``P → P`` with
the same pattern) falls through to the plain simulator, byte-identical
to an unresized run — the golden-trace contract.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from hashlib import sha256
from heapq import heappop, heappush
from typing import List, Optional

import numpy as np

from .cluster import ClusterSpec
from .graph import TaskGraph, TaskKind
from .network import (EAGER_THRESHOLD_BYTES, EVENT_MSG_ARRIVE,
                      EVENT_NET_INTERNAL, ContentionModel, HierarchicalModel,
                      NetworkModel, NetworkStats, make_network)
from .trace import ExecutionTrace, MsgRecord, RecordList, TaskRecord

__all__ = ["ResizeEvent", "MigrationStats", "parse_resize",
           "simulate_with_resize"]


# ----------------------------------------------------------------------
# the event and its spec grammar
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResizeEvent:
    """Planned resize to ``nnodes`` at simulated time ``time``.

    ``target`` optionally pins the target pattern; otherwise
    :func:`repro.patterns.library.shipped_pattern` resolves one for
    ``nnodes``: the shipped database's entry, or a live
    :func:`~repro.patterns.library.best_pattern` outside its 2..44
    range.
    """

    time: float
    nnodes: int
    target: Optional[object] = None  # Pattern, kept loose to avoid a cycle

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"resize time must be >= 0, got {self.time}")
        if self.nnodes < 1:
            raise ValueError(f"resize nnodes must be >= 1, got {self.nnodes}")


_NUM = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_RESIZE_RE = re.compile(rf"^(\d+)@({_NUM})$")


def parse_resize(spec) -> Optional[ResizeEvent]:
    """Parse a ``"P@t"`` resize spec (``"31@0.05"``); ``""`` → ``None``."""
    if spec is None or isinstance(spec, ResizeEvent):
        return spec
    text = spec.strip()
    if not text:
        return None
    m = _RESIZE_RE.match(text)
    if m is None:
        raise ValueError(
            f"bad resize spec {spec!r}; expected \"P@t\", e.g. \"31@0.05\"")
    return ResizeEvent(time=float(m.group(2)), nnodes=int(m.group(1)))


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
@dataclass
class MigrationStats:
    """What the resize cost, attached as ``trace.resize_stats``."""

    P_src: int
    P_dst: int
    time: float              #: requested resize instant
    drain_s: float           #: when in-flight work had drained
    migration_s: float       #: migration traffic makespan (network replay)
    tiles_total: int
    tiles_moved: int
    tiles_moved_identity: int
    bytes_moved: float
    tasks_done: int
    tasks_remaining: int
    makespan_source_s: float  #: full run at P, never resizing
    makespan_target_s: float  #: full run at P′ from scratch
    breakeven: float          #: remaining-work fraction where resize pays off
    plan: object              #: the :class:`MigrationPlan`

    @property
    def tiles_saved(self) -> int:
        """Tiles the COSTA relabeling avoided moving vs identity."""
        return self.tiles_moved_identity - self.tiles_moved

    def to_canonical(self) -> dict:
        """Deterministic dict for canonical trace serialization."""
        relabel_blob = ",".join(str(x) for x in self.plan.relabel)
        return {
            "P_src": int(self.P_src),
            "P_dst": int(self.P_dst),
            "time": float(self.time).hex(),
            "drain_s": float(self.drain_s).hex(),
            "migration_s": float(self.migration_s).hex(),
            "tiles_total": int(self.tiles_total),
            "tiles_moved": int(self.tiles_moved),
            "tiles_moved_identity": int(self.tiles_moved_identity),
            "bytes_moved": float(self.bytes_moved).hex(),
            "tasks_done": int(self.tasks_done),
            "tasks_remaining": int(self.tasks_remaining),
            "makespan_source_s": float(self.makespan_source_s).hex(),
            "makespan_target_s": float(self.makespan_target_s).hex(),
            "breakeven": float(self.breakeven).hex(),
            "relabel_sha256": sha256(relabel_blob.encode()).hexdigest(),
        }


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _replay_migration(moved: np.ndarray, src: np.ndarray, dst: np.ndarray,
                      version: np.ndarray, cluster: ClusterSpec,
                      model: NetworkModel):
    """Replay the plan's transfers on ``model``, re-bound to ``cluster``.

    Returns ``(makespan, msg_records, NetworkStats)``; times start at 0
    (the caller shifts them past the drain point).
    """
    events: list = []
    seq = 0

    def push(time, etype, payload):
        nonlocal seq
        seq += 4
        heappush(events, (time, seq + etype, payload))

    sink = RecordList()
    model.bind(cluster, push, writer=sink)
    for d in moved.tolist():
        model.send((int(d), int(version[d])), int(src[d]), int(dst[d]), 0.0)
    makespan = 0.0
    while events:
        now, tag, payload = heappop(events)
        etype = tag & 3
        if etype == EVENT_MSG_ARRIVE:
            makespan = now
        elif etype == EVENT_NET_INTERNAL:
            if model.on_internal(payload, now):
                makespan = now
    return makespan, sink.msgs, model.stats()


def _pad(arr: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.asarray(arr).dtype)
    out[: len(arr)] = arr
    return out


def _combine_stats(parts: List[NetworkStats], nnodes: int,
                   model: str, cluster: ClusterSpec) -> NetworkStats:
    """Sum per-phase network stats into one run-level view."""
    z64 = np.zeros(nnodes, dtype=np.int64)
    zf = np.zeros(nnodes)
    out = dict(msgs_sent=z64.copy(), msgs_recv=z64.copy(),
               bytes_sent=zf.copy(), bytes_recv=zf.copy(),
               tx_busy=zf.copy(), rx_busy=zf.copy())
    scalars = dict(link_busy=0.0, link_bytes=0.0, n_eager=0, n_rendezvous=0,
                   intra_bytes=0.0, inter_bytes=0.0, intra_msgs=0,
                   inter_msgs=0, intra_link_busy=0.0)
    bisection = 0.0
    for p in parts:
        for key in out:
            out[key] += _pad(getattr(p, key), nnodes)
        for key in scalars:
            scalars[key] += getattr(p, key, 0)
        bisection = max(bisection, getattr(p, "bisection_Bps", 0.0))
    return NetworkStats(model=model, bisection_Bps=bisection,
                        ranks_per_node=cluster.ranks_per_node,
                        **out, **scalars)


def _stats_from_msgs(msgs: List[MsgRecord], nnodes: int,
                     model: NetworkModel, cluster: ClusterSpec) -> NetworkStats:
    """Stats of the drained prefix of a resize run from its message
    records, which ran on ``cluster`` under a ``model`` of its kind.

    Busy seconds are taken as each record's wall span at its endpoints —
    an upper estimate for overlapping flows, but deterministic and
    model-agnostic.  The protocol and link counts are the ones the
    model's own :meth:`~NetworkModel.stats` reports: ``"nic"`` keeps
    none; the contention family calls a message eager up to
    :data:`~repro.runtime.network.EAGER_THRESHOLD_BYTES` and rendezvous
    above it, and bills it to the bisection link (``link_bytes``)
    unless both ranks share a machine; ``"hierarchical"`` takes its
    machines from ``cluster.topology().rank_nodes`` and also reports
    the inter/intra split.  The prefix's ``link_busy`` and
    ``intra_link_busy`` stay uncounted: the records do not tell how
    long flows shared a link.
    """
    msgs_sent = np.zeros(nnodes, dtype=np.int64)
    msgs_recv = np.zeros(nnodes, dtype=np.int64)
    bytes_sent = np.zeros(nnodes)
    bytes_recv = np.zeros(nnodes)
    tx_busy = np.zeros(nnodes)
    rx_busy = np.zeros(nnodes)
    for m in msgs:
        msgs_sent[m.src] += 1
        msgs_recv[m.dst] += 1
        bytes_sent[m.src] += m.nbytes
        bytes_recv[m.dst] += m.nbytes
        span = m.end - m.start
        tx_busy[m.src] += span
        rx_busy[m.dst] += span
    out = NetworkStats(model=model.name, msgs_sent=msgs_sent,
                       msgs_recv=msgs_recv, bytes_sent=bytes_sent,
                       bytes_recv=bytes_recv, tx_busy=tx_busy,
                       rx_busy=rx_busy)
    if not isinstance(model, ContentionModel):
        return out
    out.n_eager = sum(m.nbytes <= EAGER_THRESHOLD_BYTES for m in msgs)
    out.n_rendezvous = len(msgs) - out.n_eager
    if not isinstance(model, HierarchicalModel):
        out.link_bytes = float(bytes_sent.sum())  # one rank per machine
        return out
    machine = cluster.topology().rank_nodes
    for m in msgs:
        if machine[m.src] == machine[m.dst]:
            out.intra_msgs += 1
            out.intra_bytes += m.nbytes
        else:
            out.inter_msgs += 1
            out.inter_bytes += m.nbytes
    out.link_bytes = out.inter_bytes
    return out


def _shift_msg(m: MsgRecord, dt: float) -> MsgRecord:
    return MsgRecord(data=m.data, version=m.version, src=m.src, dst=m.dst,
                     start=m.start + dt, end=m.end + dt, nbytes=m.nbytes)


# ----------------------------------------------------------------------
# the phased simulation
# ----------------------------------------------------------------------
def simulate_with_resize(
    graph: TaskGraph,
    cluster: ClusterSpec,
    resize,
    data_home: Optional[np.ndarray] = None,
    record_tasks: bool = False,
    network=None,
    trace_writer=None,
) -> ExecutionTrace:
    """Run ``graph`` with a planned resize (see module docstring).

    ``resize`` is a :class:`ResizeEvent` or a ``"P@t"`` spec string.
    The returned trace covers all three phases; ``trace.resize_stats``
    carries the :class:`MigrationStats` (absent when the resize is a
    no-op, so such runs stay byte-identical to unresized goldens).
    Every phase — the unresized run, the migration replay, the resumed
    run and the break-even run — runs a fresh model of the registry
    name ``network``, and the stitched records go to one sink, as in
    ``simulate``.  An empty graph has nothing to drain, move or resume,
    and returns the plain empty trace.
    """
    from ..distribution import TileDistribution
    from ..patterns.migrate import plan_from_owners, relabel_distribution
    from .simulator import SimulationError, simulate

    if isinstance(resize, str):
        resize = parse_resize(resize)
    if resize is None or len(graph) == 0:
        return simulate(graph, cluster, data_home=data_home,
                        record_tasks=record_tasks, network=network,
                        trace_writer=trace_writer)
    if cluster.fork_join:
        raise SimulationError("resize is not supported on fork-join clusters")
    model = make_network(network)

    cols = graph.columns
    symmetric = bool((cols.kind == TaskKind.POTRF).any())
    kernel = "cholesky" if symmetric else "lu"
    n_data = graph.n_data
    n_tiles = math.isqrt(n_data)
    if n_tiles * n_tiles != n_data:
        raise SimulationError(
            f"resize needs a square tiled matrix; graph has n_data={n_data}")

    if data_home is not None:
        home = np.asarray(data_home, dtype=np.int64)
    else:
        fw = graph.first_writer
        home = np.where(fw >= 0, cols.node[np.maximum(fw, 0)], 0) \
            .astype(np.int64)
    live = np.unique(np.concatenate([cols.write_data, cols.read_data]))

    P_src = cluster.nnodes
    target = resize.target
    if target is None:
        from ..patterns.library import shipped_pattern

        target = shipped_pattern(resize.nnodes, kernel)
    if target.nnodes != resize.nnodes:
        raise SimulationError(
            f"target pattern has {target.nnodes} nodes, resize asked for "
            f"{resize.nnodes}")
    tdist = TileDistribution(target, n_tiles, symmetric=symmetric)
    nmax = max(P_src, target.nnodes)

    plan = plan_from_owners(
        home[live], tdist.owners.reshape(-1)[live], P_src, target.nnodes,
        n_tiles=n_tiles, symmetric=symmetric, cluster=cluster)
    relabel = np.asarray(plan.relabel, dtype=np.int64)
    new_home = relabel[tdist.owners.reshape(-1)]

    # A no-op resize (nothing moves, no new machines) must not perturb
    # the trace at all — return the plain run, byte-identical to the
    # goldens, with no resize_stats attached.
    if plan.tiles_moved == 0 and nmax == P_src:
        return simulate(graph, cluster, data_home=data_home,
                        record_tasks=record_tasks, network=network,
                        trace_writer=trace_writer)

    records = RecordList() if record_tasks and trace_writer is None else None
    sink = records if trace_writer is None else trace_writer

    # -- phase A: the unresized run; its prefix before t is the drain --
    trace_a = simulate(graph, cluster, data_home=data_home,
                       record_tasks=True, network=network)
    t0 = resize.time
    recs_a = trace_a.task_records or []
    done_recs = [r for r in recs_a if r.start < t0]
    done_mask = np.zeros(cols.n_tasks, dtype=bool)
    for r in done_recs:
        done_mask[r.tid] = True
    msgs_a = [m for m in (trace_a.msg_records or []) if m.start < t0]
    drain_end = t0
    for r in done_recs:
        drain_end = max(drain_end, r.end)
    for m in msgs_a:
        drain_end = max(drain_end, m.end)

    # done writes per datum = versions drained so far (a dense prefix)
    drained = np.bincount(cols.write_data[done_mask], minlength=n_data)

    # -- migration replay on the resized cluster --------------------
    cluster_b = cluster.with_nodes(nmax)
    moved = live[new_home[live] != home[live]]
    migration_s, mig_msgs, mig_stats = _replay_migration(
        moved, home, new_home, drained, cluster_b, model)

    # -- phase B: remaining tasks under the relabeled target --------
    rem_mask = ~done_mask
    rem_ids = np.flatnonzero(rem_mask)
    offset = drain_end + migration_s
    if rem_ids.size:
        wd = cols.write_data[rem_mask]
        wv = cols.write_version[rem_mask] - drained[wd]
        read_counts = np.diff(cols.read_indptr)
        flat_mask = np.repeat(rem_mask, read_counts)
        rd = cols.read_data[flat_mask]
        rv = cols.read_version[flat_mask] - drained[rd]
        if (wv < 1).any() or (rv < 0).any():
            raise SimulationError(
                "resize drain cut a version chain; the task graph does not "
                "have the in-place update structure resize relies on")
        cat = {
            "kind": cols.kind[rem_mask],
            "i": cols.i[rem_mask],
            "j": cols.j[rem_mask],
            "k": cols.k[rem_mask],
            "node": new_home[wd],
            "flops": cols.flops[rem_mask],
            "wd": wd,
            "wv": wv,
            "rc": read_counts[rem_mask],
            "rd": rd,
            "rv": rv,
        }
        graph_b = TaskGraph.from_columns(
            cat, n_data, nmax, float(cols.flops[rem_mask].sum()))
        trace_b = simulate(graph_b, cluster_b, data_home=new_home,
                           record_tasks=sink is not None, network=network)
    else:
        trace_b = None

    # -- break-even: full target-pattern run from scratch at P′ ------
    dist_t = relabel_distribution(tdist, relabel)
    if kernel == "cholesky":
        from ..dla.cholesky import build_cholesky_graph as _build
    else:
        from ..dla.lu import build_lu_graph as _build
    graph_t, home_t = _build(dist_t, cluster.tile_size)
    t_new = simulate(graph_t, cluster_b, data_home=home_t,
                     network=network).makespan
    t_old = trace_a.makespan
    breakeven = migration_s / (t_old - t_new) if t_new < t_old \
        else float("inf")

    # -- stitch the combined trace ----------------------------------
    makespan_b = trace_b.makespan if trace_b is not None else 0.0
    makespan = offset + makespan_b
    busy = np.zeros(nmax)
    for r in done_recs:
        busy[r.node] += r.end - r.start
    parts = [_stats_from_msgs(msgs_a, nmax, model, cluster), mig_stats]
    if trace_b is not None:
        busy += trace_b.busy_time
        parts.append(trace_b.net_stats)
    net_stats = _combine_stats(parts, nmax, model.name, cluster_b)

    stats = MigrationStats(
        P_src=P_src,
        P_dst=target.nnodes,
        time=t0,
        drain_s=drain_end,
        migration_s=migration_s,
        tiles_total=plan.tiles_total,
        tiles_moved=plan.tiles_moved,
        tiles_moved_identity=plan.tiles_moved_identity,
        bytes_moved=float(plan.bytes_total),
        tasks_done=len(done_recs),
        tasks_remaining=int(rem_ids.size),
        makespan_source_s=t_old,
        makespan_target_s=t_new,
        breakeven=breakeven,
        plan=plan,
    )

    if sink is not None:
        task_records = list(done_recs)
        if trace_b is not None:
            for r in trace_b.task_records:
                task_records.append(TaskRecord(
                    tid=int(rem_ids[r.tid]), node=r.node,
                    start=r.start + offset, end=r.end + offset))
        task_records.sort(key=lambda r: (r.start, r.tid))
        for r in task_records:
            sink.write_task(r)
        for m in msgs_a:
            sink.write_msg(m)
        for m in mig_msgs:
            sink.write_msg(_shift_msg(m, drain_end))
        if trace_b is not None:
            for m in trace_b.msg_records:
                sink.write_msg(_shift_msg(m, offset))
        sink.write_resize(stats)

    return ExecutionTrace(
        cluster=cluster_b,
        makespan=makespan,
        total_flops=graph.total_flops,
        n_tasks=cols.n_tasks,
        busy_time=busy,
        net_stats=net_stats,
        task_records=records.tasks if records is not None else None,
        msg_records=records.msgs if records is not None else None,
        resize_stats=stats,
    )

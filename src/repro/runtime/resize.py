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
from .trace import ExecutionTrace, RecordList, hand_batch

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

    Returns ``(makespan, message columns, NetworkStats)``, the columns
    as :meth:`~repro.runtime.trace.RecordList.msg_columns` gives them;
    times start at 0 (the caller shifts them past the drain point).
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
    return makespan, sink.msg_columns(), model.stats()


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


def _stats_from_msgs(msgs, nnodes: int, model: NetworkModel,
                     cluster: ClusterSpec) -> NetworkStats:
    """Stats of the drained prefix of a resize run from its message
    columns (:meth:`~repro.runtime.trace.RecordList.msg_columns`),
    which ran on ``cluster`` under a ``model`` of its kind (``model``
    is bound to ``cluster`` here).

    Per-node counts and sums are bincounts over the endpoints; busy
    seconds are each record's wall span at its endpoints — an upper
    estimate for overlapping flows, but deterministic.  The other
    fields are the ones the model's own :meth:`~NetworkModel.stats`
    reports, from the machine map and latencies of its
    :meth:`~NetworkModel.engine_args`: ``"nic"`` keeps none; the
    contention family counts eager messages (up to
    :data:`~repro.runtime.network.EAGER_THRESHOLD_BYTES`) and
    rendezvous ones, bills inter-machine bytes to the bisection link,
    and counts a link busy while it carries a flow: from a message's
    ``start`` plus the link's latency until its ``end``, as the union
    of those intervals (summed over machines for ``intra_link_busy``);
    ``"hierarchical"`` also reports the inter/intra split.
    """
    _, _, src, dst, start, end, nbytes = msgs
    span = end - start
    out = NetworkStats(
        model=model.name,
        msgs_sent=np.bincount(src, minlength=nnodes),
        msgs_recv=np.bincount(dst, minlength=nnodes),
        bytes_sent=_sums(src, nbytes, nnodes),
        bytes_recv=_sums(dst, nbytes, nnodes),
        tx_busy=_sums(src, span, nnodes),
        rx_busy=_sums(dst, span, nnodes))
    if not isinstance(model, ContentionModel):
        return out
    out.n_eager = int(np.count_nonzero(nbytes <= EAGER_THRESHOLD_BYTES))
    out.n_rendezvous = len(src) - out.n_eager
    model.bind(cluster, None)
    args = model.engine_args()
    machine = np.asarray(args["machine"])
    lat_inter, lat_intra = args["latencies"]
    inter = machine[src] != machine[dst]
    out.link_busy = _busy_time(start[inter] + lat_inter, end[inter])
    intra = ~inter
    owner = machine[src[intra]]
    lo, hi = start[intra] + lat_intra, end[intra]
    out.intra_link_busy = sum((_busy_time(lo[owner == m], hi[owner == m])
                               for m in np.unique(owner).tolist()), 0.0)
    if not isinstance(model, HierarchicalModel):
        out.link_bytes = float(out.bytes_sent.sum())  # one rank per machine
        return out
    out.inter_msgs = int(np.count_nonzero(inter))
    out.intra_msgs = len(src) - out.inter_msgs
    intra_bytes, inter_bytes = _sums(inter, nbytes, 2)
    out.intra_bytes = float(intra_bytes)
    out.inter_bytes = out.link_bytes = float(inter_bytes)
    return out


def _sums(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sum of ``weights`` per value of ``index`` in ``[0, n)``, added in
    record order (as a loop over the records adds them)."""
    return np.bincount(index, weights=weights, minlength=n).astype(
        np.float64, copy=False)


def _busy_time(lo: np.ndarray, hi: np.ndarray) -> float:
    """Length of the union of the intervals ``[lo, hi)``."""
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    # how far the intervals before each one reach
    reach = np.concatenate(([-np.inf], np.maximum.accumulate(hi)[:-1]))
    return float(np.maximum(hi - np.maximum(lo, reach), 0.0).sum())


def _shift(msgs, dt: float) -> tuple:
    """Message columns with their times moved ``dt`` later."""
    data, version, src, dst, start, end, nbytes = msgs
    return data, version, src, dst, start + dt, end + dt, nbytes


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
    run_a = RecordList()
    trace_a = simulate(graph, cluster, data_home=data_home, network=network,
                       trace_writer=run_a)
    t0 = resize.time
    tid_a, node_a, start_a, end_a = run_a.task_columns()
    done = start_a < t0
    done_mask = np.zeros(cols.n_tasks, dtype=bool)
    done_mask[tid_a[done]] = True
    msgs_a = run_a.msg_columns()
    msgs_a = tuple(c[msgs_a[4] < t0] for c in msgs_a)
    drain_end = float(np.concatenate(([t0], end_a[done], msgs_a[5])).max())
    prefix_stats = _stats_from_msgs(msgs_a, nmax, model, cluster)

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
    run_b = RecordList() if sink is not None else None
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
        # producers: remaining tasks renumbered, drained ones -1 (their
        # versions are phase B's version 0); a -1 hits the sentinel slot
        new_tid = np.full(cols.n_tasks + 1, -1, dtype=np.int32)
        new_tid[rem_ids] = np.arange(rem_ids.size, dtype=np.int32)
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
            "rp": new_tid[cols.read_producer[flat_mask]],
        }
        graph_b = TaskGraph.from_columns(
            cat, n_data, nmax, float(cols.flops[rem_mask].sum()))
        trace_b = simulate(graph_b, cluster_b, data_home=new_home,
                           network=network, trace_writer=run_b)
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
    busy = _sums(node_a[done], end_a[done] - start_a[done], nmax)
    parts = [prefix_stats, mig_stats]
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
        tasks_done=int(done.sum()),
        tasks_remaining=int(rem_ids.size),
        makespan_source_s=t_old,
        makespan_target_s=t_new,
        breakeven=breakeven,
        plan=plan,
    )

    if sink is not None:
        # one batch: every task by (start, tid), then the prefix's, the
        # migration's and the resumed phase's messages
        node, start, end = (np.empty_like(c) for c in (node_a, start_a, end_a))
        node[tid_a], start[tid_a], end[tid_a] = node_a, start_a, end_a
        msgs = [msgs_a, _shift(mig_msgs, drain_end)]
        if trace_b is not None:
            # the tasks that had not started by t ran in phase B
            tid_b, node_b, start_b, end_b = run_b.task_columns()
            tid_b = rem_ids[tid_b]
            node[tid_b], start[tid_b], end[tid_b] = \
                node_b, start_b + offset, end_b + offset
            msgs.append(_shift(run_b.msg_columns(), offset))
        msg_cols = [np.concatenate(c) for c in zip(*msgs)]
        log = np.concatenate((np.argsort(start, kind="stable"),
                              -1 - np.arange(len(msg_cols[0]))))
        hand_batch(sink, log, node, start, end, *msg_cols)
        sink.write_resize(stats)

    return ExecutionTrace(
        cluster=cluster_b,
        makespan=makespan,
        total_flops=graph.total_flops,
        n_tasks=cols.n_tasks,
        busy_time=busy,
        net_stats=net_stats,
        records=records,
        resize_stats=stats,
    )

"""Per-run makespan lower bounds: how far is a schedule from optimal?

The paper's cost metric ranks *distributions*; Kwasniewski et al.
(PAPERS.md) give matching lower bounds for the *schedules* those
distributions induce.  This module evaluates the per-run flavor of
those bounds, so any simulated trace can be scored as
``makespan / bound`` — the distance-from-optimal dashboard of
ROADMAP.md.  One type, :class:`ScheduleBounds`, holds every bound, and
two evaluations fill it; a bound an evaluation does not cover is 0.0.

:func:`schedule_lower_bounds` fills the **policy-universal** bounds,
evaluated from a simulation plan.  They hold for any scheduler the
registry can select (priority, fifo, lifo, lookahead, comm-avoiding,
work-stealing), because none of them can beat

* the *work bound* — total flops over the aggregate compute capacity
  of the participating nodes (stealing moves work, it does not create
  capacity);
* the *critical-path bound* — the longest dependency chain with every
  task charged its fastest-possible duration (the fastest
  participating node) and **zero** communication delay.  This is
  deliberately weaker than the owner-pinned chain below, which is
  valid for owner-computes policies but not for a stealing or
  re-homing run;
* the *communication bound* — the most loaded sender NIC must push all
  its planned messages serially, each occupying the NIC for at least
  ``latency + tile_bytes / bandwidth``
  (:meth:`~repro.runtime.cluster.ClusterSpec.message_time`).  The NIC
  model advances ``tx_free`` by exactly that per send, and the
  contention model holds a sender's NIC per flow for its (eager or
  rendezvous) latency plus a transfer at no more than the node
  bandwidth.  The ``hierarchical`` model sends a message between two
  ranks of one machine over the faster intra-machine link, so under it
  such a message is charged
  :func:`~repro.runtime.network.intra_message_time` instead.  Skipped
  under ``multicast="tree"``, where the root is charged one send per
  multicast;
* the *bisection bound* (contention model only) — every tile crosses
  the shared bisection link, which drains at most the full-bisection
  capacity ``ClusterSpec.full_bisection_Bps(P)`` (the capacity the
  model uses); total planned bytes over that capacity is a floor on
  link busy time.

:func:`makespan_bounds` fills the work bound and the two
**owner-pinned** bounds, which hold for runs that keep every task on
its owner (every policy but work stealing, without faults or resize):

* the *node-work bound* — the most loaded owner's flops over its own
  capacity;
* the *owner critical path* — the longest chain with every task on its
  owner and, per cross-node edge, the least time any network model
  takes to move the tile: ``message_time()``, or the intra-machine
  time between two ranks of one machine.

Both critical paths are one
:func:`~repro.runtime.schedulers.bottom_levels` sweep.  The binding
bound tells whether a run is compute-, balance-, dependency- or
communication-limited (:attr:`ScheduleBounds.limiting_factor`).

Caveat for degraded runs: the bounds are computed from the *static*
plan, while a fault run re-homes tasks and adds recovery traffic.  The
work and critical-path bounds stay valid (capacity only shrinks, and
re-execution only lengthens chains).  ``alive_nodes`` restricts the
capacity and the message plan to the surviving nodes — the right
comparison for fail-at-start plans; for late failures the survivor
bounds are a *diagnostic*, not a guarantee, since early work ran at
full capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from ..runtime.network import intra_message_time
from ..runtime.schedulers import bottom_levels
from ..runtime.simplan import _csr, get_plan
from ..runtime.simulator import check_inputs

__all__ = ["ScheduleBounds", "makespan_bounds", "schedule_lower_bounds"]

#: bound field → the name :meth:`ScheduleBounds.limiting_factor` gives it
_FACTORS = {
    "work_time": "work",
    "critical_time": "critical-path",
    "comm_time": "comm",
    "bisection_time": "bisection",
    "node_work_time": "node-balance",
    "owner_critical_time": "owner-critical-path",
}


@dataclass(frozen=True)
class ScheduleBounds:
    """Makespan lower bounds for one planned run (0.0 = not evaluated)."""

    work_time: float = 0.0       #: total flops / aggregate alive capacity
    critical_time: float = 0.0   #: longest chain at fastest-node speed, no comm
    comm_time: float = 0.0       #: most loaded sender NIC's serial occupancy
    bisection_time: float = 0.0  #: planned bytes / bisection capacity (contention)
    node_work_time: float = 0.0  #: most loaded owner's flops / its capacity
    owner_critical_time: float = 0.0  #: longest chain on the owners, with messages

    @property
    def best(self) -> float:
        """The binding bound — every run the evaluation covers takes at
        least this."""
        return max(getattr(self, f) for f in _FACTORS)

    @property
    def limiting_factor(self) -> str:
        """The name of the field that sets :attr:`best` (the first in
        field order on ties)."""
        return _FACTORS[max(_FACTORS, key=lambda f: getattr(self, f))]

    def as_dict(self) -> Dict[str, float]:
        return {**{f: getattr(self, f) for f in _FACTORS}, "best": self.best}

    def to_canonical(self) -> Dict[str, str]:
        """Hex-float view for byte-stable golden comparisons."""
        return {k: float(v).hex() for k, v in self.as_dict().items()}


def _node_capacity(cluster) -> np.ndarray:
    """Each node's flop rate: cores × relative speed × core rate."""
    speeds = cluster.node_speeds or (1.0,) * cluster.nnodes
    return (cluster.cores_per_node * np.asarray(speeds, dtype=np.float64)
            * cluster.core_flops)


def schedule_lower_bounds(
    graph,
    cluster,
    *,
    data_home: Optional[np.ndarray] = None,
    network: str = "nic",
    alive_nodes: Optional[Iterable[int]] = None,
) -> ScheduleBounds:
    """Evaluate the policy-universal :class:`ScheduleBounds` of ``graph``
    on ``cluster``.

    The message plan comes from :func:`~repro.runtime.simplan.get_plan`'s
    per-graph cache.  ``network`` names the communication model the run
    uses; the bisection bound only applies to ``"contention"``.
    ``alive_nodes`` restricts every bound to the surviving nodes of a
    degraded run (see the module docstring for the validity caveat).
    Inputs that :func:`~repro.runtime.simulator.simulate` rejects raise
    the same :class:`~repro.runtime.simulator.SimulationError`.
    """
    check_inputs(graph, cluster, data_home)
    P = cluster.nnodes
    if len(graph) == 0:
        return ScheduleBounds()
    plan = get_plan(graph, data_home)
    alive = list(range(P)) if alive_nodes is None \
        else sorted({int(n) for n in alive_nodes})
    if not alive:
        raise ValueError("alive_nodes must name at least one node")

    # work: aggregate capacity of the participating nodes
    cap = sum(_node_capacity(cluster)[alive].tolist())
    work_time = float(graph.total_flops) / cap

    # critical path: every task at the fastest participating node's
    # speed, no communication delay — unbeatable by any placement
    smax = max(cluster.node_speeds[n] for n in alive) \
        if cluster.node_speeds else 1.0
    dur = graph.columns.flops / (cluster.core_flops * smax)
    indptr, deps = graph.dependencies_csr()
    critical_time = float(bottom_levels(indptr, deps, dur).max())

    # comm: the most loaded sender's serialized NIC occupancy
    src = plan.msg_src
    ok = src >= 0
    if alive_nodes is not None:
        amask = np.zeros(P, dtype=bool)
        amask[alive] = True
        ok = ok & amask[np.clip(src, 0, P - 1)] & amask[plan.msg_dst]
    comm_time = 0.0
    if cluster.multicast == "p2p" and bool(ok.any()):
        intra = np.zeros_like(ok)
        if network == "hierarchical":
            machine = cluster.topology().rank_nodes
            intra = ok & (machine[np.clip(src, 0, P - 1)]
                          == machine[plan.msg_dst])
        n_inter = np.bincount(src[ok & ~intra], minlength=P)
        n_intra = np.bincount(src[intra], minlength=P)
        comm_time = float((n_inter * cluster.message_time()
                           + n_intra * intra_message_time(cluster)).max())

    bisection_time = 0.0
    if network == "contention":
        bisection_time = (float(ok.sum()) * cluster.tile_bytes
                          / cluster.full_bisection_Bps(P))

    return ScheduleBounds(
        work_time=work_time,
        critical_time=critical_time,
        comm_time=comm_time,
        bisection_time=bisection_time,
    )


def makespan_bounds(graph, cluster) -> ScheduleBounds:
    """Evaluate the work bound and the owner-pinned bounds of ``graph``
    on ``cluster``; inputs that
    :func:`~repro.runtime.simulator.simulate` rejects raise the same
    :class:`~repro.runtime.simulator.SimulationError`.

    The owner critical path is one
    :func:`~repro.runtime.schedulers.bottom_levels` sweep over the
    reversed dependency CSR (consumers grouped by producer), which gives
    every task's earliest finish time on its owner
    (:meth:`~repro.runtime.cluster.ClusterSpec.task_time`).
    """
    check_inputs(graph, cluster, None)
    cols = graph.columns
    node = cols.node
    # over total_speed(), which with heterogeneous speeds can round
    # differently from schedule_lower_bounds' per-node capacity sum
    work_time = float(graph.total_flops) / (cluster.total_speed()
                                            * cluster.core_flops)
    # bincount accumulates in scan order, so the per-node float sums are
    # identical to a per-task loop
    per_node = np.bincount(node, weights=cols.flops, minlength=cluster.nnodes)
    loaded = per_node > 0
    node_work_time = (per_node[loaded]
                      / _node_capacity(cluster)[loaded]).max(initial=0.0)

    n = len(graph)
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
                           cluster.task_time(cols.flops, node), delay)

    return ScheduleBounds(
        work_time=work_time,
        node_work_time=float(node_work_time),
        owner_critical_time=float(finish.max(initial=0.0)),
    )

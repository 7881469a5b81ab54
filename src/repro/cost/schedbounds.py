"""Per-run makespan lower bounds: how far is a schedule from optimal?

The paper's cost metric ranks *distributions*; Kwasniewski et al.
(PAPERS.md) give matching lower bounds for the *schedules* those
distributions induce.  This module evaluates the per-run flavor of
those bounds from a simulation plan, so any simulated trace can be
scored as ``makespan / bound`` — the distance-from-optimal dashboard
of ROADMAP.md.

Every bound returned here is **policy-universal**: it holds for any
scheduler the registry can select (priority, fifo, lifo, lookahead,
comm-avoiding, work-stealing), because none of them can beat

* the *work bound* — total flops over the aggregate compute capacity
  of the participating nodes (stealing moves work, it does not create
  capacity);
* the *critical-path bound* — the longest dependency chain with every
  task charged its fastest-possible duration (the fastest
  participating node) and **zero** communication delay.  This is
  deliberately weaker than
  :func:`repro.runtime.analysis.critical_path`, which pins tasks to
  their owners and adds message latency — valid for owner-computes
  policies but not for a stealing or re-homing run (both are one
  :func:`~repro.runtime.schedulers.bottom_levels` sweep);
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
from ..runtime.simplan import get_plan
from ..runtime.simulator import check_inputs

__all__ = ["ScheduleBounds", "schedule_lower_bounds"]


@dataclass(frozen=True)
class ScheduleBounds:
    """Policy-universal makespan lower bounds for one planned run."""

    work_time: float       #: total flops / aggregate alive capacity
    critical_time: float   #: longest chain at fastest-node speed, no comm
    comm_time: float       #: most loaded sender NIC's serial occupancy
    bisection_time: float  #: planned bytes / bisection capacity (contention)

    @property
    def best(self) -> float:
        """The binding bound — every valid schedule takes at least this."""
        return max(self.work_time, self.critical_time,
                   self.comm_time, self.bisection_time)

    def limiting_factor(self, makespan: float) -> str:
        """Name the bound an observed makespan sits closest to."""
        gaps = {
            "work": makespan - self.work_time,
            "critical-path": makespan - self.critical_time,
            "comm": makespan - self.comm_time,
            "bisection": makespan - self.bisection_time,
        }
        return min(gaps, key=gaps.get)  # type: ignore[arg-type]

    def as_dict(self) -> Dict[str, float]:
        return {
            "work_time": self.work_time,
            "critical_time": self.critical_time,
            "comm_time": self.comm_time,
            "bisection_time": self.bisection_time,
            "best": self.best,
        }

    def to_canonical(self) -> Dict[str, str]:
        """Hex-float view for byte-stable golden comparisons."""
        return {k: float(v).hex() for k, v in self.as_dict().items()}


def schedule_lower_bounds(
    graph,
    cluster,
    *,
    data_home: Optional[np.ndarray] = None,
    network: str = "nic",
    alive_nodes: Optional[Iterable[int]] = None,
) -> ScheduleBounds:
    """Evaluate :class:`ScheduleBounds` for ``graph`` on ``cluster``.

    The message plan comes from :func:`~repro.runtime.simplan.get_plan`'s
    per-graph cache.  ``network`` names the communication model the run
    uses; the bisection bound only applies to ``"contention"``.
    ``alive_nodes`` restricts every bound to the surviving nodes of a
    degraded run (see the module docstring for the validity caveat).
    Inputs that :func:`~repro.runtime.simulator.simulate` rejects raise
    the same :class:`~repro.runtime.simulator.SimulationError`.
    """
    check_inputs(graph, cluster, data_home)
    n_tasks = len(graph)
    P = cluster.nnodes
    if n_tasks == 0:
        return ScheduleBounds(0.0, 0.0, 0.0, 0.0)
    plan = get_plan(graph, data_home)
    alive = list(range(P)) if alive_nodes is None \
        else sorted({int(n) for n in alive_nodes})
    if not alive:
        raise ValueError("alive_nodes must name at least one node")
    speeds = cluster.node_speeds or None

    # work: aggregate capacity of the participating nodes
    speed_of = (lambda n: speeds[n]) if speeds else (lambda n: 1.0)
    cap = sum(cluster.cores_per_node * speed_of(n) * cluster.core_flops
              for n in alive)
    work_time = float(graph.total_flops) / cap if cap > 0 else 0.0

    # critical path: every task at the fastest participating node's
    # speed, no communication delay — unbeatable by any placement
    smax = max(speed_of(n) for n in alive)
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

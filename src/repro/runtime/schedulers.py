"""Pluggable intra-node scheduling policies: the scheduler registry.

The simulator's ready queues pop packed int64 keys — smallest first,
task id in the low 32 bits — so a *policy* is nothing more than the
function that assigns those keys.  This module turns that observation
into a registry (the Estee ``SchedulerBase`` idiom): every policy is a
:class:`Scheduler` subclass registered under a name, and
``ClusterSpec(scheduler=name)`` selects it.  Both event loops (the
fault-free loop in :mod:`~repro.runtime.simulator` and the degraded
loop in :mod:`~repro.runtime.faults`) draw their keys from here, so a
policy behaves identically with and without fault injection.

Two kinds of policy exist:

* **static** — the key of a task is fixed before the run starts
  (``dynamic = False``); :meth:`Scheduler.static_keys` returns the full
  key table, vectorized over the columnar plan/graph.  ``priority``,
  ``lookahead``, ``comm_avoiding`` and ``work_stealing`` are static.
* **dynamic** — the key depends on *when* the task became ready
  (``dynamic = True``); :meth:`Scheduler.dynamic_key` packs the
  enqueue sequence number with the tid.  ``fifo`` and ``lifo`` are
  dynamic.

The default ``priority`` policy returns the plan's precomputed key
table **by identity** (no copy).  The compiled loop takes any static
key table, so every static policy (work stealing's rebalance included)
runs compiled when it builds; the dynamic ``fifo`` and ``lifo`` run
through the Python event loop, whose one task-completion body serves
every policy.

``work_stealing`` additionally sets ``steals = True``: after each
event batch, idle nodes whose own queue is empty pull queued tasks
from their peers (deterministic victim order — communication partners
first, i.e. the colrow peers of the owner-computes patterns, then the
remaining nodes, both ascending).  The stolen task runs on the thief
(its busy time and task record land there) but its *output* stays with
the owner — dependent wakes and the static message plan are unchanged,
so message totals are policy-invariant.  The price of the steal is one
:meth:`~repro.runtime.cluster.ClusterSpec.message_time` added to the
task's duration (fetch inputs / return the tile), not extra modeled
messages.  A rebalance returns at once when every ready queue is
empty, the common case between batches, since there is nothing to
steal.  Stealing is a fault-free-loop feature: under a fault plan,
re-homing already rebalances work, so the degraded loop uses this
policy's key order without stealing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

import numpy as np

__all__ = [
    "Scheduler",
    "SCHEDULERS",
    "register_scheduler",
    "registered_schedulers",
    "make_scheduler",
    "bottom_levels",
]

#: low-32-bit mask: every ready-queue key carries its tid there
TID_MASK = 0xFFFFFFFF


def bottom_levels(indptr: np.ndarray, deps: np.ndarray, dur: np.ndarray,
                  delay: Optional[np.ndarray] = None) -> np.ndarray:
    """Critical-path *bottom level* of every task: the longest-path kernel.

    ``bl[t] = dur[t] + max(bl[c] + delay[e])`` over the entries ``e``
    naming ``t`` as a producer of a consumer ``c`` (``delay`` defaults
    to zero), in seconds.  ``indptr``/``deps`` is the task→producers CSR
    (:meth:`~repro.runtime.graph.TaskGraph.dependencies_csr`); over the
    reversed CSR the levels are earliest finish times.  A Kahn sweep:
    each wavefront of final rows is one vectorized step, so O(entries)
    work in O(depth) numpy steps.  A cyclic CSR raises ``ValueError``.
    """
    dur = np.asarray(dur, dtype=np.float64)
    n = dur.shape[0]
    # intp indexes: numpy would widen int32 ones on every step
    indptr = np.asarray(indptr, dtype=np.intp)
    deps = np.asarray(deps, dtype=np.intp)
    waiting = np.bincount(deps, minlength=n)
    acc, bl, slot = np.zeros(n), np.empty(n), np.empty(n, dtype=np.intp)
    front, done = np.flatnonzero(waiting == 0), 0
    while front.size:
        bl[front] = acc[front] + dur[front]
        done += front.size
        lo = indptr[front]
        cnt = indptr[front + 1] - lo
        ends = cnt.cumsum()
        # one range gather: the flat entries of every row in the front
        e = (lo - ends + cnt).repeat(cnt) + np.arange(ends[-1])
        tg = deps[e]
        val = bl[front].repeat(cnt)
        if delay is not None:
            val += delay[e]
        np.maximum.at(acc, tg, val)
        np.subtract.at(waiting, tg, 1)
        # targets that reached zero, each kept once (scatter, read back)
        ready = tg[waiting[tg] == 0]
        pos = np.arange(ready.size)
        slot[ready] = pos
        front = ready[slot[ready] == pos]
    if done < n:
        raise ValueError(f"dependency cycle: {n - done} of {n} tasks "
                         f"never become ready")
    return bl


def _rank_keys(order: np.ndarray) -> np.ndarray:
    """Pack a task ordering into ready-queue keys ``rank << 32 | tid``.

    ``order[r]`` is the tid of rank ``r`` (best first).  Smallest key
    pops first and the low 32 bits recover the tid, matching the
    contract of the plan's priority keys.
    """
    n = order.shape[0]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    return (rank << 32) | np.arange(n, dtype=np.int64)


class Scheduler:
    """One intra-node scheduling policy (see module docstring).

    Subclass, set the class attributes, implement :meth:`static_keys`
    (static policies) or :meth:`dynamic_key` (dynamic policies), and
    register with :func:`register_scheduler`.
    """

    #: registry name (set by :func:`register_scheduler`)
    name: str = "?"
    #: True when keys depend on enqueue order (fifo/lifo)
    dynamic: bool = False
    #: True when idle nodes steal queued work from peers
    steals: bool = False

    def static_keys(self, plan, graph, cluster,
                    dur: np.ndarray) -> np.ndarray:
        """Per-task int64 key table (tid in the low 32 bits).

        ``plan`` is the graph's :class:`~repro.runtime.simplan.SimPlan`
        and ``dur`` the per-task durations on their owner nodes.
        """
        raise NotImplementedError

    def dynamic_key(self, seq: int, tid: int) -> int:
        """Key of ``tid`` enqueued as the ``seq``-th ready task."""
        raise NotImplementedError

    def victim_order(self, plan, nnodes: int) -> List[List[int]]:
        """Per-node steal order (stealing policies only)."""
        raise NotImplementedError


#: name -> Scheduler subclass
SCHEDULERS: Dict[str, Type[Scheduler]] = {}


def register_scheduler(name: str):
    """Class decorator: register a :class:`Scheduler` under ``name``."""

    def deco(cls: Type[Scheduler]) -> Type[Scheduler]:
        cls.name = name
        SCHEDULERS[name] = cls
        return cls

    return deco


def registered_schedulers() -> tuple:
    """Sorted names of every registered policy."""
    return tuple(sorted(SCHEDULERS))


def make_scheduler(name: str) -> Scheduler:
    """Instantiate the policy registered under ``name``."""
    cls = SCHEDULERS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown scheduler {name!r}; registered policies: "
            f"{', '.join(registered_schedulers())}")
    return cls()


# ---------------------------------------------------------------------------
# built-in policies
# ---------------------------------------------------------------------------
@register_scheduler("priority")
class PriorityScheduler(Scheduler):
    """StarPU-like (iteration, kernel-kind) priority — the default.

    Returns the plan's precomputed key table *by identity* (no copy);
    schedules stay byte-identical to the golden traces.
    """

    def static_keys(self, plan, graph, cluster, dur):
        return plan.keys


@register_scheduler("fifo")
class FifoScheduler(Scheduler):
    """Run ready tasks in the order they became ready."""

    dynamic = True

    def dynamic_key(self, seq: int, tid: int) -> int:
        return (seq << 32) | tid


@register_scheduler("lifo")
class LifoScheduler(Scheduler):
    """Run the newest ready task first (the adversarial ablation)."""

    dynamic = True

    def dynamic_key(self, seq: int, tid: int) -> int:
        return (((1 << 62) - seq) << 32) | tid


@register_scheduler("lookahead")
class LookaheadScheduler(Scheduler):
    """Rank ready tasks by critical-path bottom level, longest first.

    The classic HEFT-style upward rank restricted to compute time:
    a task whose unfinished downward chain is longest pops first, ties
    by submission order.  Computed once, vectorized, from the columnar
    dependency CSR (:func:`bottom_levels`).
    """

    def static_keys(self, plan, graph, cluster, dur):
        indptr, deps = graph.dependencies_csr()
        bl = bottom_levels(indptr, deps, dur)
        n = bl.shape[0]
        # primary: bottom level descending; tie-break: tid ascending
        order = np.lexsort((np.arange(n, dtype=np.int64), -bl))
        return _rank_keys(order)


@register_scheduler("comm_avoiding")
class CommAvoidingScheduler(Scheduler):
    """Prefer ready tasks whose inputs are already node-resident.

    Under owner-computes every *ready* task can run where it is queued,
    so "resident inputs" is a static property: the number of inputs the
    task had to wait on from the wire (remote producers plus version-0
    fetches, i.e. its entries in the plan's waiter table).  Fewer
    remote inputs pop first — tasks fed entirely from node-local
    producers beat tasks that depended on communication — with ties
    broken by the default priority order.
    """

    def static_keys(self, plan, graph, cluster, dur):
        remote = np.bincount(plan.w_tasks, minlength=plan.n_tasks)
        # primary: remote-input count ascending; tie-break: priority key
        order = np.lexsort((plan.keys, remote))
        return _rank_keys(order)


@register_scheduler("work_stealing")
class WorkStealingScheduler(Scheduler):
    """Priority order plus idle-node stealing from colrow peers.

    Local queues keep the default priority order; what changes is that
    a node with idle cores and an empty queue pulls the best queued
    task from the first non-empty victim queue.  Victims are visited in
    deterministic order: the node's communication partners under the
    static message plan (for the paper's patterns, exactly its colrow
    peers), ascending, then all remaining nodes, ascending.
    """

    steals = True

    def static_keys(self, plan, graph, cluster, dur):
        return plan.keys

    def victim_order(self, plan, nnodes: int) -> List[List[int]]:
        src = plan.msg_src
        dst = plan.msg_dst
        ok = src >= 0
        pairs = np.unique(src[ok] * np.int64(nnodes) + dst[ok])
        peers: List[set] = [set() for _ in range(nnodes)]
        for s, d in zip((pairs // nnodes).tolist(), (pairs % nnodes).tolist()):
            if s != d:
                peers[s].add(d)
                peers[d].add(s)
        order = []
        for n in range(nnodes):
            near = sorted(peers[n])
            far = [x for x in range(nnodes) if x != n and x not in peers[n]]
            order.append(near + far)
        return order

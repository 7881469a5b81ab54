"""Simulation plan: the dependency/message tables as arrays.

The simulator needs four derived tables before its event loop can run:
per-task prerequisite counts, the CSR table of *local* dependents, the
inter-node message plan (which unique ``(data version, destination)``
pairs must travel, who sends them, who waits on them), and the packed
priority keys.  :func:`build_plan` derives them as a :class:`SimPlan`
with no Python loop over tasks, reads or messages.  Every unique message
gets a dense integer *uid*, in the order of its ``(data, version,
dst)`` code; the plan stores, per uid, its payload
(``data``/``version``/``dst``/``src``) and two CSR tables:
``w_indptr``/``w_tasks`` (the consumers a delivery wakes, in read-scan
order) and ``push_indptr``/``push_uids`` (the uids each producer pushes
on completion, in first-occurrence scan order).  Both orders replicate,
entry for entry, the iteration orders of the old dict-based plan, so
event schedules — and therefore golden traces — are byte-identical no
matter which backend consumes the plan.

Two lowerings build the same arrays, and the backend that
:func:`~repro.runtime.backends.select_backend` picks chooses one:

* ``c`` — :func:`repro.runtime.csim.lower_plan`: two linear passes over
  the reads in ``_fastsim.c``, which number the message groups by first
  occurrence, and one ``argsort`` of the group codes between them;
* ``python`` — :func:`_lower`: NumPy passes around one stable sort of
  the per-read message codes, and the only lowering on a host without a
  C compiler.

``tests/runtime/test_simplan.py`` holds the oracle both must equal: the
earlier ``np.unique`` lowering, frozen.

Plans depend only on the graph and the ``data_home`` vector (durations
and node counts come from the cluster at simulation time), so they are
cached per graph generation and reused across network models, fault
plans and repeated ``simulate`` calls on the same graph — a campaign
cell that simulates baseline + degraded runs builds its plan once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
from weakref import WeakKeyDictionary

import numpy as np

from .backends import select_backend
from .graph import TaskGraph

__all__ = ["SimPlan", "build_plan", "get_plan"]


@dataclass
class SimPlan:
    """Array-form simulation tables for one graph (+ data placement).

    Every array is int32 except ``keys`` (int64), like the graph's index
    columns.  ``n_msgs`` uids cover both producer-pushed messages (the
    uids in ``push_uids``) and version-0 fetches from ``data_home``
    (``init_uids``); the uid spaces are disjoint because a data version
    either has a producer or not.
    """

    n_tasks: int
    #: executing node per task (shared reference to the graph column)
    node: np.ndarray
    #: per-task prerequisite count (reads satisfied by a later event)
    pending: np.ndarray
    #: CSR: local dependents of each producer, read-scan order
    ld_indptr: np.ndarray
    ld_tasks: np.ndarray
    #: packed priority keys ``k << 40 | kind << 32 | tid`` (int64)
    keys: np.ndarray
    # -- message plan, indexed by uid -----------------------------------
    n_msgs: int
    msg_data: np.ndarray      #: datum carried by each uid
    msg_version: np.ndarray   #: version carried by each uid
    msg_dst: np.ndarray       #: destination node of each uid
    msg_src: np.ndarray       #: producer's node, or home node (init uids)
    #: CSR: consumers woken when uid is delivered, read-scan order
    w_indptr: np.ndarray
    w_tasks: np.ndarray
    #: CSR: uids pushed when task completes, first-occurrence order
    push_indptr: np.ndarray
    push_uids: np.ndarray
    #: version-0 uids sent at t=0, first-occurrence order
    init_uids: np.ndarray

    @property
    def nbytes(self) -> int:
        """Total footprint of the plan arrays (for memory accounting)."""
        return sum(
            a.nbytes for a in (
                self.pending, self.ld_indptr, self.ld_tasks, self.keys,
                self.msg_data, self.msg_version, self.msg_dst, self.msg_src,
                self.w_indptr, self.w_tasks,
                self.push_indptr, self.push_uids, self.init_uids))


def _csr(values: np.ndarray, groups: np.ndarray, n_groups: int):
    """Group ``values`` by small-int ``groups`` (stable): int32 indptr +
    flat."""
    order = np.argsort(groups, kind="stable")
    indptr = np.zeros(n_groups + 1, dtype=np.int32)
    np.cumsum(np.bincount(groups, minlength=n_groups), out=indptr[1:])
    return indptr, values[order]


def build_plan(graph: TaskGraph,
               data_home: Optional[np.ndarray] = None) -> SimPlan:
    """Derive the :class:`SimPlan` of ``graph`` (and its ``data_home``).

    The tables come from :func:`~repro.runtime.csim.lower_plan` when
    :func:`~repro.runtime.backends.select_backend` picks ``c``, else
    from :func:`_lower`; both give the same arrays.  A ``data_home``
    shorter than ``graph.n_data``, or naming a negative node, raises
    :class:`ValueError`.
    """
    cols = graph.columns
    n_tasks = cols.n_tasks
    node_a = cols.node
    home_a = None
    if data_home is not None:
        home_a = np.asarray(data_home, dtype=np.int64)
        if len(home_a) < graph.n_data:
            raise ValueError(f"data_home has {len(home_a)} entries for "
                             f"{graph.n_data} data")
        if home_a.size and int(home_a.min()) < 0:
            raise ValueError(f"data_home names node {int(home_a.min())}")
    rv = cols.read_version
    M = int(rv.max()) + 1 if rv.size else 1
    N = int(node_a.max()) + 1 if node_a.size else 1
    if select_backend()[0] == "c":
        from . import csim
        lowered = csim.lower_plan(node_a, cols.read_indptr, cols.read_data,
                                  rv, cols.read_producer, graph.n_data,
                                  home_a, M, N)
    else:
        lowered = _lower(graph, home_a, M, N)
    (pending, ld_indptr, ld_tasks, codes, producer, w_indptr, w_tasks,
     push_indptr, push_uids, init_uids) = lowered

    keys = ((cols.k.astype(np.int64) << 40)
            | (cols.kind.astype(np.int64) << 32)
            | np.arange(n_tasks, dtype=np.int64))
    msg_dst = (codes % N).astype(np.int32)
    msg_version = (codes // N % M).astype(np.int32)
    msg_data = (codes // (N * M)).astype(np.int32)
    remote = producer >= 0
    src = node_a[np.where(remote, producer, 0)]
    if home_a is None:
        msg_src = np.where(remote, src, np.int32(-1))
    else:
        msg_src = np.where(remote, src, home_a[msg_data]).astype(np.int32)

    return SimPlan(
        n_tasks=n_tasks, node=node_a, pending=pending,
        ld_indptr=ld_indptr, ld_tasks=ld_tasks, keys=keys,
        n_msgs=int(codes.size), msg_data=msg_data, msg_version=msg_version,
        msg_dst=msg_dst, msg_src=msg_src,
        w_indptr=w_indptr, w_tasks=w_tasks,
        push_indptr=push_indptr, push_uids=push_uids,
        init_uids=init_uids)


def _lower(graph: TaskGraph, home_a: Optional[np.ndarray], M: int,
           N: int) -> tuple:
    """The lowering in vectorized NumPy passes, with the return value of
    :func:`~repro.runtime.csim.lower_plan`.

    Per-read temporaries are dropped as soon as they are consumed, so
    the peak holds few full-length arrays at once.
    """
    cols = graph.columns
    n_tasks = cols.n_tasks
    node_a = cols.node
    rt = graph.read_task          # consumer tid per flat read
    rp = cols.read_producer       # producer tid per flat read, -1 if none
    rd = cols.read_data
    rnode = node_a[rt]            # consumer node per flat read

    has_prod = rp >= 0
    is_local = has_prod & (node_a[np.where(has_prod, rp, 0)] == rnode)
    # message reads: a remote producer, or a version-0 read away from home
    mask = has_prod & ~is_local
    if home_a is not None:
        mask |= ~has_prod & (home_a[rd] != rnode)
    del has_prod

    pending = np.bincount(rt[is_local | mask],
                          minlength=n_tasks).astype(np.int32)

    ld_indptr, ld_tasks = _csr(rt[is_local], rp[is_local], n_tasks)
    del is_local

    # ------------------------------------------------------------------
    # message plan: one uid per unique (data, version, dst) among the
    # message reads, numbered in code order.  One stable sort of the
    # int64 codes gives everything: the group starts are the waiter
    # CSR's indptr, the permuted reads its flat-read-ordered waiters,
    # and the permutation at a group start the uid's first occurrence.
    # ------------------------------------------------------------------
    sel = np.flatnonzero(mask)    # flat read index of each message read
    del mask
    codes = rd[sel].astype(np.int64)
    codes *= M
    codes += cols.read_version[sel]
    codes *= N
    codes += rnode[sel]
    del rnode
    perm = np.argsort(codes, kind="stable")
    codes = codes[perm]
    is_start = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    uniq = codes[starts]
    del codes, is_start
    w_indptr = np.append(starts, perm.size).astype(np.int32)
    w_tasks = rt[sel[perm]]
    first = perm[starts]          # position of each uid's first read
    producer = rp[sel[first]]
    del sel, perm

    # uids in global first-occurrence order (first positions are
    # distinct, so any sort gives this order): the version-0 fetches
    # sent at t=0, and the push plan stably grouped by producer — the
    # exact per-producer push order of the old ``planned_msgs`` dict
    # fill
    remote = producer >= 0
    by_first = np.argsort(first).astype(np.int32)
    init_uids = by_first[~remote[by_first]]
    r_first = by_first[remote[by_first]]
    push_indptr, push_uids = _csr(r_first, producer[r_first], n_tasks)
    return (pending, ld_indptr, ld_tasks, uniq, producer, w_indptr,
            w_tasks, push_indptr, push_uids, init_uids)


#: graph -> {(generation, data_home bytes): SimPlan}
_PLAN_CACHE: "WeakKeyDictionary[TaskGraph, dict]" = WeakKeyDictionary()


def get_plan(graph: TaskGraph,
             data_home: Optional[np.ndarray] = None) -> SimPlan:
    """Cached :func:`build_plan`, invalidated when the graph grows."""
    key = (graph._gen,
           None if data_home is None
           else np.asarray(data_home, dtype=np.int64).tobytes())
    slot = _PLAN_CACHE.get(graph)
    if slot is None:
        slot = {}
        _PLAN_CACHE[graph] = slot
    plan = slot.get(key)
    if plan is None:
        plan = build_plan(graph, data_home)
        for stale in [k for k in slot if k[0] != graph._gen]:
            del slot[stale]     # drop plans of outgrown generations
        slot[key] = plan
    return plan

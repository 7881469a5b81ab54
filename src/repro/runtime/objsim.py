"""Frozen pre-refactor simulator — the executable reference spec.

This is the object-based event loop exactly as it stood before the
columnar refactor: it walks ``graph.tasks`` (one ``Task`` dataclass per
kernel call), resolves producers through the ``graph.producer`` mapping
and builds its dependency tables with per-task Python loops.  It is
kept, verbatim except for the network-stats accessors and the record
sink (one :class:`~repro.runtime.trace.RecordList`, which the network
model is bound to as well), for two purposes:

* ``benchmarks/bench_graph.py`` measures the columnar speedup against
  this implementation live, on the same machine and inputs, driving it
  with the :class:`~repro.runtime.objgraph.ObjectTaskGraph` reference
  builders;
* the benchmark cross-checks that both simulators produce the same
  makespan and message count — a second, end-to-end equivalence lock on
  top of the golden traces.

It accepts anything exposing the legacy graph API (``tasks``,
``producer``, ``total_flops``) — an :class:`ObjectTaskGraph` or a
columnar :class:`~repro.runtime.graph.TaskGraph` through its view
accessors.  Nothing in the runtime depends on this module.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cluster import ClusterSpec
from .graph import DataRef
from .network import (
    EVENT_MSG_ARRIVE,
    EVENT_NET_INTERNAL,
    EVENT_TASK_DONE,
    make_network,
)
from .trace import ExecutionTrace, RecordList, TaskRecord

__all__ = ["simulate_reference"]

_TASK_DONE = EVENT_TASK_DONE
_MSG_ARRIVE = EVENT_MSG_ARRIVE
_NET_INTERNAL = EVENT_NET_INTERNAL


from .simulator import SimulationError


def simulate_reference(
    graph,
    cluster: ClusterSpec,
    data_home: Optional[np.ndarray] = None,
    record_tasks: bool = False,
    network: Optional[str] = None,
) -> ExecutionTrace:
    """Simulate the distributed execution of ``graph`` on ``cluster``.

    Parameters
    ----------
    graph:
        The task DAG (tasks carry their executing node).
    cluster:
        Machine model; ``cluster.nnodes`` must cover every node id
        used in the graph.
    data_home:
        ``data_home[d]`` is the node initially holding version 0 of
        datum ``d``.  Required only if some task reads a version-0
        datum from a different node (never the case under
        owner-computes with our builders, but supported).
    record_tasks:
        Keep per-task start/end times and per-message records
        (memory-heavy for large graphs).
    network:
        Registry name of the communication model: ``None``/``"nic"``
        (legacy, sender-side serialization only), ``"contention"`` or
        ``"hierarchical"``.
    """
    model = make_network(network)
    tasks = graph.tasks
    n_tasks = len(tasks)
    if n_tasks == 0:
        model.bind(cluster, None)  # nothing to send: its stats are zero
        return ExecutionTrace(
            cluster=cluster, makespan=0.0, total_flops=0.0, n_tasks=0,
            busy_time=np.zeros(cluster.nnodes), net_stats=model.stats())
    max_node = max(t.node for t in tasks)
    if max_node >= cluster.nnodes:
        raise SimulationError(
            f"graph uses node {max_node} but cluster has {cluster.nnodes} nodes"
        )

    # ------------------------------------------------------------------
    # Preprocessing: prerequisites, message plan
    # ------------------------------------------------------------------
    pending = np.zeros(n_tasks, dtype=np.int64)
    local_dependents: List[List[int]] = [[] for _ in range(n_tasks)]
    remote_waiters: Dict[Tuple[DataRef, int], List[int]] = {}
    # messages to push when a producer completes: producer tid -> [(ref, dst)]
    push_plan: Dict[int, List[Tuple[DataRef, int]]] = {}
    # messages needed at t=0 (remote version-0 reads): [(ref, src, dst)]
    initial_msgs: List[Tuple[DataRef, int, int]] = []
    planned_msgs: set = set()

    for t in tasks:
        n = t.node
        for ref in t.reads:
            ptid = graph.producer.get(ref)
            if ptid is not None:
                if tasks[ptid].node == n:
                    pending[t.tid] += 1
                    local_dependents[ptid].append(t.tid)
                else:
                    pending[t.tid] += 1
                    remote_waiters.setdefault((ref, n), []).append(t.tid)
                    if (ref, n) not in planned_msgs:
                        planned_msgs.add((ref, n))
                        push_plan.setdefault(ptid, []).append((ref, n))
            else:
                # version-0 datum: resident at its home node
                if data_home is None:
                    home = n  # assume local (owner-computes invariant)
                else:
                    home = int(data_home[ref[0]])
                if home != n:
                    pending[t.tid] += 1
                    remote_waiters.setdefault((ref, n), []).append(t.tid)
                    if (ref, n) not in planned_msgs:
                        planned_msgs.add((ref, n))
                        initial_msgs.append((ref, home, n))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    idle = np.full(cluster.nnodes, cluster.cores_per_node, dtype=np.int64)
    ready: List[List[tuple]] = [[] for _ in range(cluster.nnodes)]
    busy = np.zeros(cluster.nnodes)
    done = np.zeros(n_tasks, dtype=bool)

    events: List[tuple] = []
    seq = 0

    def push_event(time: float, etype: int, payload) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(events, (time, seq, etype, payload))

    records = RecordList() if record_tasks else None
    model.bind(cluster, push_event, writer=records)

    def start_task(tid: int, t: float) -> None:
        task = tasks[tid]
        dur = cluster.task_time(task.flops, task.node)
        busy[task.node] += dur
        push_event(t + dur, _TASK_DONE, tid)
        if records is not None:
            records.write_task(TaskRecord(tid=tid, node=task.node, start=t, end=t + dur))

    policy = cluster.scheduler
    enqueue_seq = 0

    # fork-join mode: a global barrier between iterations (Section II-C's
    # synchronized-MPI strawman).  remaining[k] counts unfinished tasks
    # of iteration k; data-ready tasks of a future iteration wait in
    # deferred[k] until the gate advances past k.
    fj = cluster.fork_join
    remaining: Dict[int, int] = {}
    deferred: Dict[int, List[int]] = {}
    if fj:
        for t in tasks:
            remaining[t.k] = remaining.get(t.k, 0) + 1
    iterations = sorted(remaining) if fj else []
    gate_idx = 0

    def gate() -> int:
        return iterations[gate_idx] if gate_idx < len(iterations) else (1 << 62)

    def enqueue(tid: int) -> int:
        """Push a ready task onto its node's scheduling queue.

        ``priority`` mimics StarPU's critical-path-friendly ordering
        (earlier iteration, then panel kernels first); ``fifo``/``lifo``
        are the naive baselines for the scheduler ablation.
        """
        nonlocal enqueue_seq
        task = tasks[tid]
        enqueue_seq += 1
        if policy == "priority":
            key = (task.k, int(task.kind), tid)
        elif policy == "fifo":
            key = (enqueue_seq, 0, tid)
        else:  # lifo
            key = (-enqueue_seq, 0, tid)
        heapq.heappush(ready[task.node], key)
        return task.node

    def make_ready(tid: int) -> Optional[int]:
        """Route a data-ready task: defer it behind the iteration gate
        in fork-join mode, enqueue it otherwise."""
        if fj and tasks[tid].k > gate():
            deferred.setdefault(tasks[tid].k, []).append(tid)
            return None
        return enqueue(tid)

    def dispatch(n: int, t: float) -> None:
        """Start queued tasks (best priority first) on idle workers."""
        while idle[n] > 0 and ready[n]:
            _, _, tid = heapq.heappop(ready[n])
            idle[n] -= 1
            start_task(tid, t)

    def deliver(ref: DataRef, dst: int, t: float) -> None:
        """A message arrived: wake its waiting consumers."""
        woken = set()
        for dep in remote_waiters.get((ref, dst), ()):
            pending[dep] -= 1
            if pending[dep] == 0:
                n = make_ready(dep)
                if n is not None:
                    woken.add(n)
        for n in woken:
            dispatch(n, t)

    # seed: initial messages and dependency-free tasks
    for ref, src, dst in initial_msgs:
        model.send(ref, src, dst, 0.0)
    touched = set()
    for t in tasks:
        if pending[t.tid] == 0:
            n = make_ready(t.tid)
            if n is not None:
                touched.add(n)
    for n in touched:
        dispatch(n, 0.0)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    now = 0.0
    completed = 0
    while events:
        now, _, etype, payload = heapq.heappop(events)
        if etype == _TASK_DONE:
            tid = payload
            done[tid] = True
            completed += 1
            task = tasks[tid]
            # push produced version to remote consumers
            dests = push_plan.get(tid, ())
            if dests:
                model.multicast(task.node, dests, now)
            # wake local dependents, then refill the freed worker
            woken = {task.node}
            for dep in local_dependents[tid]:
                pending[dep] -= 1
                if pending[dep] == 0:
                    n = make_ready(dep)
                    if n is not None:
                        woken.add(n)
            if fj:
                remaining[task.k] -= 1
                while gate_idx < len(iterations) and remaining[iterations[gate_idx]] == 0:
                    gate_idx += 1
                    if gate_idx < len(iterations):
                        for tid2 in deferred.pop(iterations[gate_idx], ()):  # noqa: B007
                            woken.add(enqueue(tid2))
            idle[task.node] += 1
            for n in woken:
                dispatch(n, now)
        elif etype == _MSG_ARRIVE:
            ref, dst = payload
            deliver(ref, dst, now)
        else:  # network-internal event (contention-model flow bookkeeping)
            for ref, dst in model.on_internal(payload, now):
                deliver(ref, dst, now)

    if completed != n_tasks:
        stuck = int(np.sum(~done))
        raise SimulationError(
            f"deadlock: {stuck} of {n_tasks} tasks never ran "
            f"(first stuck: {tasks[int(np.flatnonzero(~done)[0])]})"
        )

    return ExecutionTrace(
        cluster=cluster,
        makespan=now,
        total_flops=graph.total_flops,
        n_tasks=n_tasks,
        busy_time=busy,
        net_stats=model.stats(),
        records=records,
    )

"""Event-driven simulator of a task-based distributed runtime (v3).

Models the Chameleon/StarPU execution of Section II-C:

* **owner computes** — every task runs on the node owning the tile it
  writes (placement is already baked into the task graph);
* **asynchronous point-to-point communication** — each produced tile
  version is pushed, once, to every remote node that reads it, through
  a :mod:`~repro.runtime.network` model chosen by name; communications
  fully overlap computation.  ``network="nic"`` (the default) is the
  legacy sender-serialized model, bit-for-bit identical to the v1
  simulator; ``network="contention"`` adds receive-side serialization,
  eager/rendezvous per-message latency and fair bandwidth sharing on a
  bisection link, and ``"hierarchical"`` a fast intra-machine level;
* **dynamic intra-node scheduling** — each node runs ``cores_per_node``
  identical workers; ready tasks are picked by (iteration, kernel-kind)
  priority, which mimics StarPU's critical-path-friendly ordering of
  panel tasks before updates;
* **no global synchronization** — iterations overlap freely, exactly
  like the runtime-based execution the paper credits for beating
  fork-join MPI codes.

The v3 hot path is split in three layers:

1. **Plan** — :mod:`~repro.runtime.simplan` derives the dependency
   countdowns, the CSR local-dependents table and the uid-encoded
   message plan as flat arrays (in C, or in NumPy under the ``python``
   backend; no Python dict/list assembly),
   cached per graph so repeated simulations of one graph — a campaign
   cell's baseline + degraded runs, or a network-model sweep — pay for
   planning once.
2. **Backend** — every fault-free run whose scheduler has a static key
   table (``priority``, ``lookahead``, ``comm_avoiding``,
   ``work_stealing``), without fork-join and with p2p multicast, runs
   compiled under every network model: a ctypes-bound C loop
   (:mod:`~repro.runtime.csim`) compiled on demand, which replicates
   the Python loop event for event — the ``nic`` wire time, the
   contention family's flow engine and the work-stealing rebalance;
   ``REPRO_SIM_BACKEND`` selects it (see
   :mod:`~repro.runtime.backends`), and :func:`python_loop_reason`
   says why a run does not take it.  A recorded run keeps flat arrays
   of start and end times, executing nodes and an emission log, and
   hands them to the run's sink as columns
   (:meth:`~repro.runtime.trace.TraceWriter.write_batch`) after the
   loop ends.
3. **Python loop** — the always-available reference, and the only path
   for fork-join, the dynamic-key schedulers (``fifo``, ``lifo``) and
   tree multicast; fault runs have their own loop
   (:mod:`~repro.runtime.faults`).  It drains the event heap in
   same-timestamp batches, and every policy takes one task-completion
   body.

The event schedule, and therefore every trace, is bit-for-bit
identical across all three layers and to the previous per-event
implementation: ties break on the shared seq-tagged event keys, ready
heaps pop unique packed priority keys, and the golden-trace tests pin
the result for every backend.

The simulator is deterministic for a given graph, cluster and network
model.  Every engine (this module's two loops, the fault loop and the
resize stitch) hands its task and message records to one sink, a
:class:`~repro.runtime.trace.TraceWriter`: the caller's
``trace_writer=``, or for ``record_tasks=True`` alone a
:class:`~repro.runtime.trace.RecordList`, which keeps the records as
columns (a compiled run's batch as it is handed over) and which the
returned trace carries as ``records``.  With a writer the Python loop
holds only the writer's buffer; a compiled run also holds its recording
columns (24 bytes per task, 32 per message) until the sink's batch hook
returns.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from .backends import select_backend
from .cluster import ClusterSpec
from .graph import TaskGraph
from .network import (
    EVENT_MSG_ARRIVE,
    EVENT_NET_INTERNAL,
    EVENT_TASK_DONE,
    intra_message_time,
    make_network,
)
from .schedulers import make_scheduler
from .simplan import get_plan
from .trace import (ExecutionTrace, RecordList, TaskRecord, TraceWriter,
                    hand_batch)

__all__ = ["simulate", "SimulationError", "python_loop_reason"]

_TASK_DONE = EVENT_TASK_DONE
_MSG_ARRIVE = EVENT_MSG_ARRIVE
_NET_INTERNAL = EVENT_NET_INTERNAL


class SimulationError(RuntimeError):
    """Raised when the simulation cannot complete (e.g. a dependency
    cycle or an unsatisfiable data requirement) or is given inputs it
    cannot run."""


def check_inputs(graph: TaskGraph, cluster: ClusterSpec,
                 data_home: Optional[np.ndarray]) -> None:
    """Reject node ids outside ``[0, nnodes)`` before an engine indexes
    per-node tables with them (the compiled loop would write out of
    bounds), and a ``data_home`` that misses some datum."""
    ids = [("graph", graph.columns.node)] if len(graph) else []
    if data_home is not None:
        home = np.asarray(data_home)
        if len(home) < graph.n_data:
            raise SimulationError(
                f"data_home has {len(home)} entries for {graph.n_data} data")
        ids.append(("data_home", home))
    P = cluster.nnodes
    for what, node in ids:
        lo, hi = (int(node.min()), int(node.max())) if node.size else (0, 0)
        if lo < 0 or hi >= P:
            raise SimulationError(
                f"{what} names node {lo if lo < 0 else hi} but cluster "
                f"has nodes 0..{P - 1}")


def python_loop_reason(cluster: ClusterSpec, faults=None) -> Optional[str]:
    """Why a run on ``cluster`` takes the Python event loop, or ``None``
    when the compiled loop runs it.

    The reason is the first failing condition, by name: ``"fork-join"``,
    ``"multicast tree"``, ``"scheduler <name>"`` (a policy whose keys
    depend on enqueue order, such as ``fifo``), ``"faults"`` (a
    non-empty fault plan, which the degraded loop runs) or ``"backend
    python"`` (``REPRO_SIM_BACKEND=python``, or ``auto`` without a
    compiler).  Every network model and every static-key scheduler,
    work stealing included, runs compiled.
    """
    if cluster.fork_join:
        return "fork-join"
    if cluster.multicast == "tree":
        return "multicast tree"
    if make_scheduler(cluster.scheduler).dynamic:
        return f"scheduler {cluster.scheduler}"
    if faults:
        return "faults"
    if select_backend()[1] is None:
        return "backend python"
    return None


def simulate(
    graph: TaskGraph,
    cluster: ClusterSpec,
    data_home: Optional[np.ndarray] = None,
    record_tasks: bool = False,
    network: Optional[str] = None,
    faults=None,
    recovery=None,
    trace_writer: Optional[TraceWriter] = None,
    resize=None,
) -> ExecutionTrace:
    """Simulate the distributed execution of ``graph`` on ``cluster``.

    A fault-free run whose scheduler has a static key table, without
    fork-join and with p2p multicast, runs on the compiled event loop
    when it builds, under every network model and with work stealing;
    :func:`python_loop_reason` names why any other run takes the Python
    loop.  The two loops produce the same trace, records, network
    statistics and trace files, byte for byte.

    Parameters
    ----------
    graph:
        The task DAG (tasks carry their executing node).
    cluster:
        Machine model; ``cluster.nnodes`` must cover every node id
        used in the graph.
    data_home:
        ``data_home[d]`` is the node initially holding version 0 of
        datum ``d`` (one entry per datum).  Required only if some task
        reads a version-0 datum from a different node (never the case
        under owner-computes with our builders, but supported).
    record_tasks:
        Keep per-task start/end times and per-message records in
        memory on the returned trace, as the columns of its
        ``records`` (``records.task_columns()`` and
        ``records.msg_columns()``; prefer ``trace_writer`` beyond ~1M
        tasks).  With a ``trace_writer`` the records go to the writer
        only.
    network:
        Registry name of the communication model: ``None``/``"nic"``
        (legacy, sender-side serialization only), ``"contention"`` or
        ``"hierarchical"``.  Only ``"nic"`` models ``multicast="tree"``.
    faults:
        A :class:`~repro.runtime.faults.FaultPlan`, a spec string for
        :func:`~repro.runtime.faults.parse_faults`, or ``None``.  An
        empty plan (or ``None``) takes this fast path untouched — the
        golden traces stay byte-identical; a non-empty plan routes to
        :func:`~repro.runtime.faults.simulate_with_faults`.
    recovery:
        Re-homing policy ``recovery(failed_node, alive_nodes) ->
        candidates`` for fault runs (see
        :func:`~repro.runtime.faults.colrow_recovery`); ignored when
        ``faults`` is empty.
    trace_writer:
        A :class:`~repro.runtime.trace.TraceWriter` that receives every
        :class:`~repro.runtime.trace.TaskRecord` and
        :class:`~repro.runtime.trace.MsgRecord` in production order,
        instead of growing in-memory lists.  The Python loop writes each
        record as it is produced; the compiled loop hands the whole run
        to the writer's ``write_batch`` as columns once it ends (a
        writer without that hook gets the same records, in the same
        order, through ``write_task``/``write_msg``).  The returned
        trace then has ``records is None``, also for fault and resize
        runs; the caller owns the writer's lifecycle (``close()``).
        The event schedule is identical with or without a writer.
    resize:
        A :class:`~repro.runtime.resize.ResizeEvent`, a ``"P@t"`` spec
        string for :func:`~repro.runtime.resize.parse_resize`, or
        ``None``.  An empty spec (or ``None``) takes this fast path
        untouched — as does a resize that turns out to be a no-op — so
        the golden traces stay byte-identical; an effective resize
        routes to :func:`~repro.runtime.resize.simulate_with_resize`.
        Cannot be combined with a non-empty ``faults`` plan.
    """
    check_inputs(graph, cluster, data_home)
    if cluster.multicast == "tree" and network not in (None, "nic"):
        raise SimulationError(
            f"multicast='tree' is modelled only by the 'nic' network, "
            f"not {network!r}")
    if isinstance(faults, str):
        from .faults import parse_faults
        faults = parse_faults(faults)
    if isinstance(resize, str):
        from .resize import parse_resize
        resize = parse_resize(resize)
    if resize is not None:
        if faults:
            raise SimulationError(
                "resize and faults cannot be combined in one run")
        from .resize import simulate_with_resize
        return simulate_with_resize(
            graph, cluster, resize, data_home=data_home,
            record_tasks=record_tasks, network=network,
            trace_writer=trace_writer)
    if faults:
        from .faults import simulate_with_faults
        return simulate_with_faults(
            graph, cluster, faults, data_home=data_home,
            record_tasks=record_tasks, network=network,
            recovery=recovery, trace_writer=trace_writer)
    model = make_network(network)
    n_tasks = len(graph)
    records = RecordList() if record_tasks and trace_writer is None else None
    sink = records if trace_writer is None else trace_writer
    if n_tasks == 0:
        model.bind(cluster, None)  # nothing to send: its stats are zero
        return ExecutionTrace(
            cluster=cluster, makespan=0.0, total_flops=0.0, n_tasks=0,
            busy_time=np.zeros(cluster.nnodes), net_stats=model.stats(),
            records=records)
    cols = graph.columns

    # all dependency/message tables come vectorized from the cached plan
    plan = get_plan(graph, data_home)

    dur_a = cluster.task_time(cols.flops, cols.node)

    if python_loop_reason(cluster) is None:
        return _run_compiled(graph, cluster, plan, dur_a, model, sink,
                             records)

    # ------------------------------------------------------------------
    # Python event loop: hot-path state as plain-list plan copies
    # ------------------------------------------------------------------
    Pn = cluster.nnodes

    node_l = plan.node.tolist()
    k_l = cols.k.tolist()
    pending_l = plan.pending.tolist()
    dur_l = dur_a.tolist()
    ld_indptr = plan.ld_indptr.tolist()
    ld_tasks = plan.ld_tasks.tolist()
    w_indptr = plan.w_indptr.tolist()
    w_tasks = plan.w_tasks.tolist()
    mdst_l = plan.msg_dst.tolist()

    # message refs are ``(data, version, uid)``: the network model
    # records the first two fields, and ``deliver`` finds the waiting
    # tasks by uid (a CSR slice, no hashing).  Refs never take part in
    # event ordering.
    ref_l = list(zip(plan.msg_data.tolist(), plan.msg_version.tolist(),
                     range(plan.n_msgs)))

    # dense per-task push plan: tid -> [(ref, dst)] or None
    push_plan_l: List[Optional[list]] = [None] * n_tasks
    pp = plan.push_indptr
    for tid in np.flatnonzero(np.diff(pp)).tolist():
        push_plan_l[tid] = [(ref_l[uid], mdst_l[uid])
                            for uid in plan.push_uids[pp[tid]:pp[tid + 1]].tolist()]

    initial_msgs = [(ref_l[uid], int(plan.msg_src[uid]), mdst_l[uid])
                    for uid in plan.init_uids.tolist()]

    idle = [cluster.cores_per_node] * cluster.nnodes
    ready: List[List[int]] = [[] for _ in range(cluster.nnodes)]
    busy = [0.0] * cluster.nnodes
    rec_task = sink.write_task if sink is not None else None

    # events are ``(time, tag, payload)`` with ``tag = seq + etype``,
    # where ``seq`` advances in steps of 4 so that the low two bits hold
    # the event type and ``tag`` stays strictly increasing — ties on
    # ``time`` break by push order exactly as a separate seq field would
    events: List[tuple] = []
    seq = 0
    heappush = heapq.heappush
    heappop = heapq.heappop

    def push_event(time: float, etype: int, payload) -> None:
        nonlocal seq
        seq += 4
        heappush(events, (time, seq + etype, payload))

    model.bind(cluster, push_event, writer=sink)

    # scheduling policy, resolved through the registry: static policies
    # provide a per-task key table; dynamic policies (fifo/lifo) pack
    # the enqueue sequence number instead.
    sched = make_scheduler(cluster.scheduler)
    if sched.dynamic:
        static_l: Optional[List[int]] = None
        dyn_key = sched.dynamic_key
    else:
        static_l = sched.static_keys(plan, graph, cluster, dur_a).tolist()
        dyn_key = None
    enqueue_seq = 0

    # fork-join mode: a global barrier between iterations (Section II-C's
    # synchronized-MPI strawman).  remaining[k] counts unfinished tasks
    # of iteration k; data-ready tasks of a future iteration wait in
    # deferred[k] until the gate advances past k.
    fj = cluster.fork_join
    deferred: Dict[int, List[int]] = {}
    if fj:
        uk, uc = np.unique(cols.k, return_counts=True)
        remaining = dict(zip(uk.tolist(), uc.tolist()))
        iterations = sorted(remaining)
    else:
        remaining = {}
        iterations = []
    gate_idx = 0
    gate_val = iterations[0] if iterations else (1 << 62)

    def enqueue(tid: int) -> int:
        """Push a ready task onto its node's scheduling queue, keyed by
        the registered policy (static key table or enqueue-order key)."""
        nonlocal enqueue_seq
        n = node_l[tid]
        if static_l is not None:
            key = static_l[tid]
        else:
            enqueue_seq += 1
            key = dyn_key(enqueue_seq, tid)
        heappush(ready[n], key)
        return n

    def dispatch(n: int, t: float, ready=ready, idle=idle, busy=busy,
                 dur_l=dur_l, events=events, heappop=heappop,
                 heappush=heappush) -> None:
        """Start queued tasks (best priority first) on idle workers.

        The default arguments bind the shared state as locals — this
        and :func:`deliver` run once per message, and closure-cell loads
        are measurably slower than local loads there.
        """
        nonlocal seq
        rq = ready[n]
        idl = idle[n]
        while idl > 0 and rq:
            tid = heappop(rq) & 0xFFFFFFFF
            idl -= 1
            dur = dur_l[tid]
            busy[n] += dur
            seq += 4
            heappush(events, (t + dur, seq, tid))
            if rec_task is not None:
                rec_task(TaskRecord(tid=tid, node=n, start=t, end=t + dur))
        idle[n] = idl

    # work stealing (see schedulers.py): after each event batch, idle
    # nodes with empty queues pull queued tasks from victims.  The
    # thief pays one tile transfer on top of its own execution speed:
    # ``intra_message_time`` from a rank of its own machine under the
    # flow engine's machine map, else ``message_time``.  The output
    # still materializes at the owner (wakes and the message plan are
    # untouched), so message totals are policy-invariant.
    stealing = sched.steals
    if stealing:
        victims = sched.victim_order(plan, Pn)
        machine = model.engine_args().get("machine")
        steal_pen = cluster.message_time()
        intra_pen = intra_message_time(cluster)
        base_dur_l = cluster.task_time(cols.flops).tolist()
        speeds_l = list(cluster.node_speeds) if cluster.node_speeds else None
        ran_on: Dict[int, int] = {}

        def rebalance(t: float) -> None:
            nonlocal seq
            # stealing only pops ready queues: with all of them empty
            # (the common case) there is nothing to scan
            if not any(ready):
                return
            for n in range(Pn):
                idl = idle[n]
                if idl <= 0 or ready[n]:
                    continue
                for v in victims[n]:
                    rq = ready[v]
                    while idl > 0 and rq:
                        tid2 = heappop(rq) & 0xFFFFFFFF
                        dur = base_dur_l[tid2]
                        if speeds_l is not None:
                            dur = dur / speeds_l[n]
                        if machine is not None and machine[v] == machine[n]:
                            dur += intra_pen
                        else:
                            dur += steal_pen
                        ran_on[tid2] = n
                        idl -= 1
                        busy[n] += dur
                        seq += 4
                        heappush(events, (t + dur, seq, tid2))
                        if rec_task is not None:
                            rec_task(TaskRecord(tid=tid2, node=n,
                                                start=t, end=t + dur))
                    if idl == 0:
                        break
                idle[n] = idl

    def deliver(ref, dst: int, t: float, w_indptr=w_indptr, w_tasks=w_tasks,
                pending_l=pending_l) -> None:
        """A message arrived: wake its waiting consumers.

        Every waiter of message ``uid = ref[2]`` reads on node ``dst``,
        so at most that one node gains ready tasks."""
        uid = ref[2]
        any_ready = False
        for dep in w_tasks[w_indptr[uid]:w_indptr[uid + 1]]:
            p = pending_l[dep] - 1
            pending_l[dep] = p
            if p == 0:
                if fj and k_l[dep] > gate_val:
                    deferred.setdefault(k_l[dep], []).append(dep)
                else:
                    enqueue(dep)
                    any_ready = True
        if any_ready:
            dispatch(dst, t)

    # seed: initial messages and dependency-free tasks, then one
    # dispatch per touched node in ascending node order (deterministic,
    # matching the compiled backends)
    for ref, src, dst in initial_msgs:
        model.send(ref, src, dst, 0.0)
    for tid in np.flatnonzero(plan.pending == 0).tolist():
        if fj and k_l[tid] > gate_val:
            deferred.setdefault(k_l[tid], []).append(tid)
        else:
            enqueue(tid)
    for n in range(cluster.nnodes):
        if ready[n]:
            dispatch(n, 0.0)
    if stealing:
        rebalance(0.0)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    # a task completion wakes its local dependents and dispatches on
    # every node it woke; message arrivals go through ``deliver``.  The
    # heap is drained in same-timestamp batches: each iteration of the
    # outer loop pins ``now`` and the inner loop keeps popping while the
    # heap head stays at ``now`` — events pushed *during* the batch land
    # behind the drained ones (their seq tags are larger), so
    # processing order is identical to one-at-a-time popping.
    now = 0.0
    completed = 0
    while events:
        now, tag, payload = heappop(events)
        while True:
            etype = tag & 3
            if etype == _TASK_DONE:
                tid = payload
                completed += 1
                tnode = node_l[tid]
                # push produced version to remote consumers
                dests = push_plan_l[tid]
                if dests is not None:
                    model.multicast(tnode, dests, now)
                # wake local dependents, then refill the freed worker.
                # Local dependents run on the producer's node (that is
                # what makes them local); the fork-join gate and a
                # stolen task's thief can wake more nodes.
                woken = {tnode}
                for dep in ld_tasks[ld_indptr[tid]:ld_indptr[tid + 1]]:
                    p = pending_l[dep] - 1
                    pending_l[dep] = p
                    if p == 0:
                        if fj and k_l[dep] > gate_val:
                            deferred.setdefault(k_l[dep], []).append(dep)
                        else:
                            woken.add(enqueue(dep))
                if fj:
                    remaining[k_l[tid]] -= 1
                    while (gate_idx < len(iterations)
                           and remaining[iterations[gate_idx]] == 0):
                        gate_idx += 1
                        if gate_idx < len(iterations):
                            for tid2 in deferred.pop(iterations[gate_idx], ()):  # noqa: B007
                                woken.add(enqueue(tid2))
                    gate_val = (iterations[gate_idx]
                                if gate_idx < len(iterations) else (1 << 62))
                if stealing:
                    # a stolen task frees a core on the thief, not the
                    # owner; wakes stay with the owner
                    wnode = ran_on.pop(tid, tnode)
                    idle[wnode] += 1
                    woken.add(wnode)
                else:
                    idle[tnode] += 1
                for n in sorted(woken):
                    dispatch(n, now)
            elif etype == _MSG_ARRIVE:
                ref, dst = payload
                deliver(ref, dst, now)
            else:  # network-internal event (contention-model bookkeeping)
                for ref, dst in model.on_internal(payload, now):
                    deliver(ref, dst, now)
            # batch drain: keep popping while the head stays at ``now``
            if events and events[0][0] == now:
                _, tag, payload = heappop(events)
            else:
                break
        if stealing:
            rebalance(now)

    if completed != n_tasks:
        _raise_deadlock(graph, n_tasks, completed, pending_l, deferred)

    return ExecutionTrace(
        cluster=cluster,
        makespan=now,
        total_flops=graph.total_flops,
        n_tasks=n_tasks,
        busy_time=np.asarray(busy, dtype=np.float64),
        net_stats=model.stats(),
        records=records,
    )


def _run_compiled(graph: TaskGraph, cluster: ClusterSpec, plan, dur_a,
                  model, sink: Optional[TraceWriter],
                  records: Optional[RecordList]) -> ExecutionTrace:
    """One run on the compiled loop (see :func:`python_loop_reason`).

    A recorded run fills start/end-time arrays and an emission log,
    which go to the sink's batch hook as columns after the loop."""
    _, runner = select_backend()
    sched = make_scheduler(cluster.scheduler)
    model.bind(cluster, None)
    kw = model.engine_args()
    if sched.steals:
        kw.update(victims=sched.victim_order(plan, cluster.nnodes),
                  base_dur=cluster.task_time(graph.columns.flops),
                  speeds=cluster.node_speeds or None,
                  intra_msg_time=intra_message_time(cluster))
    res = runner(plan, dur_a, cluster.nnodes, cluster.cores_per_node,
                 cluster.message_time(), record=sink is not None,
                 keys=sched.static_keys(plan, graph, cluster, dur_a), **kw)
    if sink is not None:
        hand_batch(sink, res.log, res.node, res.task_start, res.task_end,
                   plan.msg_data, plan.msg_version, plan.msg_src,
                   plan.msg_dst, res.msg_start, res.msg_arrive,
                   np.full(plan.n_msgs, kw.get("nbytes", cluster.tile_bytes)))
    n_tasks = len(graph)
    if res.completed != n_tasks:
        _raise_deadlock(graph, n_tasks, res.completed,
                        res.pending.tolist(), {})
    model.adopt(res)
    return ExecutionTrace(
        cluster=cluster,
        makespan=res.makespan,
        total_flops=graph.total_flops,
        n_tasks=n_tasks,
        busy_time=res.busy,
        net_stats=model.stats(),
        records=records,
    )


def _raise_deadlock(graph: TaskGraph, n_tasks: int, completed: int,
                    pending_l: List[int], deferred: Dict[int, List[int]]):
    stuck = n_tasks - completed
    # a stuck task still has unmet prerequisites (or, in fork-join
    # mode, sits behind the iteration gate in ``deferred``)
    first_stuck = next(
        (t for t in range(n_tasks) if pending_l[t] > 0),
        min((min(v) for v in deferred.values()), default=0),
    )
    raise SimulationError(
        f"deadlock: {stuck} of {n_tasks} tasks never ran "
        f"(first stuck: {graph.task(first_stuck)})"
    )

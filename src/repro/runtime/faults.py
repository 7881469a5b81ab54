"""Deterministic fault injection and resilience for the simulator.

The paper's premise is that clusters come in awkward sizes because real
machines lose and gain nodes; this module makes the simulator model
that reality instead of assuming a perfect, failure-free network.  A
seeded :class:`FaultPlan` describes four orthogonal fault axes:

* **fail-stop node loss** (:class:`NodeFailure`) — a node dies at time
  *t*; its running tasks are aborted, its queued and future tasks are
  re-homed, and every tile version it held is gone;
* **transient stragglers** (:class:`StragglerWindow`) — a node's cores
  run at a reduced speed factor inside a time window (OS jitter,
  thermal throttling, a co-scheduled job);
* **link degradation** (:class:`LinkDegradation`) — messages delivered
  inside a time window see the wire bandwidth scaled down;
* **probabilistic message loss** (``msg_loss_prob``) — each delivery
  independently fails with probability *p* (seeded, deterministic);
  lost messages are retransmitted after a timeout with exponential
  backoff (see :class:`~repro.runtime.network.ResilientNetwork`).

Recovery policy
---------------
When a node fails, its not-yet-finished tasks (its *tiles*, under
owner-computes) are re-homed round-robin onto its **pattern colrow
peers** — the nodes sharing a pattern row or column with it.  This is
the same node set the extended-SBC diagonal rule draws from (Section V
of the paper), so recovery traffic stays inside the groups the
``x̄``/``ȳ``/``z̄`` machinery already accounts for; it is also exactly
the re-mapping-as-communication problem COSTA's process relabeling
optimizes.  Re-homed tasks re-fetch the input versions their new node
is missing from the nearest surviving holder (*recovery messages*,
counted separately); a version whose only holder was the failed node is
recomputed by resurrecting its producer task, recursively; version-0
tiles whose home failed are re-fetched from stable storage.

Determinism and the fault-free invariant
----------------------------------------
For a given ``(graph, cluster, network, FaultPlan)`` the simulation is
bit-for-bit deterministic: loss draws come from a PCG64 stream seeded
by ``plan.seed`` and consumed in event order, re-homing scans tasks in
tid order, and every tie on the event heap breaks by push sequence.
:func:`simulate_with_faults` with an **empty** plan reproduces the fast
path of :func:`repro.runtime.simulator.simulate` event-for-event (the
equivalence tests pin canonical-trace equality), and ``simulate()``
itself routes empty plans to the untouched fast path, so all golden
traces stay byte-identical.  Fault runs multicast point to point only
(``multicast="tree"`` is rejected at entry) and hand their records to
one sink under ``simulate``'s writer contract.
"""

from __future__ import annotations

import hashlib
import heapq
import re
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .cluster import ClusterSpec
from .graph import TaskGraph
from .network import (
    EVENT_FAULT,
    EVENT_MSG_ARRIVE,
    EVENT_NET_INTERNAL,
    EVENT_TASK_DONE,
    ResilientNetwork,
    make_network,
)
from .simulator import SimulationError, check_inputs
from .trace import ExecutionTrace, RecordList, TaskRecord

__all__ = [
    "NodeFailure",
    "StragglerWindow",
    "LinkDegradation",
    "FaultPlan",
    "FaultEvent",
    "FaultStats",
    "parse_faults",
    "recovery_peers",
    "colrow_recovery",
    "simulate_with_faults",
]

#: Task lifecycle states of the resilient event loop.
_WAITING, _QUEUED, _RUNNING, _DONE = 0, 1, 2, 3


@dataclass(frozen=True)
class NodeFailure:
    """Fail-stop loss of ``node`` at simulated time ``time``."""

    node: int
    time: float


@dataclass(frozen=True)
class StragglerWindow:
    """``node`` runs its cores at ``speed_factor`` × nominal speed
    inside ``[start, end)`` (factor < 1 slows it down).  The factor is
    sampled at task start time and applies to the whole task."""

    node: int
    start: float
    end: float
    speed_factor: float


@dataclass(frozen=True)
class LinkDegradation:
    """Deliveries inside ``[start, end)`` see the wire bandwidth scaled
    by ``bandwidth_factor`` (< 1 slows every link)."""

    start: float
    end: float
    bandwidth_factor: float


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of every injected fault.

    An all-defaults plan is *empty* (``bool(FaultPlan()) is False``):
    ``simulate(faults=FaultPlan())`` takes the unmodified fast path and
    reproduces the golden traces byte-for-byte.

    Attributes
    ----------
    seed:
        Seed of the PCG64 stream behind message-loss draws.
    failures / stragglers / degradations:
        The deterministic fault axes (tuples, see the window classes).
    msg_loss_prob:
        Per-delivery loss probability in ``[0, 1)``.
    retry_timeout_s:
        Base retransmission timeout; ``None`` = 4 × the cluster's
        per-tile message time.
    retry_backoff:
        Multiplier applied to the timeout per lost attempt (≥ 1).
    max_retries:
        After this many lost attempts a message is delivered reliably
        (the transport layer's last-resort acknowledgment path), which
        bounds worst-case latency and guarantees progress.
    """

    seed: int = 0
    failures: Tuple[NodeFailure, ...] = ()
    stragglers: Tuple[StragglerWindow, ...] = ()
    degradations: Tuple[LinkDegradation, ...] = ()
    msg_loss_prob: float = 0.0
    retry_timeout_s: Optional[float] = None
    retry_backoff: float = 2.0
    max_retries: int = 8

    def __post_init__(self):
        for f in self.failures:
            if f.node < 0 or f.time < 0:
                raise ValueError(f"invalid failure {f!r}")
        for w in self.stragglers:
            if w.node < 0 or not (w.start < w.end) or w.speed_factor <= 0:
                raise ValueError(f"invalid straggler window {w!r}")
        for w in self.degradations:
            if not (w.start < w.end) or w.bandwidth_factor <= 0:
                raise ValueError(f"invalid degradation window {w!r}")
        if not (0.0 <= self.msg_loss_prob < 1.0):
            raise ValueError(f"msg_loss_prob must be in [0, 1), got {self.msg_loss_prob}")
        if self.retry_timeout_s is not None and self.retry_timeout_s <= 0:
            raise ValueError("retry_timeout_s must be positive")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def __bool__(self) -> bool:
        return bool(self.failures or self.stragglers or self.degradations
                    or self.msg_loss_prob > 0.0)

    @property
    def empty(self) -> bool:
        return not self

    # ------------------------------------------------------------------
    def speed_factor(self, node: int, t: float) -> float:
        """Product of the straggler factors active on ``node`` at ``t``."""
        f = 1.0
        for w in self.stragglers:
            if w.node == node and w.start <= t < w.end:
                f *= w.speed_factor
        return f

    def degradation_factor(self, t: float) -> float:
        """Product of the link-degradation factors active at ``t``."""
        f = 1.0
        for w in self.degradations:
            if w.start <= t < w.end:
                f *= w.bandwidth_factor
        return f


@dataclass(frozen=True)
class FaultEvent:
    """One fault-related incident, for traces and Chrome rendering.

    ``kind`` ∈ {"fail", "abort", "rehome", "resurrect", "recover",
    "restore", "loss", "retry", "drop", "straggle", "degrade"};
    ``node`` is -1 for cluster-wide (link) events.
    """

    time: float
    kind: str
    node: int
    detail: str = ""


@dataclass(frozen=True)
class FaultStats:
    """Degraded-run observability attached to an :class:`ExecutionTrace`."""

    plan: FaultPlan
    failed_nodes: Tuple[int, ...]
    tasks_aborted: int
    tasks_rehomed: int
    tasks_resurrected: int
    recovery_messages: int       #: re-fetches of surviving tile versions
    recovery_bytes: float
    msgs_lost: int               #: deliveries that failed the loss draw
    retries: int                 #: retransmissions initiated (== msgs_lost)
    msgs_degraded: int           #: deliveries stretched by a degradation window
    straggle_s: float            #: extra core-seconds from straggler slowdowns
    events: Tuple[FaultEvent, ...] = ()

    def to_canonical(self) -> Dict[str, object]:
        """Serialization-stable summary (same contract as the trace's
        :meth:`~repro.runtime.trace.ExecutionTrace.to_canonical`)."""
        blob = ";".join(
            f"{float(e.time).hex()},{e.kind},{e.node},{e.detail}" for e in self.events)
        return {
            "failed_nodes": list(self.failed_nodes),
            "tasks_aborted": int(self.tasks_aborted),
            "tasks_rehomed": int(self.tasks_rehomed),
            "tasks_resurrected": int(self.tasks_resurrected),
            "recovery_messages": int(self.recovery_messages),
            "recovery_bytes": float(self.recovery_bytes).hex(),
            "msgs_lost": int(self.msgs_lost),
            "retries": int(self.retries),
            "msgs_degraded": int(self.msgs_degraded),
            "straggle_s": float(self.straggle_s).hex(),
            "events_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        }


# ---------------------------------------------------------------------------
# CLI spec parsing
# ---------------------------------------------------------------------------
# Non-negative float literal; ``-`` may only follow an exponent marker so
# that window ranges like ``0.0-5e-5`` split unambiguously on the first
# bare dash.
_NUM = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_FAIL_RE = re.compile(rf"^fail:(\d+)@({_NUM})$")
_SLOW_RE = re.compile(rf"^slow:(\d+)@({_NUM})-({_NUM})x({_NUM})$")
_DEGRADE_RE = re.compile(rf"^degrade:({_NUM})-({_NUM})x({_NUM})$")


def parse_faults(spec: str) -> FaultPlan:
    """Parse a compact fault spec into a :class:`FaultPlan`.

    Comma-separated directives; an empty string is the empty plan::

        fail:NODE@TIME          fail-stop loss (repeatable)
        slow:NODE@T0-T1xFACTOR  straggler window (repeatable)
        degrade:T0-T1xFACTOR    link-degradation window (repeatable)
        loss:P                  per-delivery loss probability
        seed:N                  RNG seed (default 0)
        timeout:S               retry timeout seconds (default 4x msg time)
        backoff:B               retry backoff multiplier (default 2)
        retries:N               max retries before reliable delivery

    Example: ``fail:2@0.05,slow:1@0.0-0.1x0.5,loss:0.01,seed:7``.
    """
    spec = (spec or "").strip()
    if not spec:
        return FaultPlan()
    failures: List[NodeFailure] = []
    stragglers: List[StragglerWindow] = []
    degradations: List[LinkDegradation] = []
    kw: Dict[str, object] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        m = _FAIL_RE.match(token)
        if m:
            failures.append(NodeFailure(int(m.group(1)), float(m.group(2))))
            continue
        m = _SLOW_RE.match(token)
        if m:
            stragglers.append(StragglerWindow(
                int(m.group(1)), float(m.group(2)), float(m.group(3)),
                float(m.group(4))))
            continue
        m = _DEGRADE_RE.match(token)
        if m:
            degradations.append(LinkDegradation(
                float(m.group(1)), float(m.group(2)), float(m.group(3))))
            continue
        if ":" in token:
            key, _, val = token.partition(":")
            try:
                if key == "loss":
                    kw["msg_loss_prob"] = float(val)
                    continue
                if key == "seed":
                    kw["seed"] = int(val)
                    continue
                if key == "timeout":
                    kw["retry_timeout_s"] = float(val)
                    continue
                if key == "backoff":
                    kw["retry_backoff"] = float(val)
                    continue
                if key == "retries":
                    kw["max_retries"] = int(val)
                    continue
            except ValueError as exc:
                raise ValueError(f"bad fault directive {token!r}: {exc}") from None
        raise ValueError(
            f"bad fault directive {token!r}; expected fail:N@T, slow:N@T0-T1xF, "
            f"degrade:T0-T1xF, loss:P, seed:N, timeout:S, backoff:B or retries:N")
    return FaultPlan(failures=tuple(failures), stragglers=tuple(stragglers),
                     degradations=tuple(degradations), **kw)


# ---------------------------------------------------------------------------
# Recovery policy
# ---------------------------------------------------------------------------
def recovery_peers(pattern, node: int) -> List[int]:
    """Pattern colrow peers of ``node`` — the re-homing candidates.

    For a square pattern these are the nodes of every colrow ``node``
    appears on (row *i* ∪ column *i* for each occurrence index *i*,
    Definition 1 of the paper — the same set the extended-SBC diagonal
    rule draws from).  For a rectangular (LU) pattern: the union of the
    rows and columns containing ``node``.
    """
    g = pattern.grid
    rs, cs = np.nonzero(g == node)
    peers: Set[int] = set()
    if pattern.is_square:
        for idx in set(rs.tolist()) | set(cs.tolist()):
            peers.update(g[idx, :].tolist())
            peers.update(g[:, idx].tolist())
    else:
        for r in set(rs.tolist()):
            peers.update(g[r, :].tolist())
        for c in set(cs.tolist()):
            peers.update(g[:, c].tolist())
    peers.discard(node)
    peers.discard(-1)  # UNDEFINED diagonal cells
    return sorted(peers)


def colrow_recovery(pattern) -> Callable[[int, Sequence[int]], List[int]]:
    """Recovery policy re-homing a failed node's tiles onto its pattern
    colrow peers (falls back to all survivors if every peer is dead)."""

    def _policy(failed: int, alive: Sequence[int]) -> List[int]:
        alive_set = set(alive)
        peers = [p for p in recovery_peers(pattern, failed) if p in alive_set]
        return peers or sorted(alive_set)

    return _policy


# ---------------------------------------------------------------------------
# The resilient event loop
# ---------------------------------------------------------------------------
def simulate_with_faults(
    graph: TaskGraph,
    cluster: ClusterSpec,
    faults: Union[FaultPlan, str, None],
    data_home: Optional[np.ndarray] = None,
    record_tasks: bool = False,
    network: Optional[str] = None,
    recovery: Optional[Callable[[int, Sequence[int]], Sequence[int]]] = None,
    trace_writer=None,
) -> ExecutionTrace:
    """Simulate ``graph`` on ``cluster`` under a :class:`FaultPlan`.

    Semantics match :func:`repro.runtime.simulator.simulate` exactly in
    the absence of faults (pinned by the equivalence tests); the extra
    machinery — task states with abort/resurrect epochs, a dynamic
    message plan that follows re-homed tasks, per-version holder sets —
    only changes behaviour when the plan injects something.

    ``recovery(failed_node, alive_nodes)`` returns the re-homing
    candidates for a failed node (``None`` = every survivor;
    :func:`colrow_recovery` builds the pattern-aware policy).  Not
    supported together with ``cluster.fork_join`` or
    ``multicast="tree"``; the other inputs are checked as
    :func:`~repro.runtime.simulator.simulate` checks them.

    Records go to one sink, as in ``simulate``.  Message records stream
    as they happen; task records are buffered until the end because a
    node failure can *retract* the records of aborted tasks, which a
    streaming sink cannot undo — only the surviving records are
    written, after the fault events.  Fault runs are experiment-scale,
    so this buffering stays small.
    """
    plan = parse_faults(faults) if isinstance(faults, str) else (faults or FaultPlan())
    check_inputs(graph, cluster, data_home)
    if cluster.fork_join:
        raise SimulationError("fault injection is not supported with fork_join clusters")
    if cluster.multicast == "tree":
        raise SimulationError(
            "multicast='tree' cannot be combined with a fault plan: a tree "
            "schedule cannot be retried per destination")
    for f in plan.failures:
        if f.node >= cluster.nnodes:
            raise SimulationError(
                f"fault plan fails node {f.node} but cluster has {cluster.nnodes} nodes")

    inner = make_network(network)
    model = ResilientNetwork(inner, plan)
    n_tasks = len(graph)
    P = cluster.nnodes
    cols = graph.columns

    # ------------------------------------------------------------------
    # Preprocessing (python-level; fault runs are experiment-scale)
    # ------------------------------------------------------------------
    node_of = cols.node.tolist()          # *current* assignment, mutable
    rt = graph.read_task.tolist()
    rp = cols.read_producer.tolist()
    rd = cols.read_data.tolist()
    rv = cols.read_version.tolist()
    home_l = None if data_home is None else np.asarray(data_home, dtype=np.int64).tolist()

    wd = cols.write_data.tolist()
    wv = cols.write_version.tolist()
    base_dur = cluster.task_time(cols.flops).tolist()

    # scheduling keys come from the registry, exactly as in the
    # fault-free loop.  Stealing policies fall back to their key order
    # without the steal hook: re-homing already rebalances a degraded
    # run, and stolen-task bookkeeping does not compose with abort /
    # resurrect semantics.
    from .schedulers import make_scheduler
    from .simplan import get_plan

    sched = make_scheduler(cluster.scheduler)
    if sched.dynamic:
        static_l: Optional[List[int]] = None
        dyn_key = sched.dynamic_key
    else:
        static_l = sched.static_keys(
            get_plan(graph, data_home), graph, cluster,
            cluster.task_time(cols.flops, cols.node)).tolist()
        dyn_key = None

    #: consumers of each producer's output, in read-scan order (the
    #: order the static message plan of the fast path uses)
    cons_by_prod: List[List[int]] = [[] for _ in range(n_tasks)]
    v0_readers: Dict[tuple, List[int]] = {}
    req_refs: List[List[tuple]] = [[] for _ in range(n_tasks)]
    holders: Dict[tuple, Set[int]] = {}
    init_msgs: List[tuple] = []           # (ref, src, dst), first-occurrence order
    init_seen: Set[tuple] = set()
    for x in range(len(rd)):
        t = rt[x]
        ref = (rd[x], rv[x])
        p = rp[x]
        if p >= 0:
            cons_by_prod[p].append(t)
            req_refs[t].append(ref)
        elif home_l is not None:
            v0_readers.setdefault(ref, []).append(t)
            holders.setdefault(ref, set()).add(home_l[rd[x]])
            req_refs[t].append(ref)
            if home_l[rd[x]] != node_of[t]:
                key = (ref, node_of[t])
                if key not in init_seen:
                    init_seen.add(key)
                    init_msgs.append((ref, home_l[rd[x]], node_of[t]))
        else:
            # version-0 read with no declared home: resident where read
            # (the owner-computes default) — initially met, but tracked
            # so a re-homed task re-fetches it after a node loss
            v0_readers.setdefault(ref, []).append(t)
            holders.setdefault(ref, set()).add(node_of[t])
            req_refs[t].append(ref)

    prod_of_ref: Dict[tuple, int] = {(wd[t], wv[t]): t for t in range(n_tasks)}
    unmet: List[Set[tuple]] = [set() for _ in range(n_tasks)]
    for t in range(n_tasks):
        nd = node_of[t]
        for ref in req_refs[t]:
            if nd not in holders.get(ref, ()):
                unmet[t].add(ref)

    # ------------------------------------------------------------------
    # Event-loop state
    # ------------------------------------------------------------------
    state = [_WAITING] * n_tasks
    epoch = [0] * n_tasks
    idle = [cluster.cores_per_node] * P
    ready: List[List[int]] = [[] for _ in range(P)]
    busy = [0.0] * P
    running: List[Dict[int, tuple]] = [dict() for _ in range(P)]
    dead = [False] * P
    inflight: Set[tuple] = set()          # (ref, dst) transfers underway
    out_records = RecordList() if record_tasks and trace_writer is None else None
    sink = out_records if trace_writer is None else trace_writer
    # task records wait here for the run's end; an abort clears the
    # record's entry in ``kept``
    records: Optional[List[TaskRecord]] = [] if sink is not None else None
    kept: List[bool] = []
    speeds = list(cluster.node_speeds) if cluster.node_speeds else None

    events: List[tuple] = []
    seq = 0
    heappush = heapq.heappush
    heappop = heapq.heappop

    def push_event(time: float, etype: int, payload) -> None:
        nonlocal seq
        seq += 4
        heappush(events, (time, seq + etype, payload))

    model.bind(cluster, push_event, writer=sink)

    fault_events: List[FaultEvent] = []
    for w in plan.stragglers:
        fault_events.append(FaultEvent(w.start, "straggle", w.node,
                                       f"x{w.speed_factor:g} until {w.end:g}"))
    for w in plan.degradations:
        fault_events.append(FaultEvent(w.start, "degrade", -1,
                                       f"x{w.bandwidth_factor:g} until {w.end:g}"))
    for f in sorted(plan.failures, key=lambda f: (f.time, f.node)):
        push_event(f.time, EVENT_FAULT, f.node)

    stats = {"aborted": 0, "rehomed": 0, "resurrected": 0,
             "recovery_messages": 0, "recovery_bytes": 0.0, "straggle_s": 0.0}
    failed_nodes: List[int] = []
    rr_counter: Dict[int, int] = {}
    tile_bytes = float(cluster.tile_bytes)

    enqueue_seq = 0

    def enqueue(tid: int) -> int:
        nonlocal enqueue_seq
        state[tid] = _QUEUED
        nd = node_of[tid]
        if static_l is not None:
            key = static_l[tid]
        else:
            enqueue_seq += 1
            key = dyn_key(enqueue_seq, tid)
        heappush(ready[nd], key)
        return nd

    def dispatch(nd: int, t: float) -> None:
        if dead[nd]:
            return
        rq = ready[nd]
        while idle[nd] > 0 and rq:
            tid = heappop(rq) & 0xFFFFFFFF
            if state[tid] != _QUEUED:  # stale key (task moved elsewhere)
                continue
            state[tid] = _RUNNING
            dur = base_dur[tid]
            if speeds is not None:
                dur = dur / speeds[nd]
            sf = plan.speed_factor(nd, t)
            if sf != 1.0:
                slowed = dur / sf
                stats["straggle_s"] += slowed - dur
                dur = slowed
            idle[nd] -= 1
            busy[nd] += dur
            rec_idx = -1
            if records is not None:
                rec_idx = len(records)
                records.append(TaskRecord(tid=tid, node=nd, start=t, end=t + dur))
                kept.append(True)
            running[nd][tid] = (t, t + dur, dur, rec_idx)
            push_event(t + dur, EVENT_TASK_DONE, (tid, epoch[tid]))

    def deliver(ref: tuple, dst: int, t: float) -> None:
        inflight.discard((ref, dst))
        if dead[dst]:
            fault_events.append(FaultEvent(t, "drop", dst,
                                           f"d{ref[0]}v{ref[1]} to dead node"))
            return
        holders.setdefault(ref, set()).add(dst)
        p = prod_of_ref.get(ref)
        readers = cons_by_prod[p] if p is not None else v0_readers.get(ref, ())
        for c in readers:
            if node_of[c] == dst and ref in unmet[c]:
                u = unmet[c]
                u.discard(ref)
                if not u and state[c] == _WAITING:
                    enqueue(c)
        dispatch(dst, t)

    def ensure_available(ref: tuple, dst: int, t: float) -> None:
        """Arrange for version ``ref`` to (re)appear at node ``dst``."""
        h = holders.get(ref)
        if (h and dst in h) or (ref, dst) in inflight:
            return
        if h:
            src = min(h)  # nearest surviving holder, deterministically
            inflight.add((ref, dst))
            stats["recovery_messages"] += 1
            stats["recovery_bytes"] += tile_bytes
            fault_events.append(FaultEvent(
                t, "recover", dst, f"d{ref[0]}v{ref[1]} from node {src}"))
            model.send(ref, src, dst, t)
            return
        p = prod_of_ref.get(ref)
        if p is None:
            # version-0 tile whose home failed: re-fetch from storage
            inflight.add((ref, dst))
            stats["recovery_messages"] += 1
            stats["recovery_bytes"] += tile_bytes
            fault_events.append(FaultEvent(
                t, "restore", dst, f"d{ref[0]}v{ref[1]} from storage"))
            model.storage_fetch(ref, dst, t)
        elif state[p] == _DONE:
            resurrect(p, t)
        # else: the producer has not run yet; its completion will push

    def resurrect(p: int, t: float):
        """Re-execute a finished task whose output was lost with the
        failed node (no surviving holder).  Returns nodes to dispatch."""
        nonlocal completed
        state[p] = _WAITING
        epoch[p] += 1
        completed -= 1
        stats["resurrected"] += 1
        if dead[node_of[p]]:
            node_of[p] = assign_new_home(node_of[p])
            stats["rehomed"] += 1
        nd = node_of[p]
        fault_events.append(FaultEvent(t, "resurrect", nd, f"task {p}"))
        unmet[p] = set()
        for ref in req_refs[p]:
            if nd in holders.get(ref, ()):
                continue
            unmet[p].add(ref)
            ensure_available(ref, nd, t)
        if not unmet[p]:
            wake_nodes.add(enqueue(p))

    def assign_new_home(old: int) -> int:
        alive = [x for x in range(P) if not dead[x]]
        if not alive:
            raise SimulationError("all nodes failed; no recovery target left")
        peers = list(recovery(old, alive)) if recovery is not None else alive
        peers = [q for q in peers if not dead[q] and q != old] or alive
        i = rr_counter.get(old, 0)
        rr_counter[old] = i + 1
        return peers[i % len(peers)]

    wake_nodes: Set[int] = set()

    def on_failure(f: int, t: float) -> None:
        if dead[f]:
            return
        dead[f] = True
        model.mark_dead(f)
        failed_nodes.append(f)
        fault_events.append(FaultEvent(t, "fail", f, "fail-stop"))
        if all(dead):
            raise SimulationError("all nodes failed; no recovery target left")
        # abort tasks running on the dead node (their partial work is lost)
        for tid in sorted(running[f]):
            start, end, dur, rec_idx = running[f][tid]
            epoch[tid] += 1
            state[tid] = _WAITING
            busy[f] -= end - t
            if rec_idx >= 0:
                kept[rec_idx] = False
            stats["aborted"] += 1
            fault_events.append(FaultEvent(
                t, "abort", f, f"task {tid} started {start:.6g}"))
        running[f].clear()
        ready[f] = []
        idle[f] = 0
        # every tile version the node held is gone
        for hs in holders.values():
            hs.discard(f)
        # re-home the node's unfinished tiles onto its recovery peers
        wake_nodes.clear()
        for tid in range(n_tasks):
            if node_of[tid] == f and state[tid] != _DONE:
                new = assign_new_home(f)
                node_of[tid] = new
                state[tid] = _WAITING
                stats["rehomed"] += 1
                unmet[tid] = set()
                for ref in req_refs[tid]:
                    if new in holders.get(ref, ()):
                        continue
                    unmet[tid].add(ref)
                    ensure_available(ref, new, t)
                if not unmet[tid]:
                    wake_nodes.add(enqueue(tid))
        fault_events.append(FaultEvent(
            t, "rehome", f, f"{stats['rehomed']} tiles re-homed so far"))
        for nd in sorted(wake_nodes):
            dispatch(nd, t)

    def complete(tid: int, t: float) -> None:
        nonlocal completed, finish
        nd = node_of[tid]
        running[nd].pop(tid, None)
        state[tid] = _DONE
        completed += 1
        finish = t if t > finish else finish
        ref = (wd[tid], wv[tid])
        holders[ref] = {nd}
        # push the produced version to remote consumers, one message per
        # destination node, in first-occurrence read-scan order (the
        # fast path's static push-plan order)
        dests: List[tuple] = []
        seen: Set[int] = set()
        for c in cons_by_prod[tid]:
            cn = node_of[c]
            if cn == nd or cn in seen:
                continue
            if state[c] == _DONE or ref not in unmet[c] or (ref, cn) in inflight:
                continue
            seen.add(cn)
            dests.append((ref, cn))
        if dests:
            inflight.update((r, d) for r, d in dests)
            model.multicast(nd, dests, t)
        # wake local dependents, then refill the freed worker
        for c in cons_by_prod[tid]:
            if node_of[c] == nd and ref in unmet[c]:
                u = unmet[c]
                u.discard(ref)
                if not u and state[c] == _WAITING:
                    enqueue(c)
        idle[nd] += 1
        dispatch(nd, t)

    # ------------------------------------------------------------------
    # Seed and run
    # ------------------------------------------------------------------
    completed = 0
    finish = 0.0
    for ref, src, dst in init_msgs:
        inflight.add((ref, dst))
        model.send(ref, src, dst, 0.0)
    touched = set()
    for tid in range(n_tasks):
        if not unmet[tid]:
            touched.add(enqueue(tid))
    for nd in touched:
        dispatch(nd, 0.0)

    while events:
        now, tag, payload = heappop(events)
        etype = tag & 3
        if etype == EVENT_TASK_DONE:
            tid, ep = payload
            if ep != epoch[tid] or state[tid] != _RUNNING:
                continue  # aborted by a node failure
            complete(tid, now)
        elif etype == EVENT_MSG_ARRIVE:
            ref, dst = payload
            if model.arrived(ref, dst, now):
                deliver(ref, dst, now)
        elif etype == EVENT_NET_INTERNAL:
            for ref, dst in model.on_internal(payload, now):
                deliver(ref, dst, now)
        else:  # EVENT_FAULT
            on_failure(payload, now)
    # the two recovery closures call each other; unbind them so the
    # run's state goes by reference counting, not a full collection
    del ensure_available, resurrect

    if completed != n_tasks:
        stuck = n_tasks - completed
        first_stuck = next((t for t in range(n_tasks) if state[t] != _DONE), 0)
        raise SimulationError(
            f"deadlock under faults: {stuck} of {n_tasks} tasks never ran "
            f"(first stuck: {graph.task(first_stuck)})")

    fault_stats = None
    if plan:
        all_events = tuple(sorted(
            fault_events + model.fault_events,
            key=lambda e: (e.time, e.kind, e.node, e.detail)))
        fault_stats = FaultStats(
            plan=plan,
            failed_nodes=tuple(sorted(failed_nodes)),
            tasks_aborted=stats["aborted"],
            tasks_rehomed=stats["rehomed"],
            tasks_resurrected=stats["resurrected"],
            recovery_messages=stats["recovery_messages"],
            recovery_bytes=stats["recovery_bytes"],
            msgs_lost=model.msgs_lost,
            retries=model.retries,
            msgs_degraded=model.msgs_degraded,
            straggle_s=stats["straggle_s"],
            events=all_events,
        )

    if sink is not None:
        if fault_stats is not None:
            for e in fault_stats.events:
                sink.write_fault(e)
        for r in compress(records, kept):
            sink.write_task(r)
        sink.flush()

    return ExecutionTrace(
        cluster=cluster,
        makespan=finish,
        total_flops=graph.total_flops,
        n_tasks=n_tasks,
        busy_time=np.asarray(busy, dtype=np.float64),
        net_stats=model.stats(),
        records=out_records,
        fault_stats=fault_stats,
    )

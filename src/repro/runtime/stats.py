"""Post-hoc execution statistics from task records.

Answers the questions the paper's discussion sections raise about
*why* a run is fast or slow: where core time goes (panel kernels vs
updates), how much parallelism the schedule actually exposes, and how
far iterations overlap (the no-global-synchronization benefit of the
task-based model, Section II-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .graph import KIND_NAMES, TaskGraph
from .trace import ExecutionTrace

__all__ = [
    "TraceStats",
    "compute_stats",
    "concurrency_profile",
    "iteration_overlap",
    "extract_critical_path",
    "critical_path_breakdown",
    "comm_breakdown",
    "fault_breakdown",
    "migration_breakdown",
]


@dataclass(frozen=True)
class TraceStats:
    """Aggregate schedule statistics for one execution."""

    time_by_kind: Dict[str, float]     #: total core-seconds per kernel kind
    count_by_kind: Dict[str, int]
    avg_parallelism: float             #: mean number of running tasks
    peak_parallelism: int
    max_iteration_overlap: int         #: max distinct iterations in flight
    node_idle_fraction: np.ndarray     #: per-node idle core-time fraction

    def busiest_kind(self) -> str:
        return max(self.time_by_kind, key=self.time_by_kind.get)  # type: ignore[arg-type]


def concurrency_profile(trace: ExecutionTrace) -> List[Tuple[float, int]]:
    """Step function ``(time, #running tasks)`` over the execution."""
    if trace.task_records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")
    events: List[Tuple[float, int]] = []
    for rec in trace.task_records:
        events.append((rec.start, +1))
        events.append((rec.end, -1))
    events.sort()
    profile = []
    running = 0
    for t, delta in events:
        running += delta
        if profile and profile[-1][0] == t:
            profile[-1] = (t, running)
        else:
            profile.append((t, running))
    return profile


def iteration_overlap(trace: ExecutionTrace, graph: TaskGraph) -> int:
    """Maximum number of distinct iterations simultaneously in flight.

    A fork-join (MPI-style) execution would give 1; the task-based
    model lets later panels start while earlier updates still run.
    """
    if trace.task_records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")
    k_col = graph.columns.k
    events: List[Tuple[float, int, int]] = []
    for rec in trace.task_records:
        k = int(k_col[rec.tid])
        events.append((rec.start, 1, k))
        events.append((rec.end, 0, k))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[int, int] = {}
    best = 0
    for _, is_start, k in events:
        if is_start:
            active[k] = active.get(k, 0) + 1
            best = max(best, len(active))
        else:
            active[k] -= 1
            if active[k] == 0:
                del active[k]
    return best


def extract_critical_path(trace: ExecutionTrace, graph: TaskGraph) -> List[int]:
    """The executed critical path, as a list of task ids.

    Walks backwards from the last-finishing task, at each step following
    the dependency that finished latest (the one the task most plausibly
    waited for).  The returned chain is ordered first → last.  Gaps
    between a predecessor's end and a task's start are communication or
    queueing delay — :func:`critical_path_breakdown` quantifies them.
    An empty run has an empty path.
    """
    if trace.task_records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")
    end = {r.tid: r.end for r in trace.task_records}
    path: List[int] = []
    if not end:
        return path
    cur = max(end, key=end.get)  # type: ignore[arg-type]
    while True:
        path.append(cur)
        deps = graph.dependencies(cur)
        if not deps:
            break
        cur = max(deps, key=lambda d: end[d])
    path.reverse()
    return path


def critical_path_breakdown(trace: ExecutionTrace, graph: TaskGraph) -> Dict[str, object]:
    """Where the executed critical path spends its time.

    Returns kernel time by kind along the chain, the total wait time
    (communication + queueing between consecutive chain tasks), the
    chain length, and the fraction of the makespan the chain covers —
    the quantitative version of the paper's "is this run
    dependency-limited?" discussions.  An empty run has no chain:
    zero tasks, zero times and zero coverage.
    """
    path = extract_critical_path(trace, graph)
    rec = {r.tid: r for r in trace.task_records or ()}
    time_by_kind: Dict[str, float] = {}
    wait = 0.0
    for prev, cur in zip(path, path[1:]):
        wait += max(0.0, rec[cur].start - rec[prev].end)
    if path:
        wait += max(0.0, rec[path[0]].start)
    kind_col = graph.columns.kind
    for tid in path:
        kind = KIND_NAMES[kind_col[tid]]
        time_by_kind[kind] = time_by_kind.get(kind, 0.0) + (rec[tid].end - rec[tid].start)
    span = trace.makespan or 1.0
    return {
        "path": path,
        "n_tasks": len(path),
        "time_by_kind": time_by_kind,
        "wait_time": wait,
        "task_time": sum(time_by_kind.values(), 0.0),
        "coverage": (sum(time_by_kind.values()) + wait) / span,
    }


def comm_breakdown(trace: ExecutionTrace) -> Dict[str, object]:
    """Link-busy and idle-time breakdown from the network model stats.

    Per-node NIC busy fractions (tx/rx), shared-link busy/idle fraction
    (contention model; 0 under ``nic``), and per-node bytes
    sent/received.
    """
    net = trace.net_stats
    fr = net.busy_fractions(trace.makespan)
    out: Dict[str, object] = {
        "model": net.model,
        "bytes_sent": net.bytes_sent.copy(),
        "bytes_recv": net.bytes_recv.copy(),
        "msgs_sent": net.msgs_sent.copy(),
        "msgs_recv": net.msgs_recv.copy(),
        "tx_busy_fraction": fr["tx_busy"],
        "rx_busy_fraction": fr["rx_busy"],
        "link_busy_fraction": float(fr["link_busy"]),
        "link_idle_fraction": float(fr["link_idle"]),
        "n_eager": net.n_eager,
        "n_rendezvous": net.n_rendezvous,
    }
    if net.ranks_per_node > 1:
        # per-level split of the two-level (hierarchical) model; keys
        # appear only for genuinely hierarchical runs so flat consumers
        # see the exact legacy dict
        total = net.intra_bytes + net.inter_bytes
        span = trace.makespan if trace.makespan > 0 else 1.0
        out["ranks_per_node"] = net.ranks_per_node
        out["intra_bytes"] = net.intra_bytes
        out["inter_bytes"] = net.inter_bytes
        out["intra_msgs"] = net.intra_msgs
        out["inter_msgs"] = net.inter_msgs
        out["inter_byte_fraction"] = (net.inter_bytes / total
                                      if total > 0 else 0.0)
        out["intra_link_busy_node_s"] = net.intra_link_busy
        out["intra_link_busy_fraction"] = net.intra_link_busy / span
    return out


def fault_breakdown(trace: ExecutionTrace,
                    baseline: ExecutionTrace = None) -> Dict[str, object]:
    """Degraded-run metrics of a fault-injected trace.

    Summarizes the :class:`~repro.runtime.faults.FaultStats` attached
    by the resilient simulator: what failed, how much state moved to
    recover (re-homed tasks, recovery messages/bytes, resurrected
    producers), and what the retry layer absorbed (losses, retries,
    degraded deliveries, straggler core-seconds).  With a fault-free
    ``baseline`` trace of the same graph/cluster, also reports
    ``makespan_inflation`` (degraded / fault-free) and the recovery
    traffic as a fraction of the run's total bytes.
    """
    fs = trace.fault_stats
    if fs is None:
        raise ValueError("trace has no fault stats (fault-free run?)")
    out: Dict[str, object] = {
        "failed_nodes": list(fs.failed_nodes),
        "tasks_aborted": fs.tasks_aborted,
        "tasks_rehomed": fs.tasks_rehomed,
        "tasks_resurrected": fs.tasks_resurrected,
        "recovery_messages": fs.recovery_messages,
        "recovery_bytes": fs.recovery_bytes,
        "recovery_byte_fraction": (fs.recovery_bytes / trace.bytes_sent
                                   if trace.bytes_sent > 0 else 0.0),
        "msgs_lost": fs.msgs_lost,
        "retries": fs.retries,
        "msgs_degraded": fs.msgs_degraded,
        "straggle_s": fs.straggle_s,
        "n_fault_events": len(fs.events),
    }
    if baseline is not None:
        out["faultfree_makespan_s"] = baseline.makespan
        out["makespan_inflation"] = (trace.makespan / baseline.makespan
                                     if baseline.makespan > 0 else 1.0)
        out["extra_messages"] = trace.n_messages - baseline.n_messages
    return out


def migration_breakdown(trace: ExecutionTrace) -> Dict[str, object]:
    """Elastic-resize metrics of a resized trace.

    Summarizes the :class:`~repro.runtime.resize.MigrationStats`
    attached by :func:`~repro.runtime.resize.simulate_with_resize`:
    what moved (and what the COSTA relabeling saved vs naive identity
    relabeling), how long the drain and migration phases took, and the
    break-even horizon — the remaining-work fraction above which
    resizing to the P′ pattern beats staying put.
    """
    rs = trace.resize_stats
    if rs is None:
        raise ValueError("trace has no migration stats (unresized run?)")
    return {
        "P_src": rs.P_src,
        "P_dst": rs.P_dst,
        "resize_time_s": rs.time,
        "drain_s": rs.drain_s,
        "migration_s": rs.migration_s,
        "tiles_total": rs.tiles_total,
        "tiles_moved": rs.tiles_moved,
        "tiles_moved_identity": rs.tiles_moved_identity,
        "tiles_saved": rs.tiles_saved,
        "moved_fraction": (rs.tiles_moved / rs.tiles_total
                           if rs.tiles_total else 0.0),
        "bytes_moved": rs.bytes_moved,
        "tasks_done": rs.tasks_done,
        "tasks_remaining": rs.tasks_remaining,
        "makespan_source_s": rs.makespan_source_s,
        "makespan_target_s": rs.makespan_target_s,
        "breakeven": rs.breakeven,
        "migration_lower_bound_s": rs.plan.lower_bound_s,
    }


def compute_stats(trace: ExecutionTrace, graph: TaskGraph) -> TraceStats:
    """Compute :class:`TraceStats` (needs ``record_tasks=True``)."""
    if trace.task_records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")

    time_by_kind: Dict[str, float] = {}
    count_by_kind: Dict[str, int] = {}
    kind_col = graph.columns.kind
    for rec in trace.task_records:
        kind = KIND_NAMES[kind_col[rec.tid]]
        time_by_kind[kind] = time_by_kind.get(kind, 0.0) + (rec.end - rec.start)
        count_by_kind[kind] = count_by_kind.get(kind, 0) + 1

    profile = concurrency_profile(trace)
    avg = 0.0
    peak = 0
    for (t0, running), (t1, _) in zip(profile, profile[1:]):
        avg += running * (t1 - t0)
        peak = max(peak, running)
    if profile:
        peak = max(peak, profile[-1][1])
    span = trace.makespan or 1.0
    avg /= span

    capacity = trace.makespan * trace.cluster.cores_per_node
    idle = 1.0 - trace.busy_time / capacity if capacity > 0 else np.zeros_like(trace.busy_time)

    return TraceStats(
        time_by_kind=time_by_kind,
        count_by_kind=count_by_kind,
        avg_parallelism=avg,
        peak_parallelism=peak,
        max_iteration_overlap=iteration_overlap(trace, graph),
        node_idle_fraction=idle,
    )

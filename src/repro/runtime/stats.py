"""Post-hoc execution statistics from a recorded run's task columns.

Answers the questions the paper's discussion sections raise about
*why* a run is fast or slow: where core time goes (panel kernels vs
updates), how much parallelism the schedule actually exposes, and how
far iterations overlap (the no-global-synchronization benefit of the
task-based model, Section II-C).

The schedule statistics read a recorded run's
``trace.records.task_columns()`` with NumPy, never record objects.
Sums run in record order, so each result equals a loop over the
records, floats bit for bit.
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


def _task_columns(trace: ExecutionTrace) -> Tuple[np.ndarray, ...]:
    """``(tid, node, start, end)`` of every task record of a recorded
    run, in record order."""
    if trace.records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")
    return trace.records.task_columns()


def _last_record(tid: np.ndarray, n_tasks: int) -> np.ndarray:
    """Index of each task's last record (-1 for a task without one): a
    re-executed task's final run is the one its consumers waited for."""
    last = np.full(n_tasks, -1, dtype=np.intp)
    uniq, first_in_reversed = np.unique(tid[::-1], return_index=True)
    last[uniq] = tid.size - 1 - first_in_reversed
    return last


def _profile(start: np.ndarray, end: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct start/end times, ascending, and the number of tasks
    running after each."""
    times, where = np.unique(np.concatenate([start, end]), return_inverse=True)
    n = start.size
    delta = (np.bincount(where[:n], minlength=times.size)
             - np.bincount(where[n:], minlength=times.size))
    return times, np.cumsum(delta)


def concurrency_profile(trace: ExecutionTrace) -> List[Tuple[float, int]]:
    """Step function ``(time, #running tasks)`` over the execution."""
    _, _, start, end = _task_columns(trace)
    times, running = _profile(start, end)
    return list(zip(times.tolist(), running.tolist()))


def iteration_overlap(trace: ExecutionTrace, graph: TaskGraph) -> int:
    """Maximum number of distinct iterations simultaneously in flight.

    A fork-join (MPI-style) execution would give 1; the task-based
    model lets later panels start while earlier updates still run.
    Events are taken in time order, a task's end before any start at
    the same time, and the count is read after every start.
    """
    tid, _, start, end = _task_columns(trace)
    if not tid.size:
        return 0
    is_start = np.repeat([True, False], tid.size)
    k = np.tile(graph.columns.k[tid], 2)
    order = np.lexsort((is_start, np.concatenate([start, end])))
    # each iteration's events in event order: its starts and ends
    # cancel, so one running sum counts each iteration's tasks in flight
    by_k = order[np.argsort(k[order], kind="stable")]
    step = np.where(is_start[by_k], 1, -1)
    after = np.cumsum(step)
    # +1 where an iteration enters flight, -1 where it leaves
    change = np.empty_like(step)
    change[by_k] = (after > 0).astype(step.dtype) - (after - step > 0)
    return int(np.cumsum(change[order])[is_start[order]].max())


def extract_critical_path(trace: ExecutionTrace, graph: TaskGraph) -> List[int]:
    """The executed critical path, as a list of task ids.

    Walks backwards from the last-finishing task, at each step following
    the dependency that finished latest (the one the task most plausibly
    waited for).  A re-executed task counts by its last record, and ties
    go to the task recorded first, then to the earlier read.  The
    returned chain is ordered first → last.  Gaps between a
    predecessor's end and a task's start are communication or queueing
    delay — :func:`critical_path_breakdown` quantifies them.  An empty
    run has an empty path.
    """
    tid, _, _, end = _task_columns(trace)
    if not tid.size:
        return []
    last = _last_record(tid, len(graph))
    end_of = np.where(last >= 0, end[last], -np.inf)
    # the first record of a latest-ending task comes before any record
    # of a task first recorded later
    cur = int(tid[np.argmax(end_of[tid])])
    end_l = end_of.tolist()
    path: List[int] = []
    while True:
        path.append(cur)
        deps = graph.dependencies(cur)
        if not deps:
            break
        cur = max(deps, key=end_l.__getitem__)
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
    tid, _, start, end = _task_columns(trace)
    last = _last_record(tid, len(graph))[path]
    start_l, end_l = start[last].tolist(), end[last].tolist()
    time_by_kind: Dict[str, float] = {}
    wait = 0.0
    for s, e in zip(start_l[1:], end_l):
        wait += max(0.0, s - e)
    if path:
        wait += max(0.0, start_l[0])
    for kind, s, e in zip(graph.columns.kind[path].tolist(), start_l, end_l):
        name = KIND_NAMES[kind]
        time_by_kind[name] = time_by_kind.get(name, 0.0) + (e - s)
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
    """Compute :class:`TraceStats` (needs ``record_tasks=True``).

    Every record counts, a re-executed task's too.  Sums run in record
    order (``np.bincount`` and ``np.cumsum`` add sequentially), so they
    equal a loop over the records.
    """
    tid, _, start, end = _task_columns(trace)
    kind = graph.columns.kind[tid]
    kinds, first = np.unique(kind, return_index=True)
    kinds = kinds[np.argsort(first)]  # first-recorded kind first
    time = np.bincount(kind, weights=end - start)
    count = np.bincount(kind)
    names = [KIND_NAMES[k] for k in kinds.tolist()]

    times, running = _profile(start, end)
    area = running[:-1] * np.diff(times)
    avg = float(np.cumsum(area)[-1]) if area.size else 0.0
    peak = int(running.max(initial=0))
    span = trace.makespan or 1.0
    avg /= span

    capacity = trace.makespan * trace.cluster.cores_per_node
    idle = 1.0 - trace.busy_time / capacity if capacity > 0 else np.zeros_like(trace.busy_time)

    return TraceStats(
        time_by_kind=dict(zip(names, time[kinds].tolist())),
        count_by_kind=dict(zip(names, count[kinds].tolist())),
        avg_parallelism=avg,
        peak_parallelism=peak,
        max_iteration_overlap=iteration_overlap(trace, graph),
        node_idle_fraction=idle,
    )

"""Execution trace export: Chrome tracing JSON and text Gantt.

``to_chrome_trace`` emits the ``chrome://tracing`` / Perfetto event
format so a simulated schedule can be inspected interactively —
the same workflow StarPU users apply to real traces (Section II-C's
runtime does exactly this with FxT/ViTE).  Besides the per-task "X"
slices, v2 traces also carry counter ("C") events: per-node running
tasks, cumulative bytes sent per node, and — when the trace was
produced by the contention network model — the number of flows in
flight on the shared bisection link.
"""

from __future__ import annotations

import heapq
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

from .graph import TaskGraph
from .trace import ExecutionTrace, MsgRecord, TaskRecord, TraceWriter

__all__ = ["to_chrome_trace", "save_chrome_trace", "text_gantt", "assign_lanes",
           "ChromeTraceWriter"]

#: pid used for the synthetic "network" process that carries link counters
NETWORK_PID = 1 << 20

#: the float formatting ``json.dumps`` applies to finite numbers
_frepr = float.__repr__


def assign_lanes(records) -> Dict[int, int]:
    """Pack task records into per-node worker lanes.

    Uses a per-node min-heap of ``(free_time, lane)`` — a record reuses
    the earliest-freed lane when that lane is free by its start time,
    otherwise opens a new lane.  Greedy-by-start with earliest-free
    reuse is optimal, so the lane count per node equals the peak task
    concurrency on that node and never exceeds ``cores_per_node``.

    Returns ``{tid: lane}``.
    """
    lanes: Dict[int, int] = {}
    free_heap: Dict[int, List[tuple]] = {}
    n_lanes: Dict[int, int] = {}
    for rec in sorted(records, key=lambda r: (r.start, r.end, r.tid)):
        heap = free_heap.setdefault(rec.node, [])
        if heap and heap[0][0] <= rec.start + 1e-15:
            _, lane = heapq.heappop(heap)
        else:
            lane = n_lanes.get(rec.node, 0)
            n_lanes[rec.node] = lane + 1
        lanes[rec.tid] = lane
        heapq.heappush(heap, (rec.end, lane))
    return lanes


def to_chrome_trace(trace: ExecutionTrace, graph: Optional[TaskGraph] = None) -> List[dict]:
    """Convert task records into Chrome-tracing "complete" (X) events.

    Requires the trace to have been produced with ``record_tasks=True``.
    Each node becomes a process; workers are packed into threads with
    :func:`assign_lanes` (heap-based, so lane count equals the node's
    peak concurrency).  Counter events add per-node running-task and
    cumulative-bytes-sent series, plus an in-flight-flows series for
    the contention model's shared link.
    """
    if trace.task_records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")

    events: List[dict] = []
    lanes = assign_lanes(trace.task_records)
    seen_nodes = set()
    label = graph.task_labeler() if graph is not None else None
    for rec in trace.task_records:
        seen_nodes.add(rec.node)
        name = label(rec.tid) if label is not None else f"task {rec.tid}"
        events.append({
            "name": name,
            "cat": "task",
            "ph": "X",
            "ts": rec.start * 1e6,   # microseconds
            "dur": (rec.end - rec.start) * 1e6,
            "pid": rec.node,
            "tid": lanes[rec.tid],
        })
    for node in seen_nodes:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": node,
            "args": {"name": f"node {node}"},
        })
    events.extend(_counter_events(trace))
    events.extend(_fault_events(trace))
    events.extend(_resize_events(trace))
    events.extend(_bound_events(trace))
    return events


def _bound_events(trace: ExecutionTrace) -> List[dict]:
    """Counter ("C") series for the distance-from-optimal layer.

    Present only when the trace carries
    :class:`~repro.cost.schedbounds.ScheduleBounds`: a flat
    ``optimality_ratio`` series spanning the run (one sample at t=0 and
    one at the makespan, so Perfetto draws the level against the task
    slices) on the synthetic network process.
    """
    if trace.sched_bounds is None:
        return []
    ratio = trace.optimality_ratio
    if ratio == float("inf"):
        return []
    events = [
        {"name": "optimality_ratio", "ph": "C", "ts": t * 1e6,
         "pid": NETWORK_PID, "args": {"ratio": ratio}}
        for t in (0.0, trace.makespan)
    ]
    if not trace.msg_records:
        # _counter_events only names the network process when message
        # records exist
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def _fault_events(trace: ExecutionTrace) -> List[dict]:
    """Instant ("i") events for every fault incident of a degraded run.

    Node-scoped incidents (failures, aborts, re-homings, losses,
    retries) land on the node's process; cluster-wide incidents (link
    degradation windows) land on the synthetic network process.
    """
    if trace.fault_stats is None:
        return []
    events: List[dict] = []
    for ev in trace.fault_stats.events:
        node_scoped = ev.node >= 0
        events.append({
            "name": f"fault:{ev.kind}",
            "cat": "fault",
            "ph": "i",
            "s": "p" if node_scoped else "g",
            "ts": ev.time * 1e6,
            "pid": ev.node if node_scoped else NETWORK_PID,
            "tid": 0,
            "args": {"detail": ev.detail},
        })
    if any(e.node < 0 for e in trace.fault_stats.events) and not trace.msg_records:
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def _resize_events(trace: ExecutionTrace) -> List[dict]:
    """Migration lane of an elastic-resize run.

    One duration ("X") slice on the network process spanning the
    migration phase (drain end → resumed phase start), bracketed by
    instant events at the requested resize time and the migration end.
    """
    rs = trace.resize_stats
    if rs is None:
        return []
    events: List[dict] = [
        {"name": f"resize:{rs.P_src}→{rs.P_dst}", "cat": "resize",
         "ph": "i", "s": "g", "ts": rs.time * 1e6,
         "pid": NETWORK_PID, "tid": 0,
         "args": {"tiles_moved": rs.tiles_moved,
                  "tiles_saved": rs.tiles_saved}},
        {"name": f"migration {rs.P_src}→{rs.P_dst}", "cat": "resize",
         "ph": "X", "ts": rs.drain_s * 1e6,
         "dur": rs.migration_s * 1e6,
         "pid": NETWORK_PID, "tid": 0,
         "args": {"tiles_moved": rs.tiles_moved,
                  "bytes_moved": rs.bytes_moved,
                  "breakeven": rs.breakeven
                  if math.isfinite(rs.breakeven) else "inf"}},
    ]
    if not trace.msg_records:
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def _counter_events(trace: ExecutionTrace) -> List[dict]:
    """Counter ("C") series derived from task and message records."""
    events: List[dict] = []
    # per-node running-task counters
    deltas: Dict[int, List[tuple]] = {}
    for rec in trace.task_records or ():
        deltas.setdefault(rec.node, []).extend(
            [(rec.start, +1), (rec.end, -1)])
    for node, evts in deltas.items():
        evts.sort()
        running = 0
        last_t = None
        for t, d in evts:
            running += d
            if last_t == t:
                events[-1]["args"]["tasks"] = running
            else:
                events.append({"name": "running_tasks", "ph": "C",
                               "ts": t * 1e6, "pid": node,
                               "args": {"tasks": running}})
            last_t = t
    if trace.msg_records:
        # cumulative bytes sent per node (stamped at message start)
        cum: Dict[int, float] = {}
        for m in sorted(trace.msg_records, key=lambda m: (m.start, m.src)):
            cum[m.src] = cum.get(m.src, 0.0) + m.nbytes
            events.append({"name": "bytes_sent_total", "ph": "C",
                           "ts": m.start * 1e6, "pid": m.src,
                           "args": {"bytes": cum[m.src]}})
        # flows in flight on the shared fabric
        flow_evts: List[tuple] = []
        for m in trace.msg_records:
            flow_evts.extend([(m.start, +1), (m.end, -1)])
        flow_evts.sort()
        in_flight = 0
        for t, d in flow_evts:
            in_flight += d
            events.append({"name": "msgs_in_flight", "ph": "C",
                           "ts": t * 1e6, "pid": NETWORK_PID,
                           "args": {"msgs": in_flight}})
        rpn = getattr(trace.cluster, "ranks_per_node", 1)
        if rpn > 1:
            # two-level traffic split: cumulative bytes per level,
            # classified by the src/dst node mapping of the topology;
            # emitted only for hierarchical runs so flat Chrome traces
            # are unchanged
            cum_level = {"bytes_inter_total": 0.0, "bytes_intra_total": 0.0}
            for m in sorted(trace.msg_records, key=lambda m: (m.start, m.src)):
                level = ("bytes_inter_total" if m.src // rpn != m.dst // rpn
                         else "bytes_intra_total")
                cum_level[level] += m.nbytes
                events.append({"name": level, "ph": "C",
                               "ts": m.start * 1e6, "pid": NETWORK_PID,
                               "args": {"bytes": cum_level[level]}})
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def save_chrome_trace(trace: ExecutionTrace, path: Union[str, Path],
                      graph: Optional[TaskGraph] = None) -> None:
    """Write the Chrome-tracing JSON file."""
    Path(path).write_text(json.dumps({"traceEvents": to_chrome_trace(trace, graph)}))


class ChromeTraceWriter(TraceWriter):
    """Streaming Chrome-tracing JSON sink with bounded memory.

    Pass an instance as ``simulate(..., trace_writer=w)`` and every
    task/message record is serialized as the simulator hands it over,
    buffered as an encoded string, and flushed to ``path`` every
    ``buffer_events`` records — the writer's memory is the buffer, no
    matter how many million tasks run, where the list-accumulating
    ``record_tasks=True`` path grows with the task count.

    Worker lanes are assigned *online*: each node keeps a min-heap of
    ``(free_time, lane)`` and a record reuses the earliest-freed lane
    that is free by its start time.  Task records stream in dispatch
    order (non-decreasing start), so this reproduces the offline
    :func:`assign_lanes` packing; message records may arrive with
    out-of-order starts (NIC serialization can push a send's wire time
    past a later event's), for which the greedy rule still guarantees
    lanes never overlap — it just may open an extra lane.

    The output is a valid ``{"traceEvents": [...]}`` document once
    :meth:`close` runs (writers are context managers; ``close`` is
    idempotent).  ``events_written`` and ``flushes`` expose progress for
    tests and progress meters.

    Task, message and ``bytes_sent_total`` events — all but a handful
    of a run's events — are formatted with f-strings that give exactly
    the bytes ``json.dumps`` gives for the same dict: ``float.__repr__``
    for numbers (times are finite), and names that need no escaping
    except the message arrow, written as ``\\u2192``.  Task labels come
    from :meth:`~repro.runtime.graph.TaskGraph.task_labeler`, resolved
    on the first task after ``graph`` is set.
    """

    def __init__(self, path: Union[str, Path],
                 graph: Optional[TaskGraph] = None,
                 buffer_events: int = 4096) -> None:
        if buffer_events < 1:
            raise ValueError("buffer_events must be >= 1")
        self.path = Path(path)
        self.graph = graph
        self.buffer_events = int(buffer_events)
        self.events_written = 0
        self.flushes = 0
        self._buf: List[str] = []
        self._first = True
        self._seen_pids: set = set()
        self._saw_msgs = False
        self._lane_heap: Dict[int, List[tuple]] = {}
        self._lane_count: Dict[int, int] = {}
        self._cum_bytes: Dict[int, float] = {}
        self._fh = open(self.path, "w")
        self._fh.write('{"traceEvents": [')

    @property
    def graph(self) -> Optional[TaskGraph]:
        """Graph whose task labels name the task slices (``None``:
        ``task <tid>``); may be set after construction."""
        return self._graph

    @graph.setter
    def graph(self, graph: Optional[TaskGraph]) -> None:
        self._graph = graph
        self._label = None  # resolved on the next write_task

    # ------------------------------------------------------------------
    def _lane(self, pid: int, start: float, end: float) -> int:
        heap = self._lane_heap.setdefault(pid, [])
        if heap and heap[0][0] <= start + 1e-15:
            _, lane = heapq.heappop(heap)
        else:
            lane = self._lane_count.get(pid, 0)
            self._lane_count[pid] = lane + 1
        heapq.heappush(heap, (end, lane))
        return lane

    def _push(self, line: str) -> None:
        self._buf.append(line)
        self.events_written += 1
        if len(self._buf) >= self.buffer_events:
            self.flush()

    def _emit(self, event: dict) -> None:
        self._push(json.dumps(event))

    # ------------------------------------------------------------------
    def write_task(self, rec: TaskRecord) -> None:
        tid, node, start, end = rec.tid, rec.node, rec.start, rec.end
        self._seen_pids.add(node)
        label = self._label
        if label is None:
            label = self._label = (self._graph.task_labeler()
                                   if self._graph is not None else False)
        name = label(tid) if label else f"task {tid}"
        self._push(
            f'{{"name": "{name}", "cat": "task", "ph": "X", '
            f'"ts": {_frepr(start * 1e6)}, '
            f'"dur": {_frepr((end - start) * 1e6)}, '
            f'"pid": {node}, "tid": {self._lane(node, start, end)}}}')

    def write_msg(self, rec: MsgRecord) -> None:
        self._saw_msgs = True
        src, start, end = rec.src, rec.start, rec.end
        cum = self._cum_bytes.get(src, 0.0) + rec.nbytes
        self._cum_bytes[src] = cum
        ts = _frepr(start * 1e6)
        self._push(
            f'{{"name": "d{rec.data}v{rec.version} {src}\\u2192{rec.dst}", '
            f'"cat": "msg", "ph": "X", "ts": {ts}, '
            f'"dur": {_frepr((end - start) * 1e6)}, "pid": {NETWORK_PID}, '
            f'"tid": {self._lane(NETWORK_PID, start, end)}}}')
        self._push(
            f'{{"name": "bytes_sent_total", "ph": "C", "ts": {ts}, '
            f'"pid": {src}, "args": {{"bytes": {_frepr(cum)}}}}}')

    def write_fault(self, event) -> None:
        node_scoped = event.node >= 0
        if not node_scoped:
            self._saw_msgs = True  # ensure the network process gets named
        self._emit({
            "name": f"fault:{event.kind}", "cat": "fault", "ph": "i",
            "s": "p" if node_scoped else "g",
            "ts": event.time * 1e6,
            "pid": event.node if node_scoped else NETWORK_PID,
            "tid": 0, "args": {"detail": event.detail},
        })

    def write_resize(self, stats) -> None:
        self._saw_msgs = True  # migration lives on the network process
        self._emit({
            "name": f"resize:{stats.P_src}→{stats.P_dst}", "cat": "resize",
            "ph": "i", "s": "g", "ts": stats.time * 1e6,
            "pid": NETWORK_PID, "tid": 0,
            "args": {"tiles_moved": stats.tiles_moved,
                     "tiles_saved": stats.tiles_saved},
        })
        self._emit({
            "name": f"migration {stats.P_src}→{stats.P_dst}", "cat": "resize",
            "ph": "X", "ts": stats.drain_s * 1e6,
            "dur": stats.migration_s * 1e6,
            "pid": NETWORK_PID, "tid": 0,
            "args": {"tiles_moved": stats.tiles_moved,
                     "bytes_moved": stats.bytes_moved,
                     "breakeven": stats.breakeven
                     if math.isfinite(stats.breakeven) else "inf"},
        })

    # ------------------------------------------------------------------
    def flush(self) -> None:
        if not self._buf:
            return
        chunk = ",".join(self._buf)
        self._fh.write(chunk if self._first else "," + chunk)
        self._first = False
        self._buf.clear()
        self._fh.flush()
        self.flushes += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        for node in sorted(self._seen_pids):
            self._emit({"name": "process_name", "ph": "M", "pid": node,
                        "args": {"name": f"node {node}"}})
        if self._saw_msgs:
            self._emit({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                        "args": {"name": "network"}})
        self.flush()
        self._fh.write("]}")
        self._fh.close()


def text_gantt(trace: ExecutionTrace, width: int = 80) -> str:
    """Per-node activity bars: one row per node, ``#`` where at least
    one worker is busy."""
    if trace.task_records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")
    if trace.makespan <= 0:
        return "(empty trace)"
    nodes = sorted({r.node for r in trace.task_records})
    rows = []
    for node in nodes:
        busy = [False] * width
        for rec in trace.task_records:
            if rec.node != node:
                continue
            lo = int(rec.start / trace.makespan * width)
            hi = max(lo + 1, int(rec.end / trace.makespan * width))
            for i in range(lo, min(hi, width)):
                busy[i] = True
        rows.append(f"node {node:>3} |" + "".join("#" if b else "." for b in busy))
    header = f"{'':>9}0{' ' * (width - 10)}{trace.makespan:.4g}s"
    return "\n".join(rows + [header])

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

import numpy as np

from .graph import KIND_NAMES, TaskGraph
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
    recs = sorted(records, key=lambda r: (r.start, r.end, r.tid))
    lanes = _lanes({}, [r.node for r in recs], [r.start for r in recs],
                   [r.end for r in recs])
    return {r.tid: lane for r, lane in zip(recs, lanes)}


def _lanes(heaps: Dict[int, List[tuple]], pids: List[int],
           starts: List[float], ends: List[float]) -> List[int]:
    """Greedy lane of each record, in the given order.  ``heaps`` maps a
    pid to its min-heap of ``(free_time, lane)``, one entry per lane
    opened, so a new lane is numbered by the heap's size; it carries
    the packing from one call to the next."""
    for pid in set(pids).difference(heaps):
        heaps[pid] = []
    replace, push = heapq.heapreplace, heapq.heappush
    lanes = []
    append = lanes.append
    for heap, start, end in zip(map(heaps.__getitem__, pids), starts, ends):
        if heap and heap[0][0] <= start + 1e-15:
            lane = heap[0][1]
            replace(heap, (end, lane))
        else:
            lane = len(heap)
            push(heap, (end, lane))
        append(lane)
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


def _fault_event(ev) -> dict:
    """Instant ("i") event of one fault incident.

    Node-scoped incidents (failures, aborts, re-homings, losses,
    retries) land on the node's process; cluster-wide incidents (link
    degradation windows) land on the synthetic network process.
    """
    node_scoped = ev.node >= 0
    return {
        "name": f"fault:{ev.kind}",
        "cat": "fault",
        "ph": "i",
        "s": "p" if node_scoped else "g",
        "ts": ev.time * 1e6,
        "pid": ev.node if node_scoped else NETWORK_PID,
        "tid": 0,
        "args": {"detail": ev.detail},
    }


def _resize_pair(rs) -> List[dict]:
    """Migration lane of an elastic-resize run: an instant event at the
    requested resize time, and one duration ("X") slice spanning the
    migration phase (drain end → resumed phase start), both on the
    network process."""
    return [
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


def _fault_events(trace: ExecutionTrace) -> List[dict]:
    """The fault incidents of a degraded run (:func:`_fault_event`)."""
    if trace.fault_stats is None:
        return []
    events = [_fault_event(ev) for ev in trace.fault_stats.events]
    if any(e.node < 0 for e in trace.fault_stats.events) and not trace.msg_records:
        events.append({"name": "process_name", "ph": "M", "pid": NETWORK_PID,
                       "args": {"name": f"network ({trace.network})"}})
    return events


def _resize_events(trace: ExecutionTrace) -> List[dict]:
    """The migration lane of an elastic-resize run (:func:`_resize_pair`)."""
    rs = trace.resize_stats
    if rs is None:
        return []
    events = _resize_pair(rs)
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


#: one ``%`` template per streamed event kind, each giving exactly the
#: bytes ``json.dumps`` gives for the event's dict: ``float.__repr__``
#: for times and byte totals (they are finite), and names that need no
#: escaping except the message arrow, written as ``\u2192``
_TASK_LABELLED = ('{"name": "%s(%s,%s;k=%s)@%s", "cat": "task", "ph": "X", '
                  '"ts": %s, "dur": %s, "pid": %s, "tid": %s}')
_TASK_PLAIN = ('{"name": "task %s", "cat": "task", "ph": "X", '
               '"ts": %s, "dur": %s, "pid": %s, "tid": %s}')
_MSG = ('{"name": "d%sv%s %s\\u2192%s", "cat": "msg", "ph": "X", "ts": %s, '
        '"dur": %s, "pid": ' + str(NETWORK_PID) + ', "tid": %s}')
_BYTES = ('{"name": "bytes_sent_total", "ph": "C", "ts": %s, "pid": %s, '
          '"args": {"bytes": %s}}')
_KIND_NAMES = np.array(KIND_NAMES, dtype=object)
#: most records formatted at once.  Larger chunks save little time but
#: hold more small objects at once: at Cholesky P=35 m=80 on a 2-CPU
#: host, 4096-record chunks raised peak RSS by 0.5-1 MB over the
#: per-record writer's, 1024-record chunks did not
_CHUNK = 1024
#: column dtypes of the records written one at a time
_TASK_DTYPES = (np.int64, np.int64, np.float64, np.float64)
_MSG_DTYPES = (np.int64,) * 4 + (np.float64,) * 3


def _reprs(x: np.ndarray) -> List[str]:
    """``float.__repr__`` of every value of ``x``, called once per
    distinct bit pattern."""
    bits, inv = np.unique(x.view(np.int64), return_inverse=True)
    text = np.array([_frepr(v) for v in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[inv].tolist()


def _columns(rows: List[tuple], dtypes) -> List[np.ndarray]:
    """Transpose record tuples into one array per field."""
    if not rows:
        return [np.empty(0, dtype=dt) for dt in dtypes]
    return [np.array(c, dtype=dt) for c, dt in zip(zip(*rows), dtypes)]


class ChromeTraceWriter(TraceWriter):
    """Streaming Chrome-tracing JSON sink with bounded memory.

    Pass an instance as ``simulate(..., trace_writer=w)`` and every
    task/message record is written to ``path`` in record order: one
    "X" slice per task, and per message a slice on the synthetic
    network process plus its sender's ``bytes_sent_total`` counter.
    The file is flushed every ``buffer_events`` events, so the writer's
    memory is the buffer, no matter how many million tasks run, where
    the list-accumulating ``record_tasks=True`` path grows with the
    task count.

    Records reach one columnar formatter in chunks of at most 1024
    records, none larger than the buffer's free space.  A compiled run
    hands its columns to :meth:`write_batch`, which slices them into
    chunks; records written one by one (the Python loop, fault and
    resize runs) wait as raw fields until they make a chunk.  A chunk
    calls ``float.__repr__`` once per distinct value, fills one ``%``
    template per event kind over its columns, and gathers task labels
    from the columns of ``graph`` by tid: ``KIND(i,j;k=..)@node`` with
    the graph's node, as :meth:`~repro.runtime.graph.TaskGraph.task_label`
    gives (``task <tid>`` without a graph).  The slice's pid is the
    record's node, which differs from the graph's for a re-homed task.
    Every event is the bytes ``json.dumps`` gives for it.

    Worker lanes are assigned *online*, in record order: each pid keeps
    a min-heap of ``(free_time, lane)`` across chunks, and a record
    reuses the earliest-freed lane that is free by its start time.
    Task records stream in dispatch order (non-decreasing start), so
    this reproduces the offline :func:`assign_lanes` packing; message
    records may arrive with out-of-order starts (NIC serialization can
    push a send's wire time past a later event's), for which the greedy
    rule still guarantees lanes never overlap — it just may open an
    extra lane.

    Fault and resize events (:meth:`write_fault`, :meth:`write_resize`)
    are rare and go through ``json.dumps``, after the records written
    before them.  The output is a valid ``{"traceEvents": [...]}``
    document once :meth:`close` runs (writers are context managers;
    ``close`` is idempotent).  ``events_written`` and ``flushes`` expose
    progress for tests and progress meters.  Unlike
    :func:`save_chrome_trace`, the stream carries no ``running_tasks``,
    ``msgs_in_flight`` or optimality counters, and names its network
    process ``network``.
    """

    def __init__(self, path: Union[str, Path],
                 graph: Optional[TaskGraph] = None,
                 buffer_events: int = 4096) -> None:
        if buffer_events < 1:
            raise ValueError("buffer_events must be >= 1")
        self.path = Path(path)
        self.buffer_events = int(buffer_events)
        self.events_written = 0
        self.flushes = 0
        # records written one by one, not formatted yet: raw fields and
        # their interleaving
        self._tasks: List[tuple] = []
        self._msgs: List[tuple] = []
        self._is_task: List[bool] = []
        self._lines: List[str] = []  # formatted events not written yet
        # events until the pending records are formatted: the buffer's
        # free space, at most one chunk (write_batch slices that many
        # records)
        self._room = min(self.buffer_events, _CHUNK)
        self._first = True
        self._seen_pids: set = set()
        self._saw_msgs = False
        self._lane_heap: Dict[int, List[tuple]] = {}
        self._cum_bytes: Dict[int, float] = {}
        self._graph = graph
        self._fh = open(self.path, "w")
        self._fh.write('{"traceEvents": [')

    @property
    def graph(self) -> Optional[TaskGraph]:
        """Graph whose task labels name the task slices (``None``:
        ``task <tid>``); may be set after construction, and names the
        tasks written after that."""
        return self._graph

    @graph.setter
    def graph(self, graph: Optional[TaskGraph]) -> None:
        self._format_pending()
        self._graph = graph

    # ------------------------------------------------------------------
    def write_task(self, rec: TaskRecord) -> None:
        self._tasks.append((rec.tid, rec.node, rec.start, rec.end))
        self._is_task.append(True)
        self.events_written += 1
        self._room -= 1
        if self._room <= 0:
            self._format_pending()

    def write_msg(self, rec: MsgRecord) -> None:
        self._msgs.append((rec.data, rec.version, rec.src, rec.dst,
                           rec.start, rec.end, rec.nbytes))
        self._is_task.append(False)
        self.events_written += 2
        self._room -= 2
        if self._room <= 0:
            self._format_pending()

    def write_batch(self, log, node, start, end, data, version, src, dst,
                    msg_start, msg_end, nbytes) -> None:
        self._format_pending()
        a = 0
        while a < len(log):
            e = log[a:a + self._room]
            a += len(e)
            is_task = e >= 0
            tid = e[is_task]
            uid = -1 - e[~is_task]
            self.events_written += len(e) + len(uid)
            self._write_lines(self._format(
                is_task, tid, node[tid], start[tid], end[tid], data[uid],
                version[uid], src[uid], dst[uid], msg_start[uid],
                msg_end[uid], nbytes[uid]))

    def write_fault(self, event) -> None:
        if event.node < 0:
            self._saw_msgs = True  # ensure the network process gets named
        self._emit(_fault_event(event))

    def write_resize(self, stats) -> None:
        self._saw_msgs = True  # migration lives on the network process
        for event in _resize_pair(stats):
            self._emit(event)

    # ------------------------------------------------------------------
    def _format_pending(self) -> None:
        """Format the records written one by one, in their order."""
        if not self._is_task:
            return
        is_task = np.array(self._is_task, dtype=bool)
        tasks = _columns(self._tasks, _TASK_DTYPES)
        msgs = _columns(self._msgs, _MSG_DTYPES)
        self._tasks, self._msgs, self._is_task = [], [], []
        self._write_lines(self._format(is_task, *tasks, *msgs))

    def _format(self, is_task, tid, node, start, end, data, version, src,
                dst, msg_start, msg_end, nbytes) -> List[str]:
        """The events of a chunk of records, in record order: one per
        task (``is_task``), two per message.  Task columns hold the
        chunk's tasks and message columns its messages, each in order."""
        n_t = len(tid)
        node_l = node.tolist()
        self._seen_pids.update(node_l)
        lanes = _lanes(self._lane_heap, node_l + [NETWORK_PID] * len(data),
                       start.tolist() + msg_start.tolist(),
                       end.tolist() + msg_end.tolist())
        g = self._graph
        if g is None:
            template, names = _TASK_PLAIN, (tid.tolist(),)
        else:
            c = g.columns
            template = _TASK_LABELLED
            names = (_KIND_NAMES[c.kind[tid]].tolist(), c.i[tid].tolist(),
                     c.j[tid].tolist(), c.k[tid].tolist(),
                     c.node[tid].tolist())
        tasks = [template % row for row in zip(
            *names, _reprs(start * 1e6), _reprs((end - start) * 1e6),
            node_l, lanes[:n_t])]
        if not len(data):
            return tasks
        self._saw_msgs = True
        src_l = src.tolist()
        cum = self._cum_bytes
        totals = []
        for s, b in zip(src_l, nbytes.tolist()):
            cum[s] = total = cum.get(s, 0.0) + b
            totals.append(total)
        ts = _reprs(msg_start * 1e6)
        slices = [_MSG % row for row in zip(
            data.tolist(), version.tolist(), src_l, dst.tolist(), ts,
            _reprs((msg_end - msg_start) * 1e6), lanes[n_t:])]
        sent = [_BYTES % row for row in zip(ts, src_l,
                                            _reprs(np.array(totals)))]
        # scatter into record order: a record's first event sits after
        # every event of the records before it
        width = 2 - is_task
        first = np.cumsum(width) - width
        out = np.empty(n_t + 2 * len(data), dtype=object)
        out[first[is_task]] = tasks
        first = first[~is_task]
        out[first] = slices
        out[first + 1] = sent
        return out.tolist()

    def _emit(self, event: dict) -> None:
        """Write one event formatted by ``json.dumps``, after every
        record written before it."""
        self._format_pending()
        self.events_written += 1
        self._write_lines([json.dumps(event)])

    def _write_lines(self, lines: List[str]) -> None:
        """Buffer formatted events; write out every full buffer."""
        buf = self._lines
        buf += lines
        B = self.buffer_events
        full = len(buf) - len(buf) % B
        for a in range(0, full, B):
            self._write(buf[a:a + B])
        del buf[:full]
        self._room = min(B - len(buf), _CHUNK)

    def _write(self, lines: List[str]) -> None:
        chunk = ",".join(lines)
        self._fh.write(chunk if self._first else "," + chunk)
        self._first = False
        self._fh.flush()
        self.flushes += 1

    # ------------------------------------------------------------------
    def flush(self) -> None:
        self._format_pending()
        if self._lines:
            self._write(self._lines)
            self._lines.clear()
            self._room = min(self.buffer_events, _CHUNK)

    def close(self) -> None:
        if self._fh.closed:
            return
        self._format_pending()
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

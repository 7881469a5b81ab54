"""Execution trace export: Chrome tracing JSON and text Gantt.

A simulated run has one Chrome-tracing schema, the stream
:class:`ChromeTraceWriter` writes — the ``chrome://tracing`` / Perfetto
event format, so a simulated schedule can be inspected interactively,
the same workflow StarPU users apply to real traces (Section II-C's
runtime does exactly this with FxT/ViTE).  A run streams into it as
``simulate(..., trace_writer=ChromeTraceWriter(path))``;
:func:`save_chrome_trace` writes a ``record_tasks=True`` run's file
afterwards by replaying the run's recording into the same writer, so
both give the same bytes.  Per task the file holds an "X" slice on its
node's process; per message an "X" slice on the synthetic network
process plus its sender's cumulative ``bytes_sent_total`` counter;
then fault instants, the resize migration lane and process names.
"""

from __future__ import annotations

import heapq
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .graph import KIND_NAMES, TaskGraph
from .trace import (MSG_DTYPES, TASK_DTYPES, ExecutionTrace, MsgRecord,
                    TaskRecord, TraceWriter)

__all__ = ["save_chrome_trace", "text_gantt", "ChromeTraceWriter"]

#: pid of the synthetic "network" process: message slices and the
#: cluster-wide fault and resize events
NETWORK_PID = 1 << 20

#: the float formatting ``json.dumps`` applies to finite numbers
_frepr = float.__repr__


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
    memory is the buffer, no matter how many million tasks run, where a
    ``record_tasks=True`` run keeps every record in memory.

    Records reach one columnar formatter in chunks of at most 1024
    records, none larger than the buffer's free space.  A compiled run
    hands its columns to :meth:`write_batch`, which slices them into
    chunks (a resize run's stitched records come as one batch too);
    records written one by one (the Python loop, fault runs) wait as
    raw fields until they make a chunk.  A chunk
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
    Task records stream in dispatch order (non-decreasing start), and
    greedy-by-start with earliest-free reuse is optimal, so a node's
    lane count is its peak task concurrency, at most
    ``cores_per_node``; message records may arrive with out-of-order starts (NIC serialization can
    push a send's wire time past a later event's), for which the greedy
    rule still guarantees lanes never overlap — it just may open an
    extra lane.

    Fault and resize events (:meth:`write_fault`, :meth:`write_resize`)
    are rare and go through ``json.dumps``, after the records written
    before them.  The output is a valid ``{"traceEvents": [...]}``
    document once :meth:`close` runs (writers are context managers;
    ``close`` is idempotent).  ``events_written`` and ``flushes`` expose
    progress for tests and progress meters.  :func:`save_chrome_trace`
    writes the same file from a ``record_tasks=True`` run, by replaying
    its recording into this writer.
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
        tasks = _columns(self._tasks, TASK_DTYPES)
        msgs = _columns(self._msgs, MSG_DTYPES)
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


def save_chrome_trace(trace: ExecutionTrace, path: Union[str, Path],
                      graph: Optional[TaskGraph] = None) -> None:
    """Write the Chrome-tracing file of a ``record_tasks=True`` run.

    Replays the run's recording (``trace.records``) into a
    :class:`ChromeTraceWriter` at ``path``, call for call, so the file
    is the one the same run streamed into ``ChromeTraceWriter(path,
    graph)`` would have written, byte for byte.
    """
    if trace.records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")
    with ChromeTraceWriter(path, graph=graph) as writer:
        trace.records.replay(writer)


def text_gantt(trace: ExecutionTrace, width: int = 80) -> str:
    """Per-node activity bars: one row per node, ``#`` where at least
    one worker is busy."""
    if trace.records is None:
        raise ValueError("trace has no task records; simulate with record_tasks=True")
    if trace.makespan <= 0:
        return "(empty trace)"
    _, node, start, end = trace.records.task_columns()
    lo = (start / trace.makespan * width).astype(np.int64)
    hi = np.maximum(lo + 1, (end / trace.makespan * width).astype(np.int64))
    rows = []
    for n in np.unique(node).tolist():
        busy = np.zeros(width, dtype=bool)
        for a, b in zip(lo[node == n].tolist(), hi[node == n].tolist()):
            busy[a:b] = True
        rows.append(f"node {n:>3} |" + "".join(np.where(busy, "#", ".")))
    header = f"{'':>9}0{' ' * (width - 10)}{trace.makespan:.4g}s"
    return "\n".join(rows + [header])

"""Execution traces and derived performance metrics.

A run hands its records to one sink, a :class:`TraceWriter`;
``record_tasks=True`` alone uses a :class:`RecordList`, which keeps
them as columns and which the :class:`ExecutionTrace` carries as
``records``.  Its columns are the one way to read a recording:
``to_canonical`` hashes them and :mod:`~repro.runtime.stats` computes
on them; :func:`~repro.runtime.tracefmt.save_chrome_trace` replays the
recording into a :class:`~repro.runtime.tracefmt.ChromeTraceWriter`.
:class:`TaskRecord` and :class:`MsgRecord` are only the form in which
records are written one by one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .cluster import ClusterSpec
from .graph import column_view

if TYPE_CHECKING:  # pragma: no cover
    from ..cost.schedbounds import ScheduleBounds
    from .faults import FaultStats
    from .network import NetworkStats

__all__ = ["TaskRecord", "MsgRecord", "TraceWriter", "RecordList",
           "ExecutionTrace", "hand_batch"]

#: column dtypes of task records (tid, node, start, end) and of message
#: records (data, version, src, dst, start, end, nbytes)
TASK_DTYPES = (np.int64, np.int64, np.float64, np.float64)
MSG_DTYPES = (np.int64,) * 4 + (np.float64,) * 3


@dataclass(frozen=True)
class TaskRecord:
    """Start/end of one executed task (optional detailed tracing)."""

    tid: int
    node: int
    start: float
    end: float


@dataclass(frozen=True)
class MsgRecord:
    """One inter-node tile transfer (optional detailed tracing).

    ``start`` is when the message occupied its first network resource
    (sender NIC), ``end`` when it was delivered at the receiver.
    """

    data: int
    version: int
    src: int
    dst: int
    start: float
    end: float
    nbytes: float


class TraceWriter:
    """The one sink a simulation hands its task/message records to.

    Pass an instance as ``simulate(..., trace_writer=...)`` and the
    simulator (and the bound network model) will hand every
    :class:`TaskRecord` and :class:`MsgRecord` to :meth:`write_task` /
    :meth:`write_msg` in production order, instead of recording them on
    the trace (``record_tasks=True`` alone uses a :class:`RecordList`).
    The Python loop writes each record the moment it is produced, so
    recording memory is the writer's buffer.
    The compiled loop hands its whole run to :meth:`write_batch` once
    it ends, as columns: 24 bytes per task and 32 per message.

    Subclasses implement the two required hooks :meth:`write_task` and
    :meth:`write_msg`, may override :meth:`write_batch` (by default it
    replays the columns into the two per-record hooks) and the optional
    :meth:`write_fault` and :meth:`write_resize` (ignored by default),
    and implement :meth:`flush`/:meth:`close`; see
    :class:`~repro.runtime.tracefmt.ChromeTraceWriter` for the
    Chrome-tracing JSON implementation.  A duck-typed sink without
    ``write_batch`` gets the per-record replay too.  Writers are context
    managers: ``with ChromeTraceWriter(path) as w: simulate(...,
    trace_writer=w)``.
    """

    def write_task(self, rec: "TaskRecord") -> None:
        raise NotImplementedError

    def write_msg(self, rec: "MsgRecord") -> None:
        raise NotImplementedError

    def write_batch(self, log: np.ndarray, node: np.ndarray,
                    start: np.ndarray, end: np.ndarray,
                    data: np.ndarray, version: np.ndarray, src: np.ndarray,
                    dst: np.ndarray, msg_start: np.ndarray,
                    msg_end: np.ndarray, nbytes: np.ndarray) -> None:
        """Every record of a finished compiled run, as columns.

        ``log`` is the emission order: ``tid >= 0`` for a task,
        ``-1 - uid`` for a message.  ``node``, ``start`` and ``end`` are
        indexed by tid; ``data`` through ``nbytes`` by message uid.  The
        default replays the log into :meth:`write_task` /
        :meth:`write_msg` — the records and order the Python loop
        produces, holding plain Python ints and floats (the columns are
        read through :func:`~repro.runtime.graph.column_view`, so no
        array is copied).
        """
        node, start, end = map(column_view, (node, start, end))
        data, version, src, dst, msg_start, msg_end, nbytes = map(
            column_view, (data, version, src, dst, msg_start, msg_end, nbytes))
        write_task = self.write_task
        write_msg = self.write_msg
        for e in column_view(log):
            if e >= 0:
                write_task(TaskRecord(e, node[e], start[e], end[e]))
            else:
                u = -1 - e
                write_msg(MsgRecord(data[u], version[u], src[u], dst[u],
                                    msg_start[u], msg_end[u], nbytes[u]))

    def write_fault(self, event) -> None:
        """Fault incident of a degraded run (default: ignored)."""

    def write_resize(self, stats) -> None:
        """Migration phase of an elastic-resize run (default: ignored)."""

    def flush(self) -> None:
        """Force buffered records to the underlying sink."""

    def close(self) -> None:
        """Finalize the sink; no further writes are allowed."""

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecordList(TraceWriter):
    """In-memory sink behind ``record_tasks=True``: the run's records as
    columns, with every call that handed them over, in call order.

    A :meth:`write_batch` is kept as the arrays it hands over, records
    written one by one have their fields appended to column buffers,
    and :meth:`write_fault`/:meth:`write_resize` calls keep their place
    between them.  :meth:`task_columns`/:meth:`msg_columns` give every
    record as arrays, in record order, and :meth:`replay` hands the
    recording to another sink, call for call.
    """

    def __init__(self) -> None:
        #: ``(kind, payload)`` per call: ``"batch"`` and its columns,
        #: ``"records"`` and the buffers ``(is_task, task columns,
        #: message columns)``, ``"fault"``/``"resize"`` and the argument
        self._calls: List[tuple] = []
        self._buf: Optional[tuple] = None  # the buffers, while open
        self._cache: Dict[int, Tuple[np.ndarray, ...]] = {}

    def _add(self, kind: str, payload) -> None:
        self._calls.append((kind, payload))
        self._buf = payload if kind == "records" else None
        self._cache.clear()

    def _records(self) -> tuple:
        if self._buf is None:
            self._add("records", ([], tuple([] for _ in TASK_DTYPES),
                                  tuple([] for _ in MSG_DTYPES)))
        return self._buf

    def write_task(self, rec: TaskRecord) -> None:
        is_task, cols, _ = self._records()
        is_task.append(True)
        for col, value in zip(cols, (rec.tid, rec.node, rec.start, rec.end)):
            col.append(value)

    def write_msg(self, rec: MsgRecord) -> None:
        is_task, _, cols = self._records()
        is_task.append(False)
        for col, value in zip(cols, (rec.data, rec.version, rec.src, rec.dst,
                                     rec.start, rec.end, rec.nbytes)):
            col.append(value)

    def write_batch(self, *columns) -> None:
        self._add("batch", columns)

    def write_fault(self, event) -> None:
        self._add("fault", event)

    def write_resize(self, stats) -> None:
        self._add("resize", stats)

    # ------------------------------------------------------------------
    def task_columns(self) -> Tuple[np.ndarray, ...]:
        """``(tid, node, start, end)`` of every task record."""
        return self._columns(0, TASK_DTYPES)

    def msg_columns(self) -> Tuple[np.ndarray, ...]:
        """``(data, version, src, dst, start, end, nbytes)`` of every
        message record."""
        return self._columns(1, MSG_DTYPES)

    def _columns(self, which: int, dtypes) -> Tuple[np.ndarray, ...]:
        if which not in self._cache:
            self._buf = None  # a later write opens new buffers
            parts = []
            for kind, payload in self._calls:
                if kind == "records":
                    parts.append(payload[1 + which])
                elif kind == "batch":
                    log, node, start, end, *msg = payload
                    if which == 0:
                        tid = log[log >= 0]
                        parts.append((tid, node[tid], start[tid], end[tid]))
                    else:
                        uid = -1 - log[log < 0]
                        parts.append([c[uid] for c in msg])
            self._cache[which] = tuple(
                np.concatenate([np.asarray(p[i], dtype=dt) for p in parts])
                if parts else np.empty(0, dtype=dt)
                for i, dt in enumerate(dtypes))
        return self._cache[which]

    def replay(self, writer: TraceWriter) -> None:
        """Hand the recording to ``writer``, call for call: each batch
        through :func:`hand_batch`, records written one by one to its
        per-record hooks, in their order."""
        for kind, payload in self._calls:
            if kind == "batch":
                hand_batch(writer, *payload)
            elif kind == "records":
                is_task, task_cols, msg_cols = payload
                tasks = map(TaskRecord, *task_cols)
                msgs = map(MsgRecord, *msg_cols)
                for flag in is_task:
                    if flag:
                        writer.write_task(next(tasks))
                    else:
                        writer.write_msg(next(msgs))
            else:
                getattr(writer, "write_" + kind)(payload)


def hand_batch(sink, *columns) -> None:
    """Hand the columns of :meth:`TraceWriter.write_batch` to ``sink``:
    to its batch hook, or, for a duck-typed sink without one, to the
    base class's replay into its per-record hooks."""
    hook = getattr(sink, "write_batch", None)
    if hook is None:
        TraceWriter.write_batch(sink, *columns)
    else:
        hook(*columns)


@dataclass
class ExecutionTrace:
    """Outcome of one simulated run.

    Message totals live in one place, ``net_stats``: the
    :class:`~repro.runtime.network.NetworkStats` of the run's network
    model.  ``network``, ``n_messages``, ``bytes_sent``,
    ``sent_messages`` and ``recv_messages`` are read-only views of it.
    ``records`` is the :class:`RecordList` of a ``record_tasks=True``
    run without a ``trace_writer`` (``None`` otherwise).
    """

    cluster: ClusterSpec
    makespan: float
    total_flops: float
    n_tasks: int
    busy_time: np.ndarray  #: per-node total core-busy seconds
    net_stats: "NetworkStats"  #: the run's communication ledger
    records: Optional[RecordList] = None  #: the recorded run, as columns
    fault_stats: Optional["FaultStats"] = None  #: degraded-run observability
    resize_stats: Optional["MigrationStats"] = None  #: elastic-resize observability
    #: policy-universal lower bounds (cost/schedbounds.py), attached by
    #: callers that want distance-from-optimal reporting
    sched_bounds: Optional["ScheduleBounds"] = None

    @property
    def network(self) -> str:
        """Name of the network model that produced the trace."""
        return self.net_stats.model

    @property
    def n_messages(self) -> int:
        """Messages sent over the whole run."""
        return int(self.net_stats.msgs_sent.sum())

    @property
    def bytes_sent(self) -> float:
        """Bytes sent over the whole run."""
        return float(self.net_stats.bytes_sent.sum())

    @property
    def sent_messages(self) -> np.ndarray:
        """Per-node messages sent."""
        return self.net_stats.msgs_sent

    @property
    def recv_messages(self) -> np.ndarray:
        """Per-node messages received."""
        return self.net_stats.msgs_recv

    # ------------------------------------------------------------------
    @property
    def gflops(self) -> float:
        """Aggregate achieved GFlop/s (the paper's *total performance*)."""
        return self.total_flops / self.makespan / 1e9 if self.makespan > 0 else 0.0

    @property
    def gflops_per_node(self) -> float:
        """Per-node achieved GFlop/s (the paper's *performance per node*)."""
        return self.gflops / self.cluster.nnodes

    @property
    def utilization(self) -> float:
        """Mean fraction of core *capacity* spent computing.

        Heterogeneous clusters weight each node's busy seconds by its
        relative speed against ``ClusterSpec.total_speed()`` — the
        homogeneous formula would over-report utilization whenever slow
        nodes (which are busy longer for the same work) dominate.  The
        homogeneous branch keeps the original arithmetic exactly.
        """
        cl = self.cluster
        if cl.node_speeds:
            cap = self.makespan * cl.total_speed()  # core-seconds × speed
            if cap <= 0:
                return 0.0
            speeds = np.asarray(cl.node_speeds, dtype=np.float64)
            return float((self.busy_time * speeds).sum() / cap)
        cap = self.makespan * cl.cores_per_node * cl.nnodes
        return float(self.busy_time.sum() / cap) if cap > 0 else 0.0

    @property
    def optimality_ratio(self) -> float:
        """Makespan over the best schedule lower bound (≥ 1 when
        ``sched_bounds`` is attached and meaningful; ``inf`` without
        bounds — the ratio of an unbounded run is unknown, not 1)."""
        if self.sched_bounds is None or self.sched_bounds.best <= 0:
            return float("inf")
        return self.makespan / self.sched_bounds.best

    @property
    def parallel_efficiency(self) -> float:
        """Achieved GFlop/s over the cluster peak (speed-weighted for
        heterogeneous clusters via ``ClusterSpec.total_speed()``)."""
        cl = self.cluster
        if cl.node_speeds:
            peak = cl.core_flops * cl.total_speed() / 1e9
        else:
            peak = cl.node_flops * cl.nnodes / 1e9
        return self.gflops / peak if peak > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        out = {
            "makespan_s": self.makespan,
            "gflops": self.gflops,
            "gflops_per_node": self.gflops_per_node,
            "utilization": self.utilization,
            "parallel_efficiency": self.parallel_efficiency,
            "n_tasks": float(self.n_tasks),
            "n_messages": float(self.n_messages),
            "gbytes_sent": self.bytes_sent / 1e9,
        }
        if self.sched_bounds is not None:
            # only present when a caller attached bounds, so default
            # summaries (and their tests) are untouched
            out["schedule_bound_s"] = self.sched_bounds.best
            out["optimality_ratio"] = self.optimality_ratio
        if self.fault_stats is not None:
            fs = self.fault_stats
            out.update({
                "failed_nodes": float(len(fs.failed_nodes)),
                "tasks_rehomed": float(fs.tasks_rehomed),
                "recovery_messages": float(fs.recovery_messages),
                "recovery_gbytes": fs.recovery_bytes / 1e9,
                "msgs_lost": float(fs.msgs_lost),
                "retries": float(fs.retries),
            })
        if self.resize_stats is not None:
            rs = self.resize_stats
            out.update({
                "resize_P_src": float(rs.P_src),
                "resize_P_dst": float(rs.P_dst),
                "tiles_moved": float(rs.tiles_moved),
                "tiles_saved": float(rs.tiles_saved),
                "migration_s": rs.migration_s,
                "breakeven": rs.breakeven,
            })
        return out

    def to_canonical(self) -> Dict[str, object]:
        """Exact, serialization-stable view of the simulated outcome.

        Floats are rendered with :meth:`float.hex` so two traces are
        equal **iff** their canonical JSON dumps are byte-identical —
        the contract of the golden-trace regression tests.  Per-task and
        per-message records are folded into SHA-256 digests to keep
        golden files small while still pinning every start/end time.
        """
        out: Dict[str, object] = {
            "network": self.network,
            "n_tasks": int(self.n_tasks),
            "n_messages": int(self.n_messages),
            "makespan": float(self.makespan).hex(),
            "total_flops": float(self.total_flops).hex(),
            "bytes_sent": float(self.bytes_sent).hex(),
            "busy_time": [float(x).hex() for x in self.busy_time],
            "sent_messages": [int(x) for x in self.sent_messages],
            "recv_messages": [int(x) for x in self.recv_messages],
        }
        if self.records is not None:
            # one "field,...;" row per record, floats as float.hex
            for key, cols in (
                    ("task_records_sha256", self.records.task_columns()),
                    ("msg_records_sha256", self.records.msg_columns()[:6])):
                rows = zip(*(map(float.hex if c.dtype.kind == "f" else str,
                                 c.tolist()) for c in cols))
                blob = ";".join(map(",".join, rows))
                out[key] = hashlib.sha256(blob.encode()).hexdigest()
        if self.sched_bounds is not None:
            # only present when bounds were attached — existing golden
            # traces (no bounds) are untouched
            out["sched_bounds"] = self.sched_bounds.to_canonical()
            out["optimality_ratio"] = float(self.optimality_ratio).hex()
        if self.fault_stats is not None:
            # only present on degraded runs, so fault-free canonical
            # output (and every golden trace) is untouched
            out["faults"] = self.fault_stats.to_canonical()
        if self.resize_stats is not None:
            # only present on runs that actually migrated — a no-op
            # resize returns a plain trace, byte-identical to goldens
            out["resize"] = self.resize_stats.to_canonical()
        return out

    def __repr__(self) -> str:
        return (
            f"ExecutionTrace(makespan={self.makespan:.4f}s, "
            f"gflops={self.gflops:.1f}, msgs={self.n_messages}, "
            f"eff={self.parallel_efficiency:.1%})"
        )

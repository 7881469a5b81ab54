"""``ChromeTraceWriter`` against a frozen per-record reference.

:class:`FrozenChromeTraceWriter` is the streaming writer as it was
when every task and message event was formatted on its own: one label
call, one lane-heap step and one f-string per record.  It has no batch
hook, so a compiled run replays its records into it one by one.  The
writer under test formats chunks of columns instead; its file must be
the reference's, byte for byte, on both event loops, for every network,
fault and resize run, with and without a graph, at every buffer size.

``save_chrome_trace`` replays a ``record_tasks=True`` run's recording
into the same writer, so its file must be the streamed one too.
"""

import dataclasses
import hashlib
import heapq
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.experiments.harness import run_factorization
from repro.experiments.machine import sim_cluster
from repro.patterns.g2dbc import g2dbc
from repro.patterns.library import shipped_pattern
from repro.runtime import csim
from repro.runtime.backends import BACKEND_ENV
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph
from repro.runtime.resize import ResizeEvent
from repro.runtime.simulator import simulate
from repro.runtime.stats import compute_stats, critical_path_breakdown
from repro.runtime.trace import MsgRecord, TaskRecord, TraceWriter
from repro.runtime.tracefmt import (NETWORK_PID, ChromeTraceWriter,
                                   save_chrome_trace)

_frepr = float.__repr__


class FrozenChromeTraceWriter(TraceWriter):
    """The per-record Chrome writer, frozen as the byte-level oracle."""

    def __init__(self, path: Union[str, Path],
                 graph: Optional[TaskGraph] = None,
                 buffer_events: int = 4096) -> None:
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
        return self._graph

    @graph.setter
    def graph(self, graph: Optional[TaskGraph]) -> None:
        self._graph = graph
        self._label = None  # resolved on the next write_task

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
            self._saw_msgs = True
        self._emit({
            "name": f"fault:{event.kind}", "cat": "fault", "ph": "i",
            "s": "p" if node_scoped else "g",
            "ts": event.time * 1e6,
            "pid": event.node if node_scoped else NETWORK_PID,
            "tid": 0, "args": {"detail": event.detail},
        })

    def write_resize(self, stats) -> None:
        self._saw_msgs = True
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


def _cluster(P, rpn=1, latency=1e-6):
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=latency, tile_size=8,
                       ranks_per_node=rpn)


def _lu(P, m):
    return build_lu_graph(TileDistribution(g2dbc(P), m, symmetric=False), 8)


def _write_both(tmp_path, backend, graph, cluster, home, labelled,
                buffer_events, **sim_kw):
    """Write one run with the reference and with the writer under test
    under ``backend``; assert the files and counters agree and return
    the reference file's events."""
    files = []
    for cls in (FrozenChromeTraceWriter, ChromeTraceWriter):
        path = tmp_path / f"{backend}-{cls.__name__}.json"
        with cls(path, graph=graph if labelled else None,
                 buffer_events=buffer_events) as w:
            simulate(graph, cluster, data_home=home, trace_writer=w,
                     **sim_kw)
        files.append((path.read_bytes(), w.events_written, w.flushes))
    ref, new = files
    assert new[0] == ref[0], backend
    assert new[1:] == ref[1:], backend
    events = json.loads(ref[0])["traceEvents"]
    assert len(events) == ref[1]
    return events


@pytest.mark.parametrize("buffer_events", [1, 7, 4096])
@pytest.mark.parametrize("labelled", [True, False], ids=["graph", "no-graph"])
@pytest.mark.parametrize("network,rpn", [
    ("nic", 1), ("contention", 1), ("hierarchical", 2),
], ids=["nic", "contention", "hierarchical-rpn2"])
def test_plain_runs(network, rpn, labelled, buffer_events, sim_backends,
                    tmp_path):
    graph, home = _lu(7, 8)
    for backend in sim_backends:
        events = _write_both(tmp_path, backend, graph, _cluster(7, rpn), home,
                             labelled, buffer_events, network=network)
        assert any(e.get("cat") == "msg" for e in events)


@pytest.mark.parametrize("buffer_events", [1, 7, 4096])
@pytest.mark.parametrize("labelled", [True, False], ids=["graph", "no-graph"])
@pytest.mark.parametrize("network", ["nic", "contention"])
def test_fault_runs(network, labelled, buffer_events, sim_backends,
                    tmp_path):
    graph, home = _lu(5, 8)
    cl = _cluster(5, latency=0.0)
    for backend in sim_backends:
        lossy = _write_both(tmp_path, backend, graph, cl, home, labelled,
                            buffer_events, network=network,
                            faults="loss:0.2,seed:1")
        assert any(e["name"] == "fault:loss" for e in lossy)
        failed = _write_both(tmp_path, backend, graph, cl, home, labelled,
                             buffer_events, network=network,
                             faults="fail:1@2e-5,seed:3")
        tasks = [e for e in failed if e.get("cat") == "task"]
        assert not any(e["pid"] == 1 and e["ts"] > 20 for e in tasks)
        if labelled:
            # a re-homed task keeps its graph node in the label and runs
            # on its new node's pid
            assert any(int(e["name"].rsplit("@", 1)[1]) != e["pid"]
                       for e in tasks)


@pytest.mark.parametrize("buffer_events", [1, 7, 4096])
@pytest.mark.parametrize("labelled", [True, False], ids=["graph", "no-graph"])
def test_resize_run(labelled, buffer_events, sim_backends, tmp_path):
    graph, home = _lu(7, 10)
    for backend in sim_backends:
        events = _write_both(tmp_path, backend, graph, _cluster(7), home,
                             labelled, buffer_events, resize="9@3e-5")
        assert any(e["name"] == "migration 7→9" for e in events)


@pytest.mark.parametrize("buffer_events", [1, 7, 4096])
def test_one_node_and_empty_graph(buffer_events, sim_backends, tmp_path):
    graph, home = build_cholesky_graph(
        TileDistribution(shipped_pattern(1, "cholesky"), 6, symmetric=True), 8)
    empty = TaskGraph(n_data=1, nnodes=1)
    for backend in sim_backends:
        for labelled in (True, False):
            events = _write_both(tmp_path, backend, graph, _cluster(1), home,
                                 labelled, buffer_events)
            assert events and not any(e.get("cat") == "msg" for e in events)
            assert _write_both(tmp_path, backend, empty, _cluster(1), None,
                               labelled, buffer_events) == []


def _export_equals_stream(tmp_path, backend, graph, cluster, home,
                          labelled, **sim_kw):
    """Stream one run into a ``ChromeTraceWriter``, run it again with
    ``record_tasks=True`` and export it; assert the files are equal and
    return the bytes."""
    g = graph if labelled else None
    streamed = tmp_path / f"{backend}-stream.json"
    with ChromeTraceWriter(streamed, graph=g) as w:
        simulate(graph, cluster, data_home=home, trace_writer=w, **sim_kw)
    trace = simulate(graph, cluster, data_home=home, record_tasks=True,
                     **sim_kw)
    exported = tmp_path / f"{backend}-export.json"
    save_chrome_trace(trace, exported, g)
    assert exported.read_bytes() == streamed.read_bytes(), backend
    return streamed.read_bytes()


@pytest.mark.parametrize("labelled", [True, False], ids=["graph", "no-graph"])
@pytest.mark.parametrize("network,rpn", [
    ("nic", 1), ("contention", 1), ("hierarchical", 2),
], ids=["nic", "contention", "hierarchical-rpn2"])
@pytest.mark.parametrize("kw,marker", [
    ({}, b'"cat": "msg"'),
    ({"faults": "fail:1@2e-5,loss:0.05,seed:3"}, b'"name": "fault:fail"'),
    ({"resize": "9@3e-5"}, b'"cat": "resize"'),
], ids=["plain", "faults", "resize"])
def test_export_equals_stream(kw, marker, network, rpn, labelled,
                              sim_backends, tmp_path):
    """``save_chrome_trace`` of a recorded run writes the bytes the same
    run streams into a ``ChromeTraceWriter``."""
    graph, home = _lu(7, 10)
    for backend in sim_backends:
        data = _export_equals_stream(tmp_path, backend, graph,
                                     _cluster(7, rpn), home, labelled,
                                     network=network, **kw)
        assert marker in data


@pytest.mark.skipif(not csim.available(), reason="needs the compiled loop")
def test_compiled_recording_builds_no_record_objects(monkeypatch, tmp_path):
    """A compiled run recorded into a ``RecordList`` keeps its columns:
    no ``TaskRecord``/``MsgRecord`` is built by the canonical digests,
    the Chrome export, the schedule statistics or a resize's cut of its
    phases."""
    monkeypatch.setenv(BACKEND_ENV, "c")
    built = []

    def counting(cls):
        init = cls.__init__

        def __init__(self, *args, **kw):
            built.append(cls)
            init(self, *args, **kw)
        return __init__

    for cls in (TaskRecord, MsgRecord):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    graph, home = _lu(7, 10)
    trace = simulate(graph, _cluster(7), data_home=home, record_tasks=True)
    trace.to_canonical()
    save_chrome_trace(trace, tmp_path / "plain.json", graph)
    compute_stats(trace, graph)
    critical_path_breakdown(trace, graph)
    assert built == []
    assert len(trace.records.task_columns()[0]) == len(graph)
    assert len(trace.records.msg_columns()[0]) == trace.n_messages > 0
    # the migration replay runs on a Python network model, which hands
    # its messages over one by one; no task record is built
    built.clear()
    resized = simulate(graph, _cluster(7), data_home=home, record_tasks=True,
                       resize="9@3e-5")
    resized.to_canonical()
    save_chrome_trace(resized, tmp_path / "resized.json", graph)
    assert TaskRecord not in built
    assert built.count(MsgRecord) == resized.resize_stats.tiles_moved


@pytest.mark.slow
def test_benchmark_size_export(sim_backends, tmp_path):
    """``save_chrome_trace`` at the benchmark's size (the shipped
    Cholesky P=35 pattern at m=80), for a plain run and a grow resize
    to 36 nodes halfway through it."""
    pattern = shipped_pattern(35, "cholesky")
    graph, home = build_cholesky_graph(
        TileDistribution(pattern, 80, symmetric=True), 500)
    cl = sim_cluster(35)
    half = simulate(graph, cl, data_home=home).makespan / 2
    for backend in sim_backends:
        for kw in ({}, {"resize": ResizeEvent(time=half, nnodes=36)}):
            _export_equals_stream(tmp_path, backend, graph, cl, home, True,
                                  **kw)


@pytest.mark.slow
def test_benchmark_size_run(sim_backends, tmp_path):
    """The shipped Cholesky P=35 pattern at m=80: ~88.6k tasks and
    ~21.2k messages, the size the Chrome-trace benchmark writes."""
    pattern = shipped_pattern(35, "cholesky")
    for backend in sim_backends:
        digests = []
        for cls in (FrozenChromeTraceWriter, ChromeTraceWriter):
            path = tmp_path / f"{backend}-{cls.__name__}.json"
            w = cls(path)
            try:
                run_factorization(pattern, 80, "cholesky", trace_writer=w)
            finally:
                w.close()
            digests.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                            w.events_written, w.flushes))
        assert digests[1] == digests[0], backend


class _PerRecordSink:
    """A duck-typed sink with only the two per-record hooks."""

    def __init__(self):
        self.tasks, self.msgs = [], []

    def write_task(self, rec):
        self.tasks.append(rec)

    def write_msg(self, rec):
        self.msgs.append(rec)


@pytest.mark.skipif(not csim.available(), reason="needs the compiled loop")
def test_per_record_sink_gets_the_compiled_records(monkeypatch):
    """A sink without ``write_batch`` receives a compiled run's records
    one by one: the RecordList's records, in its order, holding plain
    Python scalars."""
    monkeypatch.setenv(BACKEND_ENV, "c")
    graph, home = _lu(7, 10)
    cl = _cluster(7)
    ref = simulate(graph, cl, data_home=home, record_tasks=True)
    sink = _PerRecordSink()
    simulate(graph, cl, data_home=home, trace_writer=sink)
    assert ([dataclasses.astuple(r) for r in sink.tasks]
            == list(zip(*(c.tolist() for c in ref.records.task_columns()))))
    assert ([dataclasses.astuple(r) for r in sink.msgs]
            == list(zip(*(c.tolist() for c in ref.records.msg_columns()))))
    assert sink.msgs
    for rec in (sink.tasks[0], sink.msgs[0]):
        assert all(type(v) in (int, float) for v in vars(rec).values())

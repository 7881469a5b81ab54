"""Tests for trace export (Chrome tracing, text Gantt) and memory stats."""

import hashlib
import json

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.analysis import memory_footprint
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate
from repro.runtime.trace import MsgRecord, TaskRecord
from repro.runtime.tracefmt import (
    NETWORK_PID,
    ChromeTraceWriter,
    save_chrome_trace,
    text_gantt,
)

#: SHA-256 of the streamed Chrome file at P=7, m=10 with graph labels and
#: ``buffer_events=64``, recorded while every recorded run still took the
#: Python loop.  LU/nic is eligible for the compiled loop; Cholesky under
#: contention is not.
CHROME_DIGESTS = {
    ("lu", "nic"):
        "61d8de80e45f788c92bffde359f5edadbc48225db374e3f4c85fcaf18acdd12b",
    ("cholesky", "contention"):
        "1452a4e4c86d9d9fa8850429208b450f17bf07f2ab034c765484099915bc981f",
}


def _digest_graph(kernel):
    if kernel == "lu":
        return build_lu_graph(
            TileDistribution(g2dbc(7), 10, symmetric=False), 8)
    pat = gcrm(7, feasible_sizes(7)[0], seed=0).pattern
    return build_cholesky_graph(TileDistribution(pat, 10, symmetric=True), 8)


def run(pattern, n=6, record=True):
    dist = TileDistribution(pattern, n)
    graph, home = build_lu_graph(dist, 8)
    cl = ClusterSpec(nnodes=pattern.nnodes, cores_per_node=2, core_gflops=1.0,
                     bandwidth_Bps=1e9, latency_s=0.0, tile_size=8)
    return graph, simulate(graph, cl, data_home=home, record_tasks=record), home, cl


def exported(trace, tmp_path, graph=None):
    """The events of the file ``save_chrome_trace`` writes for ``trace``."""
    path = tmp_path / "trace.json"
    save_chrome_trace(trace, path, graph)
    return json.loads(path.read_text())["traceEvents"]


def task_slices(events):
    return [e for e in events if e.get("cat") == "task"]


class TestChromeTrace:
    def test_requires_records(self, tmp_path):
        graph, trace, _, _ = run(bc2d(2, 2), record=False)
        with pytest.raises(ValueError, match="record_tasks"):
            save_chrome_trace(trace, tmp_path / "trace.json", graph)

    def test_event_count(self, tmp_path):
        graph, trace, _, _ = run(bc2d(2, 2))
        assert len(task_slices(exported(trace, tmp_path, graph))) == len(graph)

    def test_events_well_formed(self, tmp_path):
        graph, trace, _, _ = run(bc2d(2, 2))
        for e in task_slices(exported(trace, tmp_path, graph)):
            assert e["ph"] == "X"
            assert e["dur"] >= 0
            assert 0 <= e["pid"] < 4
            assert "GETRF" in e["name"] or "TRSM" in e["name"] or "GEMM" in e["name"]

    def test_lane_assignment_no_overlap(self, tmp_path):
        graph, trace, _, _ = run(bc2d(2, 2))
        by_lane = {}
        for e in task_slices(exported(trace, tmp_path)):
            by_lane.setdefault((e["pid"], e["tid"]), []).append((e["ts"], e["ts"] + e["dur"]))
        for spans in by_lane.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-6

    def test_save(self, tmp_path):
        graph, trace, _, _ = run(bc2d(2, 2))
        path = tmp_path / "trace.json"
        save_chrome_trace(trace, path, graph)
        data = json.loads(path.read_text())
        assert "traceEvents" in data


class TestLaneAssignment:
    """The writer's heap-based lane packer: lanes == peak concurrency
    per node."""

    @pytest.mark.parametrize("pattern,n,cores", [
        (bc2d(2, 2), 6, 2), (bc2d(2, 2), 8, 3), (g2dbc(5), 8, 4),
    ])
    def test_lane_count_never_exceeds_cores(self, pattern, n, cores,
                                            tmp_path):
        dist = TileDistribution(pattern, n)
        graph, home = build_lu_graph(dist, 8)
        cl = ClusterSpec(nnodes=pattern.nnodes, cores_per_node=cores,
                         core_gflops=1.0, bandwidth_Bps=1e9, latency_s=0.0,
                         tile_size=8)
        trace = simulate(graph, cl, data_home=home, record_tasks=True)
        per_node = {}
        for e in task_slices(exported(trace, tmp_path)):
            per_node.setdefault(e["pid"], set()).add(e["tid"])
        assert len(per_node) == pattern.nnodes
        for node, used in per_node.items():
            assert len(used) <= cores, (
                f"node {node} uses {len(used)} lanes with {cores} cores")
            assert used == set(range(len(used)))  # dense lane ids

    def test_no_overlap_within_lane(self, tmp_path):
        graph, trace, _, _ = run(bc2d(2, 2), n=8)
        spans = {}
        for e in task_slices(exported(trace, tmp_path)):
            spans.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"]))
        for lane_spans in spans.values():
            lane_spans.sort()
            for (_, e1), (s2, _) in zip(lane_spans, lane_spans[1:]):
                assert s2 >= e1 - 1e-9  # microseconds

    def test_heap_reuses_freed_lane(self, tmp_path):
        """Sequential tasks must share one lane, not open new ones."""
        path = tmp_path / "trace.json"
        with ChromeTraceWriter(path) as w:
            for i in range(5):
                w.write_task(TaskRecord(tid=i, node=0, start=float(i),
                                        end=float(i) + 1.0))
        events = json.loads(path.read_text())["traceEvents"]
        assert len(task_slices(events)) == 5
        assert {e["tid"] for e in task_slices(events)} == {0}


class TestCounterEvents:
    def test_bytes_counter_ends_at_bytes_sent(self, tmp_path):
        dist = TileDistribution(bc2d(2, 2), 6)
        graph, home = build_lu_graph(dist, 8)
        cl = ClusterSpec(nnodes=4, cores_per_node=2, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=0.0, tile_size=8)
        trace = simulate(graph, cl, data_home=home, record_tasks=True,
                         network="contention")
        byte_counters = [e for e in exported(trace, tmp_path)
                         if e.get("name") == "bytes_sent_total"]
        assert len(byte_counters) == trace.n_messages
        # cumulative per node: last sample equals that node's byte total
        last = {}
        for e in byte_counters:
            last[e["pid"]] = e["args"]["bytes"]
        sent = trace.net_stats.bytes_sent
        assert set(last) == set(np.flatnonzero(sent).tolist())
        for node, total in last.items():
            assert total == pytest.approx(sent[node])


class TestChromeTraceWriter:
    """Streaming writer: the file the offline export writes, written
    incrementally under a bounded buffer during the run."""

    def _stream(self, tmp_path, pattern=None, n=6, buffer_events=8,
                **sim_kw):
        pattern = pattern or bc2d(2, 2)
        dist = TileDistribution(pattern, n)
        graph, home = build_lu_graph(dist, 8)
        cl = ClusterSpec(nnodes=pattern.nnodes, cores_per_node=2,
                         core_gflops=1.0, bandwidth_Bps=1e9, latency_s=0.0,
                         tile_size=8)
        path = tmp_path / "stream.json"
        with ChromeTraceWriter(path, graph=graph,
                               buffer_events=buffer_events) as w:
            trace = simulate(graph, cl, data_home=home, trace_writer=w,
                             **sim_kw)
        return graph, trace, w, json.loads(path.read_text())

    def test_valid_json_and_incremental_flushes(self, tmp_path):
        _, _, w, data = self._stream(tmp_path, buffer_events=8)
        assert "traceEvents" in data
        assert w.flushes > 1, "tiny buffer must force incremental flushes"
        # metadata (ph "M") events emitted at close are counted too
        assert w.events_written == len(data["traceEvents"])

    def test_task_events_match_offline_exporter(self, tmp_path):
        graph, _, _, data = self._stream(tmp_path)
        # offline reference: same run recorded in memory, then exported
        graph2, trace, _, _ = run(bc2d(2, 2))
        assert exported(trace, tmp_path, graph2) == data["traceEvents"]

    def test_no_lane_overlap(self, tmp_path):
        _, _, _, data = self._stream(tmp_path, n=8)
        spans = {}
        for e in data["traceEvents"]:
            if e.get("cat") == "task":
                spans.setdefault((e["pid"], e["tid"]), []).append(
                    (e["ts"], e["ts"] + e["dur"]))
        assert spans
        for lane in spans.values():
            lane.sort()
            for (_, e1), (s2, _) in zip(lane, lane[1:]):
                assert s2 >= e1 - 1e-6

    def test_msg_events_streamed(self, tmp_path):
        _, trace, _, data = self._stream(tmp_path)
        msgs = [e for e in data["traceEvents"] if e.get("cat") == "msg"]
        assert len(msgs) == trace.n_messages > 0

    def test_fault_run_streams_only_survivors(self, tmp_path):
        faults = "fail:1@2e-5,seed:3"
        graph, trace, _, data = self._stream(
            tmp_path, pattern=g2dbc(5), n=8, faults=faults,
            record_tasks=True)
        # with a writer the records go only to it, as on a plain run
        assert trace.records is None
        _, home = build_lu_graph(TileDistribution(g2dbc(5), 8), 8)
        rerun = simulate(graph, trace.cluster, data_home=home,
                         faults=faults, record_tasks=True)
        assert rerun.fault_stats.tasks_aborted > 0
        # aborted tasks are retracted before the buffered flush, so the
        # stream carries exactly the surviving records
        tasks = sorted((e["pid"], e["ts"], e["dur"])
                       for e in data["traceEvents"] if e.get("cat") == "task")
        _, node, start, end = rerun.records.task_columns()
        assert tasks == sorted(zip(node.tolist(), (start * 1e6).tolist(),
                                   ((end - start) * 1e6).tolist()))
        msgs = [e for e in data["traceEvents"] if e.get("cat") == "msg"]
        assert len(msgs) == len(rerun.records.msg_columns()[0])
        assert any(e.get("ph") == "i" for e in data["traceEvents"])

    def test_close_idempotent(self, tmp_path):
        _, _, w, _ = self._stream(tmp_path)
        w.close()  # second close after the context manager: no error
        assert w.events_written > 0

    @pytest.mark.parametrize("kernel,network", sorted(CHROME_DIGESTS),
                             ids=[f"{k}-{n}" for k, n in sorted(CHROME_DIGESTS)])
    def test_file_digest_under_every_backend(self, kernel, network,
                                             sim_backends, tmp_path):
        """The Chrome file is byte-identical to the one recorded before
        the compiled loop could record, on every available loop."""
        graph, home = _digest_graph(kernel)
        cl = ClusterSpec(nnodes=7, cores_per_node=2, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8)
        for backend in sim_backends:
            path = tmp_path / f"{backend}.json"
            with ChromeTraceWriter(path, graph=graph, buffer_events=64) as w:
                simulate(graph, cl, data_home=home, network=network,
                         trace_writer=w)
            assert w.flushes > 1
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == CHROME_DIGESTS[kernel, network], backend

    def test_lines_equal_json_dumps(self, tmp_path):
        """Formatted events are the bytes ``json.dumps`` gives, for
        awkward floats and NumPy scalars alike; a graph set after
        construction names the task slices."""
        dist = TileDistribution(bc2d(2, 2), 4)
        graph, _ = build_lu_graph(dist, 8)
        path = tmp_path / "w.json"
        w = ChromeTraceWriter(path, buffer_events=1000)
        w.graph = graph
        # overlapping spans: record i lands on lane i
        times = [(0.0, 1e22), (1e-7, 1 / 3), (np.float64(0.1), 0.2)]
        expected = []
        cum = 0.0
        for tid, (start, end) in enumerate(times):
            w.write_task(TaskRecord(tid, 1, start, end))
            w.write_msg(MsgRecord(tid, 2, 3, 0, start, end, 512))
            cum += 512
            expected += [
                {"name": graph.task_label(tid), "cat": "task", "ph": "X",
                 "ts": start * 1e6, "dur": (end - start) * 1e6, "pid": 1,
                 "tid": tid},
                {"name": f"d{tid}v2 3→0", "cat": "msg", "ph": "X",
                 "ts": start * 1e6, "dur": (end - start) * 1e6,
                 "pid": NETWORK_PID, "tid": tid},
                {"name": "bytes_sent_total", "ph": "C", "ts": start * 1e6,
                 "pid": 3, "args": {"bytes": cum}},
            ]
        w.close()
        expected += [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "node 1"}},
            {"name": "process_name", "ph": "M", "pid": NETWORK_PID,
             "args": {"name": "network"}},
        ]
        assert path.read_text() == (
            '{"traceEvents": [' + ",".join(map(json.dumps, expected)) + "]}")
        assert w.events_written == len(expected)


class TestTextGantt:
    def test_rows_per_node(self):
        _, trace, _, _ = run(bc2d(2, 2))
        gantt = text_gantt(trace, width=40)
        assert gantt.count("node") == 4

    def test_busy_markers_present(self):
        _, trace, _, _ = run(bc2d(2, 2))
        assert "#" in text_gantt(trace)

    def test_requires_records(self):
        _, trace, _, _ = run(bc2d(2, 2), record=False)
        with pytest.raises(ValueError):
            text_gantt(trace)


class TestMemoryFootprint:
    def test_single_node_owns_everything(self):
        graph, _, home, cl = run(bc2d(1, 1), n=5)
        stats = memory_footprint(graph, cl, home)
        assert stats.owned_tiles[0] == 25
        assert stats.cached_tiles[0] == 0
        assert stats.overhead() == 0.0

    def test_owned_matches_distribution(self):
        pat = bc2d(2, 2)
        dist = TileDistribution(pat, 6)
        graph, home = build_lu_graph(dist, 8)
        cl = ClusterSpec(nnodes=4, cores_per_node=2, tile_size=8)
        stats = memory_footprint(graph, cl, home)
        assert (stats.owned_tiles == dist.loads).all()

    def test_bad_pattern_caches_more(self):
        """23x1 must cache far more remote tiles than G-2DBC."""
        n = 12
        caches = {}
        for pat in (g2dbc(23), bc2d(23, 1)):
            dist = TileDistribution(pat, n)
            graph, home = build_lu_graph(dist, 8)
            cl = ClusterSpec(nnodes=23, cores_per_node=2, tile_size=8)
            caches[pat.name] = memory_footprint(graph, cl, home).cached_tiles.sum()
        assert caches["2DBC 23x1"] > caches["G-2DBC 20x23 (P=23)"]

    def test_peak_bytes(self):
        graph, _, home, cl = run(bc2d(2, 2), n=4)
        stats = memory_footprint(graph, cl, home)
        assert (stats.peak_bytes == stats.peak_tiles * cl.tile_bytes).all()

    def test_without_home_uses_first_writer(self):
        graph, _, _, cl = run(bc2d(2, 2), n=4)
        stats = memory_footprint(graph, cl, data_home=None)
        assert stats.owned_tiles.sum() == 16

"""Tests for the event-driven runtime simulator (analytic cases)."""

import dataclasses

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.runtime.cluster import ClusterSpec
from repro.runtime.faults import simulate_with_faults
from repro.runtime.graph import TaskGraph, TaskKind
from repro.runtime.simulator import SimulationError, simulate
from repro.runtime.trace import RecordList


def cluster(nnodes=2, cores=1, tile_size=10, bw=1e9, latency=0.0):
    return ClusterSpec(nnodes=nnodes, cores_per_node=cores, core_gflops=1.0,
                       bandwidth_Bps=bw, latency_s=latency, tile_size=tile_size)


MSG = 800 / 1e9  # tile_size=10 -> 800 bytes at 1 GB/s


class TestBasics:
    def test_empty_graph(self):
        g = TaskGraph(n_data=1, nnodes=1)
        tr = simulate(g, cluster(1))
        assert tr.makespan == 0.0
        assert tr.n_tasks == 0

    def test_empty_graph_recorded(self, tmp_path):
        """A recorded run of an empty graph has empty records, so the
        record consumers work on it instead of raising."""
        import json

        from repro.runtime.stats import (concurrency_profile,
                                         critical_path_breakdown,
                                         extract_critical_path)
        from repro.runtime.tracefmt import save_chrome_trace, text_gantt

        g = TaskGraph(n_data=1, nnodes=1)
        tr = simulate(g, cluster(1), record_tasks=True)
        tid, _, _, end = tr.records.task_columns()
        assert tid.size == 0
        assert tr.records.msg_columns()[0].size == 0
        assert end.max(initial=0.0) == tr.makespan
        assert concurrency_profile(tr) == []
        assert text_gantt(tr) == "(empty trace)"
        assert extract_critical_path(tr, g) == []
        assert critical_path_breakdown(tr, g) == {
            "path": [], "n_tasks": 0, "time_by_kind": {}, "wait_time": 0.0,
            "task_time": 0.0, "coverage": 0.0}
        save_chrome_trace(tr, tmp_path / "empty.json", g)
        assert json.loads((tmp_path / "empty.json").read_text()) == {
            "traceEvents": []}

    def test_single_task_duration(self):
        g = TaskGraph(n_data=1, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 2e9, (g.current(0),), 0)
        tr = simulate(g, cluster(1))
        assert tr.makespan == pytest.approx(2.0)
        assert tr.gflops == pytest.approx(1.0)

    def test_local_chain_sums(self):
        g = TaskGraph(n_data=1, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 0, 0, 1, 0, 3e9, (g.current(0),), 0)
        tr = simulate(g, cluster(1))
        assert tr.makespan == pytest.approx(4.0)

    def test_parallel_tasks_two_cores(self):
        g = TaskGraph(n_data=2, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 0, 1, 0, 0, 1e9, (g.current(1),), 1)
        assert simulate(g, cluster(1, cores=2)).makespan == pytest.approx(1.0)
        assert simulate(g, cluster(1, cores=1)).makespan == pytest.approx(2.0)

    def test_node_overflow_detected(self):
        g = TaskGraph(n_data=1, nnodes=5)
        g.submit(TaskKind.GEMM, 0, 0, 0, 4, 1e9, (), 0)
        with pytest.raises(SimulationError, match="nodes"):
            simulate(g, cluster(2))


class TestInputChecks:
    """Node ids index the engines' per-node tables unchecked, so
    ``simulate`` rejects a bad one where it enters, on every loop and
    before routing to the fault or resize engines."""

    @staticmethod
    def case():
        graph, home = build_lu_graph(
            TileDistribution(g2dbc(5), 6, symmetric=False), 8)
        cl = ClusterSpec(nnodes=5, cores_per_node=2, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8)
        # shifted homes: every version-0 tile, tile 0 included, is
        # fetched from a remote node
        return graph, (home + 1) % 5, cl

    @pytest.mark.parametrize("bad", [5, 99, -1])
    def test_data_home_node_out_of_range(self, bad, sim_backends):
        # regression: the compiled loop wrote past its per-node arrays
        # (abort or segfault); the Python loop charged node -1's sends
        # to node 4
        graph, home, cl = self.case()
        home[0] = bad
        for backend in sim_backends:
            with pytest.raises(SimulationError,
                               match=f"data_home names node {bad}"):
                simulate(graph, cl, data_home=home)

    def test_data_home_too_short(self, sim_backends):
        graph, home, cl = self.case()
        for backend in sim_backends:
            with pytest.raises(SimulationError, match="data_home has 35"):
                simulate(graph, cl, data_home=home[:-1])

    def test_negative_graph_node(self, sim_backends):
        # regression: the Python loop ran the task on node P-1
        g = TaskGraph(n_data=1, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, -1, 1e9, (), 0)
        for backend in sim_backends:
            with pytest.raises(SimulationError, match="node -1"):
                simulate(g, cluster(2))

    def test_fault_run_checks_inputs(self):
        graph, home, cl = self.case()
        home[0] = -1
        with pytest.raises(SimulationError, match="data_home names node -1"):
            simulate(graph, cl, data_home=home, faults="fail:1@2e-5")
        with pytest.raises(SimulationError, match="data_home names node -1"):
            simulate_with_faults(graph, cl, "fail:1@2e-5", data_home=home)

    def test_resize_run_checks_inputs(self):
        graph, home, cl = self.case()
        home[0] = 5
        with pytest.raises(SimulationError, match="data_home names node 5"):
            simulate(graph, cl, data_home=home, resize="7@2e-5")

    @pytest.mark.parametrize("network,faults", [
        ("contention", None), ("hierarchical", None),
        ("nic", "fail:1@2e-5"),
    ])
    def test_tree_multicast_outside_nic_rejected(self, network, faults):
        # regression: only the nic model implements the tree schedule;
        # every other combination silently ran point-to-point
        graph, home, cl = self.case()
        tree = dataclasses.replace(cl, multicast="tree")
        with pytest.raises(SimulationError, match="multicast='tree'"):
            simulate(graph, tree, data_home=home, network=network,
                     faults=faults)


class TestRecordSink:
    """Every path hands its records to one sink: a caller's writer gets
    exactly the records ``record_tasks=True`` alone would return, and
    the trace then carries no record lists."""

    @pytest.mark.parametrize("kw", [
        {}, {"faults": "fail:1@2e-5,seed:3"}, {"resize": "9@2e-5"},
    ], ids=["plain", "faults", "resize"])
    def test_writer_gets_the_in_memory_records(self, kw, sim_backends):
        # regression: with both, a fault run also returned its task
        # records and a resize run both record lists
        graph, home = build_lu_graph(
            TileDistribution(g2dbc(7), 10, symmetric=False), 8)
        cl = ClusterSpec(nnodes=7, cores_per_node=2, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8)
        for backend in sim_backends:
            ref = simulate(graph, cl, data_home=home, record_tasks=True, **kw)
            sink = RecordList()
            trace = simulate(graph, cl, data_home=home, record_tasks=True,
                             trace_writer=sink, **kw)
            assert trace.records is None
            got = sink.task_columns() + sink.msg_columns()
            want = ref.records.task_columns() + ref.records.msg_columns()
            for g, w in zip(got, want):
                assert np.array_equal(g, w), backend
            assert sink.task_columns()[3].max() == trace.makespan \
                == ref.makespan, backend


class TestCommunication:
    def two_node_chain(self):
        g = TaskGraph(n_data=2, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 1, 1e9, (g.current(1), (0, 1)), 1)
        return g

    def test_cross_node_message_delay(self):
        tr = simulate(self.two_node_chain(), cluster(2))
        assert tr.makespan == pytest.approx(1.0 + MSG + 1.0)
        assert tr.n_messages == 1

    def test_latency_added(self):
        tr = simulate(self.two_node_chain(), cluster(2, latency=0.5))
        assert tr.makespan == pytest.approx(1.0 + 0.5 + MSG + 1.0)

    def test_message_dedup_per_consumer_node(self):
        g = TaskGraph(n_data=3, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        # two consumers on node 1 read the same version -> one message
        g.submit(TaskKind.GEMM, 1, 0, 0, 1, 1e9, (g.current(1), (0, 1)), 1)
        g.submit(TaskKind.GEMM, 2, 0, 0, 1, 1e9, (g.current(2), (0, 1)), 2)
        tr = simulate(g, cluster(2, cores=2))
        assert tr.n_messages == 1

    def test_sender_nic_serialization(self):
        """Two messages from the same producer leave back-to-back."""
        g = TaskGraph(n_data=3, nnodes=3)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 1, 1e9, (g.current(1), (0, 1)), 1)
        g.submit(TaskKind.GEMM, 2, 0, 0, 2, 1e9, (g.current(2), (0, 1)), 2)
        tr = simulate(g, cluster(3))
        # second message starts only after the first clears the NIC
        assert tr.makespan == pytest.approx(1.0 + 2 * MSG + 1.0)
        assert tr.sent_messages[0] == 2

    def test_remote_initial_data(self):
        """A version-0 read from a non-home node triggers a t=0 transfer."""
        g = TaskGraph(n_data=2, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0), (1, 0)), 0)
        tr = simulate(g, cluster(2), data_home=np.array([0, 1]))
        assert tr.n_messages == 1
        assert tr.makespan == pytest.approx(MSG + 1.0)


class TestSchedulingPolicy:
    def test_panel_priority(self):
        """With one core and two ready tasks, the lower TaskKind value
        (panel kernels) runs first."""
        g = TaskGraph(n_data=3, nnodes=2)
        # both ready at t=0 on node 0; GEMM submitted first, GETRF second
        g.submit(TaskKind.GEMM, 0, 0, 5, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GETRF, 1, 0, 5, 0, 1e9, (g.current(1),), 1)
        # a remote consumer of the GETRF output measures when it finished
        g.submit(TaskKind.TRSM, 2, 0, 5, 1, 1e9, (g.current(2), (1, 1)), 2)
        tr = simulate(g, cluster(2, cores=1))
        # GETRF first (t=1), message, TRSM done at 1 + MSG + 1 while the
        # GEMM overlaps on node 0
        assert tr.makespan == pytest.approx(2.0 + MSG)

    def test_iteration_priority_dominates_kind(self):
        g = TaskGraph(n_data=3, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)   # k=0
        g.submit(TaskKind.GETRF, 1, 0, 9, 0, 1e9, (g.current(1),), 1)  # k=9
        g.submit(TaskKind.TRSM, 2, 0, 0, 0, 1e9, (g.current(2),), 2)   # k=0
        tr = simulate(g, cluster(1, cores=1), record_tasks=True)
        tid, _, start, _ = tr.records.task_columns()
        order = tid[np.argsort(start, kind="stable")].tolist()
        # only one task can start at t=0 (whichever was enqueued while a
        # core was free); among the queued rest, k=0 TRSM beats k=9 GETRF
        assert order.index(2) < order.index(1)


class TestTraceMetrics:
    def test_conservation(self):
        g = TaskGraph(n_data=4, nnodes=2)
        for d in range(4):
            g.submit(TaskKind.GEMM, d, 0, 0, d % 2, 1e9, (g.current(d),), d)
        tr = simulate(g, cluster(2, cores=2), record_tasks=True)
        tid, node, _, _ = tr.records.task_columns()
        assert len(tid) == 4
        nodes = dict(zip(tid.tolist(), node.tolist()))
        assert nodes == {0: 0, 1: 1, 2: 0, 3: 1}
        assert tr.busy_time.sum() == pytest.approx(4.0)

    def test_utilization(self):
        g = TaskGraph(n_data=1, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        tr = simulate(g, cluster(1, cores=2))
        assert tr.utilization == pytest.approx(0.5)

    def test_bytes_sent(self):
        g = TaskGraph(n_data=2, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 1, 1e9, (g.current(1), (0, 1)), 1)
        tr = simulate(g, cluster(2))
        assert tr.bytes_sent == 800.0

    def test_parallel_efficiency_bounded(self):
        g = TaskGraph(n_data=2, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 1, 1e9, (g.current(1),), 1)
        tr = simulate(g, cluster(2, cores=1))
        assert 0 < tr.parallel_efficiency <= 1.0

    def test_repr(self):
        g = TaskGraph(n_data=1, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        assert "makespan" in repr(simulate(g, cluster(1)))

    def test_heterogeneous_utilization_speed_weighted(self):
        # regression: utilization used makespan * nnodes * cores as
        # capacity, over-reporting whenever busy slow nodes dominate
        het = ClusterSpec(nnodes=2, cores_per_node=1, core_gflops=1.0,
                          bandwidth_Bps=1e9, latency_s=0.0, tile_size=10,
                          node_speeds=(1.0, 3.0))
        g = TaskGraph(n_data=1, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 1, 1e9, (g.current(0),), 0)
        tr = simulate(g, het)
        # node 1 runs 1/3 s at speed 3 while node 0 idles: weighted
        # busy = 1, capacity = (1/3) * (1 + 3)
        assert tr.makespan == pytest.approx(1 / 3)
        assert tr.utilization == pytest.approx(0.75)

    def test_heterogeneous_utilization_saturated_is_one(self):
        het = ClusterSpec(nnodes=2, cores_per_node=1, core_gflops=1.0,
                          bandwidth_Bps=1e9, latency_s=0.0, tile_size=10,
                          node_speeds=(1.0, 3.0))
        g = TaskGraph(n_data=2, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 1, 3e9, (g.current(1),), 1)
        tr = simulate(g, het)  # both nodes finish at t=1
        assert tr.utilization == pytest.approx(1.0)
        assert tr.parallel_efficiency == pytest.approx(1.0)

    def test_heterogeneous_parallel_efficiency_bounded(self):
        het = ClusterSpec(nnodes=3, cores_per_node=2, core_gflops=1.0,
                          bandwidth_Bps=1e9, latency_s=0.0, tile_size=10,
                          node_speeds=(0.5, 1.0, 2.0))
        g = TaskGraph(n_data=3, nnodes=3)
        for d in range(3):
            g.submit(TaskKind.GEMM, d, 0, 0, d, 1e9, (g.current(d),), d)
        tr = simulate(g, het)
        assert 0 < tr.parallel_efficiency <= 1.0
        assert 0 < tr.utilization <= 1.0

    def test_homogeneous_metrics_unchanged(self):
        g = TaskGraph(n_data=1, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        tr = simulate(g, cluster(1, cores=2))
        assert tr.utilization == pytest.approx(0.5)
        assert tr.parallel_efficiency == pytest.approx(0.5)


class TestSchedulerPolicies:
    def _lu_makespan(self, policy, n=12):
        from repro.distribution import TileDistribution
        from repro.dla.lu import build_lu_graph
        from repro.patterns.bc2d import bc2d

        dist = TileDistribution(bc2d(2, 2), n)
        graph, home = build_lu_graph(dist, 10)
        cl = cluster(4, cores=2)
        import dataclasses

        cl = dataclasses.replace(cl, scheduler=policy)
        return simulate(graph, cl, data_home=home).makespan

    def test_all_policies_complete(self):
        times = {p: self._lu_makespan(p) for p in ("priority", "fifo", "lifo")}
        assert all(t > 0 for t in times.values())

    def test_priority_close_to_fifo(self):
        """FIFO inherits the submission order, which is already
        panel-first (the builder emits GETRF/TRSM before GEMMs), so the
        explicit priority queue performs comparably — the interesting
        baseline is LIFO, which inverts that order."""
        assert self._lu_makespan("priority") <= self._lu_makespan("fifo") * 1.2

    def test_lifo_never_helps_comm_bound(self):
        """Running newest-first delays panel broadcasts; in the
        comm-bound regime that costs makespan."""
        from repro.distribution import TileDistribution
        from repro.dla.lu import build_lu_graph
        from repro.patterns.bc2d import bc2d
        import dataclasses

        dist = TileDistribution(bc2d(2, 2), 16)
        graph, home = build_lu_graph(dist, 32)
        times = {}
        for policy in ("priority", "lifo"):
            cl = ClusterSpec(nnodes=4, cores_per_node=2, core_gflops=1.0,
                             bandwidth_Bps=1e7, latency_s=1e-5, tile_size=32,
                             scheduler=policy)
            times[policy] = simulate(graph, cl, data_home=home).makespan
        assert times["priority"] <= times["lifo"]

    def test_invalid_policy(self):
        with pytest.raises(ValueError, match="scheduler"):
            ClusterSpec(nnodes=2, scheduler="stochastic")


class TestForkJoin:
    def _lu(self, fork_join, n=10):
        import dataclasses

        from repro.distribution import TileDistribution
        from repro.dla.lu import build_lu_graph
        from repro.patterns.bc2d import bc2d

        dist = TileDistribution(bc2d(2, 2), n)
        graph, home = build_lu_graph(dist, 16)
        cl = dataclasses.replace(cluster(4, cores=2, tile_size=16),
                                 fork_join=fork_join)
        return graph, simulate(graph, cl, data_home=home, record_tasks=True)

    def test_completes_with_same_messages(self):
        _, a = self._lu(False)
        _, b = self._lu(True)
        assert a.n_tasks == b.n_tasks
        assert a.n_messages == b.n_messages

    def test_fork_join_never_faster(self):
        """A global barrier can only delay work (Section II-C)."""
        _, a = self._lu(False)
        _, b = self._lu(True)
        assert b.makespan >= a.makespan - 1e-12

    def test_no_iteration_overlap_under_fork_join(self):
        from repro.runtime.stats import iteration_overlap

        graph, tr = self._lu(True)
        assert iteration_overlap(tr, graph) == 1

    def test_async_overlaps_iterations(self):
        from repro.runtime.stats import iteration_overlap

        graph, tr = self._lu(False)
        assert iteration_overlap(tr, graph) >= 2

    def test_iterations_strictly_ordered(self):
        graph, tr = self._lu(True)
        # every task of iteration k starts after all of iteration k-1 end
        tid, _, start, end = tr.records.task_columns()
        k = graph.columns.k[tid]
        end_by_iter = np.zeros(k.max() + 1)
        np.maximum.at(end_by_iter, k, end)
        later = k > 0
        assert (start[later] >= end_by_iter[k[later] - 1] - 1e-12).all()


@pytest.mark.slow
class TestLargeGraphSmoke:
    """m = 48 end-to-end smoke on the array hot path (slow).

    Exercises the no-record priority path (integer-coded message keys,
    compiled or in Python) at a size where the old object-based
    preprocessing took seconds, and pins the global invariants the
    golden traces cannot cover at this scale.
    """

    def test_lu_m48_nic(self):
        from repro.cost.schedbounds import makespan_bounds
        from repro.distribution import TileDistribution
        from repro.dla.lu import build_lu_graph, lu_task_count
        from repro.patterns.g2dbc import g2dbc

        P, m = 12, 48
        cl = ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8)
        graph, home = build_lu_graph(TileDistribution(g2dbc(P), m), 8)
        assert len(graph) == lu_task_count(m)
        trace = simulate(graph, cl, data_home=home, network="nic")
        assert trace.makespan >= makespan_bounds(graph, cl).best - 1e-12
        # one message per (version, remote consumer node): the simulator
        # must send exactly what the graph-level count predicts
        assert trace.n_messages == graph.message_count()
        assert trace.busy_time.sum() == pytest.approx(
            graph.total_flops / (cl.core_gflops * 1e9), rel=1e-9)

    def test_cholesky_m48_nic(self):
        from repro.cost.schedbounds import makespan_bounds
        from repro.distribution import TileDistribution
        from repro.dla.cholesky import build_cholesky_graph, cholesky_task_count
        from repro.patterns.sbc import sbc

        P, m = 10, 48
        cl = ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8)
        dist = TileDistribution(sbc(P), m, symmetric=True)
        graph, home = build_cholesky_graph(dist, 8)
        assert len(graph) == cholesky_task_count(m)
        trace = simulate(graph, cl, data_home=home, network="nic")
        assert trace.makespan >= makespan_bounds(graph, cl).best - 1e-12
        assert trace.n_messages == graph.message_count()
        assert trace.busy_time.sum() == pytest.approx(
            graph.total_flops / (cl.core_gflops * 1e9), rel=1e-9)

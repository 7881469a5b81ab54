"""Tests for graph bounds and the collective-communication option."""

import numpy as np
import pytest

from repro.cost.schedbounds import makespan_bounds, schedule_lower_bounds
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.patterns.sbc import sbc
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph, TaskKind
from repro.runtime.network import intra_message_time
from repro.runtime.simulator import simulate


def cluster(nnodes=2, cores=2, bw=1e9, multicast="p2p", speeds=()):
    return ClusterSpec(nnodes=nnodes, cores_per_node=cores, core_gflops=1.0,
                       bandwidth_Bps=bw, latency_s=0.0, tile_size=10,
                       multicast=multicast, node_speeds=speeds)


MSG = 800 / 1e9


class TestCriticalPath:
    def test_empty(self):
        g = TaskGraph(n_data=1, nnodes=1)
        assert makespan_bounds(g, cluster(1)).owner_critical_time == 0.0

    def test_chain(self):
        g = TaskGraph(n_data=1, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 0, 0, 1, 0, 2e9, (g.current(0),), 0)
        assert makespan_bounds(g, cluster(1)).owner_critical_time == \
            pytest.approx(3.0)

    def test_cross_node_edge_adds_message(self):
        g = TaskGraph(n_data=2, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 1, 1e9, (g.current(1), (0, 1)), 1)
        assert makespan_bounds(g, cluster(2)).owner_critical_time == \
            pytest.approx(2.0 + MSG)

    def test_independent_tasks_take_max(self):
        g = TaskGraph(n_data=2, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 0, 5e9, (g.current(1),), 1)
        assert makespan_bounds(g, cluster(1)).owner_critical_time == \
            pytest.approx(5.0)

    def test_heterogeneous_speeds_shorten_path(self):
        g = TaskGraph(n_data=1, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 1, 2e9, (g.current(0),), 0)
        slow = makespan_bounds(g, cluster(2)).owner_critical_time
        fast = makespan_bounds(
            g, cluster(2, speeds=(1.0, 2.0))).owner_critical_time
        assert fast == pytest.approx(slow / 2)


class TestBounds:
    def build(self, pat, n=8):
        dist = TileDistribution(pat, n)
        return build_lu_graph(dist, 10)

    def test_makespan_dominates_all_bounds(self):
        for pat in (bc2d(2, 2), bc2d(4, 1), g2dbc(5)):
            graph, home = self.build(pat)
            cl = cluster(pat.nnodes)
            bounds = makespan_bounds(graph, cl)
            tr = simulate(graph, cl, data_home=home)
            assert tr.makespan >= bounds.work_time - 1e-9
            assert tr.makespan >= bounds.node_work_time - 1e-9
            assert tr.makespan >= bounds.owner_critical_time - 1e-9
            assert tr.makespan >= bounds.best - 1e-9

    def test_per_node_flops_sum(self):
        graph, _ = self.build(bc2d(2, 2))
        cl = cluster(4)
        per_node = np.bincount(graph.columns.node,
                               weights=graph.columns.flops, minlength=4)
        assert per_node.sum() == pytest.approx(graph.total_flops)
        assert makespan_bounds(graph, cl).node_work_time == \
            per_node.max() / cl.node_flops

    def test_node_work_bound_at_least_work_bound(self):
        graph, _ = self.build(bc2d(4, 1))
        bounds = makespan_bounds(graph, cluster(4))
        assert bounds.node_work_time >= bounds.work_time - 1e-12

    def test_limiting_factor_names_a_bound(self):
        graph, home = self.build(bc2d(2, 2))
        cl = cluster(4)
        bounds = makespan_bounds(graph, cl)
        tr = simulate(graph, cl, data_home=home)
        assert bounds.limiting_factor in (
            "work", "node-balance", "owner-critical-path",
        )


class TestHierarchicalBounds:
    """Both makespan lower bounds under the ``hierarchical`` network with
    two ranks per machine, where a message between the ranks of one
    machine takes the faster intra-machine link."""

    def test_same_machine_messages_charged_the_intra_link(self):
        cl = ClusterSpec(nnodes=2, cores_per_node=1, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8,
                         ranks_per_node=2)
        graph, home = build_lu_graph(
            TileDistribution(g2dbc(2), 2, symmetric=False), 8)
        trace = simulate(graph, cl, data_home=home, network="hierarchical")
        assert (len(graph), trace.n_messages) == (5, 2)
        sched = schedule_lower_bounds(graph, cl, data_home=home,
                                      network="hierarchical")
        # both messages leave one rank, each at the intra-link time
        assert sched.comm_time == 2 * intra_message_time(cl)
        assert intra_message_time(cl) == pytest.approx(0.2e-6 + 512 / 4e9)
        bounds = makespan_bounds(graph, cl)
        assert trace.makespan >= bounds.owner_critical_time
        assert trace.makespan >= bounds.best
        trace.sched_bounds = sched
        assert trace.optimality_ratio >= 1.0
        # the topology-blind models keep charging the NIC message time
        nic = schedule_lower_bounds(graph, cl, data_home=home, network="nic")
        assert nic.comm_time == 2 * cl.message_time()

    @pytest.mark.parametrize("tile, rtts", [(90, 1), (91, 3)])
    def test_rendezvous_latency_over_the_eager_threshold(self, tile, rtts):
        # 90² × 8 B = 64.8 kB is eager, 91² × 8 B = 66.2 kB rendezvous
        cl = ClusterSpec(nnodes=2, cores_per_node=1, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=tile,
                         ranks_per_node=2)
        assert intra_message_time(cl) == pytest.approx(
            rtts * 0.2e-6 + cl.tile_bytes / 4e9)
        graph, home = build_lu_graph(
            TileDistribution(g2dbc(2), 2, symmetric=False), tile)
        trace = simulate(graph, cl, data_home=home, network="hierarchical")
        assert trace.makespan >= makespan_bounds(graph, cl).best
        assert trace.makespan >= schedule_lower_bounds(
            graph, cl, data_home=home, network="hierarchical").best


class TestTreeMulticast:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="multicast"):
            cluster(2, multicast="gossip")

    def test_single_consumer_same_as_p2p(self):
        g = TaskGraph(n_data=2, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 1, 1e9, (g.current(1), (0, 1)), 1)
        a = simulate(g, cluster(2, multicast="p2p")).makespan
        b = simulate(g, cluster(2, multicast="tree")).makespan
        assert a == pytest.approx(b)

    def _broadcast_graph(self, fanout):
        g = TaskGraph(n_data=fanout + 1, nnodes=fanout + 1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        for d in range(1, fanout + 1):
            g.submit(TaskKind.GEMM, d, 0, 0, d, 1e9, (g.current(d), (0, 1)), d)
        return g

    def test_tree_beats_p2p_on_wide_broadcast(self):
        g = self._broadcast_graph(8)
        p2p = simulate(g, cluster(9, multicast="p2p")).makespan
        tree = simulate(g, cluster(9, multicast="tree")).makespan
        # 8 serialized sends vs ceil(log2(9)) = 4 rounds
        assert tree < p2p
        assert p2p == pytest.approx(1.0 + 8 * MSG + 1.0)
        assert tree == pytest.approx(1.0 + 4 * MSG + 1.0)

    def test_message_counts_identical(self):
        g = self._broadcast_graph(6)
        a = simulate(g, cluster(7, multicast="p2p"))
        b = simulate(g, cluster(7, multicast="tree"))
        assert a.n_messages == b.n_messages == 6

    def test_lu_tree_no_slower(self):
        dist = TileDistribution(bc2d(4, 1), 8)
        graph, home = build_lu_graph(dist, 10)
        p2p = simulate(graph, cluster(4, multicast="p2p"), data_home=home).makespan
        tree = simulate(graph, cluster(4, multicast="tree"), data_home=home).makespan
        assert tree <= p2p + 1e-12

    def test_cholesky_tree_runs(self):
        dist = TileDistribution(sbc(10), 8, symmetric=True)
        graph, home = build_cholesky_graph(dist, 10)
        tr = simulate(graph, cluster(10, multicast="tree"), data_home=home)
        assert tr.n_tasks == len(graph)

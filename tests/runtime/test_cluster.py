"""Tests for the cluster machine model."""

import numpy as np
import pytest

from repro.runtime.cluster import ClusterSpec, paper_cluster


class TestClusterSpec:
    def test_tile_bytes(self):
        c = ClusterSpec(nnodes=1, tile_size=500)
        assert c.tile_bytes == 2_000_000  # fp64 tiles

    def test_node_flops(self):
        c = ClusterSpec(nnodes=1, cores_per_node=10, core_gflops=2.0)
        assert c.node_flops == 2e10

    def test_task_time(self):
        c = ClusterSpec(nnodes=1, core_gflops=1.0)
        assert c.task_time(5e9) == pytest.approx(5.0)

    def test_task_time_columns(self):
        """Per-task columns: the scalar times elementwise, and the base
        core speed when no node column is given."""
        c = ClusterSpec(nnodes=3, core_gflops=3.0,
                        node_speeds=(0.75, 1.25, 1.75))
        flops = np.array([1e9, 2.5e9, 0.0, 7e8])
        node = np.array([2, 0, 1, 1], dtype=np.int32)
        col = c.task_time(flops, node)
        assert col.tolist() == [c.task_time(f, n) for f, n in
                                zip(flops.tolist(), node.tolist())]
        assert col.tolist() == [f / 3e9 / (0.75, 1.25, 1.75)[n] for f, n in
                                zip(flops.tolist(), node.tolist())]
        assert c.task_time(flops).tolist() == (flops / 3e9).tolist()

    def test_message_time(self):
        c = ClusterSpec(nnodes=1, tile_size=10, bandwidth_Bps=800.0, latency_s=0.25)
        assert c.message_time() == pytest.approx(0.25 + 1.0)

    def test_comm_compute_ratio_decreases_with_bandwidth(self):
        lo = ClusterSpec(nnodes=1, bandwidth_Bps=1e9).comm_compute_ratio()
        hi = ClusterSpec(nnodes=1, bandwidth_Bps=1e10).comm_compute_ratio()
        assert hi < lo

    def test_with_nodes(self):
        c = paper_cluster(4)
        assert c.with_nodes(9).nnodes == 9
        assert c.with_nodes(9).core_gflops == c.core_gflops

    def test_frozen(self):
        c = paper_cluster(4)
        with pytest.raises(Exception):
            c.nnodes = 5

    def test_with_nodes_truncates_heterogeneous_speeds(self):
        # regression: resizing used to carry the full node_speeds tuple,
        # so total_speed() counted ghosts of removed nodes
        c = ClusterSpec(nnodes=4, cores_per_node=1,
                        node_speeds=(1.0, 2.0, 3.0, 4.0))
        small = c.with_nodes(2)
        assert small.node_speeds == (1.0, 2.0)
        assert small.total_speed() == pytest.approx(3.0)

    def test_with_nodes_cycles_heterogeneous_speeds(self):
        c = ClusterSpec(nnodes=2, cores_per_node=1, node_speeds=(1.0, 2.0))
        big = c.with_nodes(5)
        assert big.node_speeds == (1.0, 2.0, 1.0, 2.0, 1.0)
        assert big.total_speed() == pytest.approx(7.0)

    def test_with_nodes_homogeneous_unchanged(self):
        c = paper_cluster(4)
        assert c.with_nodes(9).node_speeds == ()
        assert c.with_nodes(9).total_speed() == pytest.approx(9 * c.cores_per_node)

    def test_with_nodes_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            paper_cluster(4).with_nodes(0)

    @pytest.mark.parametrize("field,value", [
        ("nnodes", 0), ("cores_per_node", 0), ("core_gflops", 0.0),
        ("core_gflops", -1.0), ("bandwidth_Bps", 0.0),
        ("bandwidth_Bps", -1e9), ("latency_s", -1.0), ("tile_size", 0),
    ])
    def test_rejects_impossible_machine(self, field, value):
        # regression: these used to build, then simulate to an infinite,
        # negative or finite-but-meaningless makespan, a deadlock, or a
        # ZeroDivisionError
        kw = {"nnodes": 4, field: value}
        with pytest.raises(ValueError, match=field):
            ClusterSpec(**kw)

    def test_with_nodes_nondivisible_topology(self):
        # 7 ranks packed 4 to a machine → a partial last machine; the
        # resized spec's Topology must agree
        c = ClusterSpec(nnodes=4, ranks_per_node=4)
        topo = c.with_nodes(7).topology()
        assert topo.nranks == 7
        assert topo.nnodes == 2
        assert topo.node_of(6) == 1


class TestPaperCluster:
    def test_matches_platform_description(self):
        c = paper_cluster(44)
        assert c.nnodes == 44
        assert c.cores_per_node == 34  # 36 minus scheduler + MPI cores
        assert c.bandwidth_Bps == 12.5e9  # 100 Gb/s OmniPath
        assert c.tile_size == 500

    def test_tile_size_override(self):
        assert paper_cluster(4, tile_size=320).tile_size == 320

"""End-to-end integration tests across the whole stack.

Each test exercises a full pipeline — pattern construction →
distribution → task graph → (numeric execution | simulation) →
analysis — and checks cross-module invariants that no unit test sees.
"""

import numpy as np
import pytest

from repro.cost.exact import count_cholesky_messages, count_lu_messages
from repro.cost.metrics import q_cholesky, q_lu
from repro.distribution import TileDistribution
from repro.dla import (
    build_cholesky_graph,
    build_lu_graph,
    cholesky_residual,
    diagonally_dominant,
    execute_cholesky,
    execute_lu,
    lu_residual,
    spd_matrix,
)
from repro.patterns import best_pattern, bc2d, g2dbc, gcrm_search, sbc
from repro.runtime import (
    ClusterSpec,
    makespan_bounds,
    memory_footprint,
    simulate,
)


def small_cluster(nnodes, **kw):
    defaults = dict(cores_per_node=2, core_gflops=1.0, bandwidth_Bps=1e9,
                    latency_s=1e-6, tile_size=8)
    defaults.update(kw)
    return ClusterSpec(nnodes=nnodes, **defaults)


class TestFullLuPipeline:
    """pattern -> distribution -> graph == numeric == exact counting."""

    @pytest.mark.parametrize("P", [4, 7, 10, 23])
    def test_three_way_message_agreement(self, P):
        n = 10
        pattern = g2dbc(P)
        dist = TileDistribution(pattern, n)
        graph, home = build_lu_graph(dist, 8)
        graph.validate()

        # 1. simulator message count
        trace = simulate(graph, small_cluster(P), data_home=home)
        # 2. numeric executor log
        log = execute_lu(diagonally_dominant(n, 8, seed=P), dist)
        # 3. analytic exact count
        exact = count_lu_messages(dist)
        assert trace.n_messages == log.n_messages == exact.total

    def test_numeric_correctness_through_any_pattern(self):
        n = 8
        for pattern in (bc2d(3, 2), g2dbc(11), bc2d(6, 1)):
            mat = diagonally_dominant(n, 8, seed=1)
            orig = mat.copy()
            execute_lu(mat, TileDistribution(pattern, n))
            assert lu_residual(orig, mat) < 1e-11

    def test_simulation_respects_bounds_and_conserves_work(self):
        pattern = g2dbc(6)
        dist = TileDistribution(pattern, 9)
        graph, home = build_lu_graph(dist, 8)
        cl = small_cluster(6)
        trace = simulate(graph, cl, data_home=home)
        bounds = makespan_bounds(graph, cl)
        assert trace.makespan >= bounds.best - 1e-12
        assert trace.busy_time.sum() == pytest.approx(
            sum(cl.task_time(f) for f in graph.columns.flops.tolist())
        )


class TestFullCholeskyPipeline:
    @pytest.mark.parametrize("P", [6, 10, 21])
    def test_three_way_message_agreement(self, P):
        n = 9
        pattern = sbc(P) if P in (6, 10, 21) else None
        dist = TileDistribution(pattern, n, symmetric=True)
        graph, home = build_cholesky_graph(dist, 8)
        graph.validate()
        trace = simulate(graph, small_cluster(P), data_home=home)
        log = execute_cholesky(spd_matrix(n, 8, seed=P), dist)
        exact = count_cholesky_messages(dist)
        assert trace.n_messages == log.n_messages == exact.total

    def test_gcrm_end_to_end(self):
        n = 12
        res = gcrm_search(13, seeds=range(6), max_factor=3.0)
        dist = TileDistribution(res.pattern, n, symmetric=True)
        mat = spd_matrix(n, 8, seed=0)
        orig = mat.copy()
        log = execute_cholesky(mat, dist)
        assert cholesky_residual(orig, mat) < 1e-11
        # the better the pattern cost, the fewer the messages (sanity
        # via closed form with generous tolerance)
        assert log.n_messages <= q_cholesky(res.pattern, n) * 1.35 + n

    def test_best_pattern_api_end_to_end(self):
        pat = best_pattern(12, "cholesky", seeds=range(5), max_factor=3.0)
        dist = TileDistribution(pat, 10, symmetric=True)
        graph, home = build_cholesky_graph(dist, 8)
        trace = simulate(graph, small_cluster(12), data_home=home)
        assert trace.n_tasks == len(graph)


class TestCrossPatternOrdering:
    """The paper's core claim, end to end: lower T(G) -> fewer messages
    -> (at comm-bound operating points) shorter makespan."""

    def test_lu_cost_message_makespan_chain(self):
        n = 16
        comm_bound = dict(bandwidth_Bps=2e7)  # starve the network
        results = {}
        for pattern in (g2dbc(23), bc2d(23, 1)):
            dist = TileDistribution(pattern, n)
            graph, home = build_lu_graph(dist, 8)
            trace = simulate(graph, small_cluster(23, **comm_bound), data_home=home)
            results[pattern.name] = (pattern.cost_lu, trace.n_messages, trace.makespan)
        good = results["G-2DBC 20x23 (P=23)"]
        bad = results["2DBC 23x1"]
        assert good[0] < bad[0]      # cost metric
        assert good[1] < bad[1]      # messages
        assert good[2] < bad[2]      # simulated time

    def test_cholesky_symmetric_patterns_send_less(self):
        """SBC's volume advantage holds end-to-end (makespan parity or
        better only materializes at larger scales — see EXPERIMENTS.md
        deviation 3; here we assert the communication claim)."""
        n = 24
        def run(pattern):
            dist = TileDistribution(pattern, n, symmetric=True)
            graph, home = build_cholesky_graph(dist, 8)
            return simulate(graph, small_cluster(36), data_home=home)
        t_sbc = run(sbc(36))
        t_bc = run(bc2d(6, 6))
        assert t_sbc.n_messages < 0.9 * t_bc.n_messages
        assert t_sbc.bytes_sent < t_bc.bytes_sent
        # per-node peak send load is also lower
        assert t_sbc.sent_messages.max() <= t_bc.sent_messages.max()

    def test_memory_follows_communication(self):
        """More partners => more cached remote tiles (same matrix)."""
        n = 12
        mems = []
        for pattern in (g2dbc(23), bc2d(23, 1)):
            dist = TileDistribution(pattern, n)
            graph, home = build_lu_graph(dist, 8)
            mems.append(memory_footprint(graph, small_cluster(23), home).overhead())
        assert mems[0] < mems[1]


class TestEdgeSizes:
    def test_one_tile_matrix(self):
        dist = TileDistribution(bc2d(2, 2), 1)
        graph, home = build_lu_graph(dist, 8)
        trace = simulate(graph, small_cluster(4), data_home=home)
        assert trace.n_tasks == 1
        assert trace.n_messages == 0

    def test_matrix_smaller_than_pattern(self):
        pattern = g2dbc(23)  # 20x23 pattern
        dist = TileDistribution(pattern, 5)  # 5x5 matrix
        graph, home = build_lu_graph(dist, 8)
        trace = simulate(graph, small_cluster(23), data_home=home)
        exact = count_lu_messages(dist)
        assert trace.n_messages == exact.total

    def test_single_node_everything_local(self):
        dist = TileDistribution(bc2d(1, 1), 7)
        graph, home = build_lu_graph(dist, 8)
        trace = simulate(graph, small_cluster(1), data_home=home)
        assert trace.n_messages == 0
        mat = diagonally_dominant(7, 8, seed=0)
        orig = mat.copy()
        execute_lu(mat, dist)
        assert lu_residual(orig, mat) < 1e-12

"""Tests for the tiled LU builder and executor."""

import numpy as np
import pytest
import scipy.linalg

from repro.distribution import TileDistribution
from repro.dla.lu import build_lu_graph, execute_lu, lu_task_count
from repro.dla.tiles import diagonally_dominant
from repro.dla.verify import lu_residual, split_lu
from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.runtime.graph import TaskKind


class TestNumericExecution:
    def test_residual_small(self):
        m = diagonally_dominant(5, 6, seed=0)
        orig = m.copy()
        execute_lu(m)
        assert lu_residual(orig, m) < 1e-12

    def test_matches_scipy(self):
        m = diagonally_dominant(4, 5, seed=1)
        a = m.data.copy()
        execute_lu(m)
        p, l, u = scipy.linalg.lu(a)
        assert np.allclose(p, np.eye(20))  # no pivoting needed
        L, U = split_lu(m.data)
        assert np.allclose(L, l, atol=1e-10)
        assert np.allclose(U, u, atol=1e-10)

    def test_distribution_does_not_change_result(self):
        m1 = diagonally_dominant(5, 4, seed=2)
        m2 = m1.copy()
        execute_lu(m1)
        execute_lu(m2, TileDistribution(bc2d(2, 3), 5))
        assert np.array_equal(m1.data, m2.data)

    def test_single_tile(self):
        m = diagonally_dominant(1, 6, seed=3)
        orig = m.copy()
        execute_lu(m)
        assert lu_residual(orig, m) < 1e-13

    def test_message_log_zero_on_single_node(self):
        m = diagonally_dominant(4, 4, seed=4)
        log = execute_lu(m, TileDistribution(bc2d(1, 1), 4))
        assert log.n_messages == 0


class TestGraphBuilder:
    def test_task_count(self):
        for n in (1, 2, 5, 8):
            dist = TileDistribution(bc2d(2, 2), n)
            graph, _ = build_lu_graph(dist, 4)
            assert len(graph) == lu_task_count(n)

    def test_task_count_formula(self):
        # n getrf + 2·n(n-1)/2 trsm + Σ_k (n-1-k)² = n(n-1)(2n-1)/6 gemm
        for n in range(1, 20):
            assert lu_task_count(n) == (
                n + n * (n - 1) + sum((n - 1 - k) ** 2 for k in range(n)))

    def test_per_kind_counts_match_closed_form(self):
        n = 9
        graph, _ = build_lu_graph(TileDistribution(g2dbc(5), n), 4)
        kinds = graph.columns.kind
        assert (kinds == TaskKind.GETRF).sum() == n
        assert (kinds == TaskKind.TRSM).sum() == n * (n - 1)
        assert (kinds == TaskKind.GEMM).sum() == n * (n - 1) * (2 * n - 1) // 6
        assert len(graph) == lu_task_count(n)

    def test_graph_validates(self):
        dist = TileDistribution(g2dbc(7), 9)
        graph, _ = build_lu_graph(dist, 4)
        graph.validate()

    def test_owner_computes(self):
        dist = TileDistribution(bc2d(2, 3), 7)
        graph, _ = build_lu_graph(dist, 4)
        n = dist.n_tiles
        for t in map(graph.task, range(len(graph))):
            assert t.node == dist.owner(t.i, t.j)
            assert t.write[0] == t.i * n + t.j

    def test_kind_sequence(self):
        dist = TileDistribution(bc2d(2, 2), 3)
        graph, _ = build_lu_graph(dist, 4)
        kinds = [TaskKind(k) for k in graph.columns.kind.tolist()]
        assert kinds[0] == TaskKind.GETRF
        assert TaskKind.GEMM in kinds
        assert TaskKind.POTRF not in kinds

    def test_total_flops(self):
        dist = TileDistribution(bc2d(2, 2), 4)
        graph, _ = build_lu_graph(dist, 10)
        # 4 getrf + 12 trsm + 14 gemm (sum over iterations)
        from repro.dla.kernels import flops_gemm, flops_getrf, flops_trsm

        expected = 4 * flops_getrf(10) + 12 * flops_trsm(10) + 14 * flops_gemm(10)
        assert graph.total_flops == pytest.approx(expected)

    def test_rejects_symmetric_distribution(self):
        with pytest.raises(ValueError):
            build_lu_graph(TileDistribution(bc2d(2, 2), 4, symmetric=True), 4)

    def test_data_home_matches_owners(self):
        dist = TileDistribution(bc2d(2, 3), 6)
        _, home = build_lu_graph(dist, 4)
        assert (home.reshape(6, 6) == dist.owners).all()


class TestMessageConsistency:
    def test_graph_count_equals_executor_log(self):
        for pat, n in [(bc2d(2, 3), 7), (g2dbc(5), 8), (bc2d(4, 1), 6)]:
            dist = TileDistribution(pat, n)
            graph, _ = build_lu_graph(dist, 4)
            log = execute_lu(diagonally_dominant(n, 4, seed=0), dist)
            assert graph.message_count() == log.n_messages

    def test_better_pattern_fewer_messages(self):
        n = 12
        good = TileDistribution(g2dbc(23), n)
        bad = TileDistribution(bc2d(23, 1), n)
        g1, _ = build_lu_graph(good, 4)
        g2, _ = build_lu_graph(bad, 4)
        assert g1.message_count() < g2.message_count()

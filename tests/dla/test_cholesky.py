"""Tests for the tiled Cholesky builder and executor."""

import numpy as np
import pytest
import scipy.linalg

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph, cholesky_task_count, execute_cholesky
from repro.dla.tiles import spd_matrix
from repro.dla.verify import cholesky_residual, extract_lower
from repro.patterns.bc2d import bc2d
from repro.patterns.gcrm import gcrm
from repro.patterns.sbc import sbc
from repro.runtime.graph import TaskKind


class TestNumericExecution:
    def test_residual_small(self):
        m = spd_matrix(5, 6, seed=0)
        orig = m.copy()
        execute_cholesky(m)
        assert cholesky_residual(orig, m) < 1e-12

    def test_matches_scipy(self):
        m = spd_matrix(4, 5, seed=1)
        a = m.data.copy()
        execute_cholesky(m)
        ref = scipy.linalg.cholesky(a, lower=True)
        assert np.allclose(extract_lower(m.data), ref, atol=1e-10)

    def test_distribution_does_not_change_result(self):
        m1 = spd_matrix(6, 4, seed=2)
        m2 = m1.copy()
        execute_cholesky(m1)
        execute_cholesky(m2, TileDistribution(sbc(10), 6, symmetric=True))
        assert np.array_equal(np.tril(m1.data), np.tril(m2.data))

    def test_single_tile(self):
        m = spd_matrix(1, 5, seed=3)
        orig = m.copy()
        execute_cholesky(m)
        assert cholesky_residual(orig, m) < 1e-13

    def test_gcrm_distribution_works(self):
        m = spd_matrix(8, 4, seed=4)
        orig = m.copy()
        dist = TileDistribution(gcrm(7, 6, seed=0).pattern, 8, symmetric=True)
        log = execute_cholesky(m, dist)
        assert cholesky_residual(orig, m) < 1e-12
        assert log.n_messages > 0


class TestGraphBuilder:
    def test_task_count(self):
        for n in (1, 2, 5, 8):
            dist = TileDistribution(bc2d(2, 2), n, symmetric=True)
            graph, _ = build_cholesky_graph(dist, 4)
            assert len(graph) == cholesky_task_count(n)

    def test_task_count_formula(self):
        # n potrf + n(n-1)/2 trsm + n(n-1)/2 syrk + C(n,3) gemm... closed check
        assert cholesky_task_count(1) == 1
        assert cholesky_task_count(2) == 4  # potrf x2, trsm, syrk
        assert cholesky_task_count(3) == 10

    def test_per_kind_counts_match_closed_form(self):
        n = 9
        dist = TileDistribution(sbc(10), n, symmetric=True)
        graph, _ = build_cholesky_graph(dist, 4)
        kinds = graph.columns.kind
        assert (kinds == TaskKind.POTRF).sum() == n
        assert (kinds == TaskKind.TRSM).sum() == n * (n - 1) // 2
        assert (kinds == TaskKind.SYRK).sum() == n * (n - 1) // 2
        assert (kinds == TaskKind.GEMM).sum() == n * (n - 1) * (n - 2) // 6
        assert len(graph) == cholesky_task_count(n)

    def test_graph_validates(self):
        dist = TileDistribution(sbc(10), 9, symmetric=True)
        graph, _ = build_cholesky_graph(dist, 4)
        graph.validate()

    def test_owner_computes(self):
        dist = TileDistribution(sbc(10), 7, symmetric=True)
        graph, _ = build_cholesky_graph(dist, 4)
        for t in map(graph.task, range(len(graph))):
            assert t.i >= t.j  # lower triangle only
            assert t.node == dist.owner(t.i, t.j)

    def test_kind_sequence(self):
        dist = TileDistribution(bc2d(2, 2), 4, symmetric=True)
        graph, _ = build_cholesky_graph(dist, 4)
        kinds = set(map(TaskKind, graph.columns.kind.tolist()))
        assert kinds == {TaskKind.POTRF, TaskKind.TRSM, TaskKind.SYRK, TaskKind.GEMM}

    def test_rejects_full_distribution(self):
        with pytest.raises(ValueError):
            build_cholesky_graph(TileDistribution(bc2d(2, 2), 4), 4)


class TestMessageConsistency:
    def test_graph_count_equals_executor_log(self):
        for pat, n in [(sbc(10), 8), (bc2d(3, 3), 7), (gcrm(7, 6, seed=2).pattern, 8)]:
            dist = TileDistribution(pat, n, symmetric=True)
            graph, _ = build_cholesky_graph(dist, 4)
            log = execute_cholesky(spd_matrix(n, 4, seed=0), dist)
            assert graph.message_count() == log.n_messages

    def test_sbc_beats_2dbc_on_messages(self):
        """The headline claim of [3]: symmetric patterns send fewer
        tiles than the square 2DBC with a similar node count."""
        n = 18
        sbc_dist = TileDistribution(sbc(36), n, symmetric=True)
        bc_dist = TileDistribution(bc2d(6, 6), n, symmetric=True)
        g1, _ = build_cholesky_graph(sbc_dist, 4)
        g2, _ = build_cholesky_graph(bc_dist, 4)
        assert g1.message_count() < g2.message_count()

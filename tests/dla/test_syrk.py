"""Tests for the tiled SYRK kernel (the paper's second symmetric op)."""

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.syrk import build_syrk_graph, execute_syrk, q_syrk, syrk_task_count
from repro.dla.tiles import TiledMatrix
from repro.patterns.bc2d import bc2d
from repro.patterns.gcrm import gcrm
from repro.patterns.sbc import sbc
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate


def make_inputs(n, k, b, seed=0):
    rng = np.random.default_rng(seed)
    c = TiledMatrix(rng.uniform(-1, 1, (n * b, n * b)), b)
    c.data[:] = (c.data + c.data.T) / 2
    a = rng.uniform(-1, 1, (n * b, k * b))
    return c, a


class TestNumeric:
    def test_matches_numpy(self):
        c, a = make_inputs(4, 3, 5)
        ref = c.data - a @ a.T
        execute_syrk(c, a, 5)
        assert np.allclose(np.tril(c.data), np.tril(ref), atol=1e-12)

    def test_upper_triangle_untouched_off_diagonal(self):
        c, a = make_inputs(3, 2, 4)
        before = c.data.copy()
        execute_syrk(c, a, 4)
        # strictly-upper tiles are never written
        assert np.array_equal(c.data[:4, 8:], before[:4, 8:])

    def test_distribution_does_not_change_result(self):
        c1, a = make_inputs(5, 2, 4, seed=1)
        c2 = c1.copy()
        execute_syrk(c1, a, 4)
        execute_syrk(c2, a, 4, TileDistribution(sbc(10), 5, symmetric=True))
        assert np.array_equal(np.tril(c1.data), np.tril(c2.data))

    def test_shape_validation(self):
        c, a = make_inputs(3, 2, 4)
        with pytest.raises(ValueError):
            execute_syrk(c, a[:-1], 4)


class TestGraph:
    def test_task_count(self):
        dist = TileDistribution(bc2d(2, 2), 5, symmetric=True)
        graph, home, _ = build_syrk_graph(dist, 4, k_tiles=3)
        assert len(graph) == syrk_task_count(5, 3)
        graph.validate()

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            build_syrk_graph(TileDistribution(bc2d(2, 2), 4), 4, 2)

    def test_owner_computes(self):
        dist = TileDistribution(sbc(10), 6, symmetric=True)
        graph, _, _ = build_syrk_graph(dist, 4, k_tiles=2)
        for t in map(graph.task, range(len(graph))):
            assert t.node == dist.owner(t.i, t.j)

    def test_simulates(self):
        dist = TileDistribution(sbc(10), 6, symmetric=True)
        graph, home, _ = build_syrk_graph(dist, 8, k_tiles=3)
        cl = ClusterSpec(nnodes=10, cores_per_node=2, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=0.0, tile_size=8)
        tr = simulate(graph, cl, data_home=home)
        assert tr.n_tasks == len(graph)
        assert tr.n_messages > 0


class TestCommunication:
    def test_executor_log_close_to_closed_form(self):
        n, k = 10, 4
        pat = sbc(10)
        dist = TileDistribution(pat, n, symmetric=True)
        c, a = make_inputs(n, k, 4)
        log = execute_syrk(c, a, 4, dist)
        predicted = q_syrk(pat, n, k)
        # diagonal-tile placement introduces O(n k / r) slack
        assert log.n_messages == pytest.approx(predicted, rel=0.25)

    def test_symmetric_pattern_beats_2dbc(self):
        """SBC's raison d'être (paper [3], Section II-A): ~sqrt(2) fewer
        messages than square 2DBC for SYRK."""
        n, k = 12, 4
        c1, a = make_inputs(n, k, 4, seed=2)
        c2 = c1.copy()
        log_sbc = execute_syrk(c1, a, 4, TileDistribution(sbc(36), n, symmetric=True))
        log_bc = execute_syrk(c2, a, 4, TileDistribution(bc2d(6, 6), n, symmetric=True))
        assert log_sbc.n_messages < log_bc.n_messages

    def test_gcrm_competitive_with_sbc(self):
        n, k = 12, 4
        pat = gcrm(21, 7, seed=3).pattern
        c1, a = make_inputs(n, k, 4, seed=3)
        c2 = c1.copy()
        log_g = execute_syrk(c1, a, 4, TileDistribution(pat, n, symmetric=True))
        log_s = execute_syrk(c2, a, 4, TileDistribution(sbc(21), n, symmetric=True))
        assert log_g.n_messages <= 1.4 * log_s.n_messages

    def test_q_syrk_formula(self):
        pat = sbc(21)  # z̄ = 6
        assert q_syrk(pat, 10, 3) == 10 * 3 * 5

"""Tests for the experiment harness: one run, and a figure's grid of
runs as campaign cells."""

import pytest

from repro.experiments.campaign import CampaignCell, run_campaign
from repro.experiments.figures import performance_figure
from repro.experiments.harness import run_factorization
from repro.experiments.machine import sim_cluster
from repro.patterns.bc2d import bc2d
from repro.patterns.sbc import sbc
from repro.runtime.cluster import ClusterSpec


class TestRunFactorization:
    def test_lu_run(self):
        tr = run_factorization(bc2d(2, 2), 8, "lu", tile_size=100)
        assert tr.makespan > 0
        assert tr.n_tasks == 8 + 2 * 28 + sum((7 - k) ** 2 for k in range(8))

    def test_cholesky_run(self):
        tr = run_factorization(sbc(10), 8, "cholesky", tile_size=100)
        assert tr.makespan > 0
        assert tr.gflops > 0

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            run_factorization(bc2d(2, 2), 4, "qr")

    def test_cluster_grown_to_pattern(self):
        small = ClusterSpec(nnodes=1, cores_per_node=2, core_gflops=1.0,
                            tile_size=10)
        tr = run_factorization(bc2d(2, 2), 6, "lu", cluster=small, tile_size=10)
        assert tr.cluster.nnodes == 4

    def test_cluster_tile_size_must_match(self):
        """The graph's flops and the cluster's messages share one tile:
        a cluster of 500-wide tiles cannot run a 10-wide graph."""
        cl = ClusterSpec(nnodes=4, cores_per_node=2, core_gflops=1.0)
        with pytest.raises(ValueError, match="tile_size=10 .*tile_size=500"):
            run_factorization(bc2d(2, 2), 6, "lu", cluster=cl, tile_size=10)

    def test_default_cluster_is_simulation_model(self):
        tr = run_factorization(bc2d(2, 2), 6, "lu", tile_size=100)
        ref = sim_cluster(4, tile_size=100)
        assert tr.cluster == ref


class TestSweep:
    """A figure's sweep of series over sizes: one campaign cell each."""

    def test_rows_structure(self):
        res = performance_figure("F", "demo", [("a", "2dbc", 4)], [6, 8],
                                 "lu", tile_size=100)
        assert len(res.rows) == len(res.runs) == 2
        assert list(res.rows[0]) == [
            "label", "kernel", "P", "n_tiles", "matrix_size",
            "pattern_cost", "makespan_s", "gflops", "gflops_per_node",
            "n_messages", "utilization"]
        assert res.rows[0]["matrix_size"] == 600
        assert res.rows[0]["P"] == 4
        assert res.rows[0]["pattern_cost"] == 4.0
        assert "runs" not in res.render()

    def test_multiple_patterns(self):
        res = performance_figure("F", "demo", [("a", "2dbc", 4),
                                               ("b", "g2dbc", 5)],
                                 [6, 8], "lu", tile_size=100)
        assert [r["label"] for r in res.rows] == ["a", "a", "b", "b"]
        assert [(r.family, r.m) for r in res.runs] == [
            ("2dbc", 6), ("2dbc", 8), ("g2dbc", 6), ("g2dbc", 8)]

    def test_worse_pattern_more_messages(self):
        good = run_factorization(bc2d(2, 2), 12, "lu", tile_size=100)
        bad = run_factorization(bc2d(4, 1), 12, "lu", tile_size=100)
        assert good.n_messages < bad.n_messages

    def test_network_forwarded(self):
        # each cell simulates under its own network: "nic" is the
        # default run, and "contention" moves the makespan
        nic, cont = run_campaign(
            [CampaignCell("2dbc", "lu", 4, 8, network=net)
             for net in ("nic", "contention")], tile_size=100)
        base = run_factorization(bc2d(2, 2), 8, "lu", tile_size=100)
        assert nic.makespan_s == base.makespan
        assert cont.makespan_s != nic.makespan_s

    def test_network_matches_direct_run(self):
        row, = run_campaign([CampaignCell("2dbc", "lu", 4, 8,
                                          network="contention")],
                            tile_size=100)
        tr = run_factorization(bc2d(2, 2), 8, "lu", tile_size=100,
                               network="contention")
        assert row.makespan_s == tr.makespan


class TestFaultedRuns:
    def test_run_factorization_with_faults(self):
        base = run_factorization(bc2d(2, 2), 8, "lu", tile_size=100)
        tr = run_factorization(bc2d(2, 2), 8, "lu", tile_size=100,
                               faults=f"fail:1@{base.makespan / 3:g}")
        assert tr.fault_stats is not None
        assert tr.fault_stats.failed_nodes == (1,)
        assert tr.makespan >= base.makespan
        assert tr.n_tasks == base.n_tasks

    def test_empty_faults_spec_is_fault_free(self):
        base = run_factorization(bc2d(2, 2), 8, "lu", tile_size=100)
        tr = run_factorization(bc2d(2, 2), 8, "lu", tile_size=100, faults="")
        assert tr.fault_stats is None
        assert tr.to_canonical() == base.to_canonical()

"""Two-level ``"hierarchical"`` network model + bisection plumbing.

The model's contract, in order of importance:

* with ``ranks_per_node == 1`` its event arithmetic reduces *exactly*
  to the parent ``"contention"`` model — canonical dumps match modulo
  the recorded model name (nothing else may drift);
* per-level accounting is conservative: intra + inter equals the flat
  totals for both bytes and message counts;
* repeated runs are deterministic;
* the full-bisection capacity is sized by machines (ranks for the flat
  ``"contention"`` model) and echoed back through :class:`NetworkStats`.
"""

import dataclasses

import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.network import NETWORK_MODELS, HierarchicalModel
from repro.runtime.simulator import simulate
from repro.runtime.stats import comm_breakdown

TILE = 8


def cluster(P, **kw):
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE,
                       **kw)


def lu_case(P=7, m=12):
    dist = TileDistribution(g2dbc(P), m, symmetric=False)
    return build_lu_graph(dist, TILE)


def chol_case(P=7, m=12):
    pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
    dist = TileDistribution(pat, m, symmetric=True)
    return build_cholesky_graph(dist, TILE)


class TestRegistration:
    def test_registered(self):
        assert "hierarchical" in NETWORK_MODELS
        assert NETWORK_MODELS["hierarchical"] is HierarchicalModel


class TestFlatDegeneracy:
    @pytest.mark.parametrize("case", [lu_case, chol_case])
    def test_rpn1_matches_contention_modulo_name(self, case):
        graph, home = case()
        t_c = simulate(graph, cluster(7), data_home=home,
                       record_tasks=True, network="contention")
        t_h = simulate(graph, cluster(7), data_home=home,
                       record_tasks=True, network="hierarchical")
        a, b = t_c.to_canonical(), t_h.to_canonical()
        diff = {k for k in a if a[k] != b.get(k)}
        assert diff == {"network"}
        assert b["network"] == "hierarchical"


class TestPerLevelAccounting:
    def run(self, rpn=2, P=7, m=12):
        graph, home = lu_case(P, m)
        return simulate(graph, cluster(P, ranks_per_node=rpn),
                        data_home=home, record_tasks=True,
                        network="hierarchical")

    def test_conservation(self):
        t = self.run()
        ns = t.net_stats
        assert ns.intra_msgs + ns.inter_msgs == t.n_messages
        assert (ns.intra_bytes + ns.inter_bytes
                == pytest.approx(float(ns.bytes_sent.sum())))
        assert ns.intra_bytes > 0 and ns.inter_bytes > 0

    def test_message_split_matches_topology(self):
        t = self.run(rpn=3)
        rpn = t.cluster.ranks_per_node
        _, _, src, dst, *_ = t.records.msg_columns()
        inter = int((src // rpn != dst // rpn).sum())
        assert t.net_stats.inter_msgs == inter
        assert t.net_stats.intra_msgs == t.n_messages - inter

    def test_deterministic(self):
        assert self.run().to_canonical() == self.run().to_canonical()

    def test_stats_echo_ranks_per_node(self):
        assert self.run(rpn=2).net_stats.ranks_per_node == 2
        graph, home = lu_case()
        flat = simulate(graph, cluster(7), data_home=home,
                        network="contention")
        assert flat.net_stats.ranks_per_node == 1

    def test_intra_link_time_accumulates(self):
        t = self.run()
        assert t.net_stats.intra_link_busy > 0
        assert t.net_stats.link_busy > 0


class TestCommBreakdown:
    def test_hier_keys_only_when_hierarchical(self):
        graph, home = lu_case()
        t_flat = simulate(graph, cluster(7), data_home=home,
                          network="contention")
        t_hier = simulate(graph, cluster(7, ranks_per_node=2),
                          data_home=home, network="hierarchical")
        flat_cb = comm_breakdown(t_flat)
        hier_cb = comm_breakdown(t_hier)
        for key in ("ranks_per_node", "intra_bytes", "inter_bytes",
                    "inter_byte_fraction", "intra_link_busy_fraction"):
            assert key not in flat_cb
            assert key in hier_cb
        assert 0.0 < hier_cb["inter_byte_fraction"] < 1.0


class TestBisection:
    def test_default_value_echoed(self):
        graph, home = lu_case()
        t = simulate(graph, cluster(7), data_home=home,
                     network="contention")
        assert t.net_stats.bisection_Bps == 1e9 * max(1.0, 7 / 2.0)

    def test_hierarchical_sized_by_machines(self):
        # 7 ranks, 2 per machine: 4 machines share the inter-node link
        graph, home = lu_case()
        t = simulate(graph, cluster(7, ranks_per_node=2), data_home=home,
                     network="hierarchical")
        assert t.net_stats.bisection_Bps == 1e9 * 2.0

    def test_campaign_row_carries_bisection(self):
        from repro.experiments.campaign import CampaignRow

        row_fields = {f.name for f in dataclasses.fields(CampaignRow)}
        assert "bisection_Bps" in row_fields

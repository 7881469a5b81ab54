"""Tests for the elastic-resize phase (drain → migrate → resume)."""

import json
import math

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.library import shipped_pattern
from repro.patterns.g2dbc import g2dbc
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph
from repro.runtime.resize import (
    MigrationStats,
    ResizeEvent,
    parse_resize,
    simulate_with_resize,
)
from repro.runtime.simulator import SimulationError, simulate
from repro.runtime.stats import comm_breakdown, migration_breakdown

TILE = 8


def _cluster(P):
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE)


def _case(P, m=10, kernel="lu"):
    pat = shipped_pattern(P, kernel)
    if kernel == "lu":
        dist = TileDistribution(pat, m, symmetric=False)
        graph, home = build_lu_graph(dist, TILE)
    else:
        dist = TileDistribution(pat, m, symmetric=True)
        graph, home = build_cholesky_graph(dist, TILE)
    return graph, home, _cluster(P)


class TestParseResize:
    def test_basic(self):
        ev = parse_resize("31@0.05")
        assert ev == ResizeEvent(time=0.05, nnodes=31)

    def test_scientific_time(self):
        assert parse_resize("9@5e-2").time == pytest.approx(0.05)

    def test_empty_and_none_are_none(self):
        assert parse_resize("") is None
        assert parse_resize("   ") is None
        assert parse_resize(None) is None

    def test_event_passthrough(self):
        ev = ResizeEvent(time=0.1, nnodes=9)
        assert parse_resize(ev) is ev

    @pytest.mark.parametrize("bad", ["31", "@0.05", "31@", "a@b", "31@-1",
                                     "31@0.05,7@0.1"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError, match="resize spec"):
            parse_resize(bad)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="time"):
            ResizeEvent(time=-0.1, nnodes=9)
        with pytest.raises(ValueError, match="nnodes"):
            ResizeEvent(time=0.1, nnodes=0)


class TestIdentityResize:
    def test_byte_identical_to_plain_run(self):
        # a P→P resize onto the same pattern moves nothing and must not
        # perturb the trace at all — the golden-trace contract
        graph, home, cluster = _case(7)
        plain = simulate(graph, cluster, data_home=home)
        resized = simulate(graph, cluster, data_home=home, resize="7@3e-5")
        assert resized.resize_stats is None
        assert json.dumps(resized.to_canonical(), sort_keys=True) == \
            json.dumps(plain.to_canonical(), sort_keys=True)

    def test_no_migration_stats_means_breakdown_raises(self):
        graph, home, cluster = _case(7)
        trace = simulate(graph, cluster, data_home=home, resize="7@3e-5")
        with pytest.raises(ValueError, match="unresized"):
            migration_breakdown(trace)


class TestResizeRun:
    def test_grow_lu(self):
        graph, home, cluster = _case(7, m=10)
        trace = simulate(graph, cluster, data_home=home, resize="9@3e-5")
        rs = trace.resize_stats
        assert rs is not None
        assert (rs.P_src, rs.P_dst) == (7, 9)
        assert trace.cluster.nnodes == 9
        assert rs.tiles_moved > 0
        assert rs.tiles_moved <= rs.tiles_moved_identity
        assert rs.tasks_done + rs.tasks_remaining == graph.columns.n_tasks
        assert rs.drain_s >= 3e-5
        assert rs.migration_s >= rs.plan.lower_bound_s - 1e-12
        assert trace.makespan >= rs.drain_s + rs.migration_s

    def test_shrink_keeps_physical_node_space(self):
        # retired nodes keep their ids (they just get no work), matching
        # the fault machinery's convention
        graph, home, cluster = _case(9, m=10)
        trace = simulate(graph, cluster, data_home=home, resize="5@3e-5")
        rs = trace.resize_stats
        assert (rs.P_src, rs.P_dst) == (9, 5)
        assert trace.cluster.nnodes == 9
        assert len(trace.busy_time) == 9

    def test_cholesky_contention(self):
        graph, home, cluster = _case(7, m=10, kernel="cholesky")
        trace = simulate(graph, cluster, data_home=home,
                         network="contention", resize="11@2e-5")
        rs = trace.resize_stats
        assert rs.P_dst == 11
        assert trace.network == "contention"
        assert comm_breakdown(trace)["model"] == "contention"

    @pytest.mark.parametrize("tile", [8, 100])
    @pytest.mark.parametrize("rpn", [1, 2, 3])
    def test_stats_count_the_drained_prefix(self, rpn, tile):
        """Every message of a resized contention-family run, the ones
        sent before the resize included, is eager (tile 8) or
        rendezvous (tile 100), and crosses the bisection link or stays
        inside a machine."""
        dist = TileDistribution(shipped_pattern(7, "lu"), 10, symmetric=False)
        graph, home = build_lu_graph(dist, tile)
        cluster = ClusterSpec(nnodes=7, cores_per_node=2, core_gflops=1.0,
                              bandwidth_Bps=1e9, latency_s=1e-6,
                              tile_size=tile, ranks_per_node=rpn)
        for network in ("contention", "hierarchical"):
            half = simulate(graph, cluster, data_home=home,
                            network=network).makespan / 2
            trace = simulate(graph, cluster, data_home=home,
                             network=network, resize=f"9@{half!r}")
            net = trace.net_stats
            assert trace.resize_stats.tasks_done > 0
            assert net.n_eager + net.n_rendezvous == trace.n_messages
            assert (net.n_eager if tile == 8 else net.n_rendezvous) \
                == trace.n_messages
            if network == "contention":
                assert net.link_bytes == net.bytes_sent.sum()
            else:
                assert net.inter_msgs + net.intra_msgs == trace.n_messages
                assert net.inter_bytes + net.intra_bytes \
                    == net.bytes_sent.sum()
                assert net.link_bytes == net.inter_bytes

    @pytest.mark.parametrize("network,rpn", [
        ("contention", 1), ("hierarchical", 2)])
    def test_drained_prefix_keeps_its_link_occupancy(self, network, rpn):
        """A grow resize at the plain run's makespan drains the whole
        plain run, so its links are busy at least as long as the plain
        run's: the prefix's flows count in ``link_busy`` and
        ``intra_link_busy``, not only the migration's."""
        dist = TileDistribution(g2dbc(7), 10, symmetric=False)
        graph, home = build_lu_graph(dist, TILE)
        cluster = ClusterSpec(nnodes=7, cores_per_node=2, core_gflops=1.0,
                              bandwidth_Bps=1e9, latency_s=1e-6,
                              tile_size=TILE, ranks_per_node=rpn)
        plain = simulate(graph, cluster, data_home=home, network=network)
        resized = simulate(graph, cluster, data_home=home, network=network,
                           resize=f"9@{plain.makespan!r}")
        assert resized.resize_stats.tasks_remaining == 0
        net, ref = resized.net_stats, plain.net_stats
        assert net.link_busy >= ref.link_busy > 0
        if rpn > 1:
            assert net.intra_link_busy >= ref.intra_link_busy > 0

    @pytest.mark.parametrize("P,P2,rpn", [(8, 12, 2), (12, 16, 4)])
    def test_hierarchical_prediction_matches_replay(self, P, P2, rpn):
        # regression: the prediction sized the inter-machine bisection
        # by ranks while the model sizes it by machines, so replays
        # took 1.9x and 4.0x the predicted time here
        dist = TileDistribution(shipped_pattern(P, "lu"), 16, symmetric=False)
        graph, home = build_lu_graph(dist, 500)
        cluster = ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                              bandwidth_Bps=1e9, latency_s=1e-6,
                              tile_size=500, ranks_per_node=rpn)
        trace = simulate(graph, cluster, data_home=home,
                         network="hierarchical", resize=f"{P2}@1.0")
        rs = trace.resize_stats
        assert rs.migration_s == pytest.approx(
            rs.plan.predicted_s["hierarchical"], rel=0.1)

    def test_empty_graph_is_a_noop(self):
        # nothing to drain, move or resume: the plain empty trace, with
        # its empty records and no resize stats
        trace = simulate(TaskGraph(n_data=4, nnodes=4), _cluster(4),
                         resize="5@0.0", record_tasks=True)
        assert trace.resize_stats is None
        assert trace.makespan == 0.0
        tid, _, _, end = trace.records.task_columns()
        assert tid.size == 0
        assert trace.records.msg_columns()[0].size == 0
        assert end.max(initial=0.0) == trace.makespan

    def test_resize_at_zero_drains_nothing(self):
        graph, home, cluster = _case(7, m=10)
        trace = simulate(graph, cluster, data_home=home, resize="9@0")
        rs = trace.resize_stats
        assert rs.tasks_done == 0
        assert rs.tasks_remaining == graph.columns.n_tasks

    def test_breakeven_fields(self):
        graph, home, cluster = _case(7, m=10)
        trace = simulate(graph, cluster, data_home=home, resize="9@3e-5")
        rs = trace.resize_stats
        assert rs.makespan_source_s > 0
        assert rs.makespan_target_s > 0
        if rs.makespan_target_s < rs.makespan_source_s:
            assert rs.breakeven == pytest.approx(
                rs.migration_s
                / (rs.makespan_source_s - rs.makespan_target_s))
        else:
            assert math.isinf(rs.breakeven)

    def test_record_tasks_conserves_tasks(self):
        graph, home, cluster = _case(7, m=10)
        trace = simulate(graph, cluster, data_home=home, resize="9@3e-5",
                         record_tasks=True)
        tid, _, start, end = trace.records.task_columns()
        assert sorted(tid.tolist()) == list(range(graph.columns.n_tasks))
        assert end.max() == pytest.approx(trace.makespan)
        # records are stitched past the drain+migration offset in order
        assert start.tolist() == sorted(start.tolist())

    def test_explicit_target_pattern(self):
        graph, home, cluster = _case(7, m=10)
        target = shipped_pattern(9, "lu")
        ev = ResizeEvent(time=3e-5, nnodes=9, target=target)
        trace = simulate(graph, cluster, data_home=home, resize=ev)
        assert trace.resize_stats.P_dst == 9

    def test_target_nnodes_mismatch_raises(self):
        graph, home, cluster = _case(7, m=10)
        ev = ResizeEvent(time=3e-5, nnodes=9, target=shipped_pattern(8, "lu"))
        with pytest.raises(SimulationError, match="target pattern"):
            simulate(graph, cluster, data_home=home, resize=ev)

    def test_faults_and_resize_cannot_combine(self):
        graph, home, cluster = _case(7, m=10)
        with pytest.raises(SimulationError, match="resize and faults"):
            simulate(graph, cluster, data_home=home, resize="9@3e-5",
                     faults="fail:2@3e-5")

    def test_empty_faults_spec_is_fine(self):
        graph, home, cluster = _case(7, m=10)
        trace = simulate(graph, cluster, data_home=home, resize="9@3e-5",
                         faults="")
        assert trace.resize_stats is not None

    def test_summary_and_canonical_carry_resize(self):
        graph, home, cluster = _case(7, m=10)
        trace = simulate(graph, cluster, data_home=home, resize="9@3e-5")
        s = trace.summary()
        assert s["resize_P_dst"] == 9
        assert s["tiles_moved"] == trace.resize_stats.tiles_moved
        canon = trace.to_canonical()
        assert "resize" in canon
        assert canon["resize"]["tiles_moved"] == trace.resize_stats.tiles_moved

    def test_migration_breakdown_keys(self):
        graph, home, cluster = _case(7, m=10)
        trace = simulate(graph, cluster, data_home=home, resize="9@3e-5")
        mb = migration_breakdown(trace)
        assert mb["tiles_saved"] == trace.resize_stats.tiles_saved
        assert 0 < mb["moved_fraction"] <= 1
        assert mb["migration_lower_bound_s"] <= mb["migration_s"] + 1e-12

    def test_string_and_event_specs_agree(self):
        graph, home, cluster = _case(7, m=10)
        a = simulate(graph, cluster, data_home=home, resize="9@3e-5")
        b = simulate_with_resize(graph, cluster,
                                 ResizeEvent(time=3e-5, nnodes=9),
                                 data_home=home)
        assert json.dumps(a.to_canonical(), sort_keys=True) == \
            json.dumps(b.to_canonical(), sort_keys=True)

    def test_chrome_writer_emits_migration_lane(self, tmp_path):
        from repro.runtime.tracefmt import ChromeTraceWriter

        graph, home, cluster = _case(7, m=10)
        path = tmp_path / "resize.json"
        with ChromeTraceWriter(str(path), graph=graph) as w:
            simulate(graph, cluster, data_home=home, resize="9@3e-5",
                     trace_writer=w)
        data = json.loads(path.read_text())
        names = {e.get("name") for e in data["traceEvents"]}
        assert "resize:7→9" in names
        assert "migration 7→9" in names


class TestMigrationStats:
    def test_canonical_is_json_safe_and_deterministic(self):
        graph, home, cluster = _case(7, m=10)
        a = simulate(graph, cluster, data_home=home, resize="9@3e-5")
        b = simulate(graph, cluster, data_home=home, resize="9@3e-5")
        ca = a.resize_stats.to_canonical()
        assert json.dumps(ca) == json.dumps(b.resize_stats.to_canonical())
        assert ca["relabel_sha256"]

    def test_tiles_saved(self):
        rs = MigrationStats(
            P_src=5, P_dst=7, time=0.0, drain_s=0.0, migration_s=0.0,
            tiles_total=10, tiles_moved=4, tiles_moved_identity=6,
            bytes_moved=0.0, tasks_done=0, tasks_remaining=0,
            makespan_source_s=1.0, makespan_target_s=1.0,
            breakeven=float("inf"), plan=None)
        assert rs.tiles_saved == 2


def test_untargeted_resizes_search_once(monkeypatch):
    """A resize without a target resolves it with ``shipped_pattern``;
    outside the shipped range that is a GCR&M search, made once per
    node count and kernel, not once per run."""
    from repro.patterns import library

    searches = []
    real = library.gcrm_search

    def counted(P, **kw):
        searches.append(P)
        return real(P, **kw)

    monkeypatch.setattr(library, "gcrm_search", counted)
    monkeypatch.setattr(library, "_SEARCHED", {})
    graph, home, cluster = _case(2, m=8, kernel="cholesky")
    first = simulate(graph, cluster, data_home=home, resize="1@3e-5")
    again = simulate(graph, cluster, data_home=home, resize="1@3e-5")
    assert searches == [1]
    assert first.to_canonical() == again.to_canonical()
    assert first.resize_stats.P_dst == 1

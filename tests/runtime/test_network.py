"""Unit tests for the pluggable network models (runtime/network.py)."""

import dataclasses
import hashlib
import heapq
import itertools

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph
from repro.runtime.network import (
    NETWORK_MODELS,
    ContentionModel,
    NicModel,
    make_network,
)
from repro.runtime.simulator import simulate
from repro.runtime.stats import comm_breakdown


def cluster(P=4, bandwidth=1e9, latency=1e-6, tile_size=8):
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=bandwidth, latency_s=latency,
                       tile_size=tile_size)


def lu_trace(P=5, m=8, network=None, **cl_kw):
    dist = TileDistribution(g2dbc(P), m, symmetric=False)
    graph, home = build_lu_graph(dist, 8)
    return simulate(graph, cluster(P=P, **cl_kw), data_home=home,
                    record_tasks=True, network=network)


class TestRegistry:
    def test_known_models(self):
        assert set(NETWORK_MODELS) == {"nic", "contention", "hierarchical"}

    def test_make_network_default(self):
        assert isinstance(make_network(None), NicModel)

    def test_make_network_by_name(self):
        assert isinstance(make_network("contention"), ContentionModel)

    def test_make_network_rejects_instance(self):
        # a model is chosen by name only; the instance form is gone
        with pytest.raises(ValueError, match="unknown network model"):
            make_network(ContentionModel())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown network model"):
            make_network("smoke-signals")


class TestNicModel:
    def test_wire_time_single_message(self):
        """One isolated message takes exactly latency + bytes/bandwidth."""
        cl = cluster(P=2)
        model = NicModel()
        arrivals = []
        model.bind(cl, lambda t, e, p: arrivals.append((t, e, p)))
        model.send((0, 1), 0, 1, 0.0)
        t, _, _ = arrivals[0]
        assert t == pytest.approx(cl.latency_s + cl.tile_bytes / cl.bandwidth_Bps)

    def test_sender_serialization(self):
        """Back-to-back sends from one node queue on its NIC."""
        cl = cluster(P=3)
        model = NicModel()
        arrivals = []
        model.bind(cl, lambda t, e, p: arrivals.append(t))
        model.send((0, 1), 0, 1, 0.0)
        model.send((1, 1), 0, 2, 0.0)
        wire = cl.latency_s + cl.tile_bytes / cl.bandwidth_Bps
        assert arrivals[0] == pytest.approx(wire)
        assert arrivals[1] == pytest.approx(2 * wire)


class TestContentionModel:
    def test_eager_vs_rendezvous_latency(self):
        """Messages over the eager threshold pay the handshake RTTs:
        8×8 fp64 tiles (512 B) go eager, 100×100 tiles (80 KB) do not."""
        big = lu_trace(network="contention", tile_size=100)
        small = lu_trace(network="contention", tile_size=8)
        assert big.net_stats.n_rendezvous == big.n_messages
        assert big.net_stats.n_eager == 0
        assert small.net_stats.n_eager == small.n_messages
        assert small.net_stats.n_rendezvous == 0
        assert big.makespan >= small.makespan

    def test_rx_serialization_observable(self):
        """Under contention the receive side is busy too."""
        trace = lu_trace(network="contention")
        assert trace.net_stats.rx_busy.sum() > 0
        assert trace.net_stats.link_busy > 0

    def test_opposite_flows_share_bisection_link(self):
        """On two nodes the full-bisection link carries one NIC's
        bandwidth, so two opposite eager flows each get half of it."""
        cl = cluster(P=2)
        model = ContentionModel()
        events = []
        seq = itertools.count()
        model.bind(cl, lambda t, e, p: heapq.heappush(
            events, (t, next(seq), p)))
        model.send((0, 1), 0, 1, 0.0)
        model.send((1, 1), 1, 0, 0.0)
        arrivals = {}
        while events:
            t, _, payload = heapq.heappop(events)
            for _, dst in model.on_internal(payload, t):
                arrivals[dst] = t
        shared = cl.latency_s + 2 * cl.tile_bytes / cl.bandwidth_Bps
        assert arrivals == {0: pytest.approx(shared),
                            1: pytest.approx(shared)}
        assert model.stats().bisection_Bps == cl.bandwidth_Bps

    @pytest.mark.parametrize("name", ["contention", "hierarchical"])
    def test_one_pending_finish_event(self, name):
        """Each flow start or finish pushes one finish event, for the
        flow that ends first: k concurrent flows push at most 2k."""
        k = 8
        cl = cluster(P=2 * k)
        model = NETWORK_MODELS[name]()
        events, fins = [], []
        seq = itertools.count()

        def push(t, etype, payload):
            if payload[0] == "fin":
                fins.append(t)
            heapq.heappush(events, (t, next(seq), payload))

        model.bind(cl, push)
        for i in range(k):
            model.send((i, 1), i, k + i, 0.0)
        arrivals = {}
        while events:
            t, _, payload = heapq.heappop(events)
            for _, dst in model.on_internal(payload, t):
                arrivals[dst] = t
        assert len(fins) <= 2 * k
        # latency + tile_bytes / bandwidth: the 8 flows fit the
        # 8-NIC bisection link, so each runs at full NIC speed
        t_end = float.fromhex("0x1.95dfd94c958d8p-20")
        assert arrivals == {k + i: t_end for i in range(k)}

    def test_flow_conservation(self):
        """Every byte sent is a byte received, and totals match counts."""
        trace = lu_trace(network="contention")
        net = trace.net_stats
        assert net.bytes_sent.sum() == net.bytes_recv.sum()
        assert net.msgs_sent.sum() == net.msgs_recv.sum() == trace.n_messages
        assert net.bytes_sent.sum() == pytest.approx(
            trace.n_messages * trace.cluster.tile_bytes)

    def test_msg_records_cover_all_messages(self):
        trace = lu_trace(network="contention")
        _, _, src, dst, start, end, _ = trace.records.msg_columns()
        assert len(src) == trace.n_messages
        assert (end > start).all() and (start >= 0.0).all()
        assert (src != dst).all()


class TestStatsIntegration:
    def test_comm_breakdown_fields(self):
        trace = lu_trace(network="contention")
        comm = comm_breakdown(trace)
        assert comm["model"] == "contention"
        assert 0.0 < comm["link_busy_fraction"] <= 1.0
        assert comm["link_idle_fraction"] == pytest.approx(
            1.0 - comm["link_busy_fraction"])
        assert comm["n_eager"] + comm["n_rendezvous"] == trace.n_messages

    def test_nic_has_idle_link(self):
        """The legacy model never touches the shared link."""
        trace = lu_trace(network="nic")
        comm = comm_breakdown(trace)
        assert comm["link_busy_fraction"] == 0.0
        np.testing.assert_array_equal(
            comm["msgs_sent"], trace.sent_messages)

    @pytest.mark.parametrize("name", sorted(NETWORK_MODELS))
    def test_empty_graph_has_zero_stats(self, name):
        """An empty graph carries its model's zero stats, so every
        consumer of ``net_stats`` works on it."""
        trace = simulate(TaskGraph(n_data=1, nnodes=3), cluster(P=3),
                         network=name)
        net = trace.net_stats
        assert net.model == trace.network == name
        for arr in (net.msgs_sent, net.msgs_recv, net.bytes_sent,
                    net.bytes_recv, net.tx_busy, net.rx_busy):
            assert arr.tolist() == [0, 0, 0]
        assert trace.n_messages == 0 and trace.bytes_sent == 0.0
        comm = comm_breakdown(trace)
        assert comm["model"] == name
        assert comm["link_busy_fraction"] == 0.0
        assert comm["n_eager"] == comm["n_rendezvous"] == 0


#: SHA-256 over every ``NetworkStats`` field (floats as ``float.hex``)
#: of the sweep in :func:`test_net_stats_digest`.  ``to_canonical``
#: holds no ``NetworkStats`` field, so the goldens cannot see a change
#: in ``link_busy``, ``intra_link_busy``, the per-level bytes,
#: ``n_eager``, ``bisection_Bps`` or the per-node arrays; this digest
#: does.  It was recorded from the contention and hierarchical models'
#: separate flow engines, before they shared one, and re-recorded when
#: a resized run's drained prefix began to count in ``n_eager``,
#: ``link_bytes`` and the per-level fields (the 36 eager-tile resize
#: runs moved; every plain and fault run kept its blob), and again when
#: the prefix's flows began to count in ``link_busy`` and
#: ``intra_link_busy`` (the same 36 runs moved in those two fields
#: only).
NET_STATS_SHA256 = (
    "b89de1be25da2f5963790a458d0400befb5be681b7b74078b401d03b7aadc166")


def _stats_blob(net) -> str:
    parts = []
    for f in dataclasses.fields(net):
        v = getattr(net, f.name)
        if isinstance(v, np.ndarray):
            v = ",".join(float(x).hex() if v.dtype.kind == "f" else str(x)
                         for x in v.tolist())
        elif isinstance(v, float):
            v = float(v).hex()
        parts.append(f"{f.name}={v}")
    return ";".join(parts)


def test_net_stats_digest(sim_backends):
    """Contention family × P × kernel × tile size (eager 8, rendezvous
    100) × ranks per machine × plain, fault and resize runs, under
    every available event loop (plain runs and resize phases take the
    compiled loop when it builds)."""
    faults = "fail:1@2e-5,loss:0.05,seed:3"
    cases = []
    for P in (5, 7, 12):
        for kernel, build in (("lu", build_lu_graph),
                              ("cholesky", build_cholesky_graph)):
            pattern = (g2dbc(P) if kernel == "lu"
                       else gcrm(P, feasible_sizes(P)[0], seed=0).pattern)
            dist = TileDistribution(pattern, 8, symmetric=kernel != "lu")
            for tile in (8, 100):
                cases.append((P, tile, build(dist, tile)))
    for backend in sim_backends:
        h = hashlib.sha256()
        for P, tile, (graph, home) in cases:
            for rpn in (1, 2, 3):
                cl = ClusterSpec(nnodes=P, cores_per_node=2,
                                 core_gflops=1.0, bandwidth_Bps=1e9,
                                 latency_s=1e-6, tile_size=tile,
                                 ranks_per_node=rpn)
                for network in ("contention", "hierarchical"):
                    for kw in ({}, {"faults": faults},
                               {"resize": f"{P + 2}@1e-5"}):
                        trace = simulate(graph, cl, data_home=home,
                                         network=network, **kw)
                        h.update(_stats_blob(trace.net_stats).encode())
        assert h.hexdigest() == NET_STATS_SHA256, backend

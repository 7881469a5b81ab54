"""Large-m smoke tests for the batch-drained simulator.

``slow`` (runs in tier-1): an m = 128 LU end-to-end pass — ~700k tasks
through the columnar builder and the auto-selected backend — and the
lower bounds of LU m = 160 (1.38M tasks), pinned in hex.

``veryslow`` (deselected by default via ``addopts``; run with
``pytest -m veryslow``): the m = 256 million-task bounded-memory leg —
2.8M Cholesky tasks streamed through :class:`ChromeTraceWriter`,
asserting the writer flushed incrementally instead of accumulating a
record list.  The full-size ladder with timings lives in
``benchmarks/bench_sim_scale.py``.
"""

import os
import tempfile

import pytest

from repro.cost.schedbounds import makespan_bounds, schedule_lower_bounds
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph, cholesky_task_count
from repro.dla.lu import build_lu_graph, lu_task_count
from repro.experiments.machine import sim_cluster
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate
from repro.runtime.tracefmt import ChromeTraceWriter

P = 12
TILE = 8


def _cluster():
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE)


@pytest.mark.slow
def test_lu_m128_smoke():
    m = 128
    dist = TileDistribution(g2dbc(P), m, symmetric=False)
    graph, home = build_lu_graph(dist, TILE)
    assert len(graph) == lu_task_count(m)
    trace = simulate(graph, _cluster(), data_home=home, network="nic")
    assert trace.makespan > 0
    assert trace.n_messages > 0
    assert 0 < trace.utilization <= 1.0
    # all flops accounted for: serial work / P bounds the makespan
    serial_s = graph.total_flops / 1e9 / 2  # 2 cores x 1 GFlop/s
    assert trace.makespan >= serial_s / P


@pytest.mark.slow
def test_lu_m160_bounds_pinned():
    """Both bound sets of G-2DBC(23) LU at m = 160 on the scaled
    machine, bit for bit: the longest-path sweep behind the critical
    paths must reproduce the earlier fixpoint and per-entry loop.  Each
    evaluation leaves the other's fields at zero."""
    graph, home = build_lu_graph(
        TileDistribution(g2dbc(23), 160, symmetric=False), 500)
    cluster = sim_cluster(23, tile_size=500)
    bounds = schedule_lower_bounds(graph, cluster, data_home=home)
    assert bounds.to_canonical() == {
        "work_time": "0x1.868aa46b02242p+5",
        "critical_time": "0x1.eb823ee08fb9ap+0",
        "comm_time": "0x1.849976a5c0602p+1",
        "bisection_time": "0x0.0p+0",
        "node_work_time": "0x0.0p+0",
        "owner_critical_time": "0x0.0p+0",
        "best": "0x1.868aa46b02242p+5",
    }
    assert makespan_bounds(graph, cluster).to_canonical() == {
        "work_time": "0x1.868aa46b02242p+5",
        "critical_time": "0x0.0p+0",
        "comm_time": "0x0.0p+0",
        "bisection_time": "0x0.0p+0",
        "node_work_time": "0x1.9626bca1af288p+5",
        "owner_critical_time": "0x1.10d6032d1b372p+1",
        "best": "0x1.9626bca1af288p+5",
    }


@pytest.mark.veryslow
def test_cholesky_m256_bounded_memory_stream():
    m = 256
    pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
    dist = TileDistribution(pat, m, symmetric=True)
    graph, home = build_cholesky_graph(dist, TILE)
    assert len(graph) == cholesky_task_count(m) > 1_000_000
    buffer_events = 65536
    path = os.path.join(tempfile.mkdtemp(prefix="simscale-"), "m256.json")
    try:
        with ChromeTraceWriter(path, graph=None,
                               buffer_events=buffer_events) as w:
            trace = simulate(graph, _cluster(), data_home=home,
                             network="nic", trace_writer=w)
        # the stream must have drained incrementally: many flushes, and
        # the in-memory buffer never grew past one flush window
        assert w.events_written > len(graph)
        assert w.flushes >= w.events_written // buffer_events
        assert w.flushes > 1
        assert trace.records is None  # nothing retained in memory
        assert os.path.getsize(path) > buffer_events
    finally:
        if os.path.exists(path):
            os.unlink(path)

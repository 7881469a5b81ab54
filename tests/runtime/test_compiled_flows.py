"""The compiled loop against the Python loop, beyond ``nic``/priority.

Every fault-free run of a static-key scheduler takes the compiled loop
under every network model, so the C port of ``ContentionModel``'s flow
engine and of the work-stealing rebalance must produce the Python
loop's bytes: the canonical dump (hex floats, record digests), every
``NetworkStats`` field, and the Chrome file.  The grid crosses the
engine's branches: flat ``contention`` and ``hierarchical`` with 1–3
ranks per machine (intra-machine links, activation order unlike start
order), the four static-key policies, eager (8-wide) and rendezvous
(100-wide) tiles, uniform and heterogeneous node speeds (a thief's
own speed), one and two cores, and P in {1, 2, 5, 12}; data homed away
from their owners add version-0 fetches at the seed.  Degenerate
graphs — empty, or with tasks that never become ready — end the same
way under both loops.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.runtime import backends, csim
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph, TaskKind
from repro.runtime.simulator import SimulationError, simulate
from repro.runtime.tracefmt import ChromeTraceWriter

pytestmark = pytest.mark.skipif(
    not csim.available(), reason="compiled loop unavailable")

#: (network, ranks per machine)
NETWORKS = [("contention", 1)] + [("hierarchical", r) for r in (1, 2, 3)]
POLICIES = ("priority", "lookahead", "comm_avoiding", "work_stealing")
M = 6


def _stats_blob(net) -> str:
    """Every ``NetworkStats`` field, floats as ``float.hex`` and each
    scalar's type spelled out."""
    parts = []
    for f in dataclasses.fields(net):
        v = getattr(net, f.name)
        if isinstance(v, np.ndarray):
            v = f"{v.dtype}:" + ",".join(
                float(x).hex() if v.dtype.kind == "f" else str(x)
                for x in v.tolist())
        elif isinstance(v, float):
            v = float(v).hex()
        parts.append(f"{f.name}={type(v).__name__}:{v}")
    return ";".join(parts)


def _both_loops(graph, home, cluster, network, monkeypatch, tmp_path):
    """(canonical dump + stats, Chrome bytes) of one recorded run and
    one streamed run, per loop."""
    out = {}
    for backend in ("python", "c"):
        monkeypatch.setenv(backends.BACKEND_ENV, backend)
        trace = simulate(graph, cluster, data_home=home, network=network,
                         record_tasks=True)
        path = tmp_path / f"{backend}.json"
        with ChromeTraceWriter(path, graph=graph) as w:
            streamed = simulate(graph, cluster, data_home=home,
                                network=network, trace_writer=w)
        out[backend] = (json.dumps(trace.to_canonical(), sort_keys=True),
                        _stats_blob(trace.net_stats),
                        _stats_blob(streamed.net_stats),
                        path.read_bytes())
    return out["python"], out["c"]


@pytest.mark.parametrize("network,rpn", NETWORKS,
                         ids=[f"{n}-rpn{r}" for n, r in NETWORKS])
@pytest.mark.parametrize("P", [1, 2, 5, 12])
def test_compiled_matches_python(P, network, rpn, monkeypatch, tmp_path):
    dist = TileDistribution(g2dbc(P), M, symmetric=False)
    speeds = tuple(1.0 + 0.5 * (p % 3) for p in range(P))
    for tile in (8, 100):  # eager, rendezvous
        graph, home = build_lu_graph(dist, tile)
        for policy, node_speeds, cores in itertools.product(
                POLICIES, ((), speeds), (1, 2)):
            case = (tile, policy, node_speeds, cores)
            cl = ClusterSpec(nnodes=P, cores_per_node=cores,
                             core_gflops=1.0, bandwidth_Bps=1e9,
                             latency_s=1e-6, tile_size=tile,
                             node_speeds=node_speeds, scheduler=policy,
                             ranks_per_node=rpn)
            ref, got = _both_loops(graph, home, cl, network, monkeypatch,
                                   tmp_path)
            assert got[0] == ref[0], case
            assert got[1] == ref[1], case
            assert got[2] == ref[2], case
            assert got[3] == ref[3], case


@pytest.mark.parametrize("network,rpn", NETWORKS,
                         ids=[f"{n}-rpn{r}" for n, r in NETWORKS])
def test_version0_fetches(network, rpn, monkeypatch, tmp_path):
    """Every datum homed one node away from its owner: the version-0
    fetches enter the NIC queues at the seed, before any task runs (the
    builders' own homes never send one)."""
    P = 5
    graph, home = build_lu_graph(
        TileDistribution(g2dbc(P), M, symmetric=False), 8)
    home = (np.asarray(home) + 1) % P
    for policy, tile in itertools.product(POLICIES, (8, 100)):
        cl = ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=tile,
                         scheduler=policy, ranks_per_node=rpn)
        ref, got = _both_loops(graph, home, cl, network, monkeypatch,
                               tmp_path)
        assert got == ref, (policy, tile)


@pytest.mark.parametrize("network", ["contention", "hierarchical"])
def test_empty_graph(network, monkeypatch, tmp_path):
    cl = ClusterSpec(nnodes=3, cores_per_node=2, core_gflops=1.0,
                     bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8,
                     ranks_per_node=2, scheduler="work_stealing")
    ref, got = _both_loops(TaskGraph(n_data=1, nnodes=3), None, cl,
                           network, monkeypatch, tmp_path)
    assert got == ref


def _never_ready_graph() -> TaskGraph:
    """Task 0 runs; tasks 1 and 2, on two nodes, each wait for the
    other's output, so neither ever becomes ready.  ``submit`` refuses
    task 1's read of a version not yet written, so the columns are
    adopted as they are."""
    return TaskGraph.from_columns(
        {"kind": [TaskKind.GEMM] * 3, "i": [0, 1, 2], "j": [0, 1, 2],
         "k": [0, 0, 0], "node": [0, 1, 2], "flops": [1e3] * 3,
         "wd": [0, 1, 2], "wv": [1, 1, 1], "rc": [1, 2, 2],
         "rd": [0, 1, 2, 2, 1], "rv": [0, 0, 1, 0, 1]},
        n_data=3, nnodes=3, total_flops=3e3)


@pytest.mark.parametrize("network", ["nic", "contention", "hierarchical"])
@pytest.mark.parametrize("policy", POLICIES)
def test_never_ready_task(network, policy, monkeypatch):
    """Both loops stop with the same error: a deadlock naming the
    first stuck task (a cycle, which ``lookahead`` rejects before the
    run)."""
    graph = _never_ready_graph()
    cl = ClusterSpec(nnodes=3, cores_per_node=1, core_gflops=1.0,
                     bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8,
                     ranks_per_node=2, scheduler=policy)
    errors = []
    for backend in ("python", "c"):
        monkeypatch.setenv(backends.BACKEND_ENV, backend)
        with pytest.raises((SimulationError, ValueError)) as exc:
            simulate(graph, cl, network=network)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
    if policy != "lookahead":
        assert errors[0][0] is SimulationError
        assert errors[0][1].startswith("deadlock: 2 of 3 tasks never ran")

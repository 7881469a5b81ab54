"""Property-based tests (hypothesis) on the v2 simulator.

Four invariants that must hold for *every* graph/cluster/network
combination, not just the golden cases:

* the simulated makespan never beats the analytic lower bounds of
  :func:`repro.cost.schedbounds.makespan_bounds`;
* reducing the network bandwidth never shrinks the makespan;
* the outcome is invariant under task-id relabeling (reordering the
  submission of independent tasks is a no-op);
* the contention model never beats the legacy ``nic`` model on the
  same graph.

``derandomize=True`` keeps the suite reproducible in CI.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.schedbounds import makespan_bounds
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph
from repro.runtime.simulator import simulate

TILE = 8
NETWORKS = ("nic", "contention")


def _cluster(P, cores=2, bandwidth=1e9):
    return ClusterSpec(nnodes=P, cores_per_node=cores, core_gflops=1.0,
                       bandwidth_Bps=bandwidth, latency_s=1e-6, tile_size=TILE)


def _graph(kernel, P, m, seed=0):
    if kernel == "lu":
        dist = TileDistribution(g2dbc(P), m, symmetric=False)
        return build_lu_graph(dist, TILE)
    dist = TileDistribution(gcrm(P, feasible_sizes(P)[0], seed=seed).pattern,
                            m, symmetric=True)
    return build_cholesky_graph(dist, TILE)


case = st.tuples(st.sampled_from(["lu", "cholesky"]),
                 st.integers(4, 9),     # P
                 st.integers(4, 10))    # m


@given(case, st.sampled_from(NETWORKS))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_makespan_respects_lower_bounds(params, network):
    kernel, P, m = params
    graph, home = _graph(kernel, P, m)
    cluster = _cluster(P)
    trace = simulate(graph, cluster, data_home=home, network=network)
    bounds = makespan_bounds(graph, cluster)
    assert trace.makespan >= bounds.best - 1e-9


@given(case, st.sampled_from(NETWORKS), st.sampled_from([2.0, 4.0, 10.0]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_bandwidth_reduction_never_helps(params, network, factor):
    kernel, P, m = params
    graph, home = _graph(kernel, P, m)
    fast = simulate(graph, _cluster(P, bandwidth=1e9), data_home=home,
                    network=network)
    slow = simulate(graph, _cluster(P, bandwidth=1e9 / factor), data_home=home,
                    network=network)
    assert slow.makespan >= fast.makespan - 1e-12


@given(case)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_contention_dominates_nic(params):
    kernel, P, m = params
    graph, home = _graph(kernel, P, m)
    cluster = _cluster(P)
    nic = simulate(graph, cluster, data_home=home, network="nic")
    cont = simulate(graph, cluster, data_home=home, network="contention")
    assert cont.makespan >= nic.makespan - 1e-15
    assert cont.n_messages == nic.n_messages
    np.testing.assert_array_equal(cont.sent_messages, nic.sent_messages)


# ---------------------------------------------------------------------------
# task-id relabeling invariance
# ---------------------------------------------------------------------------
def _swap_ok(a, b):
    """A pair of adjacent tasks may be transposed without changing the
    schedule semantics when they are fully independent *and* cannot tie
    anywhere order-sensitive: different scheduling class (node, k,
    kind), distinct written data, no direct dependency, and no shared
    read reference (shared reads order the producer's multicast)."""
    if (a.node, a.k, a.kind) == (b.node, b.k, b.kind):
        return False
    if a.write[0] == b.write[0]:
        return False
    if a.write in b.reads or b.write in a.reads:
        return False
    if set(a.reads) & set(b.reads):
        return False
    return True


def _relabel(graph, swaps):
    """Apply valid adjacent transpositions, then resubmit in the new
    order.  ``submit`` re-derives versions, so per-datum write order
    must be preserved — guaranteed by ``_swap_ok``."""
    order = [graph.task(t) for t in range(len(graph))]
    n_applied = 0
    for pos in swaps:
        p = pos % (len(order) - 1)
        if _swap_ok(order[p], order[p + 1]):
            order[p], order[p + 1] = order[p + 1], order[p]
            n_applied += 1
    out = TaskGraph(n_data=graph.n_data, nnodes=graph.nnodes)
    for t in order:
        sub = out.submit(t.kind, t.i, t.j, t.k, t.node, t.flops,
                         t.reads, t.write[0])
        assert sub.write == t.write  # per-datum version order preserved
    out.validate()
    return out, n_applied


@given(case, st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
       st.sampled_from(NETWORKS))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_relabeling_invariance(params, swaps, network):
    kernel, P, m = params
    graph, home = _graph(kernel, P, m)
    relabeled, n_applied = _relabel(graph, swaps)
    cluster = _cluster(P)
    base = simulate(graph, cluster, data_home=home, network=network)
    perm = simulate(relabeled, cluster, data_home=home, network=network)
    assert perm.makespan == base.makespan
    assert perm.n_messages == base.n_messages
    np.testing.assert_array_equal(perm.busy_time, base.busy_time)
    np.testing.assert_array_equal(perm.sent_messages, base.sent_messages)
    np.testing.assert_array_equal(perm.recv_messages, base.recv_messages)


def test_relabeling_actually_permutes():
    """Guard against the swap filter rejecting everything (vacuous test)."""
    graph, _ = _graph("lu", 5, 8)
    _, n_applied = _relabel(graph, list(range(0, 2000, 7)))
    assert n_applied > 0

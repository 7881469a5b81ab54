"""The longest-path kernel behind the bottom levels and both critical paths.

``_reference_bottom_levels`` (a vectorized fixpoint, depth × entries
work) and ``_reference_critical_path`` (a per-entry Python loop in
submission order) are the two earlier longest-path codes, frozen as
oracles.  :func:`bottom_levels` is one Kahn-wavefront sweep, and
:func:`~repro.cost.schedbounds.makespan_bounds` runs it over the
reversed dependency CSR for ``owner_critical_time``; both must equal
their oracle value for value (``max`` is exact and rounding monotone,
so the sums agree bit for bit), and so must the ``lookahead`` key
table, which no golden trace pins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.schedbounds import makespan_bounds
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph, TaskKind
from repro.runtime.schedulers import _rank_keys, bottom_levels, make_scheduler
from repro.runtime.simplan import get_plan
from tests.runtime.test_simplan import _cholesky, _lu
from tests.runtime.test_simulator_properties import _graph, case

TILE = 8


def _reference_bottom_levels(indptr, deps, dur):
    """The earlier ``bottom_levels``: a fixpoint of ``np.maximum.at``
    over every dependency entry, repeated until nothing changes."""
    n = int(dur.shape[0])
    bl = np.asarray(dur, dtype=np.float64).copy()
    if n == 0 or deps.size == 0:
        return bl
    child = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    parent = deps.astype(np.intp)
    pdur = np.asarray(dur, dtype=np.float64)[parent]
    while True:
        new = bl.copy()
        np.maximum.at(new, parent, pdur + bl[child])
        if np.array_equal(new, bl):
            return bl
        bl = new


def _reference_critical_path(graph, cluster):
    """The earlier owner critical path: tids in submission order, one
    branch per dependency entry."""
    n = len(graph)
    if n == 0:
        return 0.0
    msg = cluster.message_time()
    cols = graph.columns
    indptr_a, dep_a = graph.dependencies_csr()
    indptr = indptr_a.tolist()
    deps = dep_a.tolist()
    node_l = cols.node.tolist()
    dur = cols.flops / cluster.core_flops
    if cluster.node_speeds:
        dur = dur / np.asarray(cluster.node_speeds, dtype=np.float64)[cols.node]
    dur_l = dur.tolist()
    finish = [0.0] * n
    for t in range(n):
        start = 0.0
        tn = node_l[t]
        for p in deps[indptr[t]:indptr[t + 1]]:
            ready = finish[p]
            if node_l[p] != tn:
                ready += msg
            if ready > start:
                start = ready
        finish[t] = start + dur_l[t]
    return float(max(finish))


def _cluster(P, speeds=()):
    # 3 GFlop/s and non-dyadic speeds make every division inexact
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=3.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE,
                       node_speeds=speeds)


def _speeds(P):
    return tuple(0.75 + 0.5 * (i % 3) for i in range(P))


def _assert_matches_oracles(graph, cluster, home=None):
    indptr, deps = graph.dependencies_csr()
    dur = cluster.task_time(graph.columns.flops, graph.columns.node)
    ref = _reference_bottom_levels(indptr, deps, dur)
    bl = bottom_levels(indptr, deps, dur)
    assert bl.dtype == np.float64
    assert np.array_equal(bl, ref)
    assert makespan_bounds(graph, cluster).owner_critical_time == \
        _reference_critical_path(graph, cluster)
    # the lookahead keys: bottom level descending, ties by tid
    n = len(graph)
    order = np.lexsort((np.arange(n, dtype=np.int64), -ref))
    keys = make_scheduler("lookahead").static_keys(
        get_plan(graph, home), graph, cluster, dur)
    assert np.array_equal(keys, _rank_keys(order))


@pytest.mark.parametrize("P", [1, 5, 23, 35])
@pytest.mark.parametrize("build,m", [(_lu, 16), (_cholesky, 20)])
@pytest.mark.parametrize("heterogeneous", [False, True])
def test_factorizations_match_oracles(build, m, P, heterogeneous):
    graph, home = build(P, m)
    cluster = _cluster(P, _speeds(P) if heterogeneous else ())
    _assert_matches_oracles(graph, cluster, home)


@given(case, st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_property_cases_match_oracles(params, heterogeneous):
    kernel, P, m = params
    graph, home = _graph(kernel, P, m)
    _assert_matches_oracles(graph, _cluster(P, _speeds(P) if heterogeneous
                                            else ()), home)


@st.composite
def submitted_graphs(draw):
    """Random ``submit`` graphs: each task reads current versions of
    up to three data (producer or version 0) and bumps one datum; some
    tasks carry no flops."""
    n_data = draw(st.integers(1, 6))
    P = draw(st.integers(1, 4))
    graph = TaskGraph(n_data=n_data, nnodes=P)
    version = [0] * n_data
    for _ in range(draw(st.integers(0, 40))):
        reads = tuple((d, version[d]) for d in sorted(
            draw(st.sets(st.integers(0, n_data - 1), max_size=3))))
        w = draw(st.integers(0, n_data - 1))
        graph.submit(TaskKind.GEMM, 0, 0, 0, draw(st.integers(0, P - 1)),
                     draw(st.sampled_from([0.0, 1e9, 2.5e9, 7e8])),
                     reads, w)
        version[w] += 1
    return graph, P


@given(submitted_graphs(), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_submitted_graphs_match_oracles(drawn, heterogeneous):
    graph, P = drawn
    _assert_matches_oracles(graph, _cluster(P, _speeds(P) if heterogeneous
                                            else ()))


def test_empty_graph():
    graph = TaskGraph(n_data=2, nnodes=2)
    _assert_matches_oracles(graph, _cluster(2))
    assert makespan_bounds(graph, _cluster(2)).owner_critical_time == 0.0


def test_independent_tasks():
    graph = TaskGraph(n_data=4, nnodes=2)
    for d in range(4):
        graph.submit(TaskKind.GEMM, 0, 0, 0, d % 2, 1e9 * (d + 1), (), d)
    _assert_matches_oracles(graph, _cluster(2, (1.0, 1.5)))
    assert makespan_bounds(graph, _cluster(2)).owner_critical_time == \
        4e9 / 3e9


def test_zero_flop_tasks():
    """A chain of zero-duration tasks across nodes: only message time."""
    graph = TaskGraph(n_data=1, nnodes=2)
    for t in range(4):
        graph.submit(TaskKind.GEMM, 0, 0, 0, t % 2, 0.0,
                     ((0, t),) if t else (), 0)
    cluster = _cluster(2)
    _assert_matches_oracles(graph, cluster)
    assert makespan_bounds(graph, cluster).owner_critical_time == \
        3 * cluster.message_time()


@pytest.mark.parametrize("indptr,deps,stuck", [
    ([0, 1, 2], [1, 0], 2),                 # 0 <-> 1
    ([0, 1], [0], 1),                       # self-loop
    # tasks 0, 1 and 4 finish; 2 <-> 3 never do
    ([0, 0, 1, 2, 3, 4], [0, 3, 2, 2], 2),
])
def test_cycle_raises(indptr, deps, stuck):
    indptr = np.array(indptr)
    n = indptr.size - 1
    with pytest.raises(ValueError,
                       match=f"{stuck} of {n} tasks never become ready"):
        bottom_levels(indptr, np.array(deps), np.ones(n))

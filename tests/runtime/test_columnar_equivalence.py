"""Columnar builders ≡ legacy object builders (Hypothesis).

The vectorized LU/Cholesky builders write whole-panel and
whole-trailing-update array batches into columns allocated once at
their closed-form size, while the frozen reference
builders in :mod:`repro.runtime.objgraph` submit one task at a time.
The refactor's core contract is that the two are **task-for-task
identical** — same submission order, same kind/tile/iteration/node,
same flops, same read refs in the same order, same write ref — so the
simulator's event schedule (and every golden trace) is unchanged.
This suite states that contract as a property over random problem
sizes (down to one tile: a panel and no trailing update), with the
column dtypes, each read's producer and each datum's final version,
plus the structural self-checks of ``TaskGraph.validate``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph, cholesky_task_count
from repro.dla.lu import build_lu_graph, lu_task_count
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.objgraph import (
    build_cholesky_graph_reference,
    build_lu_graph_reference,
)

TILE = 8

case = st.tuples(st.sampled_from(["lu", "cholesky"]),
                 st.integers(2, 16),    # P
                 st.integers(1, 16))    # m


def _build_both(kernel, P, m, seed=0):
    if kernel == "lu":
        dist = TileDistribution(g2dbc(P), m, symmetric=False)
        return build_lu_graph(dist, TILE), build_lu_graph_reference(dist, TILE)
    dist = TileDistribution(gcrm(P, feasible_sizes(P)[0], seed=seed).pattern,
                            m, symmetric=True)
    return (build_cholesky_graph(dist, TILE),
            build_cholesky_graph_reference(dist, TILE))


@given(case)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_columnar_builder_matches_object_reference(params):
    kernel, P, m = params
    (graph, home), (ref, ref_home) = _build_both(kernel, P, m)

    assert len(graph) == len(ref)
    count = lu_task_count(m) if kernel == "lu" else cholesky_task_count(m)
    assert len(graph) == count
    assert (home == ref_home).all()

    for got, want in zip(map(graph.task, range(len(graph))), ref.tasks):
        assert got.tid == want.tid
        assert got.kind == want.kind
        assert (got.i, got.j, got.k) == (want.i, want.j, want.k)
        assert got.node == want.node
        assert got.flops == want.flops
        assert tuple(got.reads) == tuple(want.reads)
        assert got.write == want.write

    for name, col in vars(graph.columns).items():
        want = {"kind": np.int8, "flops": np.float64}.get(name, np.int32)
        assert col.dtype == want, name

    data, version = map(np.array, zip(*ref.producer))
    assert (graph.producer_for(data, version).tolist()
            == list(ref.producer.values()))
    assert graph.total_flops == ref.total_flops

    # the producers the builder names as it writes each read, and the
    # versions it leaves every datum at
    assert graph.columns.read_producer.tolist() == [
        ref.producer.get(read, -1) for t in ref.tasks for read in t.reads]
    assert ([graph.version(d) for d in range(graph.n_data)]
            == [ref.version(d) for d in range(ref.n_data)])


@given(case)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_columnar_builder_validates(params):
    kernel, P, m = params
    if kernel == "lu":
        graph, _ = build_lu_graph(
            TileDistribution(g2dbc(P), m, symmetric=False), TILE)
    else:
        pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
        graph, _ = build_cholesky_graph(
            TileDistribution(pat, m, symmetric=True), TILE)
    graph.validate()

"""Golden-trace regression tests for the ``"hierarchical"`` model.

Same protocol as ``test_golden.py``: each file pins the byte-identical
canonical dump of one ``(P, m)`` case with ``ranks_per_node = 2``, for
both kernels, under every available event loop.  The flat ``nic``/``contention`` goldens are untouched by
the hierarchy work (those files must stay byte-identical); these files
lock the new model's event arithmetic the same way.

Regenerate (only after an *intentional* behavior change) with::

    REGEN_GOLDEN=1 python -m pytest tests/runtime/test_hier_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate

GOLDEN_DIR = Path(__file__).parent / "golden"
TILE = 8
RPN = 2
CASES = [(P, m) for P in (5, 7) for m in (8, 12)]


def hier_cluster(P: int) -> ClusterSpec:
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE,
                       ranks_per_node=RPN)


def compute_case(P: int, m: int) -> dict:
    cluster = hier_cluster(P)
    out = {}
    lu_dist = TileDistribution(g2dbc(P), m, symmetric=False)
    lu_graph, lu_home = build_lu_graph(lu_dist, TILE)
    chol_pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
    chol_dist = TileDistribution(chol_pat, m, symmetric=True)
    chol_graph, chol_home = build_cholesky_graph(chol_dist, TILE)
    for kernel, graph, home in (("lu", lu_graph, lu_home),
                                ("cholesky", chol_graph, chol_home)):
        trace = simulate(graph, cluster, data_home=home,
                         record_tasks=True, network="hierarchical")
        out[kernel] = trace.to_canonical()
    return out


@pytest.mark.parametrize("P,m", CASES, ids=[f"P{P}_m{m}" for P, m in CASES])
def test_hier_golden_trace(P, m, sim_backends):
    """Pinned under every available event loop: these runs take the
    compiled loop when it builds."""
    path = GOLDEN_DIR / f"P{P}_m{m}_hier{RPN}.json"
    for backend in sim_backends:
        actual = compute_case(P, m)
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(actual, indent=1, sort_keys=True)
                            + "\n")
            pytest.skip(f"regenerated {path.name}")
        expected = json.loads(path.read_text())
        for kernel in ("lu", "cholesky"):
            assert actual[kernel] == expected[kernel], (
                f"{kernel}/hierarchical canonical trace drifted "
                f"for P={P}, m={m}, ranks_per_node={RPN} ({backend} loop)")


@pytest.mark.parametrize("P,m", CASES, ids=[f"P{P}_m{m}" for P, m in CASES])
def test_hier_differs_from_contention(P, m):
    """Sanity companion to the goldens: at ``ranks_per_node = 2`` the
    two-level routing genuinely changes timing (it is not a silent
    fall-through to the flat parent), while the message *count* stays a
    property of the task graph alone."""
    import dataclasses

    case = compute_case(P, m)
    flat = dataclasses.replace(hier_cluster(P), ranks_per_node=1)
    lu_dist = TileDistribution(g2dbc(P), m, symmetric=False)
    graph, home = build_lu_graph(lu_dist, TILE)
    t_c = simulate(graph, flat, data_home=home, record_tasks=True,
                   network="contention")
    hier_makespan = float.fromhex(case["lu"]["makespan"])
    assert hier_makespan != t_c.makespan
    assert case["lu"]["n_messages"] == t_c.to_canonical()["n_messages"]

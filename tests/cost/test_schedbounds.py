"""The one bounds type and its two evaluations.

``golden/schedbounds_grid.json`` holds ``float.hex`` of every bound
over a small grid, recorded when the owner-pinned bounds still had
their own type: LU and Cholesky at P ∈ {1, 2, 5, 7} plus an empty
graph, on 1 and 3 cores per node, 1 and 2 ranks per machine, with
homogeneous and heterogeneous node speeds, and the policy-universal
bounds under each network.  Each view stores only the fields its
evaluation covers; every other field must read 0.0.  The file is
frozen: nothing regenerates it.  One change was made by hand: the
owner-pinned view's ``work_time`` used to divide by ``total_speed()``,
and now divides by the per-node capacity sum the policy-universal view
uses.  That moved the last bits of 16 heterogeneous ``makespan_bounds``
``work_time`` entries (P ∈ {2, 5, 7}); no ``best`` entry moved.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cost.schedbounds import (
    ScheduleBounds,
    makespan_bounds,
    schedule_lower_bounds,
)
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.experiments.machine import sim_cluster
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph
from repro.runtime.simulator import SimulationError

GOLDEN = Path(__file__).parent / "golden" / "schedbounds_grid.json"
TILE = 8
M = 6
NETWORKS = ("nic", "contention", "hierarchical")


def _graphs():
    yield "empty", 2, TaskGraph(n_data=2, nnodes=2), None
    for P in (1, 2, 5, 7):
        yield f"lu-P{P}", P, *build_lu_graph(
            TileDistribution(g2dbc(P), M, symmetric=False), TILE)
        pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
        yield f"cholesky-P{P}", P, *build_cholesky_graph(
            TileDistribution(pat, M, symmetric=True), TILE)


def _clusters(P):
    speeds = tuple(0.3 + 0.1 * ((3 * i) % 7) for i in range(P))
    for cores in (1, 3):
        for rpn in (1, 2):
            for hetero in (False, True):
                yield f"c{cores}-rpn{rpn}-{'het' if hetero else 'hom'}", \
                    ClusterSpec(nnodes=P, cores_per_node=cores,
                                core_gflops=3.0, bandwidth_Bps=1e9,
                                latency_s=1e-6, tile_size=TILE,
                                node_speeds=speeds if hetero else (),
                                ranks_per_node=rpn)


def test_grid_matches_recorded_bounds():
    golden = json.loads(GOLDEN.read_text())
    seen = set()
    for gname, P, graph, home in _graphs():
        for cname, cluster in _clusters(P):
            case = f"{gname}-{cname}"
            views = {"makespan_bounds": makespan_bounds(graph, cluster)}
            for net in NETWORKS:
                views[net] = schedule_lower_bounds(
                    graph, cluster, data_home=home, network=net)
            for view, bounds in views.items():
                expected = dict.fromkeys(bounds.as_dict(), "0x0.0p+0")
                expected.update(golden[case][view])
                assert bounds.to_canonical() == expected, (case, view)
                # one work bound: every view divides by the same capacity
                assert bounds.work_time == views["nic"].work_time, (case, view)
            seen.add(case)
    assert seen == set(golden)


def test_makespan_bounds_checks_inputs_as_simulate():
    """A graph naming nodes the cluster lacks is rejected, not bounded
    over the nodes the cluster has."""
    graph, _ = build_lu_graph(
        TileDistribution(g2dbc(7), 8, symmetric=False), 500)
    with pytest.raises(SimulationError,
                       match="graph names node 6 but cluster has nodes 0..3"):
        makespan_bounds(graph, sim_cluster(4))


@pytest.mark.parametrize("field,name", [
    ("work_time", "work"),
    ("critical_time", "critical-path"),
    ("comm_time", "comm"),
    ("bisection_time", "bisection"),
    ("node_work_time", "node-balance"),
    ("owner_critical_time", "owner-critical-path"),
])
def test_limiting_factor_names_each_field(field, name):
    ones = {f.name: 1.0 for f in fields(ScheduleBounds)}
    bounds = ScheduleBounds(**{**ones, field: 2.0})
    assert len(ones) == 6
    assert bounds.best == 2.0
    assert bounds.limiting_factor == name


def test_limiting_factor_is_the_field_setting_best():
    """Two bounds one ulp apart: the larger one binds, although a
    makespan far above both sees two equal gaps."""
    bounds = ScheduleBounds(work_time=1.0, critical_time=1.0 + 2**-52)
    assert bounds.best == bounds.critical_time
    assert bounds.limiting_factor == "critical-path"
    tie = ScheduleBounds(comm_time=2.0, node_work_time=2.0)
    assert tie.limiting_factor == "comm"

"""Differential conformance suite for the scheduler registry.

Every registered policy — present and future — is run over the same
(kernel, P, m, network) grid and held to the *same* contract:

* **validity** — every task executes exactly once, never before its
  producers, never more tasks in flight on a node than it has cores;
* **boundedness** — the observed makespan respects every
  policy-universal lower bound of
  :func:`repro.cost.schedbounds.schedule_lower_bounds`;
* **determinism** — re-running the identical configuration reproduces
  the byte-identical canonical trace;
* **accounting invariance** — task counts, flop totals and message
  totals are properties of the *plan*, not the policy.

Makespan *orderings* between policies are deliberately recorded, not
asserted: a lookahead heuristic is not guaranteed to beat FIFO on
every instance, and a conformance suite that hard-codes folklore
("smarter must be faster") would break on valid counterexamples.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.schedbounds import ScheduleBounds, schedule_lower_bounds
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.schedulers import (
    SCHEDULERS,
    bottom_levels,
    make_scheduler,
    registered_schedulers,
)
from repro.runtime.simulator import simulate

TILE = 8
M = 8
POLICIES = registered_schedulers()
NETWORKS = ("nic", "contention")
GRID = [(kernel, P) for kernel in ("lu", "cholesky") for P in (5, 7)]

#: absolute slack for float comparisons on second-scale makespans
EPS = 1e-9


@lru_cache(maxsize=None)
def build_case(kernel: str, P: int, m: int):
    if kernel == "lu":
        dist = TileDistribution(g2dbc(P), m, symmetric=False)
        return build_lu_graph(dist, TILE)
    pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
    dist = TileDistribution(pat, m, symmetric=True)
    return build_cholesky_graph(dist, TILE)


def make_cluster(P: int, policy: str = "priority", cores: int = 2,
                 **kw) -> ClusterSpec:
    return ClusterSpec(nnodes=P, cores_per_node=cores, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE,
                       scheduler=policy, **kw)


def run(kernel: str, P: int, m: int, policy: str, network: str, **kw):
    graph, home = build_case(kernel, P, m)
    cluster = make_cluster(P, policy)
    trace = simulate(graph, cluster, data_home=home, network=network,
                     record_tasks=True, **kw)
    return graph, cluster, trace


# ----------------------------------------------------------------------
# validity + boundedness, every policy on every grid point
# ----------------------------------------------------------------------
def assert_valid_schedule(graph, cluster, trace, failed=(), fail_at=None):
    """The structural contract every scheduling policy must satisfy."""
    tid, node, start, end = trace.records.task_columns()
    n_tasks = len(graph)

    # every task exactly once
    assert sorted(tid.tolist()) == list(range(n_tasks)), "task set mismatch"

    # never before a producer finished
    t_start = np.empty(n_tasks)
    t_end = np.empty(n_tasks)
    t_start[tid] = start
    t_end[tid] = end
    indptr, deps = graph.dependencies_csr()
    consumer = np.repeat(np.arange(n_tasks), np.diff(indptr))
    early = t_start[consumer] < t_end[deps] - EPS
    assert not early.any(), (
        f"task {consumer[early][0]} started before its producer "
        f"{deps[early][0]} finished")

    # placement: real nodes only, never a failed node after its failure
    assert ((node >= 0) & (node < cluster.nnodes)).all()
    for f in failed:
        late = (node == f) & (start >= fail_at)
        assert not late.any(), (
            f"task {tid[late][0]} ran on failed node {f} at {start[late][0]}")

    # core capacity: at no instant does a node run more tasks than cores
    for n in range(cluster.nnodes):
        on = (node == n) & (end > start)
        times = np.concatenate([start[on], end[on]])
        step = np.repeat([1, -1], on.sum())
        # an end sorts before a start at equal times: it frees its core first
        peak = np.cumsum(step[np.lexsort((step, times))]).max(initial=0)
        assert peak <= cluster.cores_per_node, (
            f"node {n} ran {peak} concurrent tasks "
            f"(cores={cluster.cores_per_node})")


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("kernel,P", GRID,
                         ids=[f"{k}_P{P}" for k, P in GRID])
@pytest.mark.parametrize("policy", POLICIES)
def test_conformance(policy, kernel, P, network):
    graph, cluster, trace = run(kernel, P, M, policy, network)
    assert_valid_schedule(graph, cluster, trace)

    bounds = schedule_lower_bounds(
        graph, cluster, data_home=build_case(kernel, P, M)[1],
        network=network)
    for name, val in bounds.as_dict().items():
        assert trace.makespan >= val - EPS, (
            f"{policy} beat the {name} lower bound: "
            f"makespan={trace.makespan} < {val}")


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("policy", POLICIES)
def test_rerun_bit_identical(policy, network):
    """Equal configuration → byte-identical canonical trace."""
    a = run("lu", 5, M, policy, network)[2]
    b = run("lu", 5, M, policy, network)[2]
    assert a.to_canonical() == b.to_canonical()


@pytest.mark.parametrize("kernel,P", GRID,
                         ids=[f"{k}_P{P}" for k, P in GRID])
def test_totals_policy_invariant(kernel, P):
    """Task/flop/message totals belong to the plan, not the policy."""
    base = None
    for policy in POLICIES:
        tr = run(kernel, P, M, policy, "nic")[2]
        totals = (tr.n_tasks, tr.total_flops, tr.n_messages, tr.bytes_sent)
        if base is None:
            base = totals
        else:
            assert totals == base, f"{policy} changed run totals: {totals}"


def test_makespan_comparison_recorded(capsys):
    """Record (don't assert) the policy ranking on one grid point —
    the table the conformance suite exists to make comparable."""
    rows = {}
    for policy in POLICIES:
        graph, cluster, trace = run("lu", 7, M, policy, "nic")
        bounds = schedule_lower_bounds(
            graph, cluster, data_home=build_case("lu", 7, M)[1])
        rows[policy] = (trace.makespan, trace.makespan / bounds.best)
    for policy, (mk, ratio) in sorted(rows.items(), key=lambda kv: kv[1]):
        print(f"{policy:>14}: makespan={mk:.6f}s ratio={ratio:.3f}")
        assert ratio >= 1.0 - EPS


# ----------------------------------------------------------------------
# degraded runs: same contract under node failure, for every policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
def test_conformance_under_faults(policy):
    from repro.runtime.faults import colrow_recovery

    pat = g2dbc(5)
    graph, home = build_case("lu", 5, M)
    cluster = make_cluster(5, policy)
    fail_at = 0.01
    trace = simulate(graph, cluster, data_home=home, record_tasks=True,
                     faults=f"fail:1@{fail_at:g},seed:3",
                     recovery=colrow_recovery(pat))
    assert_valid_schedule(graph, cluster, trace,
                          failed={1}, fail_at=fail_at)
    # full-capacity bounds stay valid: failure only removes capacity
    bounds = schedule_lower_bounds(graph, cluster, data_home=home)
    assert trace.makespan >= bounds.work_time - EPS
    assert trace.makespan >= bounds.critical_time - EPS


def test_fault_bounds_vs_survivors():
    """For a fail-at-start plan the survivor-restricted bounds are the
    honest comparison, and the degraded makespan respects them."""
    from repro.runtime.faults import colrow_recovery

    pat = g2dbc(5)
    graph, home = build_case("lu", 5, M)
    cluster = make_cluster(5)
    trace = simulate(graph, cluster, data_home=home,
                     faults="fail:1@1e-9,seed:3",
                     recovery=colrow_recovery(pat))
    full = schedule_lower_bounds(graph, cluster, data_home=home)
    surv = schedule_lower_bounds(graph, cluster, data_home=home,
                                 alive_nodes=[0, 2, 3, 4])
    # losing a node can only raise the work bound
    assert surv.work_time >= full.work_time
    assert trace.makespan >= surv.work_time - EPS
    assert trace.makespan >= surv.critical_time - EPS
    trace.sched_bounds = surv
    assert trace.optimality_ratio >= 1.0 - EPS
    with pytest.raises(ValueError, match="alive_nodes"):
        schedule_lower_bounds(graph, cluster, data_home=home, alive_nodes=[])


# ----------------------------------------------------------------------
# registry + validation (eager, on cluster construction)
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registered_names(self):
        assert set(POLICIES) >= {"priority", "fifo", "lifo", "lookahead",
                                 "comm_avoiding", "work_stealing"}
        assert list(POLICIES) == sorted(POLICIES)

    def test_make_scheduler_unknown(self):
        with pytest.raises(ValueError) as ei:
            make_scheduler("definitely-not-a-policy")
        for name in POLICIES:
            assert name in str(ei.value)

    def test_cluster_validates_eagerly(self):
        """A typo fails at ClusterSpec construction, naming every
        registered policy — not deep inside the first simulate call."""
        with pytest.raises(ValueError) as ei:
            make_cluster(4, policy="shortest-job-first")
        msg = str(ei.value)
        assert "scheduler" in msg
        for name in POLICIES:
            assert name in msg

    def test_priority_keys_are_plan_keys(self):
        """The default policy returns the plan's key table *by
        identity*, with no copy."""
        from repro.runtime.simplan import get_plan

        graph, home = build_case("lu", 5, M)
        plan = get_plan(graph, home)
        cluster = make_cluster(5)
        dur = graph.columns.flops / cluster.core_flops
        keys = make_scheduler("priority").static_keys(plan, graph, cluster, dur)
        assert keys is plan.keys

    def test_victim_order_shape(self):
        """Work-stealing victim lists: deterministic, self-free, total."""
        from repro.runtime.simplan import get_plan

        graph, home = build_case("lu", 5, M)
        plan = get_plan(graph, home)
        sched = make_scheduler("work_stealing")
        order = sched.victim_order(plan, 5)
        assert len(order) == 5
        for n, vs in enumerate(order):
            assert n not in vs
            assert sorted(vs) == [v for v in range(5) if v != n]
        again = sched.victim_order(plan, 5)
        assert order == again

    def test_same_machine_steals_pay_the_intra_link(self, sim_backends):
        """Under ``hierarchical`` with two ranks per machine, a task
        stolen from a rank of the thief's own machine runs its base time
        plus ``intra_message_time`` (the network's own charge for that
        tile), and one stolen across machines plus ``message_time``."""
        from repro.experiments.machine import sim_cluster
        from repro.runtime.network import intra_message_time

        dist = TileDistribution(g2dbc(8), 16, symmetric=False)
        graph, home = build_lu_graph(dist, 500)
        cluster = dataclasses.replace(sim_cluster(8), ranks_per_node=2,
                                      scheduler="work_stealing")
        machine = cluster.topology().rank_nodes
        base = cluster.task_time(graph.columns.flops)
        owner = graph.columns.node
        pen = {True: intra_message_time(cluster),
               False: cluster.message_time()}
        assert pen[True] < pen[False]
        for backend in sim_backends:
            trace = simulate(graph, cluster, data_home=home,
                             network="hierarchical", record_tasks=True)
            steals = {True: 0, False: 0}
            for tid, node, start, end in zip(
                    *(c.tolist() for c in trace.records.task_columns())):
                if node == owner[tid]:
                    continue
                same = bool(machine[node] == machine[owner[tid]])
                steals[same] += 1
                assert end - start == pytest.approx(
                    base[tid] + pen[same], rel=1e-9), (backend, tid)
            assert steals[True] > 0 and steals[False] > 0, backend

    def test_bottom_levels_chain(self):
        # 0 <- 1 <- 2 (deps of task t list its producers)
        indptr = np.array([0, 0, 1, 2], dtype=np.int64)
        deps = np.array([0, 1], dtype=np.int64)
        dur = np.array([1.0, 2.0, 3.0])
        bl = bottom_levels(indptr, deps, dur)
        assert bl.tolist() == [6.0, 5.0, 3.0]

    def test_bottom_levels_empty(self):
        bl = bottom_levels(np.zeros(1, dtype=np.int64),
                           np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.float64))
        assert bl.size == 0


# ----------------------------------------------------------------------
# optimality-ratio edge cases
# ----------------------------------------------------------------------
class TestOptimalityEdges:
    def test_serial_run_is_exactly_optimal(self):
        """P=1, one core: the schedule *is* the work bound."""
        graph, home = build_case("lu", 1, 6)
        cluster = make_cluster(1, cores=1)
        trace = simulate(graph, cluster, data_home=home)
        trace.sched_bounds = schedule_lower_bounds(graph, cluster,
                                                   data_home=home)
        assert trace.optimality_ratio == pytest.approx(1.0, abs=1e-9)
        assert trace.sched_bounds.comm_time == 0.0

    def test_fewer_tiles_than_nodes(self):
        """m < P leaves nodes idle; bounds and conformance still hold."""
        graph, cluster, trace = run("lu", 7, 4, "priority", "nic")
        assert_valid_schedule(graph, cluster, trace)
        bounds = schedule_lower_bounds(
            graph, cluster, data_home=build_case("lu", 7, 4)[1])
        assert trace.makespan >= bounds.best - EPS
        trace.sched_bounds = bounds
        assert 1.0 - EPS <= trace.optimality_ratio < float("inf")

    def test_ratio_without_bounds_is_inf(self):
        trace = run("lu", 5, M, "priority", "nic")[2]
        assert trace.optimality_ratio == float("inf")
        assert "optimality_ratio" not in trace.summary()
        assert "sched_bounds" not in trace.to_canonical()

    def test_bounds_in_summary_and_canonical(self):
        graph, cluster, trace = run("lu", 5, M, "priority", "nic")
        trace.sched_bounds = schedule_lower_bounds(
            graph, cluster, data_home=build_case("lu", 5, M)[1])
        s = trace.summary()
        assert s["schedule_bound_s"] == trace.sched_bounds.best
        assert s["optimality_ratio"] == trace.optimality_ratio
        canon = trace.to_canonical()
        assert canon["sched_bounds"] == trace.sched_bounds.to_canonical()
        assert canon["optimality_ratio"] == float(
            trace.optimality_ratio).hex()

    def test_empty_graph_bounds(self):
        from repro.runtime.graph import TaskGraph

        graph = TaskGraph(n_data=1, nnodes=2)
        bounds = schedule_lower_bounds(graph, make_cluster(2))
        assert bounds == ScheduleBounds(0.0, 0.0, 0.0, 0.0)

    def test_limiting_factor_names_binding_bound(self):
        b = ScheduleBounds(work_time=1.0, critical_time=3.0,
                           comm_time=2.0, bisection_time=0.0)
        assert b.best == 3.0
        assert b.limiting_factor == "critical-path"


# ----------------------------------------------------------------------
# property-based: policy choice never changes what ran, only when
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(P=st.sampled_from([4, 5, 6]), m=st.integers(4, 10),
       policy=st.sampled_from(POLICIES))
def test_property_policy_preserves_totals(P, m, policy):
    graph, home = build_case("lu", P, m)
    base = simulate(graph, make_cluster(P), data_home=home)
    tr = simulate(graph, make_cluster(P, policy), data_home=home)
    assert tr.n_tasks == base.n_tasks
    assert tr.total_flops == base.total_flops
    assert tr.n_messages == base.n_messages
    assert tr.makespan > 0


@settings(max_examples=10, deadline=None)
@given(P=st.sampled_from([4, 5]), m=st.integers(4, 9),
       policy=st.sampled_from(POLICIES))
def test_property_determinism(P, m, policy):
    graph, home = build_case("lu", P, m)
    a = simulate(graph, make_cluster(P, policy), data_home=home,
                 record_tasks=True)
    b = simulate(graph, make_cluster(P, policy), data_home=home,
                 record_tasks=True)
    assert a.to_canonical() == b.to_canonical()


@settings(max_examples=10, deadline=None)
@given(P=st.sampled_from([4, 5, 6]), m=st.integers(4, 10))
def test_property_bounds_below_every_policy(P, m):
    graph, home = build_case("lu", P, m)
    cluster = make_cluster(P)
    bounds = schedule_lower_bounds(graph, cluster, data_home=home)
    for policy in POLICIES:
        tr = simulate(graph, make_cluster(P, policy), data_home=home)
        assert tr.makespan >= bounds.best - EPS, (
            f"{policy} beat the lower bound at P={P}, m={m}")


def test_scheduler_classes_all_registered():
    """The registry is the single source of truth: every policy class
    carries its registered name and the simulator can instantiate it."""
    for name, cls in SCHEDULERS.items():
        sched = make_scheduler(name)
        assert isinstance(sched, cls)
        assert sched.name == name
        assert isinstance(sched.dynamic, bool)
        assert isinstance(sched.steals, bool)

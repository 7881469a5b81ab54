"""Tests for the schedule statistics module."""

import dataclasses

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.experiments.machine import sim_cluster
from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.patterns.sbc import sbc
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import KIND_NAMES, TaskGraph, TaskKind
from repro.runtime.resize import ResizeEvent
from repro.runtime.simulator import simulate
from repro.runtime.stats import (
    compute_stats,
    concurrency_profile,
    critical_path_breakdown,
    extract_critical_path,
    iteration_overlap,
)


def cluster(nnodes, cores=2):
    return ClusterSpec(nnodes=nnodes, cores_per_node=cores, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=0.0, tile_size=8)


def lu_run(pattern, n=8, cores=2):
    dist = TileDistribution(pattern, n)
    graph, home = build_lu_graph(dist, 8)
    trace = simulate(graph, cluster(pattern.nnodes, cores), data_home=home,
                     record_tasks=True)
    return graph, trace


class TestComputeStats:
    def test_requires_records(self):
        dist = TileDistribution(bc2d(2, 2), 4)
        graph, home = build_lu_graph(dist, 8)
        trace = simulate(graph, cluster(4), data_home=home)
        with pytest.raises(ValueError):
            compute_stats(trace, graph)

    def test_kind_times_cover_busy_time(self):
        graph, trace = lu_run(bc2d(2, 2))
        stats = compute_stats(trace, graph)
        assert sum(stats.time_by_kind.values()) == pytest.approx(trace.busy_time.sum())

    def test_kind_counts(self):
        graph, trace = lu_run(bc2d(2, 2), n=6)
        stats = compute_stats(trace, graph)
        assert stats.count_by_kind["GETRF"] == 6
        assert sum(stats.count_by_kind.values()) == len(graph)

    def test_gemm_dominates_large_lu(self):
        graph, trace = lu_run(bc2d(2, 2), n=10)
        stats = compute_stats(trace, graph)
        assert stats.busiest_kind() == "GEMM"

    def test_parallelism_bounds(self):
        graph, trace = lu_run(bc2d(2, 2), n=8, cores=2)
        stats = compute_stats(trace, graph)
        total_cores = 8
        assert 0 < stats.avg_parallelism <= stats.peak_parallelism <= total_cores

    def test_idle_fraction_in_range(self):
        graph, trace = lu_run(bc2d(2, 2))
        stats = compute_stats(trace, graph)
        assert (stats.node_idle_fraction >= -1e-9).all()
        assert (stats.node_idle_fraction <= 1.0).all()


class TestConcurrency:
    def test_profile_returns_to_zero(self):
        graph, trace = lu_run(bc2d(2, 2), n=5)
        profile = concurrency_profile(trace)
        assert profile[-1][1] == 0
        assert all(running >= 0 for _, running in profile)

    def test_single_task_profile(self):
        g = TaskGraph(n_data=1, nnodes=1)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        trace = simulate(g, cluster(1), record_tasks=True)
        profile = concurrency_profile(trace)
        assert profile[0] == (0.0, 1)
        assert profile[-1][1] == 0


class TestIterationOverlap:
    def test_sequential_chain_no_overlap(self):
        g = TaskGraph(n_data=1, nnodes=1)
        for k in range(3):
            g.submit(TaskKind.GEMM, 0, 0, k, 0, 1e9, (g.current(0),), 0)
        trace = simulate(g, cluster(1), record_tasks=True)
        assert iteration_overlap(trace, g) == 1

    def test_lu_pipelines_iterations(self):
        """The task-based model overlaps iterations (Section II-C) —
        the whole point of avoiding fork-join synchronization."""
        graph, trace = lu_run(bc2d(2, 2), n=10, cores=4)
        assert iteration_overlap(trace, graph) >= 2

    def test_cholesky_pipelines_iterations(self):
        dist = TileDistribution(sbc(10), 10, symmetric=True)
        graph, home = build_cholesky_graph(dist, 8)
        trace = simulate(graph, cluster(10, 2), data_home=home, record_tasks=True)
        assert iteration_overlap(trace, graph) >= 2


class TestCriticalPath:
    def test_chain_is_whole_path(self):
        """A pure dependency chain IS the critical path."""
        g = TaskGraph(n_data=1, nnodes=1)
        for k in range(4):
            g.submit(TaskKind.GEMM, 0, 0, k, 0, 1e9, (g.current(0),), 0)
        trace = simulate(g, cluster(1), record_tasks=True)
        path = extract_critical_path(trace, g)
        assert path == [0, 1, 2, 3]

    def test_path_is_dependency_chain(self):
        graph, trace = lu_run(bc2d(2, 2), n=8)
        path = extract_critical_path(trace, graph)
        tid, _, start, end = trace.records.task_columns()
        t_start = dict(zip(tid.tolist(), start.tolist()))
        t_end = dict(zip(tid.tolist(), end.tolist()))
        for prev, cur in zip(path, path[1:]):
            assert prev in graph.dependencies(graph.task(cur))
            assert t_end[prev] <= t_start[cur] + 1e-15
        assert t_end[path[-1]] == end.max()

    def test_breakdown_covers_makespan(self):
        """Task time + wait time along the chain ends at the makespan."""
        graph, trace = lu_run(bc2d(2, 2), n=8)
        bd = critical_path_breakdown(trace, graph)
        assert bd["n_tasks"] == len(bd["path"])
        assert bd["task_time"] > 0
        assert bd["wait_time"] >= 0
        assert bd["coverage"] == pytest.approx(1.0)
        assert sum(bd["time_by_kind"].values()) == pytest.approx(bd["task_time"])

    def test_requires_records(self):
        dist = TileDistribution(bc2d(2, 2), 4)
        graph, home = build_lu_graph(dist, 8)
        trace = simulate(graph, cluster(4), data_home=home)
        with pytest.raises(ValueError):
            extract_critical_path(trace, graph)


# ---------------------------------------------------------------------------
# The NumPy functions against the per-record walkers they replaced
# ---------------------------------------------------------------------------
def _records(trace):
    """``(tid, node, start, end)`` per task record, in record order."""
    return list(zip(*(c.tolist() for c in trace.records.task_columns())))


def ref_concurrency_profile(trace):
    events = []
    for _, _, start, end in _records(trace):
        events.append((start, +1))
        events.append((end, -1))
    events.sort()
    profile = []
    running = 0
    for t, delta in events:
        running += delta
        if profile and profile[-1][0] == t:
            profile[-1] = (t, running)
        else:
            profile.append((t, running))
    return profile


def ref_iteration_overlap(trace, graph):
    k_col = graph.columns.k
    events = []
    for tid, _, start, end in _records(trace):
        k = int(k_col[tid])
        events.append((start, 1, k))
        events.append((end, 0, k))
    events.sort(key=lambda e: (e[0], e[1]))
    active = {}
    best = 0
    for _, is_start, k in events:
        if is_start:
            active[k] = active.get(k, 0) + 1
            best = max(best, len(active))
        else:
            active[k] -= 1
            if active[k] == 0:
                del active[k]
    return best


def ref_extract_critical_path(trace, graph):
    end = {tid: e for tid, _, _, e in _records(trace)}  # last record wins
    path = []
    if not end:
        return path
    cur = max(end, key=end.get)
    while True:
        path.append(cur)
        deps = graph.dependencies(cur)
        if not deps:
            break
        cur = max(deps, key=lambda d: end[d])
    path.reverse()
    return path


def ref_critical_path_breakdown(trace, graph):
    path = ref_extract_critical_path(trace, graph)
    rec = {r[0]: r for r in _records(trace)}  # last record wins
    time_by_kind = {}
    wait = 0.0
    for prev, cur in zip(path, path[1:]):
        wait += max(0.0, rec[cur][2] - rec[prev][3])
    if path:
        wait += max(0.0, rec[path[0]][2])
    for tid in path:
        kind = KIND_NAMES[graph.columns.kind[tid]]
        time_by_kind[kind] = (time_by_kind.get(kind, 0.0)
                              + (rec[tid][3] - rec[tid][2]))
    span = trace.makespan or 1.0
    return {
        "path": path,
        "n_tasks": len(path),
        "time_by_kind": time_by_kind,
        "wait_time": wait,
        "task_time": sum(time_by_kind.values(), 0.0),
        "coverage": (sum(time_by_kind.values()) + wait) / span,
    }


def ref_compute_stats(trace, graph):
    """The :class:`TraceStats` fields other than the idle fractions."""
    time_by_kind = {}
    count_by_kind = {}
    for tid, _, start, end in _records(trace):
        kind = KIND_NAMES[graph.columns.kind[tid]]
        time_by_kind[kind] = time_by_kind.get(kind, 0.0) + (end - start)
        count_by_kind[kind] = count_by_kind.get(kind, 0) + 1
    profile = ref_concurrency_profile(trace)
    avg = 0.0
    peak = 0
    for (t0, running), (t1, _) in zip(profile, profile[1:]):
        avg += running * (t1 - t0)
        peak = max(peak, running)
    if profile:
        peak = max(peak, profile[-1][1])
    avg /= trace.makespan or 1.0
    return (time_by_kind, count_by_kind, avg, peak,
            ref_iteration_overlap(trace, graph))


DIFFERENTIAL_RUNS = ("empty", "ties", "nic", "contention", "cholesky", "fifo",
                     "work_stealing", "fork_join", "resize", "refault")


def differential_run(name):
    """One recorded run of each kind the statistics must handle."""
    if name == "empty":
        graph = TaskGraph(n_data=1, nnodes=1)
        return graph, simulate(graph, cluster(1), record_tasks=True)
    if name == "ties":
        # tasks 2 and 4 both end last, and task 2's two producers end
        # together: the critical path's tie-breaks decide it
        g = TaskGraph(n_data=4, nnodes=2)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1e9, (g.current(0),), 0)
        g.submit(TaskKind.GEMM, 1, 0, 0, 0, 1e9, (g.current(1),), 1)
        g.submit(TaskKind.GEMM, 2, 0, 1, 0, 1e9,
                 (g.current(0), g.current(1), g.current(2)), 2)
        for _ in range(2):
            g.submit(TaskKind.GEMM, 3, 0, 0, 1, 1e9, (g.current(3),), 3)
        return g, simulate(g, cluster(2), record_tasks=True)
    if name == "cholesky":
        graph, home = build_cholesky_graph(
            TileDistribution(sbc(10), 10, symmetric=True), 8)
        return graph, simulate(graph, cluster(10), data_home=home,
                               record_tasks=True)
    tile = 500 if name == "refault" else 8
    graph, home = build_lu_graph(
        TileDistribution(g2dbc(7), 10, symmetric=False), tile)
    cl, kw = cluster(7), {}
    if name == "contention":
        kw = {"network": "contention"}
    elif name in ("fifo", "work_stealing"):
        cl = dataclasses.replace(cl, scheduler=name)
    elif name == "fork_join":
        cl = dataclasses.replace(cl, fork_join=True)
    elif name == "resize":
        half = simulate(graph, cl, data_home=home).makespan / 2
        kw = {"resize": ResizeEvent(time=half, nnodes=9)}
    elif name == "refault":
        # node 2's loss forces finished tasks to run again
        cl, kw = sim_cluster(7), {"faults": "fail:2@0.05"}
    return graph, simulate(graph, cl, data_home=home, record_tasks=True, **kw)


@pytest.mark.parametrize("name", DIFFERENTIAL_RUNS)
def test_columns_match_per_record_walk(name):
    """Each function equals its per-record walk exactly: ``==`` on
    every value, floats bit for bit, including the tie-breaks and a
    re-executed task's last record."""
    graph, trace = differential_run(name)
    if name == "refault":
        assert len(trace.records.task_columns()[0]) > len(graph)
    if name == "ties":
        assert extract_critical_path(trace, graph) == [0, 2]
    assert concurrency_profile(trace) == ref_concurrency_profile(trace)
    assert iteration_overlap(trace, graph) == ref_iteration_overlap(trace, graph)
    assert (extract_critical_path(trace, graph)
            == ref_extract_critical_path(trace, graph))
    assert (critical_path_breakdown(trace, graph)
            == ref_critical_path_breakdown(trace, graph))
    stats = compute_stats(trace, graph)
    assert (stats.time_by_kind, stats.count_by_kind, stats.avg_parallelism,
            stats.peak_parallelism, stats.max_iteration_overlap) \
        == ref_compute_stats(trace, graph)

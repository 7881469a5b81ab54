"""Tests for the version-based task graph."""

import numpy as np
import pytest

from repro.runtime import graph as graph_mod
from repro.runtime.graph import TaskGraph, TaskKind


def make_graph():
    return TaskGraph(n_data=4, nnodes=2)


class TestVersioning:
    def test_initial_version_zero(self):
        g = make_graph()
        assert g.version(0) == 0
        assert g.current(0) == (0, 0)

    def test_submit_bumps_version(self):
        g = make_graph()
        t = g.submit(TaskKind.GETRF, 0, 0, 0, 0, 10.0, (g.current(0),), 0)
        assert t.write == (0, 1)
        assert g.version(0) == 1
        assert g.producer_for(np.array([0]), np.array([1])).tolist() == [t.tid]

    def test_tids_sequential(self):
        g = make_graph()
        for i in range(3):
            t = g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
            assert t.tid == i
        assert len(g) == 3

    def test_total_flops_accumulates(self):
        g = make_graph()
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 5.0, (), 0)
        g.submit(TaskKind.GEMM, 0, 1, 0, 0, 7.0, (), 1)
        assert g.total_flops == 12.0


class TestDependencies:
    def test_producer_dependency(self):
        g = make_graph()
        t1 = g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        t2 = g.submit(TaskKind.TRSM, 1, 0, 0, 1, 1.0, (g.current(1), g.current(0)), 1)
        assert g.dependencies(t2) == [t1.tid]

    def test_version0_reads_have_no_producer(self):
        g = make_graph()
        t = g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        assert g.dependencies(t) == []

    def test_waw_chain_via_inplace_reads(self):
        g = make_graph()
        t1 = g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        t2 = g.submit(TaskKind.GEMM, 0, 0, 1, 0, 1.0, (g.current(0),), 0)
        assert g.dependencies(t2) == [t1.tid]


class TestConsumersAndMessages:
    def test_message_count_remote_readers_only(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        # two tasks on node 1 read version (0,1): ONE message
        g.submit(TaskKind.TRSM, 1, 0, 0, 1, 1.0, (g.current(1), (0, 1)), 1)
        g.submit(TaskKind.TRSM, 0, 1, 0, 1, 1.0, (g.current(2), (0, 1)), 2)
        assert g.message_count() == 1

    def test_local_reads_are_free(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        g.submit(TaskKind.TRSM, 1, 0, 0, 0, 1.0, (g.current(1), (0, 1)), 1)
        assert g.message_count() == 0


class TestValidate:
    def test_valid_graph_passes(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        g.submit(TaskKind.TRSM, 1, 0, 0, 1, 1.0, (g.current(1), g.current(0)), 1)
        g.validate()

    def test_read_of_future_version_detected(self):
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, ((1, 5),), 0)
        with pytest.raises(ValueError, match="before it is produced"):
            g.validate()

    def test_repr_compact(self):
        g = make_graph()
        t = g.submit(TaskKind.GEMM, 2, 3, 1, 0, 1.0, (), 0)
        assert repr(t) == "GEMM(2,3;k=1)@0"


class TestMessageCountSinglePass:
    """Regression: :meth:`TaskGraph.message_count` must resolve version
    homes through the precomputed first-writer index in ONE vectorized
    pass — the pre-refactor implementation rescanned the whole task
    list for every version whose producer it hadn't tracked (quadratic
    on panel-heavy graphs)."""

    def _lu_graph(self):
        from repro.distribution import TileDistribution
        from repro.dla.lu import build_lu_graph
        from repro.patterns.g2dbc import g2dbc

        dist = TileDistribution(g2dbc(5), 10, symmetric=False)
        return build_lu_graph(dist, 8)

    def test_matches_object_level_recount(self):
        graph, _ = self._lu_graph()
        # brute force over materialized tasks: one message per unique
        # (data, version, remote consumer node)
        tasks = [graph.task(tid) for tid in range(len(graph))]
        producer_node = {}
        first_writer_node = {}
        for t in tasks:
            producer_node[t.write] = t.node
            first_writer_node.setdefault(t.write[0], t.node)
        pairs = set()
        for t in tasks:
            for d, v in t.reads:
                home = producer_node.get((d, v), first_writer_node.get(d, -1))
                if home >= 0 and home != t.node:
                    pairs.add((d, v, t.node))
        assert graph.message_count() == len(pairs)

    def test_single_vectorized_pass(self, monkeypatch):
        graph, _ = self._lu_graph()
        graph.columns  # freeze the columns before instrumenting
        calls = {"producer_for": 0}
        orig = TaskGraph.producer_for

        def counting(self, data, version):
            calls["producer_for"] += 1
            return orig(self, data, version)

        def no_tasks(self, tid):
            raise AssertionError(
                "message_count must not materialize Task objects")

        monkeypatch.setattr(TaskGraph, "producer_for", counting)
        monkeypatch.setattr(TaskGraph, "task", no_tasks)
        assert graph.message_count() > 0
        # exactly one batched producer lookup, no per-task fallback scan
        assert calls["producer_for"] == 1


def _append(g, write_data, read_data=None):
    """One GEMM per written datum, each reading that datum's current
    version plus ``read_data`` (one extra read per task) when given."""
    wd = np.asarray(write_data, dtype=np.int64)
    own = [g.version(d) for d in wd.tolist()]
    if read_data is None:
        rd, rv, rc = wd, own, np.ones(wd.size, dtype=np.int64)
    else:
        extra = np.asarray(read_data, dtype=np.int64)
        rd = np.stack([wd, extra], axis=1).ravel()
        rv = np.stack([own, np.zeros(wd.size, dtype=np.int64)],
                      axis=1).ravel()
        rc = np.full(wd.size, 2, dtype=np.int64)
    g.append_batch(kind=TaskKind.GEMM, i=wd, j=0, k=0, node=0, flops=1.0,
                   read_data=rd, read_version=rv, read_counts=rc,
                   write_data=wd)


def _snapshot(g):
    cols = g.columns
    return (len(g), {name: a.copy() for name, a in vars(cols).items()},
            [g.version(d) for d in range(g.n_data)], g.total_flops)


def _assert_unchanged(g, snap):
    n, cols, versions, flops = snap
    assert len(g) == n
    for name, a in vars(g.columns).items():
        np.testing.assert_array_equal(a, cols[name], err_msg=name)
    assert [g.version(d) for d in range(g.n_data)] == versions
    assert g.total_flops == flops


class TestAppendBatchDuplicateWrites:
    """A batch must write each datum at most once: its write versions
    are derived from one read of the current versions."""

    @pytest.mark.parametrize("write_data", [
        [3, 3, 4],                        # adjacent
        [5] + list(range(6, 40)) + [5],   # distant
        [7, 2, 9, 2],
    ])
    def test_repeated_datum_raises_and_changes_nothing(self, write_data):
        g = TaskGraph(n_data=64, nnodes=2)
        _append(g, [0, 1, 2, 3])
        snap = _snapshot(g)
        with pytest.raises(ValueError, match="writes a datum twice"):
            _append(g, write_data)
        _assert_unchanged(g, snap)

    def test_distinct_data_pass(self):
        g = TaskGraph(n_data=64, nnodes=2)
        _append(g, np.arange(63, -1, -1))
        _append(g, np.arange(0, 64, 2))
        assert len(g) == 96
        assert g.version(0) == 2 and g.version(1) == 1
        g.validate()

    def test_batches_of_one_and_zero_pass(self):
        g = TaskGraph(n_data=4, nnodes=2)
        _append(g, [2])
        _append(g, [2])
        snap = _snapshot(g)
        _append(g, [])
        _assert_unchanged(g, snap)
        assert g.version(2) == 2


class TestIndexLimit:
    """Tasks, flat reads and data ids must fit the int32 index columns;
    checked against a lowered :data:`INDEX_LIMIT`."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "INDEX_LIMIT", 6)

    def test_append_batch_task_count(self):
        g = TaskGraph(n_data=8, nnodes=2)
        _append(g, [0, 1, 2, 3])
        snap = _snapshot(g)
        with pytest.raises(ValueError, match="task count 7 .*limit 6"):
            _append(g, [4, 5, 6])
        _assert_unchanged(g, snap)
        _append(g, [4, 5])
        assert len(g) == 6

    def test_append_batch_flat_reads(self):
        g = TaskGraph(n_data=8, nnodes=2)
        _append(g, [0, 1], read_data=[2, 3])
        with pytest.raises(ValueError, match="flat read count 8 .*limit 6"):
            _append(g, [2, 3], read_data=[4, 5])
        assert len(g) == 2

    def test_append_batch_data_id(self):
        g = TaskGraph(n_data=10, nnodes=2)
        with pytest.raises(ValueError, match="data id 7 .*limit 6"):
            _append(g, [1, 7])
        with pytest.raises(ValueError, match="data id 9 .*limit 6"):
            _append(g, [1], read_data=[9])
        assert len(g) == 0

    def test_submit(self):
        g = TaskGraph(n_data=10, nnodes=2)
        with pytest.raises(ValueError, match="data id 8 .*limit 6"):
            g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, (), 8)
        with pytest.raises(ValueError, match="data id 9 .*limit 6"):
            g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, ((9, 0),), 1)
        for d in range(3):
            g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, ((d, 0), (d + 1, 0)), d)
        with pytest.raises(ValueError, match="flat read count 7 .*limit 6"):
            g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, ((3, 0),), 3)
        for d in range(3):
            g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, (), d)
        with pytest.raises(ValueError, match="task count 7 .*limit 6"):
            g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, (), 4)
        assert len(g) == 6
        assert g.version(4) == 0

    def test_from_columns(self):
        g = TaskGraph(n_data=10, nnodes=2)
        _append(g, [0, 1, 2])
        cols = g.columns
        cat = {"kind": cols.kind, "i": cols.i, "j": cols.j, "k": cols.k,
               "node": cols.node, "flops": cols.flops,
               "wd": cols.write_data, "wv": cols.write_version,
               "rc": np.diff(cols.read_indptr), "rd": cols.read_data,
               "rv": cols.read_version}
        copy = TaskGraph.from_columns(cat, 10, 2, g.total_flops)
        assert len(copy) == 3
        with pytest.raises(ValueError, match="data id 8 .*limit 6"):
            TaskGraph.from_columns(dict(cat, rd=np.array([0, 1, 8])),
                                   10, 2, g.total_flops)
        long = {key: np.concatenate([a, a, a]) for key, a in cat.items()}
        with pytest.raises(ValueError, match="task count 9 .*limit 6"):
            TaskGraph.from_columns(long, 10, 2, 3 * g.total_flops)

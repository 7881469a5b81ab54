"""Tests for the version-based task graph."""

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.bc2d import bc2d
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
        """``submit`` refuses the read, naming the task and the read,
        before any state changes: its producer would be -1, which the
        lowering takes for a version-0 fetch."""
        g = make_graph()
        with pytest.raises(ValueError, match=r"GETRF\(0,0;k=0\)@0: reads "
                           r"\(1,5\) before it is produced"):
            g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, ((1, 5),), 0)
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, ((0, 0),), 0)
        with pytest.raises(ValueError, match=r"reads \(0,2\) before"):
            g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, ((0, 2),), 0)
        assert len(g) == 1 and g.version(0) == 1 and g.version(1) == 0
        assert g.columns.read_producer.tolist() == [-1]
        g.validate()

    @pytest.mark.parametrize("reads,write,error", [
        (((-1, 0),), -1, "writes datum -1"),   # NumPy would wrap to 3
        (((-1, 0),), 0, "reads datum -1"),
        (((0, 1),), 4, "writes datum 4"),      # == n_data
        (((4, 0),), 0, "reads datum 4"),
    ], ids=["negative-write", "negative-read", "write-n_data", "read-n_data"])
    def test_data_id_out_of_range_refused(self, reads, write, error):
        """``submit`` refuses a datum outside ``[0, n_data)``, naming
        the task, before any state changes."""
        g = make_graph()
        g.submit(TaskKind.GETRF, 0, 0, 0, 0, 1.0, (g.current(0),), 0)
        cols = g.columns
        with pytest.raises(ValueError, match=rf"GEMM\(1,2;k=0\)@1: {error} "
                           r"outside \[0, 4\)"):
            g.submit(TaskKind.GEMM, 1, 2, 0, 1, 1.0, reads, write)
        assert g.columns is cols  # no append since the first task
        assert len(g) == 1 and g.total_flops == 1.0
        assert [g.version(d) for d in range(4)] == [1, 0, 0, 0]
        g.validate()

    @pytest.mark.parametrize("rd,rv", [
        ([1], [5]),     # a version nobody writes: producer -1
        ([0], [1]),     # the version the reading task itself writes
    ])
    def test_unproduced_read_of_adopted_columns_detected(self, rd, rv):
        """Columns adopted without producers can still name such a
        read; ``validate`` finds it."""
        cat = {"kind": [TaskKind.GETRF], "i": [0], "j": [0], "k": [0],
               "node": [0], "flops": [1.0], "wd": [0], "wv": [1],
               "rc": [1], "rd": rd, "rv": rv}
        g = TaskGraph.from_columns(cat, 4, 2, 1.0)
        with pytest.raises(ValueError, match="before it is produced"):
            g.validate()

    def test_repr_compact(self):
        g = make_graph()
        t = g.submit(TaskKind.GEMM, 2, 3, 1, 0, 1.0, (), 0)
        assert repr(t) == "GEMM(2,3;k=1)@0"


def _assert_oracle_producers(g):
    """The graph's read producers equal the sort-based lookup's."""
    cols = g.columns
    assert cols.read_producer.dtype == np.int32
    np.testing.assert_array_equal(
        cols.read_producer, g.producer_for(cols.read_data, cols.read_version))


def _raw_columns(g):
    cols = g.columns
    return {"kind": cols.kind, "i": cols.i, "j": cols.j, "k": cols.k,
            "node": cols.node, "flops": cols.flops,
            "wd": cols.write_data, "wv": cols.write_version,
            "rc": np.diff(cols.read_indptr), "rd": cols.read_data,
            "rv": cols.read_version, "rp": cols.read_producer}


class TestReadProducers:
    """Every way into a graph gives each read its producer; the
    sort-based :meth:`TaskGraph.producer_for` is the oracle."""

    def _submitted(self):
        g = make_graph()
        g.submit(TaskKind.GEMM, 0, 0, 0, 0, 1.0, ((0, 0),), 0)        # t0
        g.submit(TaskKind.GEMM, 0, 0, 1, 0, 1.0, ((0, 1),), 0)        # t1
        g.submit(TaskKind.GEMM, 1, 0, 1, 1, 1.0, ((1, 0), (0, 2)), 1)  # t2
        # an older version, version 0 of a written datum, a never
        # written datum, the current version
        g.submit(TaskKind.GEMM, 2, 0, 1, 1, 1.0,
                 ((0, 1), (1, 0), (3, 0), (1, 1)), 2)
        return g

    def test_submit(self):
        g = self._submitted()
        assert g.columns.read_producer.tolist() == [-1, 0, -1, 1,
                                                    0, -1, -1, 2]
        _assert_oracle_producers(g)
        assert g.dependencies(3) == [0, 2]

    @pytest.mark.parametrize("with_producers", [True, False])
    def test_from_columns_of_a_copy(self, with_producers):
        g = self._submitted()
        cat = _raw_columns(g)
        if not with_producers:
            del cat["rp"]
        copy = TaskGraph.from_columns(cat, g.n_data, g.nnodes, g.total_flops)
        np.testing.assert_array_equal(copy.columns.read_producer,
                                      g.columns.read_producer)
        _assert_oracle_producers(copy)
        # a copy keeps growing: submit gathers its writers from the
        # adopted columns
        copy.submit(TaskKind.GEMM, 0, 0, 2, 0, 1.0, ((0, 1), (0, 2)), 0)
        assert copy.columns.read_producer[-2:].tolist() == [0, 1]
        _assert_oracle_producers(copy)

    @pytest.mark.parametrize("P,spec", [(7, "9@3e-5"), (9, "5@3e-5")],
                             ids=["grow", "shrink"])
    def test_resize_phase_b(self, P, spec, monkeypatch):
        """Resize renumbers the producers of the remaining tasks; a read
        of the last drained version, phase B's version 0, gets -1."""
        from repro.patterns.library import shipped_pattern
        from repro.runtime.cluster import ClusterSpec
        from repro.runtime.simulator import simulate

        graph, home = build_lu_graph(
            TileDistribution(shipped_pattern(P, "lu"), 10, symmetric=False),
            8)
        adopted = []
        adopt = TaskGraph.from_columns

        def spy(cat, *args):
            adopted.append((set(cat), adopt(cat, *args)))
            return adopted[-1][1]

        monkeypatch.setattr(TaskGraph, "from_columns", staticmethod(spy))
        cluster = ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                              bandwidth_Bps=1e9, latency_s=1e-6, tile_size=8)
        trace = simulate(graph, cluster, data_home=home, resize=spec)
        (keys, phase_b), = adopted
        assert "rp" in keys
        rs = trace.resize_stats
        assert rs.tasks_done > 0
        assert len(phase_b) == rs.tasks_remaining > 0
        _assert_oracle_producers(phase_b)


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


class TestIndexLimit:
    """Tasks, flat reads and data ids must fit the int32 index columns;
    checked against a lowered :data:`INDEX_LIMIT`."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "INDEX_LIMIT", 6)

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
        for d in range(3):
            g.submit(TaskKind.GEMM, d, 0, 0, 0, 1.0, ((d, 0),), d)
        cat = _raw_columns(g)
        copy = TaskGraph.from_columns(cat, 10, 2, g.total_flops)
        assert len(copy) == 3
        with pytest.raises(ValueError, match="data id 8 .*limit 6"):
            TaskGraph.from_columns(dict(cat, rd=np.array([0, 1, 8])),
                                   10, 2, g.total_flops)
        long = {key: np.concatenate([a, a, a]) for key, a in cat.items()}
        with pytest.raises(ValueError, match="task count 9 .*limit 6"):
            TaskGraph.from_columns(long, 10, 2, 3 * g.total_flops)

    @pytest.mark.parametrize("kernel,m,match", [
        ("lu", 2, "flat read count 9 .*limit 6"),
        ("cholesky", 3, "task count 10 .*limit 6"),
    ])
    def test_builders(self, kernel, m, match, monkeypatch):
        """The LU and Cholesky builders size their columns in closed
        form and refuse an oversize graph before allocating any."""
        dist = TileDistribution(bc2d(2, 2), m, symmetric=kernel == "cholesky")
        build = build_lu_graph if kernel == "lu" else build_cholesky_graph

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the index check")

        monkeypatch.setattr(graph_mod.np, "empty", no_alloc)
        with pytest.raises(ValueError, match=match):
            build(dist, 8)

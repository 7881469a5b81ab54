"""The message plan and its footprint.

``_reference_plan`` is the earlier lowering, frozen as the oracle: an
int64 ``np.unique`` over the message codes plus a second stable sort
for the waiters, and a mask per read class.  :func:`build_plan` derives
the same tables in int32, by two lowerings: NumPy passes around one
stable sort (the ``python`` backend) and two linear C passes (``c``).
Each must equal the oracle value for value on every graph and
placement, since uid numbering and CSR orders fix the event order of
every schedule.  The tests call :func:`build_plan` under each backend,
not :func:`get_plan`, whose cache both backends share.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.schedbounds import schedule_lower_bounds
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.patterns.migrate import relabel_pattern
from repro.runtime import csim
from repro.runtime.backends import BACKEND_ENV
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph
from repro.runtime.simplan import build_plan, get_plan
from repro.runtime.simulator import SimulationError
from tests.conftest import available_sim_backends
from tests.runtime.test_simulator_properties import _graph, _relabel, case

TILE = 8

#: fields the oracle and :class:`SimPlan` share
FIELDS = ("pending", "ld_indptr", "ld_tasks", "keys", "msg_data",
          "msg_version", "msg_dst", "msg_src", "w_indptr", "w_tasks",
          "push_indptr", "push_uids", "init_uids")


def _csr(values, groups, n_groups):
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups, minlength=n_groups) if groups.size else \
        np.zeros(n_groups, dtype=np.int64)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, values[order]


def _reference_plan(graph, data_home=None):
    """The earlier ``build_plan``, verbatim but for its inputs, which
    are widened to the int64 it was written for; the producers come
    from the sort-based lookup, not from the graph's own column."""
    cols = graph.columns
    n_tasks = cols.n_tasks
    node_a = cols.node.astype(np.int64)
    rt = graph.read_task.astype(np.int64)
    rd = cols.read_data.astype(np.int64)
    rv = cols.read_version.astype(np.int64)
    rp = graph.producer_for(rd, rv)
    k = cols.k.astype(np.int64)
    rnode = node_a[rt]

    has_prod = rp >= 0
    pnode = node_a[np.where(has_prod, rp, 0)]
    is_local = has_prod & (pnode == rnode)
    is_remote = has_prod & ~is_local
    if data_home is None:
        is_init = np.zeros(rd.shape, dtype=bool)
        home_a = None
    else:
        home_a = np.asarray(data_home, dtype=np.int64)
        is_init = ~has_prod & (home_a[rd] != rnode)

    pending = np.bincount(rt[is_local | is_remote | is_init],
                          minlength=n_tasks).astype(np.int64, copy=False)
    ld_indptr, ld_tasks = _csr(rt[is_local], rp[is_local], n_tasks)
    keys = ((k << 40) | (cols.kind.astype(np.int64) << 32)
            | np.arange(n_tasks, dtype=np.int64))

    M = int(rv.max()) + 1 if rv.size else 1
    N = int(node_a.max()) + 1 if node_a.size else 1
    mask = is_remote | is_init
    codes = (rd[mask] * M + rv[mask]) * N + rnode[mask]
    uniq, first, inv = np.unique(codes, return_index=True,
                                 return_inverse=True)
    n_msgs = int(uniq.size)
    msg_dst = uniq % N
    refc = uniq // N
    msg_version = refc % M
    msg_data = refc // M
    msg_producer = rp[mask][first]
    remote = msg_producer >= 0
    if home_a is None:
        msg_src = np.where(remote, node_a[np.where(remote, msg_producer, 0)],
                           -1)
    else:
        msg_src = np.where(remote, node_a[np.where(remote, msg_producer, 0)],
                           home_a[msg_data])
    w_indptr, w_tasks = _csr(rt[mask], inv, n_msgs)
    r_uids = np.flatnonzero(remote)
    r_first = r_uids[np.argsort(first[r_uids], kind="stable")]
    push_indptr, push_uids = _csr(r_first, msg_producer[r_first], n_tasks)
    i_uids = np.flatnonzero(~remote)
    init_uids = i_uids[np.argsort(first[i_uids], kind="stable")]
    return dict(
        n_tasks=n_tasks, pending=pending, ld_indptr=ld_indptr,
        ld_tasks=ld_tasks, keys=keys, n_msgs=n_msgs, msg_data=msg_data,
        msg_version=msg_version, msg_dst=msg_dst, msg_src=msg_src,
        w_indptr=w_indptr, w_tasks=w_tasks, push_indptr=push_indptr,
        push_uids=push_uids, init_uids=init_uids)


def _plans(graph, data_home):
    """``(backend, plan)`` from :func:`build_plan` under every available
    backend."""
    for backend in available_sim_backends():
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(BACKEND_ENV, backend)
            yield backend, build_plan(graph, data_home)


def _buffer_nbytes(a):
    """Size of the buffer ``a`` owns or views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes if a.base is None else memoryview(a.base).nbytes


def _assert_own_buffers(plan, backend):
    """No plan array views a larger buffer, which would hold memory
    that ``plan.nbytes`` does not count."""
    for name in FIELDS:
        got = getattr(plan, name)
        assert _buffer_nbytes(got) == got.nbytes, (backend, name)


def _assert_matches_oracle(graph, data_home):
    ref = _reference_plan(graph, data_home)
    for backend, plan in _plans(graph, data_home):
        assert plan.n_tasks == ref["n_tasks"], backend
        assert plan.n_msgs == ref["n_msgs"], backend
        for name in FIELDS:
            got = getattr(plan, name)
            assert got.dtype == (np.int64 if name == "keys"
                                 else np.int32), (backend, name)
            np.testing.assert_array_equal(got, ref[name],
                                          err_msg=f"{backend} {name}")
        _assert_own_buffers(plan, backend)
    return plan


def _lu(P, m):
    return build_lu_graph(TileDistribution(g2dbc(P), m, symmetric=False),
                          TILE)


def _cholesky(P, m):
    pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
    return build_cholesky_graph(TileDistribution(pat, m, symmetric=True),
                                TILE)


@pytest.mark.parametrize("build,P,m", [
    (_lu, 5, 12), (_lu, 7, 30), (_lu, 23, 20), (_lu, 1, 6),
    (_cholesky, 35, 24), (_cholesky, 7, 16), (_cholesky, 1, 6),
])
@pytest.mark.parametrize("placement", ["none", "owners", "permuted"])
def test_plan_matches_oracle(build, P, m, placement):
    """With no ``data_home`` only producer pushes travel; with the
    owners, version-0 reads stay home; with a permuted placement they
    come from a foreign home, so the plan carries init uids."""
    graph, home = build(P, m)
    if placement == "none":
        home = None
    elif placement == "permuted":
        home = np.random.default_rng(P * m).permutation(home)
    plan = _assert_matches_oracle(graph, home)
    if placement == "permuted" and P > 1:
        assert plan.init_uids.size > 0
    if P == 1:
        assert plan.n_msgs == 0


@pytest.mark.parametrize("data_home", [None, np.zeros(4, dtype=np.int64)])
def test_empty_graph_matches_oracle(data_home):
    graph = TaskGraph(n_data=4, nnodes=2)
    plan = _assert_matches_oracle(graph, data_home)
    assert plan.n_tasks == plan.n_msgs == 0
    assert plan.w_indptr.tolist() == [0]


@given(case, st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
       st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_relabeled_plan_matches_oracle(params, swaps, with_home):
    """Graphs resubmitted in a permuted order, through ``submit``."""
    kernel, P, m = params
    graph, home = _graph(kernel, P, m)
    relabeled, _ = _relabel(graph, swaps)
    _assert_matches_oracle(relabeled, home if with_home else None)


def test_plan_cache_key_ignores_home_dtype():
    """A placement hits the same cached plan whatever its int dtype."""
    graph, home = _lu(5, 8)
    plan = get_plan(graph, home.astype(np.int32))
    assert get_plan(graph, home.astype(np.int64)) is plan


def test_bytes_per_task_lu_p23_m64():
    """The int32 columns and plan fit their per-task budgets at LU
    P=23 m=64 (89k tasks, ~3 reads per task).  With int64 they took
    112, 47 and 65 bytes per task."""
    graph, home = _lu(23, 64)
    n = len(graph)
    cols = graph.columns
    for name in ("i", "j", "k", "node", "write_data", "write_version",
                 "read_indptr", "read_data", "read_version"):
        assert getattr(cols, name).dtype == np.int32, name
    assert cols.kind.dtype == np.int8
    assert cols.flops.dtype == np.float64
    # the producer column is budgeted with ``read_task`` below: both
    # hold one int32 per read
    col_bytes = sum(a.nbytes for name, a in vars(cols).items()
                    if name != "read_producer")
    assert col_bytes / n <= 64
    rt, rp = graph.read_task, cols.read_producer
    indptr, deps = graph.dependencies_csr()
    for a in (rt, rp, indptr, deps):
        assert a.dtype == np.int32
    assert (rt.nbytes + rp.nbytes) / n <= 24
    for backend, plan in _plans(graph, home):
        assert plan.node is cols.node, backend
        assert plan.nbytes / n <= 40, backend
        _assert_own_buffers(plan, backend)


@pytest.mark.slow
def test_lowerings_agree_on_lu_large():
    """The benchmark's ``lu-large`` graph (LU on G-2DBC(23) relabeled by
    seed 0, m=160: 1.38M tasks, 4.1M reads, 98,464 messages): the
    builder's read producers equal the sort-based lookup's, and the C
    lowering equals the NumPy one field by field."""
    if not csim.available():
        pytest.skip(f"compiled kernels unavailable: {csim.load_error()}")
    perm = np.random.default_rng(0).permutation(23)
    pattern = relabel_pattern(g2dbc(23), perm, nnodes=23)
    graph, home = build_lu_graph(
        TileDistribution(pattern, 160, symmetric=False), TILE)
    cols = graph.columns
    np.testing.assert_array_equal(
        cols.read_producer,
        graph.producer_for(cols.read_data, cols.read_version))
    plans = dict(_plans(graph, home))
    c, py = plans["c"], plans["python"]
    assert c.n_msgs == py.n_msgs == 98_464
    for name in FIELDS:
        a, b = getattr(c, name), getattr(py, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("bad,match", [
    (lambda home: home[:-1], "entries for"),
    (lambda home: np.where(np.arange(home.size) == 3, -1, home),
     "names node -1"),
], ids=["short", "negative"])
def test_bad_data_home_is_rejected_by_name(bad, match):
    """Under both lowerings, a short ``data_home`` or a negative entry
    raises a named ``ValueError`` (not an ``IndexError``, nor a plan
    that sends from node -1)."""
    graph, home = _lu(5, 6)
    for backend in available_sim_backends():
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(BACKEND_ENV, backend)
            with pytest.raises(ValueError, match=match):
                build_plan(graph, bad(home))


@pytest.mark.parametrize("bad,match", [
    (lambda home: home[:-1], "entries for"),
    (lambda home: np.where(np.arange(home.size) == 3, -1, home),
     "names node -1"),
    (lambda home: np.where(np.arange(home.size) == 3, 5, home),
     "names node 5"),
], ids=["short", "negative", "outside"])
def test_bounds_reject_bad_data_home_like_simulate(bad, match):
    """``schedule_lower_bounds`` checks its inputs as ``simulate``
    does."""
    graph, home = _lu(5, 6)
    cluster = ClusterSpec(nnodes=5, cores_per_node=2, core_gflops=1.0,
                          bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE)
    with pytest.raises(SimulationError, match=match):
        schedule_lower_bounds(graph, cluster, data_home=bad(home))

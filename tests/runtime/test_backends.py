"""Cross-backend equivalence and selection for the event loops.

Both backends (on-demand-compiled C, pure Python) must produce the
*same bytes*: identical canonical traces, not just equal makespans.
The parametrization only covers the compiled loop when it builds on
this host.  Selection fails loudly: an unknown ``REPRO_SIM_BACKEND``
value, or ``c`` without a working compiler, raises ``BackendError``;
only ``auto`` falls back to Python.
"""

import ctypes
import dataclasses
import json
import re

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime import backends, simulator
from repro.runtime.cluster import ClusterSpec
from repro.runtime.graph import TaskGraph
from repro.runtime.simulator import simulate
from repro.runtime.tracefmt import ChromeTraceWriter

TILE = 8


def _available_accelerated():
    from repro.runtime import csim
    return ["c"] if csim.available() else []


ACCELERATED = _available_accelerated()


def _cluster(P):
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE)


def _canonical(graph, home, cluster, backend, monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, backend)
    trace = simulate(graph, cluster, data_home=home, network="nic")
    return json.dumps(trace.to_canonical(), sort_keys=True)


@pytest.mark.skipif(not ACCELERATED, reason="no accelerated backend built")
@pytest.mark.parametrize("backend", ACCELERATED)
@pytest.mark.parametrize("kernel", ["lu", "cholesky"])
@pytest.mark.parametrize("P", [5, 12])
def test_backend_matches_python(backend, kernel, P, monkeypatch):
    if kernel == "lu":
        dist = TileDistribution(g2dbc(P), 10, symmetric=False)
        graph, home = build_lu_graph(dist, TILE)
    else:
        pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
        dist = TileDistribution(pat, 10, symmetric=True)
        graph, home = build_cholesky_graph(dist, TILE)
    cluster = _cluster(P)
    ref = _canonical(graph, home, cluster, "python", monkeypatch)
    acc = _canonical(graph, home, cluster, backend, monkeypatch)
    assert acc == ref, f"{backend} backend drifted from python at P={P}"


def _recorded_run(graph, home, cluster, backend, monkeypatch, path,
                  network="nic"):
    """One recorded run and one streamed run: (canonical dump, file)."""
    monkeypatch.setenv(backends.BACKEND_ENV, backend)
    trace = simulate(graph, cluster, data_home=home, network=network,
                     record_tasks=True)
    with ChromeTraceWriter(path, graph=graph, buffer_events=32) as w:
        simulate(graph, cluster, data_home=home, network=network,
                 trace_writer=w)
    return json.dumps(trace.to_canonical(), sort_keys=True), path.read_bytes()


#: configurations the compiled loop runs: every network model, every
#: static-key scheduler (work stealing included)
ELIGIBLE = [
    ("priority/nic", {}, "nic"),
    ("contention", {}, "contention"),
    ("hierarchical", {"ranks_per_node": 2}, "hierarchical"),
    ("work_stealing", {"scheduler": "work_stealing"}, "nic"),
    ("work_stealing/contention", {"scheduler": "work_stealing"},
     "contention"),
    ("lookahead", {"scheduler": "lookahead"}, "hierarchical"),
    ("comm_avoiding", {"scheduler": "comm_avoiding"}, "contention"),
]

#: configurations that stay on the Python loop, with the reason
#: ``python_loop_reason`` gives for each
INELIGIBLE = [
    ("fifo", {"scheduler": "fifo"}, "nic", "scheduler fifo"),
    ("lifo", {"scheduler": "lifo"}, "contention", "scheduler lifo"),
    ("fork-join", {"fork_join": True}, "contention", "fork-join"),
    ("tree", {"multicast": "tree"}, "nic", "multicast tree"),
]


@pytest.mark.skipif(not ACCELERATED, reason="no accelerated backend built")
def test_backend_used_only_when_eligible(monkeypatch, tmp_path):
    """Recorded runs of every network model and static-key scheduler
    take the compiled loop and match the Python loop byte for byte,
    both as a canonical dump and as a Chrome file; dynamic-key
    schedulers, fork-join and tree multicast stay on the Python loop
    and still complete with records."""
    calls = []
    real_select = simulator.select_backend

    def spy_select():
        name, runner = real_select()
        if runner is None:
            return name, None

        def counted(*args, **kwargs):
            calls.append(kwargs.get("record", False))
            return runner(*args, **kwargs)
        return name, counted

    monkeypatch.setattr(simulator, "select_backend", spy_select)
    dist = TileDistribution(g2dbc(5), 8, symmetric=False)
    graph, home = build_lu_graph(dist, TILE)
    cluster = _cluster(5)
    for name, change, net in ELIGIBLE:
        cl = dataclasses.replace(cluster, **change)
        calls.clear()
        ref = _recorded_run(graph, home, cl, "python", monkeypatch,
                            tmp_path / "python.json", network=net)
        assert calls == [], name
        acc = _recorded_run(graph, home, cl, ACCELERATED[0], monkeypatch,
                            tmp_path / "acc.json", network=net)
        # record_tasks and trace_writer runs
        assert calls == [True, True], name
        assert acc[0] == ref[0], name
        assert acc[1] == ref[1], name

    calls.clear()
    for name, change, net, reason in INELIGIBLE:
        cl = dataclasses.replace(cluster, **change)
        assert simulator.python_loop_reason(cl) == reason, name
        trace = simulate(graph, cl, data_home=home, network=net,
                         record_tasks=True)
        assert len(trace.records.task_columns()[0]) == len(graph), name
        assert len(trace.records.msg_columns()[0]) > 0, name
    assert calls == []


def test_python_loop_reasons(monkeypatch):
    """Each reason for the Python loop, named by its first failing
    condition; fault-free static-key runs on the C backend have none."""
    reason = simulator.python_loop_reason
    cluster = _cluster(5)
    monkeypatch.setenv(backends.BACKEND_ENV, "python")
    assert reason(dataclasses.replace(cluster, fork_join=True,
                                      scheduler="fifo")) == "fork-join"
    assert reason(dataclasses.replace(cluster, multicast="tree",
                                      scheduler="lifo")) == "multicast tree"
    for policy in ("fifo", "lifo"):
        assert reason(dataclasses.replace(cluster, scheduler=policy),
                      "fail:1@0.1") == f"scheduler {policy}"
    assert reason(cluster, "fail:1@0.1") == "faults"
    assert reason(cluster) == "backend python"
    if ACCELERATED:
        monkeypatch.setenv(backends.BACKEND_ENV, ACCELERATED[0])
        for policy in ("priority", "lookahead", "comm_avoiding",
                       "work_stealing"):
            cl = dataclasses.replace(cluster, scheduler=policy,
                                     ranks_per_node=2)
            assert reason(cl) is None, policy
            assert reason(cl, "loss:0.1") == "faults", policy


def _unaligned(a):
    """``a`` copied to an odd byte offset, as in a packed foreign
    buffer that :meth:`TaskGraph.from_columns` adopts by reference;
    NumPy exports such buffers with an explicit byte-order format
    (``=i`` for the int32 index columns)."""
    out = np.frombuffer(bytearray(a.nbytes + 1), dtype=a.dtype,
                        count=a.size, offset=1)
    out[:] = a
    return out


def test_recorded_run_on_unaligned_columns(sim_backends):
    """Records and labels read unaligned columns, which
    ``from_columns`` accepts, and match the run of the original graph."""
    dist = TileDistribution(g2dbc(5), 8, symmetric=False)
    graph, home = build_lu_graph(dist, TILE)
    cols = graph.columns
    packed = TaskGraph.from_columns(
        {key: _unaligned(a) for key, a in (
            ("kind", cols.kind), ("i", cols.i), ("j", cols.j),
            ("k", cols.k), ("node", cols.node), ("flops", cols.flops),
            ("wd", cols.write_data), ("wv", cols.write_version),
            ("rc", np.diff(cols.read_indptr)), ("rd", cols.read_data),
            ("rv", cols.read_version))},
        n_data=graph.n_data, nnodes=graph.nnodes,
        total_flops=graph.total_flops)
    home = _unaligned(home)
    assert memoryview(packed.columns.node).format == "=i"
    label = packed.task_labeler()
    assert [label(t) for t in range(len(graph))] == \
        [graph.task_label(t) for t in range(len(graph))]
    for backend in sim_backends:
        ref = simulate(graph, _cluster(5), data_home=home, record_tasks=True)
        got = simulate(packed, _cluster(5), data_home=home, record_tasks=True)
        assert got.to_canonical() == ref.to_canonical(), backend


def test_env_reresolves_cache(monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, "python")
    assert backends.active_backend() == "python"
    monkeypatch.setenv(backends.BACKEND_ENV, "auto")
    name = backends.active_backend()
    assert name in ("c", "python")


@pytest.mark.parametrize("value", ["numba", "bogus"])
def test_unknown_backend_raises(value, monkeypatch):
    """A typo (or the retired ``numba`` leg) is an error, not Python."""
    monkeypatch.setenv(backends.BACKEND_ENV, value)
    with pytest.raises(backends.BackendError, match="auto, c, python"):
        backends.select_backend()


#: C type -> (NumPy dtype of an ndpointer argtype, ctypes type of a
#: scalar argtype or of a ctypes pointer's element)
_C_TYPES = {"uint8_t": (np.uint8, ctypes.c_uint8),
            "int32_t": (np.int32, ctypes.c_int32),
            "int64_t": (np.int64, ctypes.c_int64),
            "uint64_t": (np.uint64, ctypes.c_uint64),
            "double": (np.float64, ctypes.c_double)}


def _check_param(ctype, star, argtype):
    """One C parameter (or return type) against its ctypes binding."""
    if ctype == "void":
        return star and argtype is ctypes.c_void_p
    dtype, scalar = _C_TYPES[ctype]
    if not star:
        return argtype is scalar
    if hasattr(argtype, "_dtype_"):  # numpy.ctypeslib.ndpointer
        return argtype._dtype_ == np.dtype(dtype)
    return getattr(argtype, "_type_", None) is scalar  # ctypes.POINTER


def test_fastsim_signature_matches_argtypes():
    """``csim.py`` binds every ``repro_*`` function of ``_fastsim.c``
    parameter by parameter: ctypes cannot check a foreign signature, so
    one missing argument shifts every later pointer (a segfault), and
    an ``int32_t *`` bound as an int64 array reads garbage.  Each
    parameter's argtype, and each return type's restype, must match its
    C type in element type, width, and pointer or scalar."""
    from repro.runtime import csim
    if not csim.available():
        pytest.skip(f"compiled loop unavailable: {csim.load_error()}")
    src = re.sub(r"/\*.*?\*/", "", csim._SRC.read_text(), flags=re.S)
    defs = re.findall(r"^(\w+)\s+(repro_\w+)\s*\((.*?)\)\s*\{", src,
                      flags=re.S | re.M)
    assert {name for _, name, _ in defs} == {
        "repro_run_sim", "repro_gcrm_phase1", "repro_plan_count",
        "repro_plan_fill"}
    lib = csim._load()
    for restype, name, params in defs:
        fn = getattr(lib, name)
        assert _check_param(restype, "", fn.restype), name
        decls = [p.strip() for p in params.split(",") if p.strip()]
        assert len(decls) == len(fn.argtypes), name
        for decl, argtype in zip(decls, fn.argtypes):
            ctype, star, param = re.fullmatch(
                r"(?:const\s+)?(\w+)\s*(\*?)\s*(\w+)", decl).groups()
            assert _check_param(ctype, star, argtype), f"{name}: {param}"


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """Make the C loop unbuildable: empty cache, nonexistent compiler."""
    from repro.runtime import csim
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(csim, "_lib", None)
    monkeypatch.setattr(csim, "_load_tried", False)
    monkeypatch.setattr(csim, "_load_error", None)
    backends._resolve.cache_clear()
    yield
    backends._resolve.cache_clear()


def test_unavailable_backend_raises(monkeypatch, no_compiler):
    """An explicit ``c`` that cannot compile raises with the reason."""
    monkeypatch.setenv(backends.BACKEND_ENV, "c")
    with pytest.raises(backends.BackendError, match="no-such-cc"):
        backends.select_backend()


def test_auto_without_compiler_runs_python(monkeypatch, no_compiler):
    """Without a compiler both the event loop and GCR&M phase 1 run
    their Python paths, with the same results."""
    monkeypatch.setenv(backends.BACKEND_ENV, "auto")
    assert backends.select_backend() == ("python", None)
    dist = TileDistribution(g2dbc(5), 8, symmetric=False)
    graph, home = build_lu_graph(dist, TILE)
    trace = simulate(graph, _cluster(5), data_home=home, network="nic")
    pattern = gcrm(23, 10, seed=0).pattern
    monkeypatch.setenv(backends.BACKEND_ENV, "python")
    ref = simulate(graph, _cluster(5), data_home=home, network="nic")
    assert trace.to_canonical() == ref.to_canonical()
    assert pattern == gcrm(23, 10, seed=0).pattern


def test_event_loop_rejects_bad_sizes():
    """Lengths and node ids are checked before any pointer reaches the
    event loop, which indexes them unchecked."""
    from repro.runtime import csim
    from repro.runtime.simplan import get_plan
    if not csim.available():
        pytest.skip(f"compiled loop unavailable: {csim.load_error()}")
    graph, home = build_lu_graph(
        TileDistribution(g2dbc(5), 4, symmetric=False), TILE)
    plan = get_plan(graph, home)
    cl = _cluster(5)
    dur = cl.task_time(graph.columns.flops)
    for kw, match in (
            ({"keys": plan.keys[:-1]}, "keys has"),
            ({"machine": np.zeros(4)}, "machine has"),
            ({"machine": np.full(5, -1)}, "machine ids"),
            ({"victims": [[1]] * 4, "base_dur": dur}, "victims must"),
            ({"victims": [[5]] * 5, "base_dur": dur}, "victims must"),
            ({"victims": [[]] * 5, "base_dur": dur[:-1]}, "base_dur has")):
        with pytest.raises(ValueError, match=match):
            csim.run(plan, dur, 5, 2, cl.message_time(), **kw)


def test_plan_kernel_rejects_bad_sizes():
    """Lengths are checked before any pointer reaches the lowering, and
    its first pass checks each producer tid, datum id and read offset
    before it indexes with it: one bad entry amid valid ones is found
    too."""
    from repro.runtime import csim
    if not csim.available():
        pytest.skip(f"compiled loop unavailable: {csim.load_error()}")
    graph, home = build_lu_graph(
        TileDistribution(g2dbc(5), 4, symmetric=False), TILE)
    cols = graph.columns
    args = dict(node=cols.node, read_indptr=cols.read_indptr,
                read_data=cols.read_data, read_version=cols.read_version,
                read_producer=cols.read_producer, n_data=graph.n_data,
                home=home, M=int(cols.read_version.max()) + 1, N=5)
    csim.lower_plan(**args)
    swapped = cols.read_indptr.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    mid = len(cols.read_data) // 2
    one_producer = cols.read_producer.copy()
    one_producer[mid] = len(graph)
    one_datum = cols.read_data.copy()
    one_datum[mid] = graph.n_data
    past_end = cols.read_indptr.copy()
    past_end[1] = len(cols.read_data) + 1
    for kw, match in (
            ({"node": cols.node[:-1]}, "disagree in length"),
            ({"read_version": cols.read_version[:-1]}, "disagree in length"),
            ({"home": home[:-1]}, "disagree in length"),
            ({"read_producer": np.full_like(cols.read_producer, len(graph))},
             "out of range"),
            ({"read_producer": np.full_like(cols.read_producer, -2)},
             "out of range"),
            ({"read_data": np.full_like(cols.read_data, graph.n_data)},
             "out of range"),
            ({"read_producer": one_producer}, "out of range"),
            ({"read_data": one_datum}, "out of range"),
            ({"read_indptr": cols.read_indptr + 1}, "not a CSR index"),
            ({"read_indptr": swapped}, "not a CSR index"),
            ({"read_indptr": past_end}, "not a CSR index")):
        with pytest.raises(ValueError, match=match):
            csim.lower_plan(**{**args, **kw})


def test_phase1_kernel_rejects_bad_sizes():
    """Sizes are checked before any pointer reaches the kernel."""
    from repro.runtime import csim
    if not csim.available():
        pytest.skip(f"compiled loop unavailable: {csim.load_error()}")
    rng = np.random.default_rng(0)
    for P, r, tie_break in ((0, 4, 0), (5, 0, 0), (5, 4, 3), (5, 4, -1)):
        with pytest.raises(ValueError, match="phase 1 needs"):
            csim.gcrm_phase1(P, r, rng, tie_break)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

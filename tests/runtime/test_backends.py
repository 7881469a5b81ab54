"""Cross-backend equivalence and selection for the event loops.

Both backends (on-demand-compiled C, pure Python) must produce the
*same bytes*: identical canonical traces, not just equal makespans.
The parametrization only covers the compiled loop when it builds on
this host.  Selection fails loudly: an unknown ``REPRO_SIM_BACKEND``
value, or ``c`` without a working compiler, raises ``BackendError``;
only ``auto`` falls back to Python.
"""

import json

import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime import backends
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate

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


@pytest.mark.skipif(not ACCELERATED, reason="no accelerated backend built")
def test_backend_used_only_when_eligible(monkeypatch):
    """Recording/writer/non-default configs must stay on the Python loop
    — and still agree with the fast path on the schedule itself."""
    dist = TileDistribution(g2dbc(5), 8, symmetric=False)
    graph, home = build_lu_graph(dist, TILE)
    cluster = _cluster(5)
    monkeypatch.setenv(backends.BACKEND_ENV, ACCELERATED[0])
    fast = simulate(graph, cluster, data_home=home, network="nic")
    recorded = simulate(graph, cluster, data_home=home, network="nic",
                        record_tasks=True)
    assert recorded.task_records  # recording path actually recorded
    assert recorded.makespan == fast.makespan
    assert recorded.n_messages == fast.n_messages


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
    monkeypatch.setenv(backends.BACKEND_ENV, "auto")
    assert backends.select_backend() == ("python", None)
    dist = TileDistribution(g2dbc(5), 8, symmetric=False)
    graph, home = build_lu_graph(dist, TILE)
    trace = simulate(graph, _cluster(5), data_home=home, network="nic")
    monkeypatch.setenv(backends.BACKEND_ENV, "python")
    ref = simulate(graph, _cluster(5), data_home=home, network="nic")
    assert trace.to_canonical() == ref.to_canonical()

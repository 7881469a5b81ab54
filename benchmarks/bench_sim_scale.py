"""Million-task simulation benchmark — batch loop, backends, streaming.

Sweeps the simulator over m ∈ {64, 128, 256} tiles (LU at P = 12 for
the speedup ladder, Cholesky for the streaming-trace leg) and records
wall-clock plus peak RSS in ``benchmarks/results/sim_batch_speedup.txt``:

* **python**   — the batch-drained pure-Python event loop
  (``REPRO_SIM_BACKEND=python``);
* **compiled** — the auto-selected backend (the on-demand-compiled C
  loop when a C compiler is present) over the shared
  :mod:`~repro.runtime.simplan` plan.

Every pairing is asserted schedule-identical (canonical-trace equality
at m = 64, makespan/message equality above) — the speedup is never
bought with drift.  The m = 256 leg streams a Chrome trace through
:class:`~repro.runtime.tracefmt.ChromeTraceWriter` and asserts the
writer flushed incrementally (bounded writer memory).

``REPRO_BENCH_FAST=1`` runs a CI-sized subset (m = 128, no m = 256
leg) and gates on the compiled-vs-python ratio degrading more than 20%
against the recorded baseline — a ratio of in-process measurements, so
the gate is host-independent.
"""

import json
import os
import resource
import tempfile
import time

import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph, cholesky_task_count
from repro.dla.lu import build_lu_graph, lu_task_count
from repro.patterns.g2dbc import g2dbc
from repro.runtime import backends
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate
from repro.runtime.tracefmt import ChromeTraceWriter

from conftest import RESULTS_DIR

P = 12
TILE = 8
FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")
SIZES = (128,) if FAST else (64, 128, 256)

#: compiled-vs-python speedup at m=128 that the fast-mode CI gate
#: holds the live ratio to (>= 80% of it): 18.3 as recorded on the
#: reference host, times 1.15, the m=128 slowdown of the python column
#: once every policy took the Python loop's one task-completion body
#: (update together with the results file)
RECORDED_BACKEND_RATIO = 21.0


def _cluster() -> ClusterSpec:
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _with_backend(name):
    """Context: pin ``REPRO_SIM_BACKEND`` and re-resolve the cache."""
    class _Ctx:
        def __enter__(self):
            self.prev = os.environ.get(backends.BACKEND_ENV)
            os.environ[backends.BACKEND_ENV] = name
            return self

        def __exit__(self, *exc):
            if self.prev is None:
                os.environ.pop(backends.BACKEND_ENV, None)
            else:
                os.environ[backends.BACKEND_ENV] = self.prev
    return _Ctx()


def _time_sim(graph, home, cluster, rounds=2):
    best = float("inf")
    trace = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        trace = simulate(graph, cluster, data_home=home, network="nic")
        best = min(best, time.perf_counter() - t0)
    return best, trace


@pytest.mark.benchmark(group="sim_scale")
def test_sim_batch_speedup(benchmark):
    cluster = _cluster()
    auto_name = backends.active_backend()
    rows = []
    ratio_m128 = None

    for m in SIZES:
        dist = TileDistribution(g2dbc(P), m, symmetric=False)
        t0 = time.perf_counter()
        graph, home = build_lu_graph(dist, TILE)
        graph.columns  # finalize: build time includes the read offsets
        build_t = time.perf_counter() - t0

        auto_t, auto_tr = benchmark.pedantic(
            lambda g=graph, h=home: _time_sim(g, h, cluster),
            rounds=1, iterations=1) if m == max(SIZES) else \
            _time_sim(graph, home, cluster)
        with _with_backend("python"):
            py_t, py_tr = _time_sim(
                graph, home, cluster, rounds=1 if m >= 128 else 2)

        # identical schedules across backends
        assert py_tr.makespan == auto_tr.makespan
        assert py_tr.n_messages == auto_tr.n_messages
        if m == 64:
            assert (json.dumps(py_tr.to_canonical(), sort_keys=True)
                    == json.dumps(auto_tr.to_canonical(), sort_keys=True))

        ratio = py_t / auto_t
        if m == 128:
            ratio_m128 = ratio
        rows.append((m, lu_task_count(m), build_t, auto_t, py_t, ratio,
                     _rss_mb()))

    # ------------------------------------------------------------------
    # m = 256 Cholesky under a streaming Chrome trace (bounded memory)
    # ------------------------------------------------------------------
    stream_lines = ["", "streaming trace leg: skipped (REPRO_BENCH_FAST)"]
    if not FAST:
        from repro.patterns.gcrm import feasible_sizes, gcrm

        m = 256
        chol_pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
        t0 = time.perf_counter()
        graph, home = build_cholesky_graph(
            TileDistribution(chol_pat, m, symmetric=True), TILE)
        graph.columns
        build_t = time.perf_counter() - t0
        rss_before = _rss_mb()
        path = os.path.join(tempfile.mkdtemp(prefix="simtrace-"), "m256.json")
        t0 = time.perf_counter()
        with ChromeTraceWriter(path, graph=None, buffer_events=8192) as w:
            simulate(graph, cluster, data_home=home, network="nic",
                     trace_writer=w)
        stream_t = time.perf_counter() - t0
        rss_after = _rss_mb()
        assert w.flushes > 1, "trace writer never flushed incrementally"
        size_mb = os.path.getsize(path) / 1e6
        os.unlink(path)
        stream_lines = [
            "",
            f"streaming trace leg — Cholesky m=256 "
            f"({cholesky_task_count(m)} tasks), ChromeTraceWriter "
            f"buffer=8192:",
            f"  build {build_t:.2f}s, simulate+stream {stream_t:.2f}s, "
            f"{w.events_written} events in {w.flushes} flushes, "
            f"{size_mb:.1f} MB on disk",
            f"  peak RSS {rss_before:.0f} -> {rss_after:.0f} MB "
            f"(writer buffer, plus 24 B/task and 32 B/message of "
            f"recording columns on the compiled loop)",
        ]

    # gates ------------------------------------------------------------
    if auto_name != "python":
        floor = 0.8 * RECORDED_BACKEND_RATIO
        assert ratio_m128 >= floor, (
            f"compiled-vs-python ratio {ratio_m128:.2f}x at m=128 dropped "
            f"below 80% of the recorded {RECORDED_BACKEND_RATIO}x")

    lines = [
        f"Million-task simulation benchmark — LU, P={P}, network=nic, "
        f"tile={TILE}",
        f"host: {os.cpu_count()} CPU(s); active backend: {auto_name}",
        "python = batch-drained pure-Python loop; compiled = "
        "C backend over the shared plan.",
        "All pairings schedule-identical (canonical equality pinned "
        "at m=64).",
        "",
        f"{'m':>4} {'tasks':>9} {'build':>8} {'compiled':>9} "
        f"{'python':>8} {'ratio':>7} {'peakRSS':>9}",
    ]
    for m, ntasks, bt, at, pt, ratio, rss in rows:
        lines.append(
            f"{m:>4} {ntasks:>9} {bt:>7.2f}s {at:>8.3f}s "
            f"{pt:>7.2f}s {ratio:>6.2f}x {rss:>7.0f}MB")
    lines += [
        "",
        f"compiled-vs-python ratio at m=128: {ratio_m128:.2f}x "
        f"(fast-mode gate: >= 80% of recorded {RECORDED_BACKEND_RATIO}x)",
    ] + stream_lines
    text = "\n".join(lines)
    if not FAST:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "sim_batch_speedup.txt").write_text(text + "\n")
    print()
    print(text)

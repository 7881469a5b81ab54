"""Micro-benchmark — batch task-graph builders vs the per-tile builders.

Times the LU graph build (P = 12) at m ∈ {16, 32, 64} tiles for both
builders, live on the same machine:

* **per-tile**: the frozen pre-refactor builder
  (:func:`repro.runtime.objgraph.build_lu_graph_reference`), one
  ``Task`` object per kernel call;
* **batch**: the vectorized builder (:func:`repro.dla.lu.build_lu_graph`),
  timed up to its finalized columns (``graph.columns``).

Both are cross-checked to produce the *same* graph, column for column —
the speedup is measured on provably identical task graphs.  The
measured ratios are recorded in ``benchmarks/results/graph_speedup.txt``.
"""

import os
import time

import numpy as np
import pytest

from repro.distribution import TileDistribution
from repro.dla.lu import build_lu_graph, lu_task_count
from repro.patterns.g2dbc import g2dbc
from repro.runtime.objgraph import build_lu_graph_reference

from conftest import RESULTS_DIR

P = 12
SIZES = (16, 32, 64)
TILE = 8
#: minimum accepted build speedup at m = 64: half the lowest ratio of
#: five runs on the host of ``results/graph_speedup.txt`` (35.3-42.3x);
#: update together with that file
MIN_SPEEDUP = 17.0


def _batch_build(dist):
    graph, home = build_lu_graph(dist, TILE)
    graph.columns  # finalize: the build includes the read offsets
    return graph, home


def _time_build(build, dist, rounds):
    """Best-of-``rounds`` build time plus the last graph and homes."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        graph, home = build(dist)
        best = min(best, time.perf_counter() - t0)
    return best, graph, home


def _object_columns(ref):
    """The columns of an object graph, in the batch graph's layout."""
    tasks = ref.tasks
    reads = [r for t in tasks for r in t.reads]
    return {
        "kind": [int(t.kind) for t in tasks],
        "i": [t.i for t in tasks], "j": [t.j for t in tasks],
        "k": [t.k for t in tasks], "node": [t.node for t in tasks],
        "flops": [t.flops for t in tasks],
        "write_data": [t.write[0] for t in tasks],
        "write_version": [t.write[1] for t in tasks],
        "read_indptr": np.cumsum([0] + [len(t.reads) for t in tasks]),
        "read_data": [d for d, _ in reads],
        "read_version": [v for _, v in reads],
    }


@pytest.mark.benchmark(group="graph_core")
def test_batch_builder_speedup(benchmark):
    rows = []
    speedup_m64 = None
    for m in SIZES:
        dist = TileDistribution(g2dbc(P), m)
        lb, ref, ref_home = _time_build(
            lambda d: build_lu_graph_reference(d, TILE), dist, 3)
        if m == 64:
            cb, graph, home = benchmark.pedantic(
                lambda d=dist: _time_build(_batch_build, d, 3),
                rounds=1, iterations=1)
        else:
            cb, graph, home = _time_build(_batch_build, dist, 3)

        # identical graphs: the speedup is not bought with drift
        assert len(graph) == len(ref) == lu_task_count(m)
        assert np.array_equal(home, ref_home)
        cols = graph.columns
        for name, want in _object_columns(ref).items():
            assert np.array_equal(getattr(cols, name), want), name
        assert graph.total_flops == ref.total_flops

        ratio = lb / cb
        if m == 64:
            speedup_m64 = ratio
        rows.append((m, lu_task_count(m), lb, cb, ratio))

    assert speedup_m64 >= MIN_SPEEDUP, (
        f"m=64 build speedup {speedup_m64:.2f}x below {MIN_SPEEDUP}x")

    lines = [
        f"Task-graph builder micro-benchmark — LU, P={P}, tile={TILE}",
        f"host: {os.cpu_count()} CPU(s)",
        "per-tile = frozen pre-refactor builder (one Task object per "
        "kernel call, run live);",
        "batch = vectorized builder up to finalized columns.  Both "
        "build identical graphs.",
        "",
        f"{'m':>4} {'tasks':>7} {'per-tile':>9} {'batch':>8} {'speedup':>8}",
    ]
    for m, ntasks, lb, cb, ratio in rows:
        lines.append(
            f"{m:>4} {ntasks:>7} {lb:>8.4f}s {cb:>7.4f}s {ratio:>7.2f}x")
    lines += [
        "",
        f"build speedup at m=64: {speedup_m64:.2f}x "
        f"(gate: >= {MIN_SPEEDUP:.0f}x)",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "graph_speedup.txt").write_text(text + "\n")
    print()
    print(text)

"""Micro-benchmark — serial vs parallel GCR&M search at P = 35.

Compares the legacy exhaustive sweep (``jobs=1, prune=False``, the exact
pre-engine behavior) against the search engine (``jobs=4`` workers plus
floor pruning) on the paper's Figure 12 case.  Also cross-checks the
engine's determinism guarantee: the pruned search returns bit-identical
winners for ``jobs=1`` and ``jobs=4``.

The measured speedup is recorded in
``benchmarks/results/search_engine_speedup.txt`` together with the host
CPU count — pruning dominates on small containers, process parallelism
adds on top once real cores are available.
"""

import os
import time

import pytest

from repro.cost.cache import COST_CACHE
from repro.patterns.gcrm import gcrm_cost_floor, gcrm_search

from conftest import RESULTS_DIR

P = 35
SEEDS = range(25)
MAX_FACTOR = 6.0
WORKERS = 4


def _timed(**kw):
    COST_CACHE.clear()  # measure cold-cache cost evaluation each time
    t0 = time.perf_counter()
    res = gcrm_search(P, seeds=SEEDS, max_factor=MAX_FACTOR, **kw)
    return time.perf_counter() - t0, res


@pytest.mark.benchmark(group="search_engine")
def test_search_engine_speedup(benchmark):
    serial_t, serial = _timed(jobs=1, prune=False)
    engine_t, engine = benchmark.pedantic(
        lambda: _timed(jobs=WORKERS, prune=True), rounds=1, iterations=1
    )
    pruned1_t, pruned1 = _timed(jobs=1, prune=True)

    # determinism: the engine is jobs-independent
    assert engine.cost == pruned1.cost
    assert engine.pattern == pruned1.pattern
    # pruning only stops inside the tolerance band above the floor
    assert engine.cost <= gcrm_cost_floor(P) * 1.05 + 1e-9
    speedup = serial_t / engine_t
    assert speedup >= 2.0, f"engine speedup {speedup:.2f}x below 2x"

    lines = [
        f"GCR&M search engine micro-benchmark — P={P}, "
        f"seeds={len(list(SEEDS))}, max_factor={MAX_FACTOR}",
        f"host: {os.cpu_count()} CPU(s)",
        "",
        f"{'configuration':<38} {'time [s]':>9} {'best T':>8} {'tasks':>6}",
        f"{'legacy serial (jobs=1, no prune)':<38} {serial_t:>9.3f} "
        f"{serial.cost:>8.4f} {serial.report.n_tasks_evaluated:>6d}",
        f"{'engine (jobs=4, prune)':<38} {engine_t:>9.3f} "
        f"{engine.cost:>8.4f} {engine.report.n_tasks_evaluated:>6d}",
        f"{'engine (jobs=1, prune)':<38} {pruned1_t:>9.3f} "
        f"{pruned1.cost:>8.4f} {pruned1.report.n_tasks_evaluated:>6d}",
        "",
        f"speedup engine(jobs={WORKERS}) vs legacy: {speedup:.2f}x",
        f"sizes evaluated: {engine.report.sizes_evaluated}",
        f"sizes pruned:    {engine.report.sizes_pruned}",
        "pruned winner may differ from the exhaustive one by design: the",
        "search stops once the best is within 5% of the sqrt(3P/2) floor.",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "search_engine_speedup.txt").write_text(text + "\n")
    print()
    print(text)


"""Micro-benchmark — campaign runner scaling and memoization.

Runs a (family × P × m × network) grid three ways:

* cold, serial (``jobs=1``) — the reference path;
* cold, parallel (``jobs=4``) — the process-pool path;
* warm, serial — the same grid against a populated memo.

"Cold" means an empty memo, so every cell is simulated.  The grid's
patterns are resolved first, into a pattern store, by a
``run_campaign(store_dir=)`` pass over the smallest matrix size; the
timed runs then read them from that store.  The timed windows therefore
hold the simulations the pool spreads over its workers, not the GCR&M
searches the calling process runs serially before any fan-out.  The
grid is sized so the serial run takes 0.2-0.4 s, enough work to pay for
starting a 4-process pool.  Each cold configuration is timed
``ROUNDS`` times and keeps its fastest run, the one least disturbed by
other load on the host; the serial rounds run first, in a process that
has not forked yet.

Raw 4-worker speedup is only visible on multi-core hosts, so the
assertion is on *parallel efficiency* normalized by the usable cores,
``serial_t / (parallel_t · min(jobs, cpus))`` — near 1.0 means
near-linear scaling up to the available cores (on a 1-CPU container it
degenerates to "pool overhead is bounded", which is the honest claim
that host can support).  The memoized re-run must be essentially free.
Determinism across ``jobs`` is asserted row-for-row.

Measured numbers are recorded in
``benchmarks/results/campaign_speedup.txt``.
"""

import os
import time

import pytest

from repro.experiments.campaign import plan_campaign, run_campaign

from conftest import RESULTS_DIR

WORKERS = 4
ROUNDS = 5
FAMILIES = ["g2dbc", "gcrm"]
PS = [5, 7, 9, 11, 13]
MS = [16, 24]
NETWORKS = ["nic", "contention"]
TILE_SIZE = 500


def _timed(cells, jobs, store, memo=None):
    if memo is None:
        memo = {}
    t0 = time.perf_counter()
    rows = run_campaign(cells, jobs=jobs, tile_size=TILE_SIZE, memo=memo,
                        store_dir=store)
    return time.perf_counter() - t0, rows, memo


def _fastest(cells, jobs, store):
    return min((_timed(cells, jobs, store) for _ in range(ROUNDS)),
               key=lambda run: run[0])


@pytest.mark.benchmark(group="campaign")
def test_campaign_runner_speedup(benchmark, tmp_path):
    cells = plan_campaign(FAMILIES, Ps=PS, ms=MS, networks=NETWORKS)
    assert len(cells) == 40
    store = str(tmp_path / "patterns")
    run_campaign(plan_campaign(FAMILIES, Ps=PS, ms=MS[:1],
                               networks=NETWORKS[:1]),
                 tile_size=TILE_SIZE, store_dir=store)

    serial_t, serial_rows, memo = _fastest(cells, 1, store)
    parallel_t, parallel_rows, _ = benchmark.pedantic(
        lambda: _fastest(cells, WORKERS, store), rounds=1, iterations=1
    )
    warm_t, warm_rows, _ = _timed(cells, 1, store, memo=memo)

    # determinism: identical rows whatever the worker count / memo state
    assert [r.as_dict() for r in parallel_rows] == [r.as_dict() for r in serial_rows]
    assert [r.as_dict() for r in warm_rows] == [r.as_dict() for r in serial_rows]

    cpus = os.cpu_count() or 1
    efficiency = serial_t / (parallel_t * min(WORKERS, cpus))
    assert efficiency >= 0.4, (
        f"parallel efficiency {efficiency:.2f} below 0.4 "
        f"(serial {serial_t:.2f}s, jobs={WORKERS} {parallel_t:.2f}s, {cpus} CPUs)")
    assert warm_t < serial_t / 10, (
        f"memoized re-run not cheap: {warm_t:.3f}s vs cold {serial_t:.3f}s")

    lines = [
        f"campaign runner micro-benchmark — {len(cells)} cells "
        f"({'+'.join(FAMILIES)}, P={PS}, m={MS}, networks={NETWORKS})",
        f"host: {cpus} CPU(s); patterns read from a pre-resolved store; "
        f"fastest of {ROUNDS} cold runs",
        "",
        f"{'configuration':<34} {'time [s]':>9}",
        f"{'cold, serial (jobs=1)':<34} {serial_t:>9.3f}",
        f"{f'cold, parallel (jobs={WORKERS})':<34} {parallel_t:>9.3f}",
        f"{'warm, serial (memoized)':<34} {warm_t:>9.3f}",
        "",
        f"parallel efficiency serial/(parallel*min(jobs,cpus)): {efficiency:.2f}",
        f"memo speedup vs cold serial: {serial_t / max(warm_t, 1e-9):.1f}x",
        "rows are jobs-independent and memo-independent (asserted).",
        "on multi-core hosts the efficiency figure is the per-core",
        "scaling of the pool; on 1-CPU containers it bounds pool overhead.",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "campaign_speedup.txt").write_text(text + "\n")
    print()
    print(text)

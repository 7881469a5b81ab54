"""Tests for the parallel GCR&M search engine (repro.patterns.search)."""

import numpy as np
import pytest

from repro.patterns.gcrm import (
    PRUNE_TOL,
    feasible_sizes,
    gcrm,
    gcrm_cost_floor,
    gcrm_search,
)
from repro.patterns.search import (
    AUTO_SERIAL_THRESHOLD,
    ProcessExecutor,
    SerialExecutor,
    auto_executor,
    chunk_tasks,
    resolve_jobs,
)


class TestJobsResolution:
    def test_explicit(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_auto(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-2)


class TestAutoExecutor:
    def test_jobs_one_is_serial(self):
        assert isinstance(auto_executor(10_000, jobs=1), SerialExecutor)

    def test_explicit_parallel_always_pool(self):
        ex = auto_executor(2, jobs=2)
        try:
            assert isinstance(ex, ProcessExecutor)
            assert ex.jobs == 2
        finally:
            ex.close()

    def test_auto_small_workload_serial(self):
        assert isinstance(
            auto_executor(AUTO_SERIAL_THRESHOLD - 1, jobs=None), SerialExecutor
        )

    def test_auto_large_workload(self):
        import os

        ex = auto_executor(AUTO_SERIAL_THRESHOLD, jobs=None)
        try:
            if (os.cpu_count() or 1) > 1:
                assert isinstance(ex, ProcessExecutor)
            else:
                assert isinstance(ex, SerialExecutor)
        finally:
            ex.close()


class TestChunking:
    def test_preserves_order_and_content(self):
        tasks = list(range(13))
        chunks = chunk_tasks(tasks, jobs=4)
        assert [x for c in chunks for x in c] == tasks

    def test_default_one_chunk_per_worker(self):
        chunks = chunk_tasks(list(range(20)), jobs=4)
        assert len(chunks) == 4


class TestSeedDerivation:
    def test_gcrm_accepts_seedsequence(self):
        """Any ``default_rng`` seed builds a pattern, deterministically."""
        ss = np.random.SeedSequence(3).spawn(2)[1]
        a = gcrm(23, 10, seed=ss)
        b = gcrm(23, 10, seed=ss)
        assert a.pattern == b.pattern
        assert a.seed is ss


class TestDeterminismRegression:
    """Paper figure cases: parallel == serial, bit for bit."""

    @pytest.mark.parametrize("P", [23, 31, 35])
    def test_root_seed_jobs_independent(self, P):
        """Integer seeds, used as given: the winner is the same for any
        pool size."""
        kw = dict(seeds=range(1234, 1239), max_factor=3.0)
        serial = gcrm_search(P, jobs=1, **kw)
        parallel = gcrm_search(P, jobs=4, **kw)
        assert serial.cost == parallel.cost
        assert serial.pattern == parallel.pattern
        assert (serial.pattern.grid == parallel.pattern.grid).all()

    def test_legacy_seeds_jobs_independent(self):
        kw = dict(seeds=range(6), max_factor=3.0, prune=False)
        serial = gcrm_search(23, jobs=1, **kw)
        parallel = gcrm_search(23, jobs=2, **kw)
        assert serial.cost == parallel.cost
        assert serial.pattern == parallel.pattern

    def test_matches_pre_engine_serial_loop(self):
        """jobs=1 + no pruning reproduces the historical serial search."""
        sizes = feasible_sizes(23, 3.0)
        best = None
        for r in sizes:
            for s in range(6):
                res = gcrm(23, r, seed=s)
                if not res.uses_all_nodes:
                    continue
                if best is None or res.cost < best.cost - 1e-12:
                    best = res
        engine = gcrm_search(23, seeds=range(6), max_factor=3.0,
                             jobs=1, prune=False)
        assert engine.cost == best.cost
        assert engine.pattern == best.pattern


class TestPruning:
    def test_report_attached(self):
        res = gcrm_search(23, seeds=range(4), max_factor=3.0)
        assert res.report is not None
        assert res.report.n_tasks_total == 4 * len(feasible_sizes(23, 3.0))
        assert res.report.sizes_evaluated[0] == feasible_sizes(23, 3.0)[0]

    def test_prune_skips_trailing_sizes(self):
        # at P=13 the r=9 group lands inside the 5% band, so the other
        # 12 feasible sizes are skipped (r=4 cannot use all 13 nodes)
        pruned = gcrm_search(13, seeds=range(4))
        sizes = feasible_sizes(13, 6.0)
        assert len(sizes) == 14
        assert pruned.report.pruned
        assert pruned.report.sizes_evaluated == [4, 9] == sizes[:2]
        assert pruned.report.sizes_pruned == sizes[2:]
        assert pruned.report.n_tasks_evaluated == 2 * 4
        full = gcrm_search(13, seeds=range(4), prune=False)
        assert not full.report.pruned
        assert full.report.n_tasks_evaluated == full.report.n_tasks_total

    def test_pruned_cost_within_band(self):
        res = gcrm_search(13, seeds=range(4), prune=True)
        assert res.report.pruned
        assert PRUNE_TOL == 0.05
        assert res.cost <= gcrm_cost_floor(13) * (1 + PRUNE_TOL) + 1e-9

    def test_first_group_never_pruned(self):
        # at P=10 the first size, r=5, already lands inside the 5% band:
        # its whole group runs, and the 12 larger sizes are skipped
        res = gcrm_search(10, seeds=range(3))
        sizes = feasible_sizes(10, 6.0)
        assert res.report.sizes_evaluated == [5] == sizes[:1]
        assert res.report.sizes_pruned == sizes[1:]
        assert [o.r for o in res.report.outcomes] == [5, 5, 5]


class TestRunSearchEdges:
    def test_empty_seed_budget_rejected(self):
        with pytest.raises(ValueError, match="seed budget"):
            gcrm_search(23, seeds=[], max_factor=3.0)

    def test_no_winner_raises(self):
        # r=3 is the only size up to 1.2·√7, and its 6 off-diagonal
        # cells cannot reach all 7 nodes
        assert feasible_sizes(7, 1.2) == [3]
        with pytest.raises(ValueError, match="no pattern using all 7 nodes"):
            gcrm_search(7, seeds=range(1), max_factor=1.2, prune=False)

    def test_outcomes_cover_all_tasks_without_prune(self):
        assert feasible_sizes(23, 2.6) == [5, 7, 10, 11, 12]
        res = gcrm_search(23, seeds=range(3), max_factor=2.6, prune=False)
        assert len(res.report.outcomes) == 15
        assert [o.index for o in res.report.outcomes] == list(range(15))
        assert res.pattern.nrows in (7, 10, 11, 12)

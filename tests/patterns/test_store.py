"""Tests for the disk-backed pattern store (repro.patterns.store)."""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.campaign import plan_campaign, run_campaign
from repro.patterns.base import Pattern, PatternError
from repro.patterns.library import best_pattern
from repro.patterns.io import pattern_from_arrays
from repro.patterns.store import (
    DEFAULT_BUDGET,
    SHARD_SIZE,
    PatternStore,
    SHARD_VERSION,
)

#: key budget of ``patterns_for`` with ``budget=2``
B2 = (2, 6.0, True)


@pytest.fixture
def store(tmp_path):
    return PatternStore(tmp_path / "shards", hot_maxsize=32)


class TestShardAddressing:
    def test_span_partitions_node_counts(self, store):
        assert store.shard_span(1) == (1, 32)
        assert store.shard_span(32) == (1, 32)
        assert store.shard_span(33) == (33, 64)
        assert store.shard_span(200) == (193, 224)

    def test_default_shard_size(self, tmp_path):
        """Every store on disk uses the one shard size."""
        assert SHARD_SIZE == 32
        assert PatternStore(tmp_path).shard_span(1) == (1, SHARD_SIZE)

    def test_path_encodes_kernel_family_range(self, store):
        path = store.shard_path(40, "lu", "g2dbc", (5, 4.0, False))
        assert path.name == "lu-g2dbc-s5-f4.0-noprune-p000033-000064.npz"
        assert DEFAULT_BUDGET == (20, 6.0, True)
        assert store.shard_path(40, "lu", "g2dbc").name == \
            "lu-g2dbc-s20-f6.0-prune-p000033-000064.npz"

    def test_budgets_inverts_the_file_names(self, store):
        store.put(best_pattern(3, "lu"), 3, kernel="lu", budget=(5, 4.0, False))
        store.put(best_pattern(3, "lu"), 3, kernel="lu")
        store.put(best_pattern(3, "lu"), 3, kernel="lu", family="g2dbc",
                  budget=B2)
        assert store.budgets("lu") == [(5, 4.0, False), DEFAULT_BUDGET]
        assert store.budgets("lu", "g2dbc") == [B2]
        assert store.budgets("cholesky") == []

    def test_shards_lists_files_by_key_without_reading(self, store):
        store.put_many({3: best_pattern(3, "lu"), 40: best_pattern(40, "lu")},
                       kernel="lu", family="2dbc_within", budget=B2)
        (store.root / "lu-best-p000001-000032.npz").write_bytes(b"stale")
        before = store.stats()
        key = ("lu", "2dbc_within", B2)
        assert store.shards() == {key: [store.shard_path(3, *key),
                                        store.shard_path(40, *key)]}
        assert store.stats() == before

    def test_opening_a_store_creates_nothing(self, tmp_path):
        root = tmp_path / "absent"
        store = PatternStore(root)
        assert store.shards() == {} and store.get(5, "lu") is None
        assert not root.exists()
        store.put(best_pattern(5, "lu"), 5, kernel="lu")
        assert [p.name for p in root.iterdir()] == \
            [store.shard_path(5, "lu").name]

    def test_degenerate_inputs_rejected(self, store):
        with pytest.raises(ValueError, match="node count"):
            store.shard_span(0)
        with pytest.raises(ValueError, match="kernel"):
            store.shard_path(5, "qr")


class TestRoundTrip:
    def test_write_read_cost_equality_across_shards(self, store):
        """Patterns survive the npz round trip across shard boundaries."""
        Ps = [2, 31, 32, 33, 64, 65]  # spans three shards
        originals = {P: best_pattern(P, kernel="lu") for P in Ps}
        store.put_many(originals, kernel="lu")
        # a fresh store (cold hot tier) must re-read from disk
        fresh = PatternStore(store.root)
        for P, orig in originals.items():
            got = fresh.get(P, kernel="lu")
            assert got is not None
            assert got == orig
            assert (got.grid == orig.grid).all()
            assert got.nnodes == orig.nnodes
            assert got.name == orig.name
            assert got.cost("lu") == orig.cost("lu")

    def test_get_miss_returns_none(self, store):
        assert store.get(5, kernel="lu") is None
        stats = store.stats()
        assert stats.misses == 1 and stats.cold_hits == 0

    def test_put_merges_into_existing_shard(self, store):
        a = best_pattern(3, kernel="lu")
        b = best_pattern(5, kernel="lu")
        store.put(a, 3, kernel="lu")
        store.put(b, 5, kernel="lu")  # same shard, must keep P=3
        fresh = PatternStore(store.root)
        assert fresh.get(3, kernel="lu") == a
        assert fresh.get(5, kernel="lu") == b

    def test_kernels_and_families_are_separate(self, store):
        lu = best_pattern(6, kernel="lu")
        chol = best_pattern(6, kernel="cholesky", seeds=range(2))
        store.put(lu, 6, kernel="lu")
        store.put(chol, 6, kernel="cholesky")
        assert store.get(6, kernel="lu") == lu
        assert store.get(6, kernel="cholesky") == chol
        assert store.get(6, kernel="cholesky", family="gcrm") is None

    def test_budgets_are_separate(self, store):
        """Two budgets share neither a shard file nor a hot-tier slot."""
        two = best_pattern(11, "cholesky", seeds=range(2))
        store.put(two, 11, kernel="cholesky", budget=B2)
        assert store.get(11, kernel="cholesky") is None
        assert store.get(11, kernel="cholesky", budget=(2, 6.0, False)) is None
        assert store.get(11, kernel="cholesky", budget=B2) == two
        assert [p.name for p in store.root.glob("*.npz")] == \
            [store.shard_path(11, "cholesky", budget=B2).name]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_shard_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        """A shard is readable by whoever the umask lets read a plain
        file, so a store warmed by one account serves another."""
        old = os.umask(umask)
        try:
            store = PatternStore(tmp_path)
            store.put(best_pattern(3, "lu"), 3, kernel="lu")
            (tmp_path / "plain").write_bytes(b"")
        finally:
            os.umask(old)
        mode = store.shard_path(3, "lu").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask
        assert mode == (tmp_path / "plain").stat().st_mode & 0o777
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruption:
    def _warm(self, store, P=3):
        store.put(best_pattern(P, kernel="lu"), P, kernel="lu")
        return store.shard_path(P, "lu")

    def test_truncated_shard_raises_with_path(self, store):
        path = self._warm(store)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        fresh = PatternStore(store.root)
        with pytest.raises(PatternError, match=str(path.name)):
            fresh.get(3, kernel="lu")

    def test_garbage_shard_raises_with_path(self, store):
        path = self._warm(store)
        path.write_bytes(b"not a zip archive")
        fresh = PatternStore(store.root)
        with pytest.raises(PatternError, match="unreadable shard"):
            fresh.get(3, kernel="lu")

    def test_missing_array_raises_with_path(self, store):
        path = self._warm(store)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        del arrays["offsets"]
        np.savez(path, **arrays)
        fresh = PatternStore(store.root)
        with pytest.raises(PatternError, match="missing array 'offsets'"):
            fresh.get(3, kernel="lu")

    def test_inconsistent_offsets_raise(self, store):
        path = self._warm(store)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["offsets"] = arrays["offsets"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(PatternError, match="offsets"):
            PatternStore(store.root).get(3, kernel="lu")

    def test_wrong_version_raises(self, store):
        path = self._warm(store)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["meta"] = np.array([SHARD_VERSION + 1], dtype=np.int64)
        np.savez(path, **arrays)
        with pytest.raises(PatternError, match="version"):
            PatternStore(store.root).get(3, kernel="lu")

    def test_pattern_from_arrays_validation(self):
        with pytest.raises(PatternError, match="shard.npz"):
            pattern_from_arrays(np.array([0, 1, 2]), 2, 2, 3,
                                context="shard.npz")
        with pytest.raises(PatternError, match="references node"):
            pattern_from_arrays(np.array([0, 5, 1, 0]), 2, 2, 3)
        with pytest.raises(PatternError, match="integer"):
            pattern_from_arrays(np.array([0.5, 1.0]), 1, 2, 2)
        pat = pattern_from_arrays(np.array([0, 1, 1, 0]), 2, 2, 2, name="x")
        assert isinstance(pat, Pattern) and pat.name == "x"


class TestBatchedLookup:
    def test_batch_equals_per_p_live_results(self, store):
        Ps = [5, 9, 12, 23]
        got = store.patterns_for(Ps, kernel="lu", budget=2)
        for P, pat in zip(Ps, got):
            live = best_pattern(P, kernel="lu")
            assert pat == live
            assert (pat.grid == live.grid).all()

    def test_batch_cholesky_equals_live(self, store):
        Ps = [5, 7, 10]
        got = store.patterns_for(Ps, kernel="cholesky", budget=3)
        for P, pat in zip(Ps, got):
            live = best_pattern(P, kernel="cholesky", seeds=range(3), jobs=1)
            assert pat == live
            assert (pat.grid == live.grid).all()

    def test_results_align_with_input_order(self, store):
        Ps = [11, 3, 7]
        got = store.patterns_for(Ps, kernel="lu", budget=2)
        assert [p.nnodes for p in got] == Ps

    def test_second_call_served_from_store(self, store):
        Ps = [4, 6]
        first = store.patterns_for(Ps, kernel="lu", budget=2)
        before = store.stats()
        second = store.patterns_for(Ps, kernel="lu", budget=2)
        after = store.stats()
        assert after.fallbacks == before.fallbacks  # no new live searches
        assert after.hot_hits == before.hot_hits + len(Ps)
        for a, b in zip(first, second):
            assert a == b

    def test_degenerate_batches_rejected(self, store):
        with pytest.raises(ValueError, match="empty"):
            store.patterns_for([], kernel="lu")
        with pytest.raises(ValueError, match="duplicate"):
            store.patterns_for([5, 7, 5], kernel="lu")
        with pytest.raises(ValueError, match=">= 1"):
            store.patterns_for([5, 0], kernel="lu")
        with pytest.raises(ValueError, match="budget"):
            store.patterns_for([5], kernel="lu", budget=0)
        with pytest.raises(ValueError, match="kernel"):
            store.patterns_for([5], kernel="qr")

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_jobs_independent(self, tmp_path, jobs):
        """Identical batch results for every pool size (cold store)."""
        store = PatternStore(tmp_path / f"j{jobs}")
        Ps = [23, 5, 13, 9, 31]
        got = store.patterns_for(Ps, kernel="cholesky", budget=2, jobs=jobs)
        ref = PatternStore(tmp_path / f"ref{jobs}").patterns_for(
            Ps, kernel="cholesky", budget=2, jobs=1)
        for a, b in zip(got, ref):
            assert a == b
            assert a.grid.tobytes() == b.grid.tobytes()
            assert not a.grid.flags.writeable  # also from a pool worker


class TestPrecompute:
    """Warming a store is one ``patterns_for`` call: it files every
    live build, so the next call is served from the shards."""

    def test_precompute_then_query(self, store):
        Ps = [2, 32, 33, 64, 65]  # three shards
        store.patterns_for(Ps, kernel="lu", budget=2)
        s = store.stats()
        assert (s.fallbacks, s.shards_written) == (5, 3)
        fresh = PatternStore(store.root)
        pats = fresh.patterns_for([65, 2, 33], kernel="lu", budget=2)
        assert [p.nnodes for p in pats] == [65, 2, 33]
        s = fresh.stats()
        assert (s.fallbacks, s.cold_hits, s.shards_written) == (0, 3, 0)

    def test_precompute_validates_batch(self, tmp_path, capsys):
        d = str(tmp_path)
        assert main(["store", "precompute", "--dir", d, "--nodes", "3",
                     "--range", "2", "4"]) == 2
        assert "exactly one of" in capsys.readouterr().err
        with pytest.raises(ValueError, match="duplicate"):
            main(["store", "precompute", "--dir", d, "--nodes", "3", "3",
                  "--kernel", "lu"])
        assert main(["store", "precompute", "--dir", d, "--range", "2", "4",
                     "--kernel", "lu", "--budget", "2"]) == 0
        assert "computed 3 patterns (0 already stored) into 1 shard(s)" \
            in capsys.readouterr().out
        assert main(["store", "precompute", "--dir", d, "--nodes", "4", "5",
                     "--kernel", "lu", "--budget", "2"]) == 0
        assert "computed 1 patterns (1 already stored) into 1 shard(s)" \
            in capsys.readouterr().out


class TestHotTierStats:
    def test_exact_counters_in_seeded_scenario(self, tmp_path):
        """Hit/miss/eviction counters are exact for a scripted access mix."""
        PatternStore(tmp_path).patterns_for([3, 4, 5], kernel="lu", budget=2)
        # fresh store over the warmed directory: all counters start at 0
        store = PatternStore(tmp_path, hot_maxsize=2)
        s0 = store.stats()
        assert (s0.hot.hits, s0.hot.misses, s0.hot.evictions) == (0, 0, 0)

        store.get(3, "lu", budget=B2)   # hot miss -> cold hit, cached {3}
        store.get(3, "lu", budget=B2)   # hot hit            {3}
        store.get(4, "lu", budget=B2)   # hot miss -> cold hit, cached {3,4}
        store.get(5, "lu", budget=B2)   # hot miss -> cold hit, evicts 3 {4,5}
        store.get(3, "lu", budget=B2)   # hot miss again, evicts 4 {5,3}
        info = store.stats().hot
        assert info.hits == 1
        assert info.misses == 4
        assert info.evictions == 2
        assert info.currsize == 2
        stats = store.stats()
        assert stats.hot_hits == 1
        assert stats.cold_hits == 4
        assert stats.misses == 0
        assert stats.hit_rate == 1.0

    def test_lru_recency_updated_by_get(self, tmp_path):
        PatternStore(tmp_path).patterns_for([3, 4, 5], kernel="lu", budget=2)
        store = PatternStore(tmp_path, hot_maxsize=2)
        store.get(3, "lu", budget=B2)
        store.get(4, "lu", budget=B2)
        store.get(3, "lu", budget=B2)   # refresh 3 -> LRU order [4, 3]
        store.get(5, "lu", budget=B2)   # evicts 4, not 3
        info_before = store.stats().hot
        store.get(3, "lu", budget=B2)   # still hot
        assert store.stats().hot.hits == info_before.hits + 1

    def test_disabled_hot_tier(self, tmp_path):
        store = PatternStore(tmp_path, hot_maxsize=0)
        store.patterns_for([3], kernel="lu", budget=2)
        base = store.stats().shards_read
        store.get(3, "lu", budget=B2)
        store.get(3, "lu", budget=B2)
        assert store.stats().shards_read == base + 2  # every get hits disk
        assert store.stats().hot_hits == 0


class TestLibraryIntegration:
    def test_best_pattern_reads_through(self, tmp_path):
        store = PatternStore(tmp_path)
        a = best_pattern(23, kernel="cholesky", seeds=range(2), store=store)
        assert store.get(23, kernel="cholesky", budget=B2) == a  # persisted
        b = best_pattern(23, kernel="cholesky", seeds=range(2), store=store)
        live = best_pattern(23, kernel="cholesky", seeds=range(2))
        assert a == b == live
        assert store.stats().hot_hits >= 1

    def test_best_pattern_store_respects_family(self, tmp_path):
        store = PatternStore(tmp_path)
        g = best_pattern(10, kernel="lu", family="g2dbc", store=store)
        assert store.get(10, kernel="lu", family="g2dbc") == g
        assert store.get(10, kernel="lu") is None  # 'best' key untouched


class TestBudgetKey:
    """The store key holds the whole search budget: a pattern searched
    with one budget is never served for another."""

    def test_more_seeds_search_again(self, store):
        two = best_pattern(11, "cholesky", seeds=range(2), store=store)
        assert two.cost_cholesky == 4.25
        five = best_pattern(11, "cholesky", seeds=range(5), store=store)
        live = best_pattern(11, "cholesky", seeds=range(5))
        assert five.cost_cholesky == live.cost_cholesky == 4.0
        assert five.name == live.name and (five.grid == live.grid).all()

    def test_prune_is_in_the_key(self, store):
        pruned = best_pattern(10, "cholesky", seeds=range(5), store=store)
        assert pruned.cost_cholesky == 4.0
        full = best_pattern(10, "cholesky", seeds=range(5), prune=False,
                            store=store)
        live = best_pattern(10, "cholesky", seeds=range(5), prune=False)
        assert full.cost_cholesky == live.cost_cholesky == pytest.approx(3.9)
        assert (full.grid == live.grid).all()

    def test_batched_lookup_at_another_budget_falls_back(self, store):
        Ps = [11, 13, 14]
        store.patterns_for(Ps, kernel="cholesky", budget=2)
        before = store.stats().fallbacks
        got = store.patterns_for(Ps, kernel="cholesky", budget=5)
        assert store.stats().fallbacks - before == 3
        for P, pat in zip(Ps, got):
            live = best_pattern(P, "cholesky", seeds=range(5))
            assert pat.name == live.name and (pat.grid == live.grid).all()

    def test_seeds_without_a_key_rejected(self, store):
        with pytest.raises(ValueError, match="seeds"):
            best_pattern(7, "cholesky", seeds=range(3, 8), store=store)
        with pytest.raises(ValueError, match="seeds"):
            best_pattern(7, "cholesky", seeds=[0, 1, 2], store=store)
        assert not list(store.root.glob("*.npz"))


class TestCampaignIntegration:
    """Campaign rows depend neither on the store nor on call order."""

    def test_campaign_rows_identical_with_and_without_store(self, tmp_path):
        # warmed at the campaign's own budget (20 seeds)
        store = PatternStore(tmp_path)
        store.patterns_for([5, 7], kernel="lu", family="g2dbc", budget=20)
        shards = lambda: sorted(  # noqa: E731
            (p.name, p.stat().st_mtime_ns, p.stat().st_ino)
            for p in tmp_path.glob("*.npz"))
        warm = shards()
        cells = plan_campaign(["g2dbc"], Ps=[5, 7], ms=[6])
        plain = run_campaign(cells, jobs=1, tile_size=200)
        stored = run_campaign(cells, jobs=1, tile_size=200,
                              store_dir=str(tmp_path))
        assert shards() == warm  # served from the store, nothing written
        for a, b in zip(plain, stored):
            assert a.as_dict() == b.as_dict()

    def test_store_at_another_budget_changes_no_row(self, tmp_path):
        PatternStore(tmp_path).patterns_for([23], kernel="cholesky",
                                            family="gcrm", budget=2)
        cells = plan_campaign(["gcrm"], [23], [8])
        stored = run_campaign(cells, tile_size=500, store_dir=str(tmp_path))
        live = best_pattern(23, "cholesky", family="gcrm")
        assert stored[0].pattern_cost == live.cost_cholesky
        plain = run_campaign(cells, tile_size=500)
        assert [r.as_dict() for r in stored] == [r.as_dict() for r in plain]

    def test_store_run_leaves_no_pattern_behind(self, tmp_path):
        PatternStore(tmp_path).patterns_for([11], kernel="cholesky",
                                            family="gcrm", budget=2)
        cells = plan_campaign(["gcrm"], [11], [8])
        stored = run_campaign(cells, tile_size=500, store_dir=str(tmp_path))
        plain = run_campaign(cells, tile_size=500)
        live = best_pattern(11, "cholesky", family="gcrm")
        assert plain[0].pattern_cost == live.cost_cholesky
        assert [r.as_dict() for r in plain] == [r.as_dict() for r in stored]

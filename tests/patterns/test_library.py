"""Tests for the pattern resolver and the shipped databases."""

import shutil

import pytest

from repro.patterns import library
from repro.patterns.g2dbc import g2dbc
from repro.patterns.library import PATTERN_FAMILIES, best_pattern
from repro.patterns.store import PatternStore

#: the key budget every shipped entry is filed under
SHIPPED = dict(seeds=range(25), max_factor=4.0, prune=False)


class TestBestPattern:
    def test_lu_default_is_g2dbc(self):
        p = best_pattern(23, "lu")
        assert p.nnodes == 23
        assert "G-2DBC" in p.name

    def test_cholesky_default_uses_all_nodes(self):
        p = best_pattern(23, "cholesky", seeds=range(5), max_factor=3.0)
        assert p.nnodes == 23

    def test_cholesky_sbc_feasible_keeps_best(self):
        # P=21 is SBC-feasible with T=6; the search must not return worse
        p = best_pattern(21, "cholesky", seeds=range(5), max_factor=3.0)
        assert p.cost_cholesky <= 6.0

    def test_explicit_family(self):
        p = best_pattern(12, family="2dbc")
        assert p.shape == (4, 3)

    def test_family_sbc_within(self):
        p = best_pattern(23, family="sbc_within")
        assert p.nnodes == 21

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            best_pattern(10, family="nope")

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            best_pattern(10, kernel="qr")

    def test_unknown_kernel_with_explicit_family(self):
        # the kernel is checked before the family's builder runs
        with pytest.raises(ValueError, match="unknown kernel"):
            best_pattern(10, "qr", family="g2dbc")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            best_pattern(10, "cholesky", seed=3)

    def test_all_families_registered(self):
        assert set(PATTERN_FAMILIES) == {
            "2dbc", "2dbc_within", "g2dbc", "sbc", "sbc_within", "gcrm", "sts",
        }


class TestShippedDatabase:
    def test_covers_2_to_44(self):
        from repro.patterns.library import load_shipped_database

        for kernel in ("lu", "cholesky"):
            db = load_shipped_database(kernel)
            assert set(db) == set(range(2, 45))

    def test_patterns_use_all_nodes(self):
        from repro.patterns.library import load_shipped_database

        for P, pat in load_shipped_database("cholesky").items():
            assert pat.nnodes == P
            pat.validate()

    def test_costs_competitive(self):
        """Every shipped Cholesky pattern is at or below the basic-SBC
        growth curve plus a small slack; every LU pattern obeys Lemma 2."""
        import math

        from repro.patterns.g2dbc import g2dbc_cost_bound
        from repro.patterns.library import load_shipped_database

        for P, pat in load_shipped_database("cholesky").items():
            assert pat.cost_cholesky <= math.sqrt(2 * P) + 1.2, P
        for P, pat in load_shipped_database("lu").items():
            assert pat.cost_lu <= g2dbc_cost_bound(P) + 1e-9, P

    def test_shipped_pattern_accessors(self):
        import pytest as _pytest

        from repro.patterns.library import shipped_pattern

        assert shipped_pattern(23, "lu").nnodes == 23
        with _pytest.raises(ValueError, match="kernel"):
            shipped_pattern(10, "qr")

    def test_shipped_pattern_falls_through_outside_range(self):
        # regression: P outside the shipped 2..44 range used to raise;
        # now it resolves via best_pattern (elastic-resize targets)
        from repro.patterns.library import best_pattern, shipped_pattern

        pat = shipped_pattern(45, "lu")
        assert pat.nnodes == 45
        assert pat.cost_lu == best_pattern(45, "lu").cost_lu

    def test_entries_are_best_pattern_at_the_shipped_budget(self):
        """Where the shipped databases come from: G-2DBC for LU, and for
        Cholesky ``best_pattern`` with 25 seeds, factor 4, exhaustive
        (checked for P = 2..9; the rest take seconds)."""
        for P, pat in library.load_shipped_database("lu").items():
            ref = g2dbc(P)
            assert pat.name == ref.name and (pat.grid == ref.grid).all(), P
        shipped = library.load_shipped_database("cholesky")
        for P in range(2, 10):
            ref = best_pattern(P, "cholesky", seeds=range(25),
                               max_factor=4.0, prune=False)
            assert shipped[P].name == ref.name, P
            assert (shipped[P].grid == ref.grid).all(), P

    @pytest.mark.slow
    def test_every_entry_is_best_pattern_at_the_shipped_budget(self):
        """All 86 shipped entries equal the live resolver at their key."""
        for kernel in ("lu", "cholesky"):
            for P, pat in library.load_shipped_database(kernel).items():
                ref = best_pattern(P, kernel, jobs=2, **SHIPPED)
                assert (pat.name, pat.nnodes) == (ref.name, ref.nnodes), P
                assert (pat.grid == ref.grid).all(), (kernel, P)

    def test_shipped_shards_serve_best_pattern_without_a_search(
            self, tmp_path, monkeypatch):
        """The shipped shards are a store: ``best_pattern`` at the
        shipped budget is a cold hit on a copy of them."""
        for path in library._DATA_DIR.glob("*.npz"):
            shutil.copy(path, tmp_path)

        def no_search(*args, **kwargs):
            raise AssertionError("searched instead of reading the store")

        monkeypatch.setattr(library, "_build", no_search)
        for kernel in ("lu", "cholesky"):
            shipped = library.load_shipped_database(kernel)
            for P in (2, 23, 44):
                store = PatternStore(tmp_path)
                pat = best_pattern(P, kernel, store=store, **SHIPPED)
                assert pat.name == shipped[P].name, (kernel, P)
                assert (pat.grid == shipped[P].grid).all(), (kernel, P)
                s = store.stats()
                assert (s.cold_hits, s.misses, s.shards_written) == (1, 0, 0)

    def test_missing_file_names_the_recipe(self, tmp_path, monkeypatch):
        monkeypatch.setattr(library, "_DATA_DIR", tmp_path / "data")
        monkeypatch.setattr(library, "_SHIPPED_CACHE", {})
        with pytest.raises(FileNotFoundError,
                           match=r"PatternStore\(.*\)\.put_many\(.*"
                                 r"seeds=range\(25\), max_factor=4\.0, "
                                 r"prune=False\) for P in range\(2, 45\)\}, "
                                 r"'cholesky', budget=\(25, 4\.0, False\)\)"):
            library.load_shipped_database("cholesky")
        assert not (tmp_path / "data").exists()
        # a directory without the kernel's key raises the same
        PatternStore(tmp_path / "data").put(g2dbc(5), 5, "lu",
                                            budget=(25, 4.0, False))
        with pytest.raises(FileNotFoundError, match="'cholesky' shards"):
            library.load_shipped_database("cholesky")
        assert library.load_shipped_database("lu") == {5: g2dbc(5)}

    def test_cache_returns_same_objects(self):
        from repro.patterns.library import load_shipped_database

        assert load_shipped_database("lu") is load_shipped_database("lu")


class TestStsFamily:
    def test_sts_family_registered(self):
        p = best_pattern(35, "cholesky", family="sts")
        assert p.nnodes == 35
        assert p.cost_cholesky == 7.0

    def test_sts_family_infeasible(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="Steiner"):
            best_pattern(23, "cholesky", family="sts")

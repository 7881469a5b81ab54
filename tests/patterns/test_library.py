"""Tests for the pattern resolver and the shipped databases."""

import pytest

from repro.patterns import library
from repro.patterns.g2dbc import g2dbc
from repro.patterns.library import PATTERN_FAMILIES, best_pattern


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

    def test_missing_file_names_the_recipe(self, tmp_path, monkeypatch):
        monkeypatch.setattr(library, "_DATA_DIR", tmp_path)
        monkeypatch.setattr(library, "_SHIPPED_CACHE", {})
        with pytest.raises(FileNotFoundError,
                           match=r"save_database\(.*seeds=range\(25\), "
                                 r"max_factor=4\.0, prune=False"):
            library.load_shipped_database("cholesky")

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

"""Tests for the per-figure experiment drivers.

Cost-only figures are checked against exact paper values; simulated
figures are run at tiny sizes and checked for structure and the
paper's qualitative orderings (the full-size shapes are exercised by
the benchmark suite).
"""

import json
import math
import os
from pathlib import Path

import pytest

from repro.experiments.figures import (
    FigureResult,
    fig1_2dbc_shapes,
    fig4_g2dbc_cost,
    fig5_lu_p23,
    fig7a_strong_scaling_lu,
    fig7b_strong_scaling_cholesky,
    fig9_gcrm_size_effect,
    fig10_symmetric_cost,
    fig11_cholesky_p31,
    table1a_lu_patterns,
    table1b_cholesky_patterns,
)

SMALL = (12, 16)
GOLDEN_ROWS = Path(__file__).parent / "golden" / "figure_rows.json"


@pytest.fixture(scope="module")
def tiny_figures():
    """Three simulated figures at 12 tiles: an LU figure over 2DBC
    grids and G-2DBC, and two Cholesky figures with GCR&M and SBC."""
    return {
        "fig5": fig5_lu_p23((12,), tile_size=200),
        "fig7b": fig7b_strong_scaling_cholesky(12, 200, P_values=(23,),
                                               seeds=range(3)),
        "fig11": fig11_cholesky_p31((12,), 200, seeds=range(3)),
    }


class TestFigureResult:
    def test_render_and_series(self):
        r = FigureResult("F", "demo", [{"x": 1, "y": 2.0}, {"x": 2, "y": 3.0}])
        text = r.render()
        assert "demo" in text and "2.000" in text
        assert r.series("y") == [2.0, 3.0]
        assert r.series("y", where={"x": 2}) == [3.0]

    def test_render_empty(self):
        assert fig_result_empty().render().startswith("== F")


def fig_result_empty():
    return FigureResult("F", "empty")


class TestCostFigures:
    def test_fig4_values(self):
        res = fig4_g2dbc_cost(range(2, 40))
        for row in res.rows:
            P = row["P"]
            assert row["g2dbc"] <= row["lemma2_bound"] + 1e-9
            assert row["g2dbc"] >= row["two_sqrt_P"] - 1e-9
            assert row["best_2dbc"] >= row["two_sqrt_P"] - 1e-9

    def test_fig4_g2dbc_improves_awkward_p(self):
        res = fig4_g2dbc_cost([23, 31, 37])
        for row in res.rows:
            assert row["g2dbc"] < row["best_2dbc"]

    def test_table1a_paper_values(self):
        res = table1a_lu_patterns()
        by_p = {r["P"]: r for r in res.rows}
        assert by_p[16]["2dbc_T"] == 8
        assert by_p[22]["2dbc_T"] == 13
        assert by_p[39]["2dbc_T"] == 16
        assert by_p[31]["g2dbc_T"] == pytest.approx(11.194, abs=5e-4)
        assert by_p[35]["g2dbc_T"] == pytest.approx(11.857, abs=5e-4)
        assert by_p[39]["g2dbc_T"] == pytest.approx(12.615, abs=5e-4)
        assert by_p[31]["g2dbc_dim"] == "30x31"
        assert by_p[16]["g2dbc_dim"] == "-"  # reduces to 2DBC

    def test_table1b_paper_values(self):
        res = table1b_cholesky_patterns(seeds=range(5), max_factor=3.0)
        by_p = {r["P"]: r for r in res.rows}
        assert by_p[21]["sbc_T"] == 6 and by_p[21]["sbc_dim"] == "7x7"
        assert by_p[28]["sbc_T"] == 7
        assert by_p[32]["sbc_T"] == 8
        assert by_p[36]["sbc_T"] == 8
        # GCR&M uses all nodes and lands near the paper's costs
        assert by_p[23]["gcrm_T"] <= 7.0
        assert by_p[31]["gcrm_T"] <= 8.0

    def test_fig9_structure(self):
        res = fig9_gcrm_size_effect(P=23, seeds=range(5), max_factor=2.5)
        assert len(res.rows) >= 3
        for row in res.rows:
            assert row["min_cost"] <= row["mean_cost"] <= row["max_cost"]

    def test_fig9_seed_spread_exists(self):
        res = fig9_gcrm_size_effect(P=23, seeds=range(8), max_factor=2.5)
        assert any(row["max_cost"] > row["min_cost"] for row in res.rows)

    def test_fig10_orderings(self):
        res = fig10_symmetric_cost(range(20, 33), seeds=range(4), max_factor=2.5)
        for row in res.rows:
            # GCR&M at or below the basic-SBC growth curve (+ slack)
            assert row["gcrm"] <= row["sqrt_2P"] + 1.2
            # nothing (meaningfully) below the empirical floor
            assert row["gcrm"] >= row["floor_sqrt_3P_2"] - 0.8
            # symmetric-aware patterns beat 2DBC's colrow cost
            assert row["gcrm"] <= row["2dbc_sym"] + 1e-9 or math.isnan(row["sbc"])


class TestSimulatedFigures:
    def test_fig1_rows(self):
        res = fig1_2dbc_shapes(n_tiles_list=SMALL, tile_size=200)
        assert len(res.rows) == 4 * len(SMALL)
        # per-node performance improves as the grid gets squarer (paper)
        per_node = {r["label"]: r["gflops_per_node"] for r in res.rows
                    if r["n_tiles"] == SMALL[-1]}
        assert per_node["2DBC 5x4 (P=20)"] > per_node["2DBC 23x1 (P=23)"]

    def test_fig5_g2dbc_wins_total(self):
        res = fig5_lu_p23(n_tiles_list=(16,), tile_size=200)
        total = {r["label"]: r["gflops"] for r in res.rows}
        assert total["G-2DBC (P=23)"] > total["2DBC 23x1 (P=23)"]

    def test_fig7a_structure(self):
        res = fig7a_strong_scaling_lu(n_tiles=12, tile_size=200, P_values=(23,))
        assert len(res.rows) == 2
        assert {r["P"] for r in res.rows} == {23}

    def test_fig11_runs(self):
        res = fig11_cholesky_p31(n_tiles_list=(12,), tile_size=200, seeds=range(3))
        assert len(res.rows) == 2
        assert all(r["gflops"] > 0 for r in res.rows)


class TestFigureRuns:
    """A performance figure keeps one checked campaign row per row."""

    def test_runs_agree_with_predictions(self, tiny_figures):
        for name, res in tiny_figures.items():
            assert len(res.runs) == len(res.rows), name
            for row, run in zip(res.rows, res.runs):
                assert run.predicted_messages == run.simulated_messages
                assert run.makespan_s >= run.predicted_makespan_s, name
                assert (row["P"], row["n_tiles"], row["n_messages"]) == \
                    (run.P, run.m, run.simulated_messages)

    def test_sbc_baseline_counts_its_own_nodes(self, tiny_figures):
        """Figure 7b's SBC baseline for P = 23 runs on the 21 nodes its
        pattern uses, and its per-node column divides by those."""
        row = next(r for r in tiny_figures["fig7b"].rows
                   if r["label"].startswith("SBC"))
        assert row["label"] == "SBC (P'=21)"
        assert row["P"] == 21
        assert row["gflops_per_node"] == row["gflops"] / 21


class TestRowGolden:
    """Every column of every row of three tiny figures, floats as
    ``float.hex``.

    Regenerate (only after an *intentional* behavior change) with::

        REGEN_GOLDEN=1 python -m pytest tests/experiments/test_figures.py -k RowGolden
    """

    def test_rows_match_golden(self, tiny_figures):
        actual = {name: [{k: v.hex() if isinstance(v, float) else v
                          for k, v in row.items()} for row in res.rows]
                  for name, res in tiny_figures.items()}
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN_ROWS.write_text(json.dumps(actual, indent=1) + "\n")
            pytest.skip(f"regenerated {GOLDEN_ROWS.name}")
        assert actual == json.loads(GOLDEN_ROWS.read_text())

"""Tests for the one-shot reproduction report."""

import pytest

from repro.experiments.figures import FigureResult, fig4_g2dbc_cost
from repro.experiments.report import (
    EXPERIMENTS,
    generate_report,
    plot_cost_figure,
    plot_performance_figure,
)


class TestPlotHelpers:
    def test_cost_plot(self):
        res = fig4_g2dbc_cost(range(2, 12))
        text = plot_cost_figure(res, "P", ("best_2dbc", "g2dbc"))
        assert "Figure 4" in text
        assert "legend" in text

    def test_performance_plot(self):
        rows = [
            {"label": "a", "matrix_size": 100, "gflops": 1.0},
            {"label": "a", "matrix_size": 200, "gflops": 2.0},
            {"label": "b", "matrix_size": 100, "gflops": 1.5},
        ]
        text = plot_performance_figure(FigureResult("F", "d", rows))
        assert "gflops" in text


class TestGenerateReport:
    def test_cost_only_subset(self, tmp_path):
        out = tmp_path / "report.md"
        text = generate_report(path=out, scale="smoke",
                               only=["fig3_table1a", "fig4"])
        assert out.exists()
        assert "Table Ia" in text
        assert "Figure 4" in text
        assert "Figure 5" not in text

    def test_simulated_subset_smoke(self):
        text = generate_report(scale="smoke", only=["fig5"])
        assert "Figure 5" in text
        assert "G-2DBC" in text

    def test_gcrm_figures_smoke(self):
        """The simulated Cholesky figures take the report's seed range
        as their GCR&M search budget."""
        text = generate_report(scale="smoke", only=["fig7b", "fig11", "fig12"])
        for title in ("Figure 7b", "Figure 11", "Figure 12"):
            assert title in text
        assert "GCR&M (P=39)" in text

    def test_unknown_scale(self):
        # regression: a bad scale used to escape as a bare KeyError
        with pytest.raises(ValueError, match="smoke"):
            generate_report(scale="galactic", only=["fig4"])

    def test_unknown_experiment_id(self):
        # regression: a typo'd id used to be silently skipped, so the
        # report quietly came back empty
        with pytest.raises(ValueError, match="fig13"):
            generate_report(scale="smoke", only=["fig13"])

    def test_experiment_ids_cover_paper(self):
        assert len(EXPERIMENTS) == 12

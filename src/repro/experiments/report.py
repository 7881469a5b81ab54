"""One-shot reproduction report.

``generate_report`` runs every experiment driver (at a configurable
scale), renders each figure's series as ASCII charts, and writes a
self-contained Markdown report — the "did the reproduction hold?"
artifact for a fresh environment.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..viz import ascii_plot
from .figures import (
    FigureResult,
    fig1_2dbc_shapes,
    fig4_g2dbc_cost,
    fig5_lu_p23,
    fig6_lu_p39,
    fig7a_strong_scaling_lu,
    fig7b_strong_scaling_cholesky,
    fig9_gcrm_size_effect,
    fig10_symmetric_cost,
    fig11_cholesky_p31,
    fig12_cholesky_p35,
    table1a_lu_patterns,
    table1b_cholesky_patterns,
)

__all__ = ["generate_report", "EXPERIMENTS", "plot_performance_figure", "plot_cost_figure"]


def plot_performance_figure(result: FigureResult, y: str = "gflops") -> str:
    """ASCII chart of a GFlop/s-vs-size figure (one series per label)."""
    series: Dict[str, list] = {}
    for row in result.rows:
        series.setdefault(row["label"], []).append((row["matrix_size"], row[y]))
    return ascii_plot(series, title=f"{result.figure} — {y}", ylabel=y)


def plot_cost_figure(result: FigureResult, x: str, ys: Sequence[str]) -> str:
    """ASCII chart of a cost-vs-P style figure."""
    series = {y: [(row[x], row[y]) for row in result.rows] for y in ys}
    return ascii_plot(series, title=result.figure, ylabel="T")


def _speed(scale: str):
    """Map a report scale to (tile counts, seeds, search factor)."""
    scales = {
        "smoke": ((16, 24), range(5), 2.5),
        "default": ((32, 48), range(10), 3.0),
        "full": ((32, 48, 64), range(25), 4.0),
    }
    try:
        return scales[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(scales)}"
        ) from None


#: experiment ids in paper order
EXPERIMENTS = (
    "fig1", "fig3_table1a", "fig4", "table1b", "fig5", "fig6",
    "fig7a", "fig7b", "fig9", "fig10", "fig11", "fig12",
)


def generate_report(
    path: Union[str, Path, None] = None,
    scale: str = "default",
    only: Optional[Sequence[str]] = None,
) -> str:
    """Run the experiment drivers and return/write a Markdown report."""
    sizes, seeds, factor = _speed(scale)
    wanted = set(only) if only else set(EXPERIMENTS)
    unknown = wanted - set(EXPERIMENTS)
    if unknown:
        raise ValueError(
            f"unknown experiment ids {sorted(unknown)}; "
            f"choose from {list(EXPERIMENTS)}")
    parts: List[str] = [
        "# Reproduction report",
        "",
        f"scale = `{scale}` (tile counts {sizes}, {len(seeds)} GCR&M seeds, "
        f"search factor {factor}); see EXPERIMENTS.md for paper-vs-measured "
        "interpretation.",
        "",
    ]
    t0 = time.time()

    def add(title: str, body: str) -> None:
        parts.extend([f"## {title}", "", "```", body, "```", ""])

    if "fig1" in wanted:
        add("Figure 1 — 2DBC shapes (LU)",
            plot_performance_figure(fig1_2dbc_shapes(sizes), "gflops_per_node"))
    if "fig3_table1a" in wanted:
        add("Table Ia — LU patterns", table1a_lu_patterns().render())
    if "fig4" in wanted:
        res = fig4_g2dbc_cost(range(2, 80))
        add("Figure 4 — G-2DBC vs best 2DBC cost",
            plot_cost_figure(res, "P", ("best_2dbc", "g2dbc", "two_sqrt_P")))
    if "table1b" in wanted:
        add("Table Ib — Cholesky patterns",
            table1b_cholesky_patterns(seeds=seeds, max_factor=factor).render())
    if "fig5" in wanted:
        add("Figure 5 — LU, max P=23", plot_performance_figure(fig5_lu_p23(sizes)))
    if "fig6" in wanted:
        add("Figure 6 — LU, max P=39", plot_performance_figure(fig6_lu_p39(sizes)))
    if "fig7a" in wanted:
        add("Figure 7a — LU strong scaling",
            fig7a_strong_scaling_lu(n_tiles=sizes[-1]).render())
    if "fig7b" in wanted:
        add("Figure 7b — Cholesky strong scaling",
            fig7b_strong_scaling_cholesky(n_tiles=sizes[-1], seeds=seeds,
                                          max_factor=factor).render())
    if "fig9" in wanted:
        res = fig9_gcrm_size_effect(seeds=seeds, max_factor=factor)
        add("Figure 9 — GCR&M size/seed effect (P=23)",
            plot_cost_figure(res, "r", ("min_cost", "mean_cost", "max_cost")))
    if "fig10" in wanted:
        res = fig10_symmetric_cost(range(6, 49), seeds=seeds, max_factor=factor)
        add("Figure 10 — symmetric cost of all families",
            plot_cost_figure(res, "P", ("2dbc_sym", "g2dbc_sym", "sbc", "gcrm",
                                        "sqrt_2P", "floor_sqrt_3P_2")))
    if "fig11" in wanted:
        add("Figure 11 — Cholesky, max P=31",
            plot_performance_figure(fig11_cholesky_p31(sizes, seeds=seeds,
                                                       max_factor=factor)))
    if "fig12" in wanted:
        add("Figure 12 — Cholesky, max P=35",
            plot_performance_figure(fig12_cholesky_p35(sizes, seeds=seeds,
                                                       max_factor=factor)))

    parts.append(f"_generated in {time.time() - t0:.1f}s_")
    text = "\n".join(parts)
    if path is not None:
        Path(path).write_text(text)
    return text

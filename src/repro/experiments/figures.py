"""Drivers regenerating every table and figure of the paper.

Each ``fig*``/``table*`` function returns a :class:`FigureResult` whose
``rows`` are plain dicts (one per plotted point / table line) so they
can be printed, asserted on, or dumped to CSV.  The simulated
performance figures (1, 5–7, 11 and 12) are lists of ``(label, family,
P)`` series that :func:`performance_figure` runs as campaign cells, so
each of their rows also keeps its :class:`CampaignRow`, with the exact
message count and the makespan bounds beside the simulated run.  The
benchmark suite in ``benchmarks/`` runs these with reduced sizes and
prints the series; EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..patterns.bc2d import bc2d_cost, best_grid
from ..patterns.g2dbc import g2dbc, g2dbc_cost, g2dbc_cost_bound, g2dbc_params
from ..patterns.gcrm import gcrm_cost_floor, gcrm_search
from ..patterns.library import search_budget
from ..patterns.sbc import best_sbc_within, sbc, sbc_cost, sbc_feasible
from ..cost.bounds import lu_pattern_lower_bound, sbc_cost_curve
from .campaign import CampaignCell, CampaignRow, run_campaign

__all__ = [
    "FigureResult",
    "performance_figure",
    "fig1_2dbc_shapes",
    "fig4_g2dbc_cost",
    "table1a_lu_patterns",
    "table1b_cholesky_patterns",
    "fig5_lu_p23",
    "fig6_lu_p39",
    "fig7a_strong_scaling_lu",
    "fig7b_strong_scaling_cholesky",
    "fig9_gcrm_size_effect",
    "fig10_symmetric_cost",
    "fig11_cholesky_p31",
    "fig12_cholesky_p35",
]

#: Default (reduced) tile counts for the simulated-performance figures.
#: The paper uses m = 50 000 … 300 000 with 500-wide tiles, i.e.
#: 100 … 600 tiles; see the scale note in `harness`.
DEFAULT_SIZES: Sequence[int] = (32, 48, 64)


@dataclass
class FigureResult:
    """Structured output of one experiment driver."""

    figure: str
    description: str
    rows: List[dict] = field(default_factory=list)
    #: a performance figure's campaign rows, one per row (not rendered)
    runs: List[CampaignRow] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== {self.figure}: {self.description} =="]
        if not self.rows:
            return lines[0]
        keys = list(self.rows[0].keys())
        lines.append("  ".join(f"{k:>14}" for k in keys))
        for row in self.rows:
            cells = []
            for k in keys:
                v = row[k]
                cells.append(f"{v:>14.3f}" if isinstance(v, float) else f"{v!s:>14}")
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def series(self, key: str, where: Optional[Dict[str, object]] = None) -> List:
        """Extract one column, optionally filtered by exact-match keys."""
        out = []
        for row in self.rows:
            if where and any(row.get(k) != v for k, v in where.items()):
                continue
            out.append(row[key])
        return out


def performance_figure(
    figure: str,
    description: str,
    series: Sequence[Tuple[str, str, int]],
    sizes: Sequence[int],
    kernel: str,
    tile_size: int = 500,
    budget: Tuple[int, float, bool] = search_budget(),
) -> FigureResult:
    """Run every ``(label, family, P)`` series entry at every size.

    Each entry and size is one :class:`CampaignCell` (in that order),
    run by :func:`run_campaign` on the scaled machine of ``P`` nodes
    under the GCR&M search ``budget``.  ``P`` is the node count the
    pattern uses, so ``gflops_per_node`` is per working node.  The rows
    carry the figure columns under the series' labels, and ``runs``
    keeps each cell's :class:`CampaignRow`.
    """
    cells = [CampaignCell(family, kernel, P, m)
             for _, family, P in series for m in sizes]
    runs = run_campaign(cells, tile_size=tile_size, budget=budget)
    labels = [label for label, _, _ in series for _ in sizes]
    rows = [{"label": label, "kernel": r.kernel, "P": r.P, "n_tiles": r.m,
             "matrix_size": r.matrix_size, "pattern_cost": r.pattern_cost,
             "makespan_s": r.makespan_s, "gflops": r.gflops,
             "gflops_per_node": r.gflops_per_node,
             "n_messages": r.simulated_messages,
             "utilization": r.utilization}
            for label, r in zip(labels, runs)]
    return FigureResult(figure, description, rows, runs)


# ---------------------------------------------------------------------------
# Figure 1 — 2DBC shape study for LU
# ---------------------------------------------------------------------------
def fig1_2dbc_shapes(n_tiles_list: Sequence[int] = DEFAULT_SIZES,
                     tile_size: int = 500) -> FigureResult:
    """LU with 2DBC grids 5×4 (P=20), 7×3 (21), 11×2 (22), 23×1 (23).

    Paper observation: per-node GFlop/s improves as the grid becomes
    squarer, but fewer nodes are used, so total GFlop/s is similar —
    the motivation for G-2DBC.
    """
    series = [
        ("2DBC 5x4 (P=20)", "2dbc", 20),
        ("2DBC 7x3 (P=21)", "2dbc", 21),
        ("2DBC 11x2 (P=22)", "2dbc", 22),
        ("2DBC 23x1 (P=23)", "2dbc", 23),
    ]
    return performance_figure(
        "Figure 1", "LU, 2DBC pattern shapes (total and per-node GFlop/s)",
        series, n_tiles_list, "lu", tile_size)


# ---------------------------------------------------------------------------
# Figure 4 — cost of G-2DBC vs best 2DBC over P
# ---------------------------------------------------------------------------
def fig4_g2dbc_cost(P_range: Iterable[int] = range(2, 121)) -> FigureResult:
    rows = []
    for P in P_range:
        r, c = best_grid(P)
        rows.append({
            "P": P,
            "best_2dbc": bc2d_cost(r, c, "lu"),
            "g2dbc": g2dbc_cost(P),
            "two_sqrt_P": lu_pattern_lower_bound(P),
            "lemma2_bound": g2dbc_cost_bound(P),
        })
    return FigureResult("Figure 4", "Total cost T of G-2DBC and the best 2DBC for varying P", rows)


# ---------------------------------------------------------------------------
# Table Ia — LU pattern dimensions and costs
# ---------------------------------------------------------------------------
def table1a_lu_patterns() -> FigureResult:
    """Dimensions and cost of the LU evaluation patterns (Table Ia)."""
    rows = []
    for P in (16, 20, 21, 22, 23, 30, 31, 35, 36, 39):
        r, c = best_grid(P)
        row = {"P": P, "2dbc_dim": f"{r}x{c}", "2dbc_T": bc2d_cost(r, c, "lu")}
        a, b, cc = g2dbc_params(P)
        if cc != 0:  # paper lists G-2DBC only where it differs from 2DBC
            pat = g2dbc(P)
            row["g2dbc_dim"] = f"{pat.nrows}x{pat.ncols}"
            row["g2dbc_T"] = pat.cost_lu
        else:
            row["g2dbc_dim"] = "-"
            row["g2dbc_T"] = float("nan")
        rows.append(row)
    return FigureResult("Table Ia", "LU patterns used in the experimental evaluation", rows)


# ---------------------------------------------------------------------------
# Table Ib — Cholesky pattern dimensions and costs
# ---------------------------------------------------------------------------
def table1b_cholesky_patterns(seeds: Iterable[int] = range(20),
                              max_factor: float = 4.0,
                              jobs: Optional[int] = 1,
                              prune: bool = False) -> FigureResult:
    """SBC vs GCR&M dimensions/costs (Table Ib).

    The SBC column shows the best SBC using at most P nodes; the GCR&M
    column the search result on exactly P nodes (for the paper's
    highlighted cases P = 23, 31, 35, 39).  ``jobs`` parallelizes each
    search (results are jobs-independent, see
    :mod:`repro.patterns.search`); pruning is off by default because
    this table reproduces the paper's exhaustive protocol.
    """
    rows = []
    for P in (21, 23, 28, 31, 32, 35, 36, 39):
        row: dict = {"P": P}
        if sbc_feasible(P):
            pat = sbc(P)
            row["sbc_dim"] = f"{pat.nrows}x{pat.ncols}"
            row["sbc_T"] = sbc_cost(P)
        else:
            pat = best_sbc_within(P)
            row["sbc_dim"] = f"{pat.nrows}x{pat.ncols} (P'={pat.nnodes})"
            row["sbc_T"] = pat.cost_cholesky
        if P in (23, 31, 35, 39):
            res = gcrm_search(P, seeds=seeds, max_factor=max_factor,
                              jobs=jobs, prune=prune)
            row["gcrm_dim"] = f"{res.pattern.nrows}x{res.pattern.ncols}"
            row["gcrm_T"] = res.cost
        else:
            row["gcrm_dim"] = "-"
            row["gcrm_T"] = float("nan")
        rows.append(row)
    return FigureResult("Table Ib", "Cholesky patterns used in the experimental evaluation", rows)


# ---------------------------------------------------------------------------
# Figures 5/6 — LU performance, P = 23 and P = 39
# ---------------------------------------------------------------------------
def fig5_lu_p23(n_tiles_list: Sequence[int] = DEFAULT_SIZES,
                tile_size: int = 500) -> FigureResult:
    series = [
        ("G-2DBC (P=23)", "g2dbc", 23),
        ("2DBC 23x1 (P=23)", "2dbc", 23),
        ("2DBC 7x3 (P=21)", "2dbc", 21),
        ("2DBC 4x4 (P=16)", "2dbc", 16),
    ]
    return performance_figure(
        "Figure 5", "LU factorization using a maximum of P=23 nodes",
        series, n_tiles_list, "lu", tile_size)


def fig6_lu_p39(n_tiles_list: Sequence[int] = DEFAULT_SIZES,
                tile_size: int = 500) -> FigureResult:
    series = [
        ("G-2DBC (P=39)", "g2dbc", 39),
        ("2DBC 13x3 (P=39)", "2dbc", 39),
        ("2DBC 6x6 (P=36)", "2dbc", 36),
    ]
    return performance_figure(
        "Figure 6", "LU factorization using a maximum of P=39 nodes",
        series, n_tiles_list, "lu", tile_size)


# ---------------------------------------------------------------------------
# Figure 7 — strong scaling at fixed matrix size
# ---------------------------------------------------------------------------
def fig7a_strong_scaling_lu(
    n_tiles: int = 48, tile_size: int = 500,
    P_values: Sequence[int] = (23, 31, 35, 39),
) -> FigureResult:
    """LU at fixed size: G-2DBC on all P vs the best practical 2DBC."""
    series = []
    for P in P_values:
        r, c = best_grid(P)
        series += [(f"G-2DBC (P={P})", "g2dbc", P),
                   (f"2DBC {r}x{c} (P={P})", "2dbc", P)]
    return performance_figure(
        "Figure 7a", f"LU strong scaling, {n_tiles} tiles (paper: N=200000)",
        series, [n_tiles], "lu", tile_size)


def fig7b_strong_scaling_cholesky(n_tiles: int = 48, tile_size: int = 500,
                                  P_values: Sequence[int] = (23, 31, 35, 39),
                                  seeds: range = range(10),
                                  max_factor: float = 3.0) -> FigureResult:
    """Cholesky at fixed size: GCR&M on all P vs the best SBC within P.

    The SBC baseline runs on the nodes its pattern uses, ``P' ≤ P``.
    """
    series = []
    for P in P_values:
        nodes = best_sbc_within(P).nnodes
        series += [(f"GCR&M (P={P})", "gcrm", P),
                   (f"SBC (P'={nodes})", "sbc", nodes)]
    return performance_figure(
        "Figure 7b",
        f"Cholesky strong scaling, {n_tiles} tiles (paper: N=200000)",
        series, [n_tiles], "cholesky", tile_size,
        search_budget(seeds, max_factor))


# ---------------------------------------------------------------------------
# Figure 9 — effect of pattern size and random seed (GCR&M, P = 23)
# ---------------------------------------------------------------------------
def fig9_gcrm_size_effect(P: int = 23, seeds: Iterable[int] = range(25),
                          max_factor: float = 6.0,
                          jobs: Optional[int] = 1) -> FigureResult:
    """Per-(r, seed) cost spread: one exhaustive :func:`gcrm_search`.

    The figure needs every cost (not just the winner), so the sweep runs
    with pruning disabled and reads the report's outcomes, in task
    order; costs are identical for any ``jobs``.
    """
    seeds = list(seeds)
    report = gcrm_search(P, seeds, max_factor, jobs=jobs,
                         prune=False).report
    by_size: Dict[int, list] = {}
    for o in report.outcomes:
        by_size.setdefault(o.r, []).append(o.cost)
    rows = []
    for r, costs in by_size.items():
        rows.append({
            "r": r,
            "min_cost": min(costs),
            "mean_cost": sum(costs) / len(costs),
            "max_cost": max(costs),
        })
    return FigureResult("Figure 9", f"GCR&M cost vs pattern size for P={P} "
                        f"({len(seeds)} seeds)", rows)


# ---------------------------------------------------------------------------
# Figure 10 — symmetric cost of all pattern families over P
# ---------------------------------------------------------------------------
def fig10_symmetric_cost(P_range: Iterable[int] = range(4, 61),
                         seeds: Iterable[int] = range(10),
                         max_factor: float = 3.0) -> FigureResult:
    """Cholesky cost T vs P for 2DBC, G-2DBC, SBC and GCR&M.

    For (G-)2DBC the symmetric cost is the LU cost minus 1 (a colrow is
    a row plus a column minus their one-node intersection).
    """
    rows = []
    seeds = list(seeds)
    for P in P_range:
        r, c = best_grid(P)
        try:
            gcrm_T = gcrm_search(P, seeds=seeds, max_factor=max_factor).cost
        except ValueError:
            # tiny search budgets can miss an all-nodes pattern at small
            # sizes; retry with the paper's full size range
            gcrm_T = gcrm_search(P, seeds=seeds, max_factor=6.0).cost
        row = {
            "P": P,
            "2dbc_sym": bc2d_cost(r, c, "cholesky"),
            "g2dbc_sym": g2dbc_cost(P) - 1.0,
            "sbc": sbc_cost(P) if sbc_feasible(P) else float("nan"),
            "gcrm": gcrm_T,
            "sqrt_2P": sbc_cost_curve(P, extended=False),
            "floor_sqrt_3P_2": gcrm_cost_floor(P),
        }
        rows.append(row)
    return FigureResult("Figure 10", "Total symmetric cost T of all pattern families", rows)


# ---------------------------------------------------------------------------
# Figures 11/12 — Cholesky performance, P = 31 and P = 35
# ---------------------------------------------------------------------------
def fig11_cholesky_p31(n_tiles_list: Sequence[int] = DEFAULT_SIZES,
                       tile_size: int = 500,
                       seeds: range = range(10),
                       max_factor: float = 3.0) -> FigureResult:
    series = [("GCR&M (P=31)", "gcrm", 31), ("SBC 8x8 (P=28)", "sbc", 28)]
    return performance_figure(
        "Figure 11", "Cholesky factorization using a maximum of P=31 nodes",
        series, n_tiles_list, "cholesky", tile_size,
        search_budget(seeds, max_factor))


def fig12_cholesky_p35(n_tiles_list: Sequence[int] = DEFAULT_SIZES,
                       tile_size: int = 500,
                       seeds: range = range(10),
                       max_factor: float = 3.0) -> FigureResult:
    series = [("GCR&M (P=35)", "gcrm", 35), ("SBC 8x8 (P=32)", "sbc", 32)]
    return performance_figure(
        "Figure 12", "Cholesky factorization using a maximum of P=35 nodes",
        series, n_tiles_list, "cholesky", tile_size,
        search_budget(seeds, max_factor))

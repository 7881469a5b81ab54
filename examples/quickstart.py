#!/usr/bin/env python
"""Quickstart: pick a distribution for your node count and see what it buys.

Scenario from the paper's introduction: you were allocated 23 cluster
nodes (the reservation system rarely hands you a perfect square).  What
do you lose with classical 2DBC, and what do the paper's G-2DBC /
GCR&M patterns recover?

Run:  python examples/quickstart.py [P]
"""

import sys

from repro import TileDistribution, best_pattern, g2dbc, simulate
from repro.cost.metrics import q_cholesky, q_lu
from repro.experiments import performance_figure
from repro.patterns import bc2d, best_grid, best_sbc_within, gcrm_search
from repro.patterns.library import search_budget


def main(P: int = 23) -> None:
    print(f"=== Distributing a dense matrix over P = {P} nodes ===\n")

    # ------------------------------------------------------------------
    # 1. LU (non-symmetric): 2DBC vs G-2DBC
    # ------------------------------------------------------------------
    r, c = best_grid(P)
    classical = bc2d(r, c)
    generalized = g2dbc(P)
    print(f"Best 2DBC grid for P={P}: {r}x{c}, comm cost T = {classical.cost_lu:.3f}")
    print(f"G-2DBC pattern: {generalized.nrows}x{generalized.ncols}, "
          f"T = {generalized.cost_lu:.3f}  "
          f"({classical.cost_lu / generalized.cost_lu:.2f}x fewer row/col partners)\n")

    n_tiles = 48
    print(f"Predicted LU communication for a {n_tiles}x{n_tiles}-tile matrix:")
    print(f"  2DBC  : {q_lu(classical, n_tiles):10.0f} tile messages")
    print(f"  G-2DBC: {q_lu(generalized, n_tiles):10.0f} tile messages\n")

    # ------------------------------------------------------------------
    # 2. Cholesky (symmetric): SBC-within-P vs GCR&M
    # ------------------------------------------------------------------
    sbc_pat = best_sbc_within(P)
    gcrm_pat = gcrm_search(P, seeds=range(10), max_factor=3.0).pattern
    print(f"Best SBC within {P} nodes: {sbc_pat.nrows}x{sbc_pat.ncols} on "
          f"P'={sbc_pat.nnodes}, T = {sbc_pat.cost_cholesky:.3f}")
    print(f"GCR&M on all {P} nodes: {gcrm_pat.nrows}x{gcrm_pat.ncols}, "
          f"T = {gcrm_pat.cost_cholesky:.3f}")
    print(f"Predicted Cholesky messages ({n_tiles} tiles): "
          f"SBC {q_cholesky(sbc_pat, n_tiles):.0f} on {sbc_pat.nnodes} nodes vs "
          f"GCR&M {q_cholesky(gcrm_pat, n_tiles):.0f} on {P} nodes\n")

    # ------------------------------------------------------------------
    # 3. Simulated runs on the paper-like cluster
    # ------------------------------------------------------------------
    # Each (label, family, P) series entry is one campaign cell per size;
    # the result's `runs` also carry each run's exact message count and
    # makespan lower bound.
    print("Simulated LU runs (StarPU-like runtime, scaled PlaFRIM model):")
    print(performance_figure("LU", f"2DBC vs G-2DBC, {n_tiles} tiles",
                             [("2DBC", "2dbc", P), ("G-2DBC", "g2dbc", P)],
                             [n_tiles], "lu").render())
    print()
    print("Simulated Cholesky runs:")
    print(performance_figure(
        "Cholesky", f"SBC within P vs GCR&M, {n_tiles} tiles",
        [(f"SBC (P'={sbc_pat.nnodes})", "sbc", sbc_pat.nnodes),
         ("GCR&M", "gcrm", P)],
        [n_tiles], "cholesky",
        budget=search_budget(range(10), max_factor=3.0)).render())

    # ------------------------------------------------------------------
    # 4. One-call API
    # ------------------------------------------------------------------
    print("\nOne-call API: best_pattern(P, kernel)")
    for kernel in ("lu", "cholesky"):
        pat = best_pattern(P, kernel, seeds=range(5), max_factor=3.0)
        print(f"  {kernel:9s} -> {pat.name}, T = {pat.cost(kernel):.3f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 23)

#!/usr/bin/env python
"""Build and export a pattern database for a whole cluster.

The paper's conclusion suggests shipping "a database containing, for
each possible value of P, a very efficient pattern".  This example
builds one for every node count of a 44-node cluster (the paper's
PlaFRIM platform), prints the cost landscape, and writes the database
as a pattern-store directory for reuse: ``PatternStore(out).get(P,
"cholesky", family="gcrm", budget=(10, 3.0, True))`` serves it back, and
``python -m repro store stats --dir out`` lists it.

Run:  python examples/pattern_explorer.py [max_P] [out_dir]
"""

import math
import sys

from repro.cost.bounds import cholesky_pattern_floor, lu_pattern_lower_bound, sbc_cost_curve
from repro.patterns import (
    PatternStore,
    best_grid,
    bc2d_cost,
    g2dbc,
    g2dbc_cost,
    gcrm_search,
    sbc_cost,
    sbc_feasible,
)


def explore(max_P: int = 44, out: str = "pattern_db") -> None:
    print(f"{'P':>3} | {'2DBC':>6} {'G-2DBC':>7} {'2sqrtP':>7} | "
          f"{'SBC':>5} {'GCR&M':>6} {'floor':>6}")
    print("-" * 52)

    lu_db = {}
    chol_db = {}
    for P in range(2, max_P + 1):
        r, c = best_grid(P)
        lu_db[P] = g2dbc(P)
        gc = gcrm_search(P, seeds=range(10), max_factor=3.0)
        chol_db[P] = gc.pattern
        sbc_txt = f"{sbc_cost(P):5.1f}" if sbc_feasible(P) else "    -"
        print(f"{P:>3} | {bc2d_cost(r, c, 'lu'):>6.1f} {g2dbc_cost(P):>7.3f} "
              f"{lu_pattern_lower_bound(P):>7.3f} | {sbc_txt} "
              f"{gc.cost:>6.3f} {cholesky_pattern_floor(P):>6.3f}")

    # the GCR&M winners of this search budget, filed under its store key
    PatternStore(out).put_many(chol_db, "cholesky", family="gcrm",
                               budget=(10, 3.0, True))
    print(f"\nwrote {len(chol_db)} symmetric patterns to {out}/")

    # headline numbers: how much does generality cost?
    worst = max(g2dbc_cost(P) / lu_pattern_lower_bound(P) for P in range(2, max_P + 1))
    print(f"G-2DBC within {100 * (worst - 1):.1f}% of the 2*sqrt(P) reference "
          f"for every P <= {max_P}")


if __name__ == "__main__":
    max_P = int(sys.argv[1]) if len(sys.argv) > 1 else 44
    out = sys.argv[2] if len(sys.argv) > 2 else "pattern_db"
    explore(max_P, out)

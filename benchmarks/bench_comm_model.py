"""Model-validation bench: Equations 1–2 vs exact tile-level counts.

Not a paper figure per se, but the quantitative backbone of Section
III: the closed forms must track the exact per-run message counts with
an O(pattern/matrix) edge-effect error.
"""

import pytest

from repro.cost.exact import count_cholesky_messages, count_lu_messages
from repro.cost.metrics import q_cholesky, q_lu
from repro.distribution import TileDistribution
from repro.experiments.figures import FigureResult
from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.patterns.sbc import sbc


@pytest.mark.benchmark(group="comm-model")
def test_eq1_vs_exact_lu(benchmark, save_result):
    def run():
        rows = []
        for pat in (bc2d(5, 4), bc2d(23, 1), g2dbc(23), g2dbc(39)):
            for n in (32, 64, 96):
                cc = count_lu_messages(TileDistribution(pat, n))
                q = q_lu(pat, n)
                rows.append({"pattern": pat.name, "n_tiles": n,
                             "exact_trsm": cc.trsm,
                             "eq1": q, "rel_err": abs(q - cc.trsm) / q})
        return FigureResult("Model check", "Equation 1 vs exact LU message counts", rows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result, "comm_model_lu")
    for name in {r["pattern"] for r in result.rows}:
        errs = [r["rel_err"] for r in result.rows if r["pattern"] == name]
        assert errs[-1] <= errs[0] + 0.02  # error shrinks (or stays tiny)
        assert errs[-1] < 0.25


@pytest.mark.benchmark(group="comm-model")
def test_eq2_vs_exact_cholesky(benchmark, save_result):
    def run():
        rows = []
        for pat in (sbc(21), sbc(32), bc2d(6, 6)):
            for n in (32, 64, 96):
                cc = count_cholesky_messages(TileDistribution(pat, n, symmetric=True))
                q = q_cholesky(pat, n)
                rows.append({"pattern": pat.name, "n_tiles": n,
                             "exact_trsm": cc.trsm, "eq2": q,
                             "rel_err": abs(q - cc.trsm) / q})
        return FigureResult("Model check", "Equation 2 vs exact Cholesky message counts", rows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result, "comm_model_cholesky")
    for name in {r["pattern"] for r in result.rows}:
        errs = [r["rel_err"] for r in result.rows if r["pattern"] == name]
        assert errs[-1] <= errs[0] + 0.02
        assert errs[-1] < 0.25

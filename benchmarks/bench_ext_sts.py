"""Extension (open question §VI, answered for P = r(r−1)/6):
explicit Steiner-triple-system patterns at the √(3P/2) floor.

Head-to-head on the paper's P=35 Cholesky case: STS(15) (T=7, exact)
vs the paper's GCR&M search (T≈7.4) vs the SBC fallback on 32 nodes
(T=8) — both the cost metric and the simulated run.
"""

import pytest

from repro.experiments.figures import FigureResult, performance_figure
from repro.patterns.gcrm import gcrm_cost_floor, gcrm_search
from repro.patterns.library import search_budget
from repro.patterns.sts import sts_node_counts, sts_pattern


@pytest.mark.benchmark(group="ext-sts")
def test_sts_cost_floor(benchmark, save_result):
    def run():
        rows = []
        for P, r in sorted(sts_node_counts(27).items()):
            pat = sts_pattern(r)
            rows.append({
                "P": P,
                "r": r,
                "sts_T": pat.cost_cholesky,
                "floor_sqrt_3P_2": gcrm_cost_floor(P),
                "gcrm_T": gcrm_search(P, seeds=range(10), max_factor=3.0).cost
                if P <= 70 else float("nan"),
            })
        return FigureResult("Extension", "STS explicit patterns vs the GCR&M floor", rows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result, "ext_sts_floor")

    for row in result.rows:
        assert row["sts_T"] <= row["floor_sqrt_3P_2"]
        if row["gcrm_T"] == row["gcrm_T"]:  # not nan
            assert row["sts_T"] <= row["gcrm_T"] + 1e-9


@pytest.mark.benchmark(group="ext-sts")
def test_sts_p35_cholesky(benchmark, save_result, check_runs):
    """Simulated Figure-12 rerun with the STS(15) pattern added."""
    def run():
        series = [
            ("STS 15x15 (P=35)", "sts", 35),
            ("GCR&M (P=35)", "gcrm", 35),
            ("SBC 8x8 (P=32)", "sbc", 32),
        ]
        return performance_figure(
            "Extension", "Cholesky P=35 with the explicit STS pattern",
            series, [48, 64], "cholesky",
            budget=search_budget(range(10), max_factor=3.0))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result, "ext_sts_p35")
    check_runs(result)

    last = {r["label"]: r for r in result.rows if r["n_tiles"] == 64}
    assert last["STS 15x15 (P=35)"]["pattern_cost"] == 7.0
    # lowest communication of the three
    assert last["STS 15x15 (P=35)"]["n_messages"] <= last["GCR&M (P=35)"]["n_messages"]
    assert last["STS 15x15 (P=35)"]["n_messages"] < last["SBC 8x8 (P=32)"]["n_messages"]
    # and at least competitive throughput with the heuristic
    assert last["STS 15x15 (P=35)"]["gflops"] >= 0.95 * last["GCR&M (P=35)"]["gflops"]

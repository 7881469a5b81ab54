"""Figure 1 — LU with 2DBC grids of different shapes (P = 20…23).

Paper shape to reproduce: per-node GFlop/s improves as the grid gets
squarer (5×4 best, 23×1 worst), while total GFlop/s stays similar
because squarer grids use fewer nodes — the motivation for G-2DBC.
"""

import pytest

from repro.experiments.figures import fig1_2dbc_shapes

SIZES = (32, 48, 64)


@pytest.mark.benchmark(group="fig01")
def test_fig1_2dbc_shapes(benchmark, save_result, check_runs):
    result = benchmark.pedantic(
        lambda: fig1_2dbc_shapes(n_tiles_list=SIZES), rounds=1, iterations=1
    )
    save_result(result, "fig01_2dbc_shapes")
    check_runs(result)

    last = SIZES[-1]
    per_node = {r["label"]: r["gflops_per_node"] for r in result.rows if r["n_tiles"] == last}
    total = {r["label"]: r["gflops"] for r in result.rows if r["n_tiles"] == last}
    # per-node performance ordering: squarer grid -> faster per node
    assert per_node["2DBC 5x4 (P=20)"] > per_node["2DBC 11x2 (P=22)"]
    assert per_node["2DBC 7x3 (P=21)"] > per_node["2DBC 23x1 (P=23)"]
    # total performance: all within a modest band (no clear winner)
    vals = list(total.values())
    assert max(vals) / min(vals) < 1.5

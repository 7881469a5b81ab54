"""Figure 6 — LU using at most P = 39 nodes.

Paper shape: G-2DBC(39) consistently achieves the highest throughput;
2DBC 13×3 on all 39 nodes is hindered by its rectangular pattern and
loses even to the square 6×6 on 36 nodes.
"""

import pytest

from repro.experiments.figures import fig6_lu_p39

SIZES = (32, 48, 64)


@pytest.mark.benchmark(group="fig06")
def test_fig6_lu_p39(benchmark, save_result, check_runs):
    result = benchmark.pedantic(
        lambda: fig6_lu_p39(n_tiles_list=SIZES), rounds=1, iterations=1
    )
    save_result(result, "fig06_lu_p39")
    check_runs(result)

    for n in SIZES:
        total = {r["label"]: r["gflops"] for r in result.rows if r["n_tiles"] == n}
        assert total["G-2DBC (P=39)"] > total["2DBC 13x3 (P=39)"], n
        assert total["G-2DBC (P=39)"] > total["2DBC 6x6 (P=36)"], n

    last = SIZES[-1]
    per_node = {r["label"]: r["gflops_per_node"] for r in result.rows if r["n_tiles"] == last}
    # G-2DBC reaches close to the 6x6 per-node efficiency with ~10% more nodes
    assert per_node["G-2DBC (P=39)"] >= 0.85 * per_node["2DBC 6x6 (P=36)"]

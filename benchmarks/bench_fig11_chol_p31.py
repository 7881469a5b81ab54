"""Figure 11 — Cholesky using at most P = 31 nodes.

Paper shape: GCR&M on all 31 nodes delivers higher total GFlop/s than
the SBC 8×8 baseline on 28 nodes (paper: up to 11 % at the largest
size), with slightly lower per-node efficiency.
"""

import pytest

from repro.experiments.figures import fig11_cholesky_p31

SIZES = (32, 48, 64)


@pytest.mark.benchmark(group="fig11")
def test_fig11_cholesky_p31(benchmark, save_result, check_runs):
    result = benchmark.pedantic(
        lambda: fig11_cholesky_p31(n_tiles_list=SIZES, seeds=range(15)),
        rounds=1,
        iterations=1,
    )
    save_result(result, "fig11_cholesky_p31")
    check_runs(result)

    last = SIZES[-1]
    total = {r["label"]: r["gflops"] for r in result.rows if r["n_tiles"] == last}
    per_node = {r["label"]: r["gflops_per_node"] for r in result.rows if r["n_tiles"] == last}
    assert total["GCR&M (P=31)"] > total["SBC 8x8 (P=28)"]
    # per node, SBC (fewer nodes, cheaper pattern) is at least comparable
    assert per_node["SBC 8x8 (P=28)"] >= 0.95 * per_node["GCR&M (P=31)"]

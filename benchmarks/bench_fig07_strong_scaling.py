"""Figure 7 — strong scaling at a fixed matrix size, P ∈ {23, 31, 35, 39}.

Paper shapes:
(a) LU — G-2DBC clearly beats 2DBC when P factors badly (23, 31, 39)
    and matches it when a good grid exists (35 = 7×5).
(b) Cholesky — GCR&M on all P tracks the performance SBC would deliver
    if it existed for every P (it fills the gaps between SBC points).
"""

import pytest

from repro.experiments.figures import fig7a_strong_scaling_lu, fig7b_strong_scaling_cholesky

N_TILES = 48


@pytest.mark.benchmark(group="fig07")
def test_fig7a_lu_strong_scaling(benchmark, save_result, check_runs):
    result = benchmark.pedantic(
        lambda: fig7a_strong_scaling_lu(n_tiles=N_TILES), rounds=1, iterations=1
    )
    save_result(result, "fig07a_strong_scaling_lu")
    check_runs(result)

    def total(P, prefix):
        return next(r["gflops"] for r in result.rows
                    if r["P"] == P and r["label"].startswith(prefix))

    # awkward P: G-2DBC wins clearly
    for P in (23, 31, 39):
        assert total(P, "G-2DBC") > 1.02 * total(P, "2DBC"), P
    # P=35 has a decent 7x5 grid: roughly the same performance
    assert total(35, "G-2DBC") == pytest.approx(total(35, "2DBC"), rel=0.10)


@pytest.mark.benchmark(group="fig07")
def test_fig7b_cholesky_strong_scaling(benchmark, save_result, check_runs):
    result = benchmark.pedantic(
        lambda: fig7b_strong_scaling_cholesky(n_tiles=N_TILES, seeds=range(10)),
        rounds=1,
        iterations=1,
    )
    save_result(result, "fig07b_strong_scaling_cholesky")
    check_runs(result)

    for P in (23, 31, 35, 39):
        rows = [r for r in result.rows if f"P={P}" in r["label"] or r["P"] <= P]
        gcrm_total = next(r["gflops"] for r in result.rows if r["label"] == f"GCR&M (P={P})")
        sbc_total = next(r["gflops"] for r in result.rows
                         if r["label"].startswith("SBC") and r["P"] <= P
                         and abs(r["P"] - P) <= 4)
        # GCR&M uses all nodes: total throughput at or above the SBC baseline
        assert gcrm_total >= 0.95 * sbc_total, P

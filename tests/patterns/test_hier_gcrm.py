"""Hierarchy-aware GCR&M: delta equivalence, degeneracy, balance.

Mirrors the flat delta-evaluator suite (``test_delta_eval.py``) for the
two-level objective:

* **Property layer** — :class:`HierCostState` apply/revert tracks a
  full node-level recount *bit for bit* over random swap sequences;
  ``cost_hier`` matches ``Pattern.cost_hier`` exactly.
* **Regression layer** — the cost ``gcrm_hier`` reports (scored by the
  incremental ``HierCostState``) equals full re-costing with
  ``Pattern.cost_hier`` bit for bit; a flat topology degenerates to the
  plain ``gcrm`` construction (same RNG stream, same winner); the search
  wrapper is jobs-independent.
* **Quality layer** — the hierarchy-aware refinement never trades away
  rank-level load balance, and it reduces (never increases) the
  hierarchical objective and the predicted inter-node volume.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.metrics import inter_node_volume
from repro.patterns.base import Pattern
from repro.patterns.delta import ColrowSwap, HierCostState
from repro.patterns.gcrm import feasible_sizes, gcrm, gcrm_hier, gcrm_search
from repro.runtime.topology import Topology


# ---------------------------------------------------------------------------
# property layer: HierCostState vs full re-costing
# ---------------------------------------------------------------------------
class TestHierStateMatchesFullRecosting:
    @settings(max_examples=40, deadline=None)
    @given(
        P=st.integers(min_value=5, max_value=30),
        r=st.integers(min_value=2, max_value=10),
        rpn=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_swaps=st.integers(min_value=0, max_value=25),
    )
    def test_random_swap_sequence_bit_identical(self, P, r, rpn, seed, n_swaps):
        topo = Topology(nranks=P, ranks_per_node=rpn)
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, P, size=(r, r)).astype(np.int64)
        state = HierCostState.from_grid(grid, P, topology=topo)
        applied = []
        for _ in range(n_swaps):
            i = int(rng.integers(0, r))
            j = int(rng.integers(0, r))
            old = int(grid[i, j])
            new = int(rng.integers(0, P))
            grid[i, j] = new
            applied.append(state.apply(ColrowSwap(i, j, old, new)))
            ref = HierCostState.from_grid(grid, P, topology=topo)
            assert np.array_equal(state.node_counts, ref.node_counts)
            assert np.array_equal(state.zn, ref.zn)
            full = Pattern(grid.copy(), nnodes=P)
            assert np.array_equal(state.zn_counts,
                                  full.colrow_node_counts(topo))
            assert state.cost_hier == full.cost_hier("cholesky", topo)
        for swap in reversed(applied):
            grid[swap.i, swap.j] = swap.old
            state.revert(swap)
        state.verify(grid)

    @settings(max_examples=40, deadline=None)
    @given(
        P=st.integers(min_value=5, max_value=30),
        r=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cost_hier_delta_predicts_apply(self, P, r, seed):
        topo = Topology(nranks=P, ranks_per_node=3)
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, P, size=(r, r)).astype(np.int64)
        state = HierCostState.from_grid(grid, P, topology=topo)
        i = int(rng.integers(0, r))
        j = int(rng.integers(0, r))
        swap = ColrowSwap(i, j, int(grid[i, j]), int(rng.integers(0, P)))
        before = state.cost_hier
        predicted = state.cost_hier_delta(swap)  # peek without mutating
        assert state.cost_hier == before
        state.apply(swap)
        assert state.cost_hier == predicted

    def test_from_grid_requires_topology(self):
        grid = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(TypeError):
            HierCostState.from_grid(grid, 4)


# ---------------------------------------------------------------------------
# regression layer: construction equivalences
# ---------------------------------------------------------------------------
class TestGcrmHierEquivalences:
    @pytest.mark.parametrize("P", [11, 13, 23])
    def test_flat_topology_degenerates_to_gcrm(self, P):
        r = feasible_sizes(P)[0]
        base = gcrm(P, r, seed=5)
        hier = gcrm_hier(P, r, Topology.flat(P), seed=5)
        assert hier.pattern.grid.tobytes() == base.pattern.grid.tobytes()
        assert hier.cost == base.cost

    @pytest.mark.parametrize("P,rpn", [(11, 2), (13, 4), (23, 4)])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_delta_matches_full_recosting(self, P, rpn, seed):
        topo = Topology(nranks=P, ranks_per_node=rpn)
        r = feasible_sizes(P)[0]
        res = gcrm_hier(P, r, topo, seed=seed)
        full = res.pattern.cost_hier("cholesky", topo, inter_weight=4.0)
        assert res.cost.hex() == full.hex()

    @pytest.mark.parametrize("P,rpn", [(11, 2), (13, 4)])
    def test_search_jobs_independent(self, P, rpn):
        topo = Topology(nranks=P, ranks_per_node=rpn)
        serial = gcrm_search(P, seeds=range(6), topology=topo, jobs=1)
        parallel = gcrm_search(P, seeds=range(6), topology=topo, jobs=2)
        assert (serial.pattern.grid.tobytes()
                == parallel.pattern.grid.tobytes())
        assert serial.cost == parallel.cost

    def test_search_flat_topology_matches_no_topology(self):
        P = 13
        plain = gcrm_search(P, seeds=range(6))
        flat = gcrm_search(P, seeds=range(6), topology=Topology.flat(P))
        assert plain.pattern.grid.tobytes() == flat.pattern.grid.tobytes()


# ---------------------------------------------------------------------------
# quality layer: what the refinement buys and what it must not cost
# ---------------------------------------------------------------------------
class TestGcrmHierQuality:
    @pytest.mark.parametrize("P,rpn,seed", [(11, 2, 3), (13, 4, 0), (23, 4, 1)])
    def test_balance_preserved_exactly(self, P, rpn, seed):
        topo = Topology(nranks=P, ranks_per_node=rpn)
        r = feasible_sizes(P)[0]
        base = gcrm(P, r, seed=seed)
        hier = gcrm_hier(P, r, topo, seed=seed)
        assert (sorted(hier.loads.tolist())
                == sorted(base.loads.tolist()))
        assert (hier.pattern.load_imbalance()
                == base.pattern.load_imbalance())

    @pytest.mark.parametrize("P,rpn,seed", [(11, 2, 3), (13, 4, 0), (23, 4, 1)])
    def test_hier_cost_not_worse_than_flat_construction(self, P, rpn, seed):
        topo = Topology(nranks=P, ranks_per_node=rpn)
        r = feasible_sizes(P)[0]
        base = gcrm(P, r, seed=seed)
        hier = gcrm_hier(P, r, topo, seed=seed)
        assert (hier.pattern.cost_hier("cholesky", topo)
                <= base.pattern.cost_hier("cholesky", topo) + 1e-12)
        # rank-level cost must not regress either: the relabel permutes
        # ranks (cost-invariant) and every exchange is gated on it
        assert hier.cost <= base.cost + 1e-12

    def test_inter_node_volume_reduced_at_recorded_point(self):
        # the EXPERIMENTS.md recorded point: P=11 ranks, 2 ranks/node
        P, rpn, m = 11, 2, 24
        topo = Topology(nranks=P, ranks_per_node=rpn)
        flat = gcrm_search(P, seeds=range(8)).pattern
        hier = gcrm_search(P, seeds=range(8), topology=topo).pattern
        assert hier.load_imbalance() == flat.load_imbalance()
        assert (inter_node_volume(hier, m, "cholesky", topo)
                < inter_node_volume(flat, m, "cholesky", topo))

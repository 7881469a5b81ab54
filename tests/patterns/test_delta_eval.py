"""Differential equivalence suite for the delta evaluator.

GCR&M runs only on the incremental evaluator; the reference loops and
full re-costing survive as oracles.  Two layers of protection:

* **Property layer** — :class:`DeltaCostState` apply/revert tracks full
  re-costing *bit for bit* over random swap sequences, for every P the
  shipped database covers (5..44).  The full evaluator
  (``Pattern.cost_cholesky`` / ``colrow_counts``) is the independent
  oracle.
* **Regression layer** — the compiled phase 1 ``csim.gcrm_phase1``
  (when it builds) matches its Python twin ``_phase1`` on the same RNG
  streams, on fixed and on drawn inputs, leaving the generator in the
  same state, and ``_matching_assign_fast`` matches the reference
  ``_matching_assign`` on the same covers; ``gcrm(...).cost`` is
  bit-identical to ``pattern.cost_cholesky``; search winners at the
  paper's P∈{23,31,35} figure cases and the pattern-service inputs
  P∈{45,57,60,66} match grid digests recorded from the full re-costing
  evaluator, under every available backend.  The RNG-stream
  equivalence the compiled phase 1 relies on
  (``Generator.choice(a) ≡ a[Generator.integers(0, len(a))]`` for a
  1-D population) is pinned so a numpy internals change fails loudly.
"""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns.base import Pattern, PatternError
from repro.patterns.delta import ColrowSwap, DeltaCostState
from repro.patterns.gcrm import (
    TIE_BREAKS,
    _matching_assign,
    _matching_assign_fast,
    _phase1,
    feasible_sizes,
    gcrm,
    gcrm_search,
)
from repro.patterns.library import best_pattern
from repro.runtime import csim

#: sha256 of ``grid.tobytes()`` and ``cost.hex()`` of the search winner
#: ``gcrm_search(P, seeds=range(5), max_factor=3.0, prune=False)``.
#: Recorded by a loop over every ``(r, seed)`` that scores each ``gcrm``
#: pattern with the full re-costing ``Pattern.cost_cholesky`` under the
#: search's rule (uses all nodes; a new winner is cheaper by more than
#: 1e-12; tasks in order), so the digests do not come from the delta
#: evaluator.
SEARCH_DIGESTS = {
    23: ("5ffb9f7e87262c43aa3e50e6d7c0295330f4c99f4d52c26696ac9cde2694e37d",
         "0x1.a000000000000p+2"),
    31: ("aac6695428e9e4c908080baf1d4dbe13ede27ba6c245d39206b093fe28712757",
         "0x1.edb6db6db6db7p+2"),
    35: ("130c0fec9220e4c7496db47a9e415b8d06c4d9cab39958d6dc3175c887e3146c",
         "0x1.eaaaaaaaaaaabp+2"),
}

#: Same digests for ``best_pattern(P, "cholesky", seeds=range(4))`` at
#: the node counts the pattern-service benchmark resolves cold.
SERVICE_DIGESTS = {
    45: ("9d8c9441a3e97ed28ad906a1360945175ffee48039ba74194154e8fe4ee210ac",
         "0x1.12aaaaaaaaaabp+3"),
    57: ("c968da90449caebcd483623838386900f339c5314e20d95db5ebebc284d1c140",
         "0x1.33b13b13b13b1p+3"),
    60: ("bbf498f4f67464161db7ccdd9ad57a79177bec35805effa005fc0a3ebfb6ca37",
         "0x1.3c28f5c28f5c3p+3"),
    66: ("98f898d9153f1c217452dd01f19b1a3252b6a663fc9319db6c12c11c1f0ef974",
         "0x1.4d9364d9364d9p+3"),
}


def _digest(pattern):
    return (hashlib.sha256(pattern.grid.tobytes()).hexdigest(),
            pattern.cost_cholesky.hex())


# ---------------------------------------------------------------------------
# property layer: DeltaCostState vs full re-costing
# ---------------------------------------------------------------------------
class TestDeltaMatchesFullRecosting:
    @settings(max_examples=60, deadline=None)
    @given(
        P=st.integers(min_value=5, max_value=44),
        r=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_swaps=st.integers(min_value=0, max_value=40),
    )
    def test_random_swap_sequence_bit_identical(self, P, r, seed, n_swaps):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, P, size=(r, r)).astype(np.int64)
        state = DeltaCostState.from_grid(grid, P)
        applied = []
        for _ in range(n_swaps):
            i = int(rng.integers(0, r))
            j = int(rng.integers(0, r))
            old = int(grid[i, j])
            new = int(rng.integers(0, P))
            grid[i, j] = new
            applied.append(state.apply(ColrowSwap(i, j, old, new)))
            # the incremental state equals a from-scratch rebuild...
            ref = DeltaCostState.from_grid(grid, P)
            assert np.array_equal(state.counts, ref.counts)
            assert np.array_equal(state.z, ref.z)
            # ...and the cost is bit-for-bit the full evaluator's
            full = Pattern(grid.copy(), nnodes=P)
            assert np.array_equal(state.z_counts, full.colrow_counts)
            assert state.cost == full.cost_cholesky
        # reverting in reverse order restores the initial state exactly
        for swap in reversed(applied):
            grid[swap.i, swap.j] = swap.old
            state.revert(swap)
        ref = DeltaCostState.from_grid(grid, P)
        assert np.array_equal(state.counts, ref.counts)
        assert np.array_equal(state.z, ref.z)

    @settings(max_examples=40, deadline=None)
    @given(
        P=st.integers(min_value=5, max_value=44),
        r=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cost_delta_does_not_mutate(self, P, r, seed):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, P, size=(r, r))
        state = DeltaCostState.from_grid(grid, P)
        before_counts = state.counts.copy()
        before_z = state.z.copy()
        i, j = int(rng.integers(0, r)), int(rng.integers(0, r))
        swap = ColrowSwap(i, j, int(grid[i, j]), int(rng.integers(0, P)))
        peek = state.cost_delta(swap)
        assert np.array_equal(state.counts, before_counts)
        assert np.array_equal(state.z, before_z)
        grid2 = np.array(grid)
        grid2[i, j] = swap.new
        assert peek == Pattern(grid2, nnodes=P).cost_cholesky

    def test_partial_grid_and_diagonal(self):
        # undefined (diagonal) cells contribute nothing; defined
        # diagonal cells count once, off-diagonal cells twice
        grid = np.array([[-1, 0, 2], [0, 1, 1], [2, 1, 2]])
        state = DeltaCostState.from_grid(grid, 3)
        pat = Pattern(grid, nnodes=3)
        assert np.array_equal(state.z_counts, pat.colrow_counts)
        assert state.cost == pat.cost_cholesky
        # assigning an undefined cell is the swap None -> p
        swap = state.assign(0, 0, 1)
        grid2 = grid.copy()
        grid2[0, 0] = 1
        assert state.cost == Pattern(grid2, nnodes=3).cost_cholesky
        state.revert(swap)
        assert state.cost == pat.cost_cholesky

    def test_verify_crosscheck(self):
        rng = np.random.default_rng(0)
        grid = rng.integers(0, 7, size=(6, 6))
        state = DeltaCostState.from_grid(grid, 7)
        state.verify(grid)  # consistent
        state.counts[0, 0] += 1
        with pytest.raises(AssertionError):
            state.verify(grid)


class TestDeltaStateGuards:
    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError, match="pattern size"):
            DeltaCostState(0, 5)
        with pytest.raises(ValueError, match="node count"):
            DeltaCostState(5, 0)

    def test_non_square_grid_rejected(self):
        with pytest.raises(PatternError, match="square"):
            DeltaCostState.from_grid(np.zeros((2, 3), dtype=int), 4)

    def test_out_of_range_node_rejected(self):
        with pytest.raises(PatternError, match="outside"):
            DeltaCostState.from_grid(np.full((2, 2), 7), 4)

    def test_inconsistent_decref_rejected(self):
        state = DeltaCostState(3, 3)
        with pytest.raises(ValueError, match="no cell"):
            state.apply(ColrowSwap(0, 1, 2, 1))  # node 2 owns nothing


# ---------------------------------------------------------------------------
# regression layer: the delta-evaluated GCR&M stack vs its oracles
# ---------------------------------------------------------------------------
def _same_state(a, b):
    """Equal ``bit_generator.state`` dicts (MT19937's holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _phase1_paths(P, r, tie_break):
    """The compiled phase-1 paths this host runs, as ``rng -> member``."""
    paths = {}
    if csim.available():
        code = TIE_BREAKS.index(tie_break)
        paths["c"] = lambda rng: csim.gcrm_phase1(P, r, rng, code)
    return paths


def _phase1_pair(P, r, seed, tie_break="usage_random"):
    """Run the Python twin and every compiled path on twin RNG streams;
    assert equal membership matrices and equal generator state
    afterwards.

    ``seed`` is anything ``default_rng`` accepts; each run gets a deep
    copy, so a caller-owned generator or bit generator yields twins.
    """
    ref_rng = np.random.default_rng(copy.deepcopy(seed))
    ref = _phase1(P, r, ref_rng, tie_break=tie_break)
    assert ref.shape == (P, r) and ref.dtype == bool
    for name, run in _phase1_paths(P, r, tie_break).items():
        rng = np.random.default_rng(copy.deepcopy(seed))
        member = run(rng)
        assert member.shape == (P, r) and member.dtype == bool, name
        assert np.array_equal(member, ref), name
        assert _same_state(rng.bit_generator.state,
                           ref_rng.bit_generator.state), name
    return ref


def _cover(member):
    r = member.shape[1]
    ii, jj = np.nonzero(~np.eye(r, dtype=bool))
    return (member[:, ii] & member[:, jj]).T.copy()


class TestGcrmDeltaEquivalence:
    @pytest.mark.parametrize("P,r", [(5, 4), (7, 5), (23, 10), (23, 12),
                                     (31, 16), (35, 15), (44, 12)])
    def test_single_construction_identical(self, P, r):
        for seed in range(4):
            cover = _cover(_phase1_pair(P, r, seed))
            cells = np.arange(len(cover))
            k = (r * (r - 1)) // P
            for copies in (np.full(P, k, dtype=np.int64),
                           np.ones(P, dtype=np.int64)):
                assert np.array_equal(
                    _matching_assign_fast(cells, cover, copies),
                    _matching_assign(cells, cover, copies))
            # a strict subset of cells, as in the second matching
            odd = cells[1::2]
            ones = np.ones(P, dtype=np.int64)
            assert np.array_equal(_matching_assign_fast(odd, cover, ones),
                                  _matching_assign(odd, cover, ones))
            res = gcrm(P, r, seed=seed)
            assert res.cost.hex() == res.pattern.cost_cholesky.hex()

    def test_tie_break_first_identical(self):
        _phase1_pair(23, 10, 3, tie_break="first")
        _phase1_pair(23, 10, 3, tie_break="random")
        res = gcrm(23, 10, seed=3, tie_break="first")
        assert res.cost.hex() == res.pattern.cost_cholesky.hex()

    @pytest.mark.parametrize("P,r", [(130, 65), (200, 84)])
    def test_two_word_bitsets(self, P, r):
        """r > 64: the compiled path's bitsets span two words."""
        for tie_break in TIE_BREAKS:
            _phase1_pair(P, r, 0, tie_break=tie_break)

    def test_spawned_seed_sequences(self):
        """Spawned ``SeedSequence`` children, one per size."""
        seeds = np.random.SeedSequence(1234).spawn(6)
        for ss, r in zip(seeds, [8, 10, 12, 15, 20, 25]):
            _phase1_pair(35, r, ss)

    def test_caller_owned_generator(self, sim_backends):
        """A generator passed as ``seed`` is drawn from in place, from
        mid-stream: three 32-bit draws leave half a PCG64 output
        buffered, and ``gcrm`` advances it alike under every backend."""
        gen = np.random.default_rng(11)
        gen.integers(0, 7, size=3)
        assert gen.bit_generator.state["has_uint32"] == 1
        _phase1_pair(23, 10, gen)
        runs = []
        for _ in sim_backends:
            own = copy.deepcopy(gen)
            runs.append((gcrm(23, 10, seed=own).pattern.grid.tobytes(),
                         own.bit_generator.state))
        for grid, state in runs[1:]:
            assert grid == runs[0][0]
            assert _same_state(state, runs[0][1])

    def test_rejected_draw_is_redrawn(self):
        """Lemire's rejection, draw for draw: the first draw at P=5, r=7
        is ``integers(0, 3)`` over the three empty nodes, and a 32-bit
        0 is the one value numpy rejects for n=3 (2**32 mod 3 = 1), so
        every path must draw again.  The buffered half of a PCG64 output
        is set to 0 to make that the first value drawn."""
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        gen.bit_generator.state = state
        probe = copy.deepcopy(gen)
        probe.integers(0, 3)
        # the redraw took a fresh 64-bit output and buffered its upper half
        assert probe.bit_generator.state["has_uint32"] == 1
        _phase1_pair(5, 7, gen)

    def test_non_pcg64_bit_generator(self, sim_backends):
        """Any numpy bit generator works: the kernel calls its own
        ``next_uint32``, not a PCG64 copy."""
        _phase1_pair(23, 10, np.random.MT19937(1))
        _phase1_pair(31, 16, np.random.MT19937(1), tie_break="random")
        grids = {gcrm(23, 10, seed=np.random.MT19937(1)).pattern.grid.tobytes()
                 for _ in sim_backends}
        assert len(grids) == 1

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_one_node_ends(self, tie_break):
        """At P=1 node 0 owns every colrow and covers every cell."""
        for r in range(2, 7):
            assert _phase1_pair(1, r, 0, tie_break=tie_break).all()

    @pytest.mark.skipif(not csim.available(), reason="needs the compiled kernel")
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), P=st.integers(min_value=1, max_value=80),
           seed=st.integers(min_value=0, max_value=2**64 - 1),
           tie_break=st.sampled_from(TIE_BREAKS))
    def test_kernel_matches_twin_on_drawn_inputs(self, data, P, seed,
                                                 tie_break):
        """The compiled phase 1 against its Python twin on drawn node
        counts, feasible sizes, seeds and tie-breaks."""
        r = data.draw(st.sampled_from(feasible_sizes(P)), label="r")
        _phase1_pair(P, r, seed, tie_break=tie_break)

    @pytest.mark.parametrize("P", sorted(SEARCH_DIGESTS))
    def test_search_winner_byte_identical(self, P, sim_backends):
        for backend in sim_backends:
            res = gcrm_search(P, seeds=range(5), max_factor=3.0, prune=False)
            assert _digest(res.pattern) == SEARCH_DIGESTS[P], backend
            assert res.cost.hex() == SEARCH_DIGESTS[P][1], backend

    @pytest.mark.parametrize("P", sorted(SERVICE_DIGESTS))
    def test_service_winner_byte_identical(self, P, sim_backends):
        for backend in sim_backends:
            pat = best_pattern(P, "cholesky", seeds=range(4))
            assert _digest(pat) == SERVICE_DIGESTS[P], backend

    def test_search_delta_jobs_independent(self, sim_backends):
        kw = dict(seeds=range(7, 12), max_factor=3.0)
        for backend in sim_backends:
            serial = gcrm_search(23, jobs=1, **kw)
            parallel = gcrm_search(23, jobs=2, **kw)
            assert serial.cost == parallel.cost, backend
            assert (serial.pattern.grid == parallel.pattern.grid).all(), backend

    def test_rng_stream_equivalence(self):
        """choice(a) and a[integers(0, len(a))] consume identical draws.

        The compiled phase 1 draws by the latter's rule where its
        Python twin calls the former; this is what makes their RNG
        streams byte-identical.  Locked here so a numpy release that
        reworks ``Generator.choice`` internals fails this suite instead
        of silently diverging the two.
        """
        for n in (1, 2, 3, 7, 35, 100):
            pop = list(range(10, 10 + n))
            a = np.random.default_rng(99)
            b = np.random.default_rng(99)
            for _ in range(25):
                x = a.choice(pop)
                y = pop[b.integers(0, len(pop))]
                assert x == y
            assert a.bit_generator.state == b.bit_generator.state


class TestGcrmGuards:
    def test_gcrm_rejects_bad_P(self):
        with pytest.raises(ValueError, match="node count"):
            gcrm(0, 4)
        with pytest.raises(ValueError, match="node count"):
            gcrm(-3, 4)

    def test_gcrm_search_rejects_bad_P(self):
        with pytest.raises(ValueError, match="node count"):
            gcrm_search(0, seeds=range(2))

    def test_feasible_sizes_contract_unchanged(self):
        # the documented degenerate behavior: no nodes -> no sizes
        # (the explicit ValueError lives one layer up, in gcrm_search)
        assert feasible_sizes(0, 6.0) == []
        assert feasible_sizes(1, 6.0)  # P=1 itself is fine

"""GCR&M — Greedy ColRow & Matching (Algorithm 1, Section V).

Builds a square symmetric pattern of a requested size ``r`` over ``P``
nodes, for *any* ``P``.  Two phases:

**Phase 1 (greedy colrow assignment).**  Maintain for each node ``p``
the set ``A[p]`` of colrows it may appear on.  A cell ``(i, j)`` is
*covered* by ``p`` when both ``i`` and ``j`` are in ``A[p]``.  Colrows
are first handed out round-robin (colrow ``i`` to node ``i mod P``);
then, while uncovered off-diagonal cells remain, the least loaded node
receives one extra colrow, chosen to maximize the number of newly
covered cells (ties: lowest colrow usage, then random — Figure 8).

**Phase 2 (matching).**  A bipartite matching between cells and
``k = floor(r(r-1)/P)`` copies of each node assigns ``k`` cells per
node; a second matching between still-unassigned cells and one extra
copy per node tops nodes up to at most ``k + 1`` cells.  Any cell left
is assigned greedily to the least loaded node that can cover it by
adding a single colrow.

Diagonal cells are left undefined (extended-SBC handling): they are
assigned per replica, at distribution time, to the least loaded node of
their colrow, which never increases the communication cost.

A pattern size ``r`` is *feasible* (Equation 3) iff
``ceil(r(r-1)/P) <= r**2 / P``.

:func:`gcrm_search` reproduces the paper's evaluation protocol: try all
feasible ``r <= 6 sqrt(P)``, 100 random seeds each, keep the cheapest
pattern (Figure 9 shows the per-(r, seed) spread for P=23).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from ..runtime import csim
from ..runtime.backends import select_backend
from .base import UNDEFINED, Pattern
from .delta import ColrowSwap, DeltaCostState, HierCostState
from .search import SearchReport, TaskOutcome, auto_executor, chunk_tasks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.topology import Topology

__all__ = [
    "TIE_BREAKS",
    "feasible_size",
    "feasible_sizes",
    "GCRMResult",
    "gcrm",
    "gcrm_hier",
    "gcrm_search",
    "gcrm_cost_floor",
]


def feasible_size(r: int, P: int) -> bool:
    """Equation 3: a balanced ``r × r`` pattern over ``P`` nodes exists
    iff ``ceil(r(r-1)/P) ≤ r²/P``."""
    if r < 2 or P < 1:
        return False
    return math.ceil(r * (r - 1) / P) * P <= r * r


def feasible_sizes(P: int, max_factor: float = 6.0) -> list[int]:
    """All feasible pattern sizes ``r`` with ``2 ≤ r ≤ max_factor·√P``.

    ``P < 1`` (no nodes) admits no pattern and returns ``[]`` rather
    than propagating a ``math.sqrt`` domain error for negative ``P``.
    """
    if P < 1:
        return []
    upper = int(max_factor * math.sqrt(P))
    return [r for r in range(2, max(upper, 2) + 1) if feasible_size(r, P)]


@dataclass
class GCRMResult:
    """Outcome of one GCR&M run."""

    pattern: Pattern
    colrows: list[set[int]]  #: A[p] — colrows each node may appear on
    cost: float
    seed: Optional[object] = None  #: the seed :func:`gcrm` was given
    phase2_leftover: int = 0  #: cells assigned by the final greedy step
    loads: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    report: Optional[object] = None  #: SearchReport when produced by gcrm_search

    @property
    def uses_all_nodes(self) -> bool:
        """True when every node owns at least one off-diagonal cell.

        Small pattern sizes can leave nodes empty (the matching cannot
        saturate them); such patterns look artificially cheap because
        they effectively run on fewer nodes, so the search rejects them.
        """
        return bool(self.loads.size and self.loads.min() > 0)


#: Tie-break policies for phase 1's colrow choice (line 8).  The paper
#: uses lowest usage then random; the alternatives quantify how much
#: each ingredient matters (ablation benchmark).
TIE_BREAKS = ("usage_random", "random", "first")


def _phase1(P: int, r: int, rng: np.random.Generator,
            tie_break: str = "usage_random") -> np.ndarray:
    """Greedy colrow assignment (lines 1-10 of Algorithm 1).

    Returns the ``(P, r)`` boolean membership matrix (``[p, i]`` —
    colrow ``i`` in ``A[p]``).  The Python twin of
    :func:`repro.runtime.csim.gcrm_phase1`: :func:`gcrm` runs it under
    ``REPRO_SIM_BACKEND=python`` and on hosts without a C compiler, and
    the differential suite pins the kernel against it.  Both make the
    same draws from ``rng`` and return the same matrix.
    """
    # membership[p, i] — colrow i in A[p]
    member = np.zeros((P, r), dtype=bool)
    for i in range(r):
        member[i % P, i] = True
    # uncovered[i, j] for i != j
    uncovered = ~np.eye(r, dtype=bool)
    # covered cells per node: |A[p]| * (|A[p]| - 1) at most, but cells
    # may be covered by several nodes; "load" is the node's own
    # coverage, the natural proxy for the cells it will end up owning.
    sizes = member.sum(axis=1)
    usage = member.sum(axis=0)  # how many A[p] contain each colrow

    guard = 0
    max_iter = 4 * P * r + 16
    while uncovered.any():
        guard += 1
        if guard > max_iter:  # pragma: no cover - safety net
            raise RuntimeError(f"GCR&M phase 1 did not converge (P={P}, r={r})")
        loads = sizes * (sizes - 1)
        least = np.flatnonzero(loads == loads.min())
        p = int(rng.choice(least))
        mine = member[p]
        if mine.all():  # p covers every cell (only at P=1)
            break
        # newly covered cells when adding colrow b: pairs (b, i)/(i, b)
        # with i in A[p], intersected with the uncovered set.
        gain = (uncovered[:, mine].sum(axis=1) + uncovered[mine, :].sum(axis=0))
        gain[mine] = -1  # already-owned colrows bring nothing
        best_gain = gain.max()
        cand = np.flatnonzero(gain == best_gain)
        if len(cand) > 1 and tie_break == "usage_random":
            u = usage[cand]
            cand = cand[u == u.min()]
        if tie_break == "first":
            b = int(cand[0])
        else:
            b = int(rng.choice(cand))
        member[p, b] = True
        sizes[p] += 1
        usage[b] += 1
        uncovered[b, mine] = False
        uncovered[mine, b] = False
    return member


def _matching_assign(cells: np.ndarray, cover: np.ndarray, copies: np.ndarray) -> np.ndarray:
    """Match ``cells`` (indices into cover's rows) to node copies.

    ``cover`` is an (ncells, P) boolean coverage matrix; ``copies[p]``
    is the number of copies of node ``p`` on the right side.  Returns an
    array of node ids (or -1) per cell, assigning at most ``copies[p]``
    cells to node ``p`` via Hopcroft–Karp maximum bipartite matching.
    Reference loop, kept as the test oracle for
    :func:`_matching_assign_fast`.
    """
    P = cover.shape[1]
    col_node = np.repeat(np.arange(P), copies)
    if len(col_node) == 0 or len(cells) == 0:
        return np.full(len(cells), -1, dtype=np.int64)
    sub = cover[cells]  # (n, P)
    rows, nodecols = np.nonzero(sub)
    # expand node columns into copy columns
    starts = np.concatenate([[0], np.cumsum(copies)])
    r_idx = []
    c_idx = []
    for rr, nn in zip(rows, nodecols):
        for cc in range(starts[nn], starts[nn + 1]):
            r_idx.append(rr)
            c_idx.append(cc)
    if not r_idx:
        return np.full(len(cells), -1, dtype=np.int64)
    graph = csr_matrix(
        (np.ones(len(r_idx), dtype=np.int8), (r_idx, c_idx)),
        shape=(len(cells), len(col_node)),
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    out = np.full(len(cells), -1, dtype=np.int64)
    for cell_row in range(len(cells)):
        copy_col = match[cell_row]
        if copy_col >= 0:
            out[cell_row] = col_node[copy_col]
    return out


def _matching_assign_fast(cells: np.ndarray, cover: np.ndarray,
                          copies: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_matching_assign` (the production path).

    Builds the cell/copy bipartite graph directly in CSR form — the
    same matrix, entry for entry, that the reference path assembles
    with Python loops and a COO→CSR conversion: ``np.nonzero`` yields
    the (cell, node) pairs in identical row-major order, each pair
    expands to the same contiguous copy-column range, and the expanded
    columns are already sorted and duplicate-free within each row.
    Identical CSR structure means Hopcroft–Karp returns the identical
    matching.
    """
    P = cover.shape[1]
    col_node = np.repeat(np.arange(P), copies)
    n = len(cells)
    if len(col_node) == 0 or n == 0:
        return np.full(n, -1, dtype=np.int64)
    sub = cover[cells]  # (n, P)
    rows, nodecols = np.nonzero(sub)
    counts = copies[nodecols]
    total = int(counts.sum())
    if total == 0:
        return np.full(n, -1, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(copies)])
    # expand pair k into columns starts[nn_k] .. starts[nn_k]+counts_k-1
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    c_idx = (np.repeat(starts[nodecols], counts) + within).astype(np.int32)
    row_nnz = np.bincount(np.repeat(rows, counts), minlength=n)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)]).astype(np.int32)
    graph = csr_matrix(
        (np.ones(total, dtype=np.int8), c_idx, indptr),
        shape=(n, len(col_node)),
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    out = np.full(n, -1, dtype=np.int64)
    hit = match >= 0
    out[hit] = col_node[match[hit]]
    return out


def gcrm(P: int, r: int, seed=None,
         tie_break: str = "usage_random") -> GCRMResult:
    """Run GCR&M for ``P`` nodes and pattern size ``r`` (Algorithm 1).

    ``seed`` is anything :func:`numpy.random.default_rng` accepts; the
    search passes its integer seeds as given.  ``tie_break`` selects
    the phase-1 colrow tie policy (see :data:`TIE_BREAKS`); the paper's
    algorithm is ``"usage_random"``.

    Phase 1 runs in C (:func:`repro.runtime.csim.gcrm_phase1`)
    whenever :func:`~repro.runtime.backends.select_backend` picks
    ``c``, else on its Python twin :func:`_phase1` (both draw the same
    numbers from ``seed``'s generator and return the same membership
    matrix).  Phase 2 runs the direct-CSR matchings
    (:func:`_matching_assign_fast`), and the cost is one vectorized
    :class:`~repro.patterns.delta.DeltaCostState` count of the finished
    grid.  The reference matching :func:`_matching_assign` and full
    re-costing (:attr:`Pattern.cost_cholesky`) are kept only as the
    oracles the differential suite pins this path against.
    """
    if P < 1:
        raise ValueError(f"node count must be >= 1, got P={P}")
    if not feasible_size(r, P):
        raise ValueError(f"pattern size r={r} violates Equation 3 for P={P}")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    rng = np.random.default_rng(seed)
    if select_backend()[0] == "c":
        member = csim.gcrm_phase1(P, r, rng, TIE_BREAKS.index(tie_break))
    else:
        member = _phase1(P, r, rng, tie_break=tie_break)

    # enumerate off-diagonal cells
    ii, jj = np.nonzero(~np.eye(r, dtype=bool))
    ncells = len(ii)
    # coverage matrix: cell c covered by p iff ii[c], jj[c] both in A[p]
    cover = member[:, ii] & member[:, jj]  # (P, ncells)
    cover = cover.T.copy()  # (ncells, P)

    k = (r * (r - 1)) // P
    owner = np.full(ncells, -1, dtype=np.int64)

    # first matching: k duplicates per node (line 11)
    if k > 0:
        all_cells = np.arange(ncells)
        owner = _matching_assign_fast(all_cells, cover,
                                      np.full(P, k, dtype=np.int64))

    # second matching: unassigned cells vs 1 extra duplicate per node (line 12)
    unassigned = np.flatnonzero(owner == -1)
    if len(unassigned):
        extra = _matching_assign_fast(unassigned, cover,
                                      np.ones(P, dtype=np.int64))
        owner[unassigned[extra >= 0]] = extra[extra >= 0]

    # leftover cells: least loaded node reachable by adding one colrow
    loads = np.bincount(owner[owner >= 0], minlength=P)
    leftover = np.flatnonzero(owner == -1)
    for c in leftover:
        i, j = int(ii[c]), int(jj[c])
        cand = np.flatnonzero(member[:, i] | member[:, j])
        if len(cand) == 0:  # pragma: no cover - phase 1 covers every colrow
            cand = np.arange(P)
        p = int(cand[np.argmin(loads[cand])])
        owner[c] = p
        loads[p] += 1
        member[p, i] = True
        member[p, j] = True

    grid = np.full((r, r), UNDEFINED, dtype=np.int64)
    grid[ii, jj] = owner
    pattern = Pattern(grid, nnodes=P, name=f"GCR&M {r}x{r} (P={P}, seed={seed})")
    # A[p] off the final matrix in one pass: its row-major nonzeros,
    # cut into per-node runs
    nodes, crs = np.nonzero(member)
    crs_iter = iter(crs.tolist())
    colrows = [set(islice(crs_iter, n))
               for n in np.bincount(nodes, minlength=P).tolist()]
    return GCRMResult(
        pattern=pattern,
        colrows=colrows,
        cost=DeltaCostState.from_grid(grid, P).cost,
        seed=seed,
        phase2_leftover=int(len(leftover)),
        loads=np.bincount(owner, minlength=P),
    )


#: Refinement passes of :func:`gcrm_hier`'s exchange step.
_HIER_PASSES = 4


def _affinity_relabel(grid: np.ndarray, P: int,
                      topology: "Topology") -> np.ndarray:
    """Deterministic rank permutation packing co-occurring ranks per node.

    Two ranks that share many colrows should live on the same physical
    node: every shared colrow then counts one distinct *node* instead of
    two.  The affinity of ranks ``p, q`` is the number of colrows on
    which both are present; groups are grown greedily (seed = the
    unassigned rank with the highest affinity mass, then repeatedly the
    rank with the highest affinity to the group, ties to the lowest id)
    up to each node's capacity.  No RNG is involved, and a permutation
    of rank labels preserves rank-level counts and loads exactly — only
    the node-level counts change.

    Returns ``relabel`` with ``relabel[old_rank] = new_rank``.
    """
    presence = DeltaCostState.from_grid(grid, P).counts > 0  # (r, P)
    aff = presence.T.astype(np.int64) @ presence.astype(np.int64)  # (P, P)
    np.fill_diagonal(aff, 0)
    unassigned = list(range(P))
    order: list[int] = []
    node = 0
    while unassigned:
        capacity = len(topology.node_ranks(node))
        mass = aff[np.ix_(unassigned, unassigned)].sum(axis=1)
        seed_rank = unassigned[int(np.argmax(mass))]  # argmax: lowest id on ties
        group = [seed_rank]
        unassigned.remove(seed_rank)
        while len(group) < capacity and unassigned:
            gain = aff[np.ix_(unassigned, group)].sum(axis=1)
            nxt = unassigned[int(np.argmax(gain))]
            group.append(nxt)
            unassigned.remove(nxt)
        order.extend(group)
        node += 1
    relabel = np.empty(P, dtype=np.int64)
    relabel[np.asarray(order)] = np.arange(P, dtype=np.int64)
    return relabel


def gcrm_hier(P: int, r: int, topology: "Topology", seed=None, *,
              inter_weight: float = 4.0) -> GCRMResult:
    """Hierarchy-aware GCR&M: optimize the weighted two-level objective.

    Runs flat :func:`gcrm` construction on the identical RNG stream,
    then — only when ``topology`` is genuinely hierarchical — improves
    the *node*-level cost in two deterministic, RNG-free steps:

    1. **Affinity relabeling** (:func:`_affinity_relabel`): permute rank
       labels so ranks sharing many colrows land on the same node.
       Rank-level cost and load balance are untouched by construction.
    2. **Load-preserving exchange refinement**: pairs of colrow swaps —
       cell ``(i, j)`` moves ``p → q`` while a counter-cell of ``q``
       moves back to ``p`` — accepted on first improvement of
       ``cost_hier`` (strict ``1e-12``), with moves restricted to ranks
       already present on both affected colrows so the rank-level count
       can only drop.  Per-node loads are exchanged one-for-one, so
       ``load_imbalance`` is preserved exactly.  At most
       :data:`_HIER_PASSES` passes run.

    With ``topology.is_flat`` the flat result is returned unchanged
    (there is no hierarchy to exploit), making hierarchical search
    degenerate to flat GCR&M winners at a fixed seed.

    Refinement moves are scored with the incremental
    :class:`~repro.patterns.delta.HierCostState`, which reduces the
    same integer count arrays through
    :func:`~repro.patterns.base.hier_mean` as full re-costing
    (:meth:`Pattern.cost_hier`, the test oracle), so both agree bit for
    bit.

    The returned :attr:`GCRMResult.cost` is the hierarchical objective
    (which equals the flat cost when the topology is flat).
    """
    from ..runtime.topology import Topology as _Topology

    if topology is None:
        topology = _Topology.flat(P)
    if topology.nranks < P:
        raise ValueError(
            f"topology covers {topology.nranks} ranks but P={P}")
    base = gcrm(P, r, seed=seed)
    if topology.is_flat:
        return base

    grid = base.pattern.grid.copy()
    relabel = _affinity_relabel(grid, P, topology)
    mask = grid != UNDEFINED
    grid[mask] = relabel[grid[mask]]

    state = HierCostState.from_grid(grid, P, topology, float(inter_weight))
    cur = state.cost_hier
    for _ in range(_HIER_PASSES):
        improved = False
        for i in range(r):
            for j in range(r):
                if i == j or grid[i, j] == UNDEFINED:
                    continue
                p = int(grid[i, j])
                # moving (i, j) away from p can only help when p's
                # presence on a colrow drops to zero
                if state.counts[i, p] != 1 and state.counts[j, p] != 1:
                    continue
                cand = np.flatnonzero((state.counts[i] > 0)
                                      & (state.counts[j] > 0))
                for q in cand:
                    q = int(q)
                    if q == p:
                        continue
                    # load-preserving counter-cell: first cell of q
                    # whose colrows already host p
                    aa, bb = np.nonzero(grid == q)
                    counter = None
                    for a, b in zip(aa, bb):
                        if (state.counts[a, p] > 0
                                and state.counts[b, p] > 0):
                            counter = (int(a), int(b))
                            break
                    if counter is None:
                        continue
                    a, b = counter
                    fwd = ColrowSwap(i, j, p, q)
                    back = ColrowSwap(a, b, q, p)
                    state.apply(fwd)
                    state.apply(back)
                    grid[i, j] = q
                    grid[a, b] = p
                    new_cost = state.cost_hier
                    if new_cost < cur - 1e-12:
                        cur = new_cost
                        improved = True
                        break
                    state.revert(back)
                    state.revert(fwd)
                    grid[i, j] = p
                    grid[a, b] = q
        if not improved:
            break

    pattern = Pattern(grid, nnodes=P,
                      name=(f"GCR&M-hier {r}x{r} (P={P}, "
                            f"rpn={topology.ranks_per_node}, "
                            f"seed={base.seed})"))
    colrows = [{int(k) for k in np.flatnonzero(state.counts[:, p] > 0)}
               for p in range(P)]
    return GCRMResult(
        pattern=pattern,
        colrows=colrows,
        cost=cur,
        seed=base.seed,
        phase2_leftover=base.phase2_leftover,
        loads=np.bincount(grid[mask], minlength=P),
    )


#: Pruning band of :func:`gcrm_search`: it stops scanning larger sizes
#: once the best cost is within 5% of the empirical floor.
PRUNE_TOL = 0.05


def _score_chunk(args) -> list[TaskOutcome]:
    """Worker body: score one chunk of ``(index, r, seed)`` tasks.

    Module-level so the process pool can pickle it.  A ``topology``
    (a frozen, picklable :class:`~repro.runtime.topology.Topology`)
    scores each task by :func:`gcrm_hier`'s two-level objective, else
    by the flat cost.
    """
    P, topology, inter_weight, chunk = args
    out = []
    for index, r, seed in chunk:
        res = _build(P, r, seed, topology, inter_weight)
        out.append(TaskOutcome(index, r, res.cost, res.uses_all_nodes))
    return out


def _build(P: int, r: int, seed: int, topology: Optional["Topology"],
           inter_weight: float) -> GCRMResult:
    if topology is None:
        return gcrm(P, r, seed=seed)
    return gcrm_hier(P, r, topology, seed=seed, inter_weight=inter_weight)


def gcrm_search(
    P: int,
    seeds: Iterable[int] = range(100),
    max_factor: float = 6.0,
    *,
    jobs: Optional[int] = 1,
    prune: bool = True,
    topology: Optional["Topology"] = None,
    inter_weight: float = 4.0,
) -> GCRMResult:
    """Paper evaluation protocol: best pattern over sizes × seeds.

    For each feasible ``r ≤ max_factor·√P`` (Equation 3,
    :func:`feasible_sizes`) and each integer seed, run :func:`gcrm`
    with that seed as given and keep the lowest-cost pattern that uses
    all nodes.  The paper uses ``max_factor = 6`` and 100 seeds;
    smaller budgets give slightly worse patterns but identical trends.
    The winner depends only on ``(seeds, max_factor, prune)`` (and the
    topology arguments), never on ``jobs``.

    ``jobs``
        1 = serial, ``>= 2`` = that many worker processes
        (:mod:`repro.patterns.search`), ``0``/``None`` = auto-select by
        workload size and CPU count.
    ``prune``
        Stop scanning larger sizes once the running best is within
        :data:`PRUNE_TOL` (5%) of the empirical floor ``√(3P/2)``
        (:func:`gcrm_cost_floor`).  Pruning decisions happen on size
        boundaries only, so they are identical for every ``jobs``.
        The first candidate size is always fully evaluated.
    ``topology`` / ``inter_weight``
        When a non-flat :class:`~repro.runtime.topology.Topology` is
        given, every task runs :func:`gcrm_hier` and the sweep ranks
        candidates by the hierarchical objective; the pruning floor
        drops to ``√(3·nnodes/2)`` (distinct *nodes* obey the same
        empirical bound over the node-mapped pattern).  A flat (or
        ``None``) topology reproduces the flat sweep exactly.

    Tasks are the ``(r, seed)`` pairs in size-major order.  Within a
    size they run concurrently; outcomes are reduced in task order,
    and a candidate replaces the incumbent only when cheaper by more
    than ``1e-12`` (:meth:`~repro.patterns.search.SearchReport.reduce`).
    Workers return compact outcomes; the winner is rebuilt in-process
    from its ``(r, seed)``, which avoids shipping pattern grids
    through IPC.  The result carries the
    :class:`~repro.patterns.search.SearchReport` in ``result.report``;
    its ``outcomes`` hold every evaluated task's cost (Figure 9).
    """
    if P < 1:
        raise ValueError(f"node count must be >= 1, got P={P}")
    sizes = feasible_sizes(P, max_factor)
    if not sizes:
        raise ValueError(f"no feasible pattern size for P={P}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("gcrm_search needs a non-empty seed budget")
    if topology is not None and topology.is_flat:
        topology = None
    floor = gcrm_cost_floor(P if topology is None else topology.nnodes)

    n = len(seeds)
    executor = auto_executor(len(sizes) * n, jobs)
    report = SearchReport(best_index=None, best_cost=float("inf"),
                          jobs=executor.jobs, n_tasks_total=len(sizes) * n)
    try:
        for k, r in enumerate(sizes):
            tasks = [(k * n + i, r, s) for i, s in enumerate(seeds)]
            for outcomes in executor.map(
                    _score_chunk,
                    [(P, topology, inter_weight, c)
                     for c in chunk_tasks(tasks, executor.jobs)]):
                report.outcomes.extend(outcomes)
            report.sizes_evaluated.append(r)
            report.n_tasks_evaluated += n
            if prune:
                report.reduce()
                if report.best_cost <= floor * (1.0 + PRUNE_TOL):
                    report.sizes_pruned = sizes[k + 1:]
                    break
    finally:
        executor.close()
    report.reduce()
    if report.best_index is None:
        raise ValueError(
            f"GCR&M found no pattern using all {P} nodes; "
            f"increase max_factor or the seed budget"
        )
    k, i = divmod(report.best_index, n)
    best = _build(P, sizes[k], seeds[i], topology, inter_weight)
    assert abs(best.cost - report.best_cost) < 1e-9, "non-deterministic gcrm task"
    best.report = report
    return best


def gcrm_cost_floor(P: int) -> float:
    """Empirical lower limit ``sqrt(3P/2)`` observed in Section V-B.

    Derivation sketch (paper): a regular pattern where each node sits on
    ``v = 3`` colrows and owns ``l = v(v-1) = 6`` cells yields
    ``z̄ ~ (v/√l)·√P = √(3P/2)``.
    """
    return math.sqrt(1.5 * P)

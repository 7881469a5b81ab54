"""Parallel simulation campaigns: (family × P × m × network) grids.

The paper's evaluation (Figures 5–8, 11–12) is a grid of factorization
runs — every distribution family at every node count and matrix size.
This module runs such grids through the v2 simulator on the same
process-pool machinery that powers the GCR&M search
(:mod:`repro.patterns.search`), and pairs each simulated run with its
*predicted* counterpart: the exact message count from
:mod:`repro.cost.exact` and the owner-pinned makespan lower bound from
:func:`repro.cost.schedbounds.makespan_bounds`.  The resulting
predicted-vs-simulated table is the validation artifact behind the
figure drivers — if the simulator and the closed-form analysis
disagree, one of them is wrong.

Design notes
------------
* **Determinism / jobs-independence** — every cell is evaluated by a
  pure function of its spec; results are merged back in planning order,
  so ``jobs=1`` and ``jobs=8`` produce identical rows (the same
  index-ordered reduction contract as ``run_search``).
* **Memoization** — a campaign memo maps cell signatures to finished
  rows, so re-running an enlarged grid only simulates the new cells.
  Patterns are not cached here: the calling process resolves each
  distinct (family, P, kernel) of a run once, through
  :func:`~repro.patterns.library.best_pattern` (read-through when a
  store is given), and ships it to the workers with its cells.
* **Feasibility filtering** — not every family exists at every P
  (SBC needs ``P = a(a+1)/2`` or ``a²+something``; STS needs
  ``P = r(r-1)/6``) and the baseline families are kernel-specific
  (2DBC/G-2DBC target LU, SBC/GCR&M target Cholesky).
  :func:`plan_campaign` silently drops infeasible combinations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cost.exact import count_cholesky_messages, count_lu_messages
from ..cost.schedbounds import makespan_bounds, schedule_lower_bounds
from ..patterns.library import PATTERN_FAMILIES, best_pattern, search_budget
from ..patterns.sbc import sbc_feasible
from ..patterns.search import auto_executor, chunk_tasks
from ..patterns.store import PatternStore
from ..patterns.sts import sts_node_counts
from ..runtime.faults import colrow_recovery, parse_faults
from ..runtime.network import NETWORK_MODELS
from ..runtime.resize import parse_resize
from ..runtime.schedulers import registered_schedulers
from ..runtime.simulator import simulate
from .harness import build_factorization
from .machine import PAPER_TILE_SIZE, sim_cluster

__all__ = [
    "CampaignCell",
    "CampaignRow",
    "DEFAULT_KERNELS",
    "plan_campaign",
    "run_campaign",
    "format_campaign",
]

#: Which kernel(s) each family is a sensible distribution for — the
#: paper's pairing: general patterns drive LU, symmetric ones Cholesky.
DEFAULT_KERNELS: Dict[str, Tuple[str, ...]] = {
    "2dbc": ("lu",),
    "2dbc_within": ("lu",),
    "g2dbc": ("lu",),
    "sbc": ("cholesky",),
    "sbc_within": ("cholesky",),
    "gcrm": ("cholesky",),
    "sts": ("cholesky",),
}


@dataclass(frozen=True)
class CampaignCell:
    """One point of the campaign grid (the *spec*, not the result)."""

    family: str          #: pattern family name (key of ``PATTERN_FAMILIES``)
    kernel: str          #: "lu" or "cholesky"
    P: int               #: node count
    m: int               #: matrix size in tiles
    network: str = "nic"             #: simulator network model
    faults: str = ""                 #: fault spec (``parse_faults`` grammar)
    scheduler: str = "priority"      #: registered scheduling policy
    ranks_per_node: int = 1          #: two-level topology (1 = flat)
    resize: str = ""                 #: elastic-resize spec (``"P@t"``)

    def __post_init__(self) -> None:
        # one run cannot take both (simulate() raises for the pair), and
        # the evaluator runs one branch per cell
        if self.faults and self.resize:
            raise ValueError(
                f"a campaign cell cannot combine faults {self.faults!r} "
                f"with resize {self.resize!r}")

    def signature(self) -> tuple:
        """Hashable memoization key (includes every field)."""
        return (self.family, self.kernel, self.P, self.m,
                self.network, self.faults,
                self.scheduler, self.ranks_per_node, self.resize)


@dataclass
class CampaignRow:
    """Predicted-vs-simulated outcome of one cell."""

    family: str
    kernel: str
    network: str
    P: int
    m: int
    matrix_size: int
    pattern_cost: float          #: T(G), the paper's per-family cost metric
    predicted_messages: int      #: exact count (cost/exact.py)
    simulated_messages: int      #: simulator message total
    predicted_makespan_s: float  #: best owner-pinned bound (cost/schedbounds.py)
    makespan_s: float            #: simulated makespan
    gflops: float
    gflops_per_node: float
    utilization: float
    link_busy_fraction: float    #: shared-link occupancy (0 under "nic")
    n_eager: int
    n_rendezvous: int
    # distance-from-optimal columns (cost/schedbounds.py)
    scheduler: str = "priority"      #: scheduling policy of the run
    schedule_bound_s: float = 0.0    #: best policy-universal lower bound
    optimality_ratio: float = float("inf")  #: makespan / schedule_bound_s
    # degraded-run columns (defaults = fault-free cell)
    faults: str = ""                      #: the cell's fault spec
    faultfree_makespan_s: float = 0.0     #: same cell simulated fault-free
    makespan_inflation: float = 1.0       #: degraded / fault-free makespan
    failed_nodes: int = 0
    recovery_messages: int = 0
    msgs_lost: int = 0
    retries: int = 0
    # two-level topology columns (defaults = flat cell)
    ranks_per_node: int = 1           #: ranks packed per physical machine
    bisection_Bps: float = 0.0        #: effective shared-link bandwidth
    inter_bytes: float = 0.0          #: bytes crossing machine boundaries
    intra_bytes: float = 0.0          #: bytes staying inside a machine
    inter_byte_fraction: float = 0.0  #: inter / (inter + intra)
    # elastic-resize columns (defaults = unresized cell)
    resize: str = ""                  #: the cell's resize spec ("P@t")
    tiles_moved: int = 0              #: tiles migrated (COSTA relabeling)
    tiles_saved: int = 0              #: moves avoided vs identity relabeling
    migration_s: float = 0.0          #: migration-phase makespan
    breakeven: float = 0.0            #: remaining-work fraction to pay off

    @property
    def makespan_ratio(self) -> float:
        """Simulated / predicted-bound; ≥ 1 when both are meaningful."""
        return self.makespan_s / self.predicted_makespan_s \
            if self.predicted_makespan_s > 0 else float("inf")

    def as_dict(self) -> dict:
        return asdict(self)


def _family_feasible(family: str, P: int) -> bool:
    if family == "sbc":
        return sbc_feasible(P) is not None
    if family == "sts":
        return P in sts_node_counts(max_r=max(9, int(math.isqrt(6 * P)) + 3))
    return family in PATTERN_FAMILIES


def plan_campaign(
    families: Sequence[str],
    Ps: Sequence[int],
    ms: Sequence[int],
    networks: Sequence[str] = ("nic",),
    kernels: Optional[Sequence[str]] = None,
    faults: Sequence[str] = ("",),
    schedulers: Sequence[str] = ("priority",),
    topologies: Sequence[int] = (1,),
    resizes: Sequence[str] = ("",),
) -> List[CampaignCell]:
    """Expand a grid into feasible :class:`CampaignCell` specs.

    ``kernels=None`` uses each family's :data:`DEFAULT_KERNELS` pairing;
    passing an explicit kernel list forces those kernels for every
    family (still subject to feasibility at each ``P``).  ``faults`` is
    an extra grid axis of :func:`~repro.runtime.faults.parse_faults`
    spec strings (``""`` = fault-free); degraded cells carry
    makespan-inflation and recovery columns in their rows.
    ``schedulers`` is the policy axis (names from the scheduler
    registry); every row carries the policy's ``optimality_ratio``.
    ``topologies`` is the ranks-per-node axis (``1`` = the paper's flat
    model); hierarchical cells carry per-level traffic columns.
    ``resizes`` is the elastic-resize axis of
    :func:`~repro.runtime.resize.parse_resize` ``"P@t"`` specs (``""``
    = no resize); resized cells carry migration columns.  Faults and
    resize cannot share a cell, so grid points combining both specs are
    dropped.
    """
    for net in networks:
        if net not in NETWORK_MODELS:
            raise ValueError(
                f"unknown network model {net!r}; have {sorted(NETWORK_MODELS)}")
    for pol in schedulers:
        if pol not in registered_schedulers():
            raise ValueError(
                f"unknown scheduler {pol!r}; registered policies: "
                f"{', '.join(registered_schedulers())}")
    for spec in faults:
        parse_faults(spec)  # validate the grammar before fanning out
    for spec in resizes:
        parse_resize(spec)  # likewise
    for rpn in topologies:
        if rpn < 1:
            raise ValueError(f"ranks_per_node must be >= 1, got {rpn}")
    cells: List[CampaignCell] = []
    for family in families:
        if family not in PATTERN_FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; have {sorted(PATTERN_FAMILIES)}")
        fam_kernels = tuple(kernels) if kernels is not None \
            else DEFAULT_KERNELS.get(family, ("lu",))
        for P in Ps:
            if not _family_feasible(family, P):
                continue
            for kernel in fam_kernels:
                for m in ms:
                    for net in networks:
                        for spec in faults:
                            for pol in schedulers:
                                for rpn in topologies:
                                    for rsz in resizes:
                                        if spec and rsz:
                                            continue  # mutually exclusive
                                        cells.append(CampaignCell(
                                            family=family, kernel=kernel,
                                            P=P, m=m, network=net,
                                            faults=spec, scheduler=pol,
                                            ranks_per_node=rpn,
                                            resize=rsz))
    return cells


# ---------------------------------------------------------------------------
# worker (module-level: must be picklable for the process pool)
# ---------------------------------------------------------------------------
def _graph_key(cell: CampaignCell) -> tuple:
    """The cells with this key simulate one task graph."""
    return (cell.family, cell.kernel, cell.P, cell.m)


def _build(cell: CampaignCell, pattern, tile_size: int):
    """``(graph, data_home, predicted messages)`` of a cell's graph key."""
    dist, graph, home = build_factorization(pattern, cell.m, cell.kernel,
                                            tile_size)
    count = count_lu_messages if cell.kernel == "lu" \
        else count_cholesky_messages
    return graph, home, count(dist).total


def _eval_group(cells: List[CampaignCell], pattern, built,
                tile_size: int) -> List[CampaignRow]:
    """Evaluate one baseline group on its built graph: bound once,
    simulate the plain run at most once, then each cell's own run."""
    graph, home, predicted = built
    first = cells[0]
    cluster = sim_cluster(first.P, tile_size=tile_size)
    if cluster.nnodes < pattern.nnodes:
        cluster = cluster.with_nodes(pattern.nnodes)
    if first.scheduler != "priority":
        cluster = replace(cluster, scheduler=first.scheduler)
    if first.ranks_per_node != 1:
        cluster = replace(cluster, ranks_per_node=first.ranks_per_node)
    bounds = makespan_bounds(graph, cluster)
    sched_bounds = schedule_lower_bounds(graph, cluster, data_home=home,
                                         network=first.network)
    plain = None
    rows = []
    for cell in cells:
        fs = rs = None
        if cell.resize:
            # the elastic run: same graph with a planned mid-run resize.
            # Its first phase is the whole unresized run, whose makespan
            # is the comparison; a no-op resize is the plain run and
            # attaches no stats, so its columns keep their defaults
            trace = simulate(graph, cluster, data_home=home,
                             network=cell.network, resize=cell.resize)
            rs = trace.resize_stats
            faultfree = rs.makespan_source_s if rs is not None \
                else trace.makespan
        else:
            if plain is None:
                plain = simulate(graph, cluster, data_home=home,
                                 network=cell.network)
            faultfree = plain.makespan
            trace = plain
            plan = parse_faults(cell.faults)
            if plan:
                # the degraded run: same graph under the cell's fault
                # plan, with colrow re-homing; the group's plain run is
                # the makespan-inflation denominator
                trace = simulate(graph, cluster, data_home=home,
                                 network=cell.network, faults=plan,
                                 recovery=colrow_recovery(pattern))
                fs = trace.fault_stats
        trace.sched_bounds = sched_bounds
        net = trace.net_stats
        fr = net.busy_fractions(trace.makespan)
        rows.append(CampaignRow(
            family=cell.family, kernel=cell.kernel, network=cell.network,
            P=cell.P, m=cell.m, matrix_size=cell.m * tile_size,
            pattern_cost=pattern.cost(cell.kernel),
            predicted_messages=int(predicted),
            simulated_messages=int(trace.n_messages),
            predicted_makespan_s=float(bounds.best),
            makespan_s=float(trace.makespan),
            gflops=float(trace.gflops),
            gflops_per_node=float(trace.gflops_per_node),
            utilization=float(trace.utilization),
            link_busy_fraction=float(fr["link_busy"]),
            n_eager=int(net.n_eager),
            n_rendezvous=int(net.n_rendezvous),
            scheduler=cell.scheduler,
            schedule_bound_s=float(sched_bounds.best),
            optimality_ratio=float(trace.optimality_ratio),
            faults=cell.faults,
            faultfree_makespan_s=float(faultfree),
            makespan_inflation=(float(trace.makespan / faultfree)
                                if faultfree > 0 else 1.0),
            failed_nodes=len(fs.failed_nodes) if fs else 0,
            recovery_messages=fs.recovery_messages if fs else 0,
            msgs_lost=fs.msgs_lost if fs else 0,
            retries=fs.retries if fs else 0,
            ranks_per_node=cell.ranks_per_node,
            bisection_Bps=float(net.bisection_Bps),
            inter_bytes=float(net.inter_bytes),
            intra_bytes=float(net.intra_bytes),
            inter_byte_fraction=(
                float(net.inter_bytes / (net.inter_bytes + net.intra_bytes))
                if net.inter_bytes + net.intra_bytes > 0 else 0.0),
            resize=cell.resize,
            tiles_moved=rs.tiles_moved if rs is not None else 0,
            tiles_saved=rs.tiles_saved if rs is not None else 0,
            migration_s=float(rs.migration_s) if rs is not None else 0.0,
            breakeven=float(rs.breakeven) if rs is not None else 0.0,
        ))
    return rows


def _eval_campaign_chunk(args: Tuple[int, list]) -> List[CampaignRow]:
    """Rows of a chunk of ``(cells, pattern)`` groups, in order.  The
    groups of one graph are consecutive: the worker builds it once and
    holds one graph at a time."""
    tile_size, chunk = args
    rows: List[CampaignRow] = []
    held = built = None
    for cells, pattern in chunk:
        key = _graph_key(cells[0])
        if key != held:
            built = None  # drop the held graph before building the next
            held, built = key, _build(cells[0], pattern, tile_size)
        rows += _eval_group(cells, pattern, built, tile_size)
    return rows


# ---------------------------------------------------------------------------
# the campaign loop
# ---------------------------------------------------------------------------
def run_campaign(
    cells: Sequence[CampaignCell],
    *,
    jobs: Optional[int] = 1,
    tile_size: int = PAPER_TILE_SIZE,
    memo: Optional[dict] = None,
    store_dir: Optional[str] = None,
    budget: Tuple[int, float, bool] = search_budget(),
) -> List[CampaignRow]:
    """Evaluate every cell; return rows in the order of ``cells``.

    ``memo`` (signature → :class:`CampaignRow`) skips already-simulated
    cells and is updated in place — pass the same dict across calls to
    grow a grid incrementally.  Rows are merged in planning order, so
    the output is independent of ``jobs``.

    Before the fan-out, the calling process resolves each distinct
    (family, P, kernel) of the cells to run once, with
    ``best_pattern(P, kernel, family=family, store=...)`` under the
    GCR&M search ``budget``, a ``(seeds, max_factor, prune)`` triple of
    :func:`~repro.patterns.library.search_budget` (the default is
    ``best_pattern``'s own; the budget is part of the memo key).  The
    searches run serially: a pool per search costs more than the small
    searches of a campaign grid.  ``store_dir`` makes the resolution
    read-through on a :class:`~repro.patterns.store.PatternStore`:
    stored patterns are served, and a cold store is warmed by the run.
    Workers never open the store, so no two processes write one shard,
    and the store changes nothing but speed.

    The cells to run are evaluated in *baseline groups*: the cells that
    share (family, kernel, P, m, network, scheduler, ranks_per_node).
    A group computes its makespan and schedule bounds once and runs the
    unfaulted, unresized simulation at most once: that run is the plain
    cell's trace and every fault cell's fault-free baseline.  The
    groups are ordered by the first appearance of their graph and
    dealt to the workers in ``chunk_tasks`` chunks; a worker builds
    each graph (and its message count) once for the consecutive groups
    it evaluates.  Each row is a pure function of its cell's spec, so
    the output is identical for every ``jobs`` and every grouping — the
    jobs-independence and isolation tests pin this.
    """
    if memo is None:
        memo = {}
    n_seeds, max_factor, prune = budget
    key = lambda c: (c.signature(), tile_size, budget)  # noqa: E731
    misses = []
    seen = set()
    for cell in cells:
        k = key(cell)
        if k not in memo and k not in seen:
            seen.add(k)
            misses.append(cell)
    if misses:
        store = PatternStore(store_dir) if store_dir is not None else None
        patterns: dict = {}
        graphs: dict = {}  # graph key → rest of the group key → cells
        for cell in misses:
            pkey = (cell.family, cell.P, cell.kernel)
            if pkey not in patterns:
                patterns[pkey] = best_pattern(
                    cell.P, cell.kernel, family=cell.family,
                    seeds=range(n_seeds), max_factor=max_factor,
                    prune=prune, store=store)
            graphs.setdefault(_graph_key(cell), {}).setdefault(
                (cell.network, cell.scheduler, cell.ranks_per_node),
                []).append(cell)
        work = [(group, patterns[(group[0].family, group[0].P,
                                  group[0].kernel)])
                for groups in graphs.values() for group in groups.values()]
        executor = auto_executor(len(work), jobs)
        try:
            chunks = chunk_tasks(work, executor.jobs)
            results = executor.map(_eval_campaign_chunk,
                                   [(tile_size, c) for c in chunks])
            for chunk, rows in zip(chunks, results):
                done = [cell for group, _ in chunk for cell in group]
                for cell, row in zip(done, rows):
                    memo[key(cell)] = row
        finally:
            executor.close()
    return [memo[key(cell)] for cell in cells]


def format_campaign(rows: Iterable[CampaignRow]) -> str:
    """Predicted-vs-simulated table (the Fig. 6–8 validation artifact).

    When any row carries a fault spec, the table grows a degraded-run
    block: the fault-free makespan, the makespan inflation, and the
    recovery/retry counts — the predicted-vs-degraded comparison.
    When any row carries a resize spec, it grows a migration block:
    tiles moved (and saved vs identity relabeling), the migration-phase
    makespan, and the break-even horizon.
    """
    rows = list(rows)
    faulted = any(r.faults for r in rows)
    policies = any(r.scheduler != "priority" for r in rows)
    hier = any(r.ranks_per_node > 1 for r in rows)
    resized = any(r.resize for r in rows)
    header = (
        f"{'family':<14} {'kernel':<9} {'net':<11} {'P':>4} {'m':>4} "
        f"{'T(G)':>7} {'msg pred':>9} {'msg sim':>9} {'bound s':>10} "
        f"{'sim s':>10} {'ratio':>6} {'GF/s/node':>10} {'link':>6} "
        f"{'opt':>6}"
    )
    if policies:
        header += f" {'sched':<13}"
    if hier:
        header += f" {'rpn':>4} {'inter%':>7} {'bisec B/s':>10}"
    if faulted:
        header += (f" {'faults':<24} {'ff s':>10} {'infl':>6} "
                   f"{'rec':>5} {'lost':>5} {'retry':>5}")
    if resized:
        header += (f" {'resize':<10} {'moved':>6} {'saved':>6} "
                   f"{'mig s':>10} {'brkeven':>8}")
    lines = [header, "-" * len(header)]
    for r in rows:
        line = (
            f"{r.family:<14} {r.kernel:<9} {r.network:<11} {r.P:>4} {r.m:>4} "
            f"{r.pattern_cost:>7.3f} {r.predicted_messages:>9} "
            f"{r.simulated_messages:>9} {r.predicted_makespan_s:>10.4g} "
            f"{r.makespan_s:>10.4g} {r.makespan_ratio:>6.3f} "
            f"{r.gflops_per_node:>10.1f} {r.link_busy_fraction:>6.1%} "
            f"{r.optimality_ratio:>6.3f}"
        )
        if policies:
            line += f" {r.scheduler:<13}"
        if hier:
            line += (f" {r.ranks_per_node:>4} {r.inter_byte_fraction:>7.1%} "
                     f"{r.bisection_Bps:>10.3g}")
        if faulted:
            line += (f" {(r.faults or '-'):<24} {r.faultfree_makespan_s:>10.4g} "
                     f"{r.makespan_inflation:>6.3f} {r.recovery_messages:>5} "
                     f"{r.msgs_lost:>5} {r.retries:>5}")
        if resized:
            line += (f" {(r.resize or '-'):<10} {r.tiles_moved:>6} "
                     f"{r.tiles_saved:>6} {r.migration_s:>10.4g} "
                     f"{r.breakeven:>8.3g}")
        lines.append(line)
    return "\n".join(lines)

"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro pattern  --nodes 23 --kernel lu --show
    python -m repro cost     --nodes 23 --tiles 100
    python -m repro simulate --nodes 23 --tiles 48 --kernel lu --network contention
    python -m repro campaign --families g2dbc gcrm --nodes 5 7 --tiles 16 24 \
        --networks nic contention --jobs 2
    python -m repro store precompute --dir shards --range 2 200 --kernel lu
    python -m repro store query      --dir shards --nodes 23 57 131 --stats
    python -m repro store stats      --dir shards --nodes 23
    python -m repro validate --tiles 12 --kernel cholesky

Each subcommand is a thin veneer over the library; everything it prints
can be obtained programmatically from :mod:`repro`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .cost.metrics import q_cholesky, q_lu
from .distribution import TileDistribution
from .patterns.base import Pattern
from .patterns.bc2d import bc2d_cost, best_grid
from .patterns.g2dbc import g2dbc_cost
from .patterns.io import save_pattern
from .patterns.library import BEST_FAMILY, PATTERN_FAMILIES, best_pattern
from .patterns.sbc import sbc_cost, sbc_feasible
from .runtime.network import NETWORK_MODELS
from .runtime.schedulers import registered_schedulers

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data distribution schemes for dense factorizations "
                    "on any number of nodes (IPDPS 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def jobs_count(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"must be >= 0 (0 = auto-select), got {value}")
        return value

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def add_search_flags(p):
        """GCR&M search-engine knobs shared by pattern-building commands."""
        p.add_argument("--jobs", "-j", type=jobs_count, default=1, metavar="N",
                       help="worker processes for the GCR&M search "
                            "(1 = serial, 0 = auto-select)")
        p.add_argument("--no-prune", action="store_true",
                       help="evaluate every feasible pattern size instead of "
                            "stopping near the sqrt(3P/2) cost floor")

    p = sub.add_parser("pattern", help="build and inspect a pattern")
    p.add_argument("--nodes", "-P", type=positive_int, required=True)
    p.add_argument("--kernel", choices=("lu", "cholesky"), default="lu")
    p.add_argument("--family", choices=sorted(PATTERN_FAMILIES), default=None)
    p.add_argument("--seeds", type=positive_int, default=20,
                   help="GCR&M search budget")
    p.add_argument("--show", action="store_true", help="print the grid")
    p.add_argument("--save", metavar="FILE", default=None, help="write JSON")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="pattern-store directory: serve from it when warm, "
                        "persist the result otherwise")
    add_search_flags(p)

    p = sub.add_parser("cost", help="compare pattern families for one P")
    p.add_argument("--nodes", "-P", type=positive_int, required=True)
    p.add_argument("--tiles", type=positive_int, default=100,
                   help="matrix size in tiles for volume predictions")
    p.add_argument("--seeds", type=positive_int, default=20)
    add_search_flags(p)

    p = sub.add_parser("gcrm",
                       help="flat vs hierarchy-aware GCR&M for one P")
    p.add_argument("--nodes", "-P", type=positive_int, required=True,
                   help="rank count (the pattern's P)")
    p.add_argument("--topology", type=positive_int, default=2,
                   metavar="RANKS_PER_NODE",
                   help="ranks packed per physical machine (default 2)")
    p.add_argument("--inter-weight", type=float, default=4.0,
                   help="how much cheaper intra-node messages are than "
                        "inter-node ones in the hierarchical objective")
    p.add_argument("--kernel", choices=("lu", "cholesky"),
                   default="cholesky")
    p.add_argument("--tiles", type=positive_int, default=32,
                   help="matrix size in tiles for volume predictions")
    p.add_argument("--seeds", type=positive_int, default=20,
                   help="GCR&M search budget")
    p.add_argument("--show", action="store_true",
                   help="print both grids")
    add_search_flags(p)

    p = sub.add_parser("simulate", help="simulate a factorization run")
    p.add_argument("--nodes", "-P", type=positive_int, required=True)
    p.add_argument("--tiles", type=positive_int, default=48)
    p.add_argument("--kernel", choices=("lu", "cholesky"), default="lu")
    p.add_argument("--family", choices=sorted(PATTERN_FAMILIES), default=None)
    p.add_argument("--tile-size", type=positive_int, default=500)
    p.add_argument("--seeds", type=positive_int, default=10)
    p.add_argument("--network", choices=sorted(NETWORK_MODELS), default=None,
                   help="communication model (nic = legacy sender-serialized, "
                        "contention = rx serialization + latency + shared "
                        "link, hierarchical = two-level intra/inter-node); "
                        "default nic, or hierarchical when --topology is "
                        "above 1")
    p.add_argument("--topology", type=positive_int, default=1,
                   metavar="RANKS_PER_NODE",
                   help="pack this many ranks per physical machine "
                        "(two-level topology; 1 = flat)")
    p.add_argument("--scheduler", choices=registered_schedulers(),
                   default="priority",
                   help="intra-node scheduling policy (scheduler registry)")
    p.add_argument("--faults", metavar="SPEC", default="",
                   help="fault plan, e.g. 'fail:2@0.05,loss:0.01,seed:7' "
                        "(fail:N@T, slow:N@T0-T1xF, degrade:T0-T1xF, loss:P, "
                        "seed:N); runs a fault-free baseline for comparison")
    p.add_argument("--resize", metavar="P@T", default="",
                   help="elastic resize to P' nodes at time T, e.g. '31@0.05': "
                        "drain in-flight work, migrate tiles under the "
                        "COSTA-style minimal relabeling, finish on the P' "
                        "pattern (cannot combine with --faults)")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="stream a Chrome-tracing JSON timeline to FILE "
                        "(chrome://tracing / Perfetto) through a bounded "
                        "write buffer; a compiled run also holds 24 bytes "
                        "per task and 32 per message until it is written")
    add_search_flags(p)

    p = sub.add_parser("campaign",
                       help="predicted-vs-simulated sweep over a "
                            "(family x P x m x network) grid")
    p.add_argument("--families", nargs="+", default=["g2dbc", "gcrm"],
                   choices=sorted(PATTERN_FAMILIES), metavar="FAMILY")
    p.add_argument("--nodes", "-P", nargs="+", type=positive_int,
                   required=True, metavar="P")
    p.add_argument("--tiles", nargs="+", type=positive_int, default=[16, 24],
                   metavar="M", help="matrix sizes in tiles")
    p.add_argument("--networks", nargs="+", default=["nic"],
                   choices=sorted(NETWORK_MODELS), metavar="MODEL")
    p.add_argument("--kernel", choices=("lu", "cholesky"), default=None,
                   help="force one kernel (default: each family's natural one)")
    p.add_argument("--tile-size", type=positive_int, default=500)
    p.add_argument("--jobs", "-j", type=jobs_count, default=1, metavar="N",
                   help="worker processes (1 = serial, 0 = auto-select)")
    p.add_argument("--faults", nargs="+", default=[""], metavar="SPEC",
                   help="fault-plan axis; each SPEC adds a degraded variant "
                        "of every cell ('' = fault-free)")
    p.add_argument("--resize", nargs="+", default=[""], metavar="P@T",
                   help="elastic-resize axis; each 'P@T' spec adds a resized "
                        "variant of every cell ('' = no resize); cells "
                        "combining faults and resize are dropped")
    p.add_argument("--scheduler", nargs="+", default=["priority"],
                   choices=registered_schedulers(), metavar="POLICY",
                   help="scheduler-policy axis; every row carries its "
                        "schedule lower bound and optimality_ratio")
    p.add_argument("--topology", nargs="+", type=positive_int, default=[1],
                   metavar="RANKS_PER_NODE",
                   help="ranks-per-node axis (1 = flat); hierarchical "
                        "cells carry per-level traffic columns")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="also write the rows as CSV")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="pattern-store directory: serve each family's "
                        "patterns from it, and file the ones it lacks")

    p = sub.add_parser("store",
                       help="disk-backed pattern store (shards + LRU)")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    store_families = sorted(PATTERN_FAMILIES) + [BEST_FAMILY]

    def add_store_flags(sp):
        sp.add_argument("--dir", metavar="DIR", required=True,
                        help="store directory holding the npz shards")
        sp.add_argument("--kernel", choices=("lu", "cholesky"),
                        default="cholesky")
        sp.add_argument("--family", choices=store_families,
                        default=BEST_FAMILY,
                        help="pattern family key ('best' = the per-kernel "
                             "recommendation of best_pattern)")
        sp.add_argument("--budget", type=positive_int, default=20,
                        help="GCR&M search seeds per node count")
        sp.add_argument("--jobs", "-j", type=jobs_count, default=1,
                        metavar="N")
        sp.add_argument("--stats", action="store_true",
                        help="print hot/cold tier counters afterwards")

    sp = store_sub.add_parser(
        "precompute", help="warm shards for a node-count range")
    sp.add_argument("--nodes", "-P", nargs="+", type=positive_int,
                    default=None, metavar="P", help="explicit node counts")
    sp.add_argument("--range", nargs=2, type=int, default=None,
                    metavar=("LO", "HI"), help="inclusive node-count range")
    add_store_flags(sp)

    sp = store_sub.add_parser(
        "query", help="batched lookup (falls back to a live search)")
    sp.add_argument("--nodes", "-P", nargs="+", type=positive_int,
                    required=True, metavar="P")
    add_store_flags(sp)

    sp = store_sub.add_parser(
        "stats", help="shard inventory and hit/miss/eviction counters")
    sp.add_argument("--dir", metavar="DIR", required=True,
                    help="store directory holding the npz shards")
    sp.add_argument("--nodes", "-P", nargs="+", type=positive_int,
                    default=None, metavar="P",
                    help="probe these node counts through the "
                    "tiers first, at every search budget the store holds "
                    "(read-only; absent counts stay misses)")
    sp.add_argument("--kernel", choices=("lu", "cholesky"),
                    default="cholesky")
    sp.add_argument("--family", choices=store_families, default=BEST_FAMILY,
                    help="family key for --nodes probes")

    p = sub.add_parser("report", help="regenerate every paper table/figure")
    p.add_argument("--scale", choices=("smoke", "default", "full"), default="smoke")
    p.add_argument("--out", metavar="FILE", default="reproduction_report.md")
    p.add_argument("--only", nargs="*", default=None,
                   help="experiment ids (e.g. fig4 table1b)")

    p = sub.add_parser("validate", help="numeric factorization + message check")
    p.add_argument("--tiles", type=positive_int, default=10)
    p.add_argument("--tile-size", type=positive_int, default=16)
    p.add_argument("--kernel", choices=("lu", "cholesky"), default="cholesky")
    p.add_argument("--nodes", "-P", type=positive_int, default=10)
    return parser


def _search_kwargs(args) -> dict:
    """Translate --jobs/--no-prune into gcrm_search keywords."""
    kw = {}
    if getattr(args, "jobs", None) is not None:
        kw["jobs"] = args.jobs
    if getattr(args, "no_prune", False):
        kw["prune"] = False
    return kw


def _get_pattern(args) -> Pattern:
    store = None
    if getattr(args, "store", None):
        from .patterns.store import PatternStore

        store = PatternStore(args.store)
    return best_pattern(args.nodes, kernel=args.kernel, family=args.family,
                        seeds=range(args.seeds), prune=not args.no_prune,
                        jobs=args.jobs, store=store)


def cmd_pattern(args) -> int:
    pat = _get_pattern(args)
    kernel = args.kernel
    print(f"pattern : {pat.name}")
    print(f"shape   : {pat.nrows}x{pat.ncols}  (P = {pat.nnodes})")
    print(f"T({kernel}) = {pat.cost(kernel):.4f}")
    print(f"balanced: {pat.is_balanced} (imbalance {pat.load_imbalance():.3f})")
    if args.show:
        print(pat.to_text())
    if args.save:
        save_pattern(pat, args.save)
        print(f"saved to {args.save}")
    return 0


def cmd_cost(args) -> int:
    P, n = args.nodes, args.tiles
    r, c = best_grid(P)
    print(f"P = {P}, matrix = {n}x{n} tiles")
    print(f"{'family':<12} {'T_lu':>8} {'Q_lu':>12} {'T_chol':>8} {'Q_chol':>12}")
    rows = [("2dbc", bc2d_cost(r, c, "lu"), bc2d_cost(r, c, "cholesky") if r == c else None),
            ("g2dbc", g2dbc_cost(P), None)]
    if sbc_feasible(P):
        rows.append(("sbc", None, sbc_cost(P)))
    from .patterns.gcrm import gcrm_search

    rows.append(("gcrm", None,
                 gcrm_search(P, seeds=range(args.seeds),
                             **_search_kwargs(args)).cost))
    for name, t_lu, t_chol in rows:
        q1 = f"{q_lu_from_t(t_lu, n):>12.0f}" if t_lu is not None else f"{'-':>12}"
        t1 = f"{t_lu:>8.3f}" if t_lu is not None else f"{'-':>8}"
        q2 = f"{n * (n + 1) / 2 * (t_chol - 1):>12.0f}" if t_chol is not None else f"{'-':>12}"
        t2 = f"{t_chol:>8.3f}" if t_chol is not None else f"{'-':>8}"
        print(f"{name:<12} {t1} {q1} {t2} {q2}")
    return 0


def q_lu_from_t(t: float, n: int) -> float:
    """Eq. 1 with the metric already aggregated: Q = n(n+1)/2 (T - 2)."""
    return n * (n + 1) / 2 * (t - 2)


def cmd_gcrm(args) -> int:
    from .cost.metrics import inter_node_volume, intra_node_volume
    from .patterns.gcrm import gcrm_search
    from .runtime.topology import Topology

    topo = Topology(nranks=args.nodes, ranks_per_node=args.topology)
    kw = dict(seeds=range(args.seeds), **_search_kwargs(args))
    flat = gcrm_search(args.nodes, **kw).pattern
    hier = gcrm_search(args.nodes, topology=topo,
                       inter_weight=args.inter_weight, **kw).pattern
    m, kernel = args.tiles, args.kernel
    print(f"P = {args.nodes} ranks on {topo.nnodes} node(s) "
          f"({args.topology} ranks/node), inter_weight = "
          f"{args.inter_weight}, matrix = {m}x{m} tiles")
    header = (f"{'variant':<10} {'T(G)':>8} {'T_hier':>8} {'imbal':>7} "
              f"{'inter vol':>10} {'intra vol':>10}")
    print(header)
    print("-" * len(header))
    for name, pat in (("flat", flat), ("hier", hier)):
        print(f"{name:<10} {pat.cost(kernel):>8.4f} "
              f"{pat.cost_hier(kernel, topo, args.inter_weight):>8.4f} "
              f"{pat.load_imbalance():>7.3f} "
              f"{inter_node_volume(pat, m, kernel, topo):>10.0f} "
              f"{intra_node_volume(pat, m, kernel, topo):>10.0f}")
    v_flat = inter_node_volume(flat, m, kernel, topo)
    v_hier = inter_node_volume(hier, m, kernel, topo)
    if v_flat > 0:
        print(f"\ninter-node volume change: "
              f"{(v_hier - v_flat) / v_flat:+.1%}")
    if args.show:
        print("\nflat winner:")
        print(flat.to_text())
        print("\nhierarchy-aware winner:")
        print(hier.to_text())
    return 0


def _loop_name(cluster, faults=None) -> str:
    """Which event loop ran a simulation: ``c``, or ``python (<why>)``."""
    from .runtime.simulator import python_loop_reason

    reason = python_loop_reason(cluster, faults)
    return "c" if reason is None else f"python ({reason})"


def cmd_simulate(args) -> int:
    from .experiments.harness import run_factorization
    from .runtime.stats import (comm_breakdown, fault_breakdown,
                                migration_breakdown)

    if args.faults and args.resize:
        raise SystemExit("--resize cannot be combined with --faults")
    pat = _get_pattern(args)
    writer = None
    if args.trace_out:
        from .runtime.tracefmt import ChromeTraceWriter

        writer = ChromeTraceWriter(args.trace_out)
    try:
        # an explicit --network always wins; without one the harness
        # picks "nic", or "hierarchical" when --topology is above 1
        trace = run_factorization(pat, args.tiles, args.kernel,
                                  tile_size=args.tile_size,
                                  network=args.network, trace_writer=writer,
                                  scheduler=args.scheduler,
                                  attach_bounds=True,
                                  ranks_per_node=args.topology,
                                  resize=args.resize or None)
    finally:
        if writer is not None:
            writer.close()
    faulted = None
    if args.faults:
        faulted = run_factorization(pat, args.tiles, args.kernel,
                                    tile_size=args.tile_size,
                                    network=args.network, faults=args.faults,
                                    scheduler=args.scheduler,
                                    ranks_per_node=args.topology)
    print(f"pattern    : {pat.name} (T = {pat.cost(args.kernel):.3f})")
    print(f"network    : {trace.network}")
    print(f"scheduler  : {args.scheduler}")
    print(f"loop       : {_loop_name(trace.cluster)}")
    for key, val in trace.summary().items():
        print(f"{key:<20}: {val:,.4f}")
    comm = comm_breakdown(trace)
    print(f"{'link_busy':<20}: {comm['link_busy_fraction']:,.4f}")
    print(f"{'eager/rendezvous':<20}: "
          f"{comm['n_eager']}/{comm['n_rendezvous']}")
    if "inter_byte_fraction" in comm:
        print(f"{'topology':<20}: {comm['ranks_per_node']} ranks/node")
        print(f"{'inter/intra bytes':<20}: "
              f"{comm['inter_bytes']:,.0f}/{comm['intra_bytes']:,.0f} "
              f"(inter {comm['inter_byte_fraction']:.1%})")
        print(f"{'intra_link_busy':<20}: "
              f"{comm['intra_link_busy_fraction']:,.4f} node-avg")
    if writer is not None:
        print(f"{'trace_out':<20}: {args.trace_out} "
              f"({writer.events_written} events, {writer.flushes} flushes)")
    if trace.resize_stats is not None:
        print(f"\n--- migration ({args.resize}) ---")
        for key, val in migration_breakdown(trace).items():
            print(f"{key:<22}: {val}")
    if faulted is not None:
        print(f"\n--- degraded run ({args.faults}) ---")
        fb = fault_breakdown(faulted, baseline=trace)
        print(f"{'loop':<20}: {_loop_name(faulted.cluster, args.faults)}")
        print(f"{'makespan_s':<20}: {faulted.makespan:,.6f}")
        for key in ("makespan_inflation", "failed_nodes", "tasks_rehomed",
                    "tasks_aborted", "tasks_resurrected", "recovery_messages",
                    "recovery_bytes", "msgs_lost", "retries", "msgs_degraded",
                    "straggle_s", "extra_messages"):
            val = fb[key]
            print(f"{key:<20}: {val}")
    return 0


def cmd_campaign(args) -> int:
    import csv

    from .experiments.campaign import format_campaign, plan_campaign, run_campaign

    cells = plan_campaign(
        args.families, Ps=args.nodes, ms=args.tiles, networks=args.networks,
        kernels=[args.kernel] if args.kernel else None,
        faults=args.faults, schedulers=args.scheduler,
        topologies=args.topology, resizes=args.resize)
    if not cells:
        print("no feasible cells in the requested grid")
        return 1
    rows = run_campaign(cells, jobs=args.jobs, tile_size=args.tile_size,
                        store_dir=args.store)
    print(format_campaign(rows))
    if args.out:
        records = [r.as_dict() for r in rows]
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(records[0]))
            writer.writeheader()
            writer.writerows(records)
        print(f"\nwrote {len(records)} rows to {args.out}")
    return 0


def cmd_store(args) -> int:
    from .patterns.store import PatternStore

    store = PatternStore(args.dir)
    if args.store_command == "stats":
        return _store_stats(store, args)
    if args.store_command == "precompute" \
            and (args.nodes is None) == (args.range is None):
        print("store precompute needs exactly one of --nodes / --range",
              file=sys.stderr)
        return 2
    Ps = args.nodes if args.nodes is not None \
        else list(range(args.range[0], args.range[1] + 1))
    pats = store.patterns_for(Ps, kernel=args.kernel, budget=args.budget,
                              family=args.family, jobs=args.jobs)
    s = store.stats()
    if args.store_command == "precompute":
        print(f"computed {s.fallbacks} patterns "
              f"({len(Ps) - s.fallbacks} already stored) into "
              f"{s.shards_written} shard(s) under {args.dir}")
    else:
        print(f"{'P':>6} {'shape':>9} {'T':>8}  name")
        for P, pat in zip(Ps, pats):
            print(f"{P:>6} {f'{pat.nrows}x{pat.ncols}':>9} "
                  f"{pat.cost(args.kernel):>8.4f}  {pat.name}")
    if args.stats:
        print(f"hot hits {s.hot_hits}, cold hits {s.cold_hits}, "
              f"misses {s.misses}, fallbacks {s.fallbacks}, "
              f"shards read/written {s.shards_read}/{s.shards_written}, "
              f"hot tier {s.hot.currsize}/{s.hot.maxsize} "
              f"(evictions {s.hot.evictions})")
    return 0


def _store_stats(store, args) -> int:
    """``repro store stats``: shard inventory + live-session counters."""
    from .cost.cache import COST_CACHE
    from .patterns.base import PatternError
    from .patterns.store import DEFAULT_BUDGET, read_shard, shard_stem

    if args.nodes:
        budgets = store.budgets(args.kernel, args.family) or [DEFAULT_BUDGET]
        for P in args.nodes:
            for budget in budgets:
                store.get(P, kernel=args.kernel, family=args.family,
                          budget=budget)

    groups = []
    for key, paths in sorted(store.shards().items()):
        Ps = []
        for path in paths:
            try:
                Ps.extend(read_shard(path))
            except PatternError as exc:
                print(f"  {exc}", file=sys.stderr)
        groups.append((shard_stem(*key), len(paths), Ps))
    print(f"store {store.root}: {sum(g[1] for g in groups)} shard file(s), "
          f"{sum(len(g[2]) for g in groups)} pattern(s)")
    for stem, nfiles, Ps in groups:
        span = f"P {min(Ps)}-{max(Ps)}" if Ps else "empty"
        print(f"  {stem:<32} {nfiles:>3} shard(s) {len(Ps):>6} pattern(s)"
              f"  {span}")

    s = store.stats()
    print("session counters (this process):")
    print(f"  store  : hot hits {s.hot_hits}, cold hits {s.cold_hits}, "
          f"misses {s.misses}, fallbacks {s.fallbacks}, "
          f"hit rate {s.hit_rate:.1%}, "
          f"shards read/written {s.shards_read}/{s.shards_written}")
    print(f"  hot LRU: {s.hot.currsize}/{s.hot.maxsize} entries, "
          f"hits {s.hot.hits}, misses {s.hot.misses}, "
          f"evictions {s.hot.evictions}")
    ci = COST_CACHE.cache_info()
    print(f"  costs  : {ci.currsize}/{ci.maxsize} entries, "
          f"hits {ci.hits}, misses {ci.misses}, "
          f"evictions {ci.evictions}, hit rate {ci.hit_rate:.1%}")
    return 0


def cmd_validate(args) -> int:
    import numpy as np

    if args.kernel == "cholesky":
        from .cost.exact import count_cholesky_messages as count
        from .dla import cholesky_residual as residual
        from .dla import execute_cholesky as execute
        from .dla import spd_matrix as gen
        symmetric = True
    else:
        from .cost.exact import count_lu_messages as count
        from .dla import diagonally_dominant as gen
        from .dla import execute_lu as execute
        from .dla import lu_residual as residual
        symmetric = False

    pat = best_pattern(args.nodes, kernel=args.kernel, seeds=range(10))
    dist = TileDistribution(pat, args.tiles, symmetric=symmetric)
    mat = gen(args.tiles, args.tile_size, seed=0)
    orig = mat.copy()
    log = execute(mat, dist)
    res = residual(orig, mat)
    exact = count(dist)
    ok = log.n_messages == exact.total and res < 1e-10
    print(f"pattern  : {pat.name}")
    print(f"residual : {res:.2e}")
    print(f"messages : executor {log.n_messages}, analytic {exact.total}")
    print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


def cmd_report(args) -> int:
    from .experiments.report import generate_report

    text = generate_report(path=args.out, scale=args.scale, only=args.only)
    print(text)
    print(f"\nreport written to {args.out}")
    return 0


_COMMANDS = {
    "pattern": cmd_pattern,
    "report": cmd_report,
    "cost": cmd_cost,
    "gcrm": cmd_gcrm,
    "simulate": cmd_simulate,
    "campaign": cmd_campaign,
    "store": cmd_store,
    "validate": cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

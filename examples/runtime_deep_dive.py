#!/usr/bin/env python
"""Deep dive into one simulated run: bounds, Gantt, memory, heatmap.

Dissects a Figure-5-style LU run the way one would dissect a real
StarPU trace: which lower bound binds (work, node balance, or the
critical path with every task on its owner), how busy each node is
over time, how many remote tiles the runtime caches, and what the
distribution actually looks like on the matrix.  Also exports a
Chrome-tracing file for Perfetto.

Run:  python examples/runtime_deep_dive.py [P] [n_tiles]
"""

import sys

from repro.distribution import TileDistribution
from repro.dla.lu import build_lu_graph
from repro.experiments.machine import sim_cluster
from repro.patterns import bc2d, best_grid, g2dbc
from repro.runtime import (
    makespan_bounds,
    memory_footprint,
    save_chrome_trace,
    simulate,
    text_gantt,
)
from repro.viz import ascii_bars, owner_heatmap


def dissect(pattern, n_tiles, tile_size=500, export=None):
    print(f"--- {pattern.name} ---")
    dist = TileDistribution(pattern, n_tiles)
    graph, home = build_lu_graph(dist, tile_size)
    cluster = sim_cluster(pattern.nnodes, tile_size=tile_size)
    trace = simulate(graph, cluster, data_home=home, record_tasks=True)
    bounds = makespan_bounds(graph, cluster)

    print(f"makespan        : {trace.makespan:.4f}s  "
          f"({trace.gflops:.0f} GFlop/s, {trace.parallel_efficiency:.0%} of peak)")
    print(f"work bound      : {bounds.work_time:.4f}s")
    print(f"node-work bound : {bounds.node_work_time:.4f}s")
    print(f"owner crit. path: {bounds.owner_critical_time:.4f}s")
    print(f"limited by      : {bounds.limiting_factor}")
    print(f"messages        : {trace.n_messages} "
          f"({trace.bytes_sent / 1e9:.2f} GB)")

    mem = memory_footprint(graph, cluster, home)
    print(f"memory/node     : owned {mem.owned_tiles.max()} tiles, "
          f"cached up to {mem.cached_tiles.max()} remote tiles "
          f"(replication overhead {mem.overhead():.0%})")

    print("\nnode activity over time:")
    print(text_gantt(trace, width=68))

    print("\nowner map (tile -> node):")
    print(owner_heatmap(dist.owners, max_size=24))

    if export:
        save_chrome_trace(trace, export, graph)
        print(f"\nChrome-tracing file written to {export} (open in Perfetto)")
    print()
    return trace


def main(P: int = 23, n_tiles: int = 32) -> None:
    good = dissect(g2dbc(P), n_tiles, export=f"lu_g2dbc_p{P}.json")
    r, c = best_grid(P)
    bad = dissect(bc2d(r, c), n_tiles)

    print(ascii_bars(
        {"G-2DBC": good.gflops, f"2DBC {r}x{c}": bad.gflops},
        title="total GFlop/s",
    ))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 23,
         int(sys.argv[2]) if len(sys.argv) > 2 else 32)

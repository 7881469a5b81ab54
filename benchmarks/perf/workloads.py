"""The benchmark's workloads, each run in a fresh child process.

``run.py`` starts this file once per sample::

    python benchmarks/perf/workloads.py '<json config>'

The child imports the package from the checkout's ``src``, builds the
workload's inputs from the seed, runs its ops as one closed-loop client
(one op at a time, ``gc.collect()`` between ops, outside the timed
window), checks the outputs once per distinct input and prints one JSON
line with its samples.  A ``HostSampler`` measures the host's speed
while it runs.  Ops call only the entry points a user calls; the traced
variants split the same work into the public calls of each layer so
that spans can be recorded around them.

Config keys: ``workload``, ``seed``, ``smoke``, ``work_dir``,
``seconds``, ``min_ops``, ``check`` (verify the outputs of the last
op), ``spawn_ts`` (the parent's ``time.monotonic()`` just before the
spawn; the clock is system-wide), ``stop_by`` (monotonic deadline) and
``mode``:

* ``build``       — import and resolve the backend only (compiles the C
  event loop into the cache on first use);
* ``cold``        — set up, run one untraced op;
* ``warm``        — set up, run one untraced op, then untraced ops until
  ``seconds`` have passed and at least ``min_ops`` ran;
* ``trace``       — like ``warm``, alternating traced and untraced ops;
* ``cold-traced`` — set up, run one traced op, then the workload's
  ``after_traced`` measurements.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import (NullTracer, TimedStore, TimedWriter, Tracer, layer_times,
                   rss_mb)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
TILE = 500  # tile edge of every run (the harness default)
#: seconds a ``HostSampler`` probe takes on a CPU of the host of
#: ``results/BENCH_seed.json`` while nothing else shares that CPU
PROBE_S = 0.00027


class HostSampler:
    """Samples the host's speed every ``period`` seconds.

    The host is shared: each of its CPUs alternates, second by second
    and independently of the other, between full speed and as little as
    half of it.  A timer signal runs a fixed probe of interpreter work
    (0.3 ms, calling nothing of the program) in the child's own thread,
    on the CPU the op is running on.  ``scaled`` turns an interval's
    time, less the probes inside it, into the time it would have taken
    at full speed: it multiplies it by ``PROBE_S`` over their mean.
    """

    def __init__(self, period: float = 0.025) -> None:
        self.probes = []  # (start, seconds)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def _probe(self, signum, frame) -> None:
        t = time.perf_counter()
        acc = {}
        for i in range(3000):
            k = i % 97
            acc[k] = acc.get(k, 0) + i
        self.probes.append((t, time.perf_counter() - t))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def within(self, start: float, end: float) -> list:
        return [s for t, s in self.probes if start <= t < end]

    def scaled(self, seconds: float, start: float, end: float,
               speed=None) -> float:
        """``seconds`` spent in ``[start, end)``, less the probes in it,
        at full speed; the speed is the mean probe time in ``speed``
        (a window) if given, else in ``[start, end)``."""
        inside = self.within(start, end)
        # an op shorter than the period may hold no probe: then the
        # child's mean stands in (set-up always holds some)
        probes = (self.within(*speed) if speed else inside) \
            or [s for _, s in self.probes]
        return (seconds - sum(inside)) * PROBE_S / statistics.fmean(probes)


def setup_common() -> str:
    """Imports, backend resolution and shipped-database load."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    from repro.patterns.library import load_shipped_database
    from repro.runtime.backends import active_backend

    for kernel in ("lu", "cholesky"):
        load_shipped_database(kernel)
    return active_backend()


def optimum(kernel: str, P: int) -> float:
    """Asymptotic pattern-cost optimum: 2√P (LU), √(3P/2) (Cholesky)."""
    return 2 * math.sqrt(P) if kernel == "lu" else math.sqrt(1.5 * P)


def traced_factorization(tracer, pattern, m, kernel, writer=None,
                         bounds=False):
    """``run_factorization(pattern, m, kernel, trace_writer=writer,
    attach_bounds=bounds)`` with one span per layer.

    ``get_plan`` runs explicitly before ``simulate``; the per-graph plan
    cache makes ``simulate`` reuse it.
    """
    from repro.cost.schedbounds import schedule_lower_bounds
    from repro.distribution import TileDistribution
    from repro.dla import build_cholesky_graph, build_lu_graph
    from repro.experiments.machine import sim_cluster
    from repro.runtime.simplan import get_plan
    from repro.runtime.simulator import simulate

    symmetric = kernel == "cholesky"
    with tracer.span("dla.build"):
        rss0 = rss_mb()
        cluster = sim_cluster(pattern.nnodes, tile_size=TILE)
        dist = TileDistribution(pattern, m, symmetric=symmetric)
        build = build_cholesky_graph if symmetric else build_lu_graph
        graph, home = build(dist, TILE)
        reads = graph.columns.read_data.size
        rss1 = rss_mb()
    tracer.count("dla.tasks", len(graph))
    tracer.count("dla.reads", reads)
    tracer.count("dla.rss_growth_mb", rss1 - rss0)
    with tracer.span("simplan.lower"):
        plan = get_plan(graph, home)
    tracer.count("simplan.msgs", plan.n_msgs)
    tracer.count("simplan.plan_mb", plan.nbytes / 1e6)
    proxy = None
    if writer is not None:
        writer.graph = graph
        proxy = TimedWriter(writer)
    with tracer.span("simulator.simulate") as sim_span:
        trace = simulate(graph, cluster, data_home=home, trace_writer=proxy)
    if proxy is not None:
        tracer.aggregate("trace.emit", sim_span, proxy.seconds, proxy.calls)
    if bounds:
        with tracer.span("schedbounds.bounds"):
            trace.sched_bounds = schedule_lower_bounds(
                graph, cluster, data_home=home, network="nic")
        tracer.count("schedbounds.optimality_ratio", trace.optimality_ratio)
    net = trace.net_stats
    tracer.count("network.msgs_sent", int(net.msgs_sent.sum()))
    tracer.count("network.bytes_sent_mb", float(net.bytes_sent.sum()) / 1e6)
    tracer.count("network.tx_busy_s", float(net.tx_busy.sum()))
    tracer.count("network.link_busy_frac",
                 float(net.busy_fractions(trace.makespan)["link_busy"]))
    return trace


def check_factorization(pattern, m, kernel, trace) -> list:
    """Analytic message count and makespan lower bound of one run."""
    from repro.cost import count_cholesky_messages, count_lu_messages
    from repro.distribution import TileDistribution
    from repro.dla import build_cholesky_graph, build_lu_graph
    from repro.experiments.machine import sim_cluster
    from repro.runtime.analysis import makespan_bounds

    symmetric = kernel == "cholesky"
    dist = TileDistribution(pattern, m, symmetric=symmetric)
    count = count_cholesky_messages if symmetric else count_lu_messages
    fails = []
    predicted = count(dist).total
    if predicted != trace.n_messages:
        fails.append(f"{kernel} m={m}: {trace.n_messages} messages "
                     f"simulated, {predicted} predicted")
    build = build_cholesky_graph if symmetric else build_lu_graph
    graph, _ = build(dist, TILE)
    bound = makespan_bounds(graph, sim_cluster(pattern.nnodes, TILE)).best
    if trace.makespan < bound:
        fails.append(f"{kernel} m={m}: makespan {trace.makespan} below "
                     f"its lower bound {bound}")
    return fails


class Workload:
    """One workload: inputs from the seed, an op, and its checks."""

    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir

    def prepare(self) -> None:
        """Build the inputs (part of set-up)."""

    def before_op(self) -> None:
        """Untimed housekeeping before each op."""

    def op(self, tracer):
        raise NotImplementedError

    def key(self, result) -> dict:
        """JSON-able outputs that every op on this input must repeat."""
        raise NotImplementedError

    def check(self, result) -> dict:
        """``{"failures": [...], "sim": {...}}``, plus ``"layers"`` when
        the check measures a layer."""
        raise NotImplementedError

    def after_traced(self, tracer, result) -> dict:
        """Extra per-layer metrics of a ``cold-traced`` child."""
        return {}

    def close(self) -> None:
        """Remove what the ops left in the work directory."""


class LuLarge(Workload):
    """The scale leg: LU on a relabeled G-2DBC(23), compiled event loop."""

    name = "lu-large"
    P = 23

    def prepare(self) -> None:
        import numpy as np
        from repro.experiments.harness import run_factorization
        from repro.patterns import g2dbc
        from repro.patterns.migrate import relabel_pattern

        self.run_factorization = run_factorization
        self.m = 16 if self.smoke else 160
        perm = np.random.default_rng(self.seed).permutation(self.P)
        self.pattern = relabel_pattern(g2dbc(self.P), perm, nnodes=self.P)

    def op(self, tracer):
        if tracer.enabled:
            return traced_factorization(tracer, self.pattern, self.m, "lu")
        return self.run_factorization(self.pattern, self.m, "lu")

    def key(self, trace) -> dict:
        return {"makespan": trace.makespan, "messages": trace.n_messages}

    def check(self, trace) -> dict:
        return {"failures": check_factorization(self.pattern, self.m, "lu",
                                                trace),
                "sim": {"sim_makespan": trace.makespan,
                        "sim_messages": trace.n_messages,
                        "pattern_cost": self.pattern.cost_lu
                        / optimum("lu", self.P)}}


class SimulateTraced(Workload):
    """``repro simulate -P 35 --kernel cholesky --trace-out F``: Python
    recording loop, Chrome trace emission and schedule bounds."""

    name = "simulate-traced"
    P = 35

    def prepare(self) -> None:
        import numpy as np
        from repro.experiments.harness import run_factorization
        from repro.patterns.library import load_shipped_database
        from repro.patterns.migrate import relabel_pattern
        from repro.runtime.stats import comm_breakdown
        from repro.runtime.tracefmt import ChromeTraceWriter

        self.run_factorization = run_factorization
        self.comm_breakdown = comm_breakdown
        self.writer_cls = ChromeTraceWriter
        self.m = 12 if self.smoke else 80
        perm = np.random.default_rng(self.seed).permutation(self.P)
        self.pattern = relabel_pattern(
            load_shipped_database("cholesky")[self.P], perm, nnodes=self.P)
        self.path = self.work_dir / "simulate-trace.json"

    def op(self, tracer):
        writer = self.writer_cls(self.path)
        if tracer.enabled:
            try:
                trace = traced_factorization(tracer, self.pattern, self.m,
                                             "cholesky", writer=writer,
                                             bounds=True)
            finally:
                with tracer.span("trace.close"):
                    writer.close()
            with tracer.span("trace.summarize"):
                trace.summary()
                self.comm_breakdown(trace)
            tracer.count("trace.events_written", writer.events_written)
            tracer.count("trace.flushes", writer.flushes)
            tracer.count("trace.mb", self.path.stat().st_size / 1e6)
        else:
            try:
                trace = self.run_factorization(
                    self.pattern, self.m, "cholesky", trace_writer=writer,
                    attach_bounds=True)
            finally:
                writer.close()
            trace.summary()
            self.comm_breakdown(trace)
        return trace, writer.events_written

    def key(self, result) -> dict:
        trace, events = result
        return {"makespan": trace.makespan, "messages": trace.n_messages,
                "optimality_ratio": trace.optimality_ratio, "events": events,
                "trace_bytes": self.path.stat().st_size}

    def check(self, result) -> dict:
        trace, events = result
        fails = check_factorization(self.pattern, self.m, "cholesky", trace)
        if not trace.optimality_ratio >= 1:
            fails.append(f"optimality ratio {trace.optimality_ratio} < 1")
        try:
            with open(self.path) as fh:
                n = len(json.load(fh)["traceEvents"])
        except (OSError, ValueError, KeyError) as exc:
            fails.append(f"Chrome trace unreadable: {exc}")
        else:
            if n != events:
                fails.append(f"Chrome trace holds {n} events, writer "
                             f"reported {events}")
        return {"failures": fails,
                "sim": {"sim_makespan": trace.makespan,
                        "sim_messages": trace.n_messages,
                        "pattern_cost": self.pattern.cost_cholesky
                        / optimum("cholesky", self.P)}}


class PatternService(Workload):
    """Cold Cholesky pattern resolution outside the shipped database,
    then a read stream served by the sharded store."""

    name = "pattern-service"
    #: fixed node counts outside the shipped 2..44 range: per-P resolve
    #: time spans 0.1–2.7 s, so drawing them from the seed would make
    #: the run-to-run spread exceed any useful bound
    PS = (45, 57, 60, 66)
    STREAM = 200

    def prepare(self) -> None:
        import numpy as np
        from repro.cost import COST_CACHE
        from repro.patterns import PatternStore, best_pattern

        self.cost_cache = COST_CACHE
        self.store_cls = PatternStore
        self.best_pattern = best_pattern
        self.seeds = range(2) if self.smoke else range(4)
        Ps = (45,) if self.smoke else self.PS
        rng = np.random.default_rng(self.seed)
        self.order = [int(P) for P in rng.permutation(Ps)]
        self.stream = [int(P) for P in rng.choice(Ps, self.STREAM)]
        self.root = None

    def before_op(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root)
        self.root = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root)

    def op(self, tracer):
        self.cost_cache.clear()
        with tracer.span("patterns.store_open"):
            store = self.store_cls(self.root)
        served = TimedStore(store, tracer) if tracer.enabled else store
        found = {}
        for P in self.order:
            with tracer.span("patterns.resolve"):
                found[P] = self.best_pattern(P, "cholesky", store=served,
                                             seeds=self.seeds)
        info = self.cost_cache.cache_info()
        tracer.count("patterns.shards_written", store.stats().shards_written)
        tracer.count("patterns.cost_cache_lookups", info.hits + info.misses)
        tracer.count("patterns.cost_cache_hit_ratio", info.hit_rate)
        return found

    def key(self, found) -> dict:
        return {str(P): [pat.nnodes, list(pat.grid.shape),
                         hashlib.sha256(pat.grid.tobytes()).hexdigest()]
                for P, pat in sorted(found.items())}

    def check(self, found) -> dict:
        from repro.experiments.harness import run_factorization

        fails = []
        store = self.store_cls(self.root)
        t = time.perf_counter()
        for P in self.stream:
            pat = self.best_pattern(P, "cholesky", store=store,
                                    seeds=self.seeds)
            ref = found[P]
            if (pat.nnodes != ref.nnodes or pat.grid.shape != ref.grid.shape
                    or pat.grid.tobytes() != ref.grid.tobytes()):
                fails.append(f"P={P}: stored pattern differs from searched")
        read_s = time.perf_counter() - t
        st = store.stats()
        want = {"shards_read": len(found), "cold_hits": len(found),
                "misses": 0, "hot_hits": self.STREAM - len(found)}
        got = {"shards_read": st.shards_read, "cold_hits": st.cold_hits,
               "misses": st.misses, "hot_hits": st.hot_hits}
        if got != want:
            fails.append(f"read-stream store counts {got}, expected {want}")
        m = 8 if self.smoke else 24
        makespans, messages, costs = [], 0, []
        for P, pat in sorted(found.items()):
            trace = run_factorization(pat, m, "cholesky")
            fails += check_factorization(pat, m, "cholesky", trace)
            makespans.append(trace.makespan)
            messages += trace.n_messages
            costs.append(pat.cost_cholesky / optimum("cholesky", P))
        return {"failures": fails,
                "sim": {"sim_makespan": statistics.fmean(makespans),
                        "sim_messages": messages,
                        "pattern_cost": statistics.fmean(costs)},
                "layers": {"patterns.store_hot_hits": st.hot_hits,
                           "patterns.store_cold_hits": st.cold_hits,
                           "patterns.store_misses": st.misses,
                           "patterns.shards_read": st.shards_read,
                           "patterns.stream_get_us":
                               read_s / len(self.stream) * 1e6}}


class CampaignMixed(Workload):
    """A cold 48-cell campaign through every non-default path.

    It runs in one process: on two CPUs, a two-worker pool plus its
    parent measured the host's scheduler.  Five fresh grids took
    3.55–4.25 s with two workers and 4.87–5.01 s in one process.
    """

    name = "campaign-mixed"
    JOBS = 1

    def prepare(self) -> None:
        from repro.experiments.campaign import plan_campaign, run_campaign

        self.run_campaign = run_campaign
        fault = f"fail:1@0.02,loss:0.01,seed:{self.seed}"
        if self.smoke:
            self.cells = plan_campaign(
                ["g2dbc", "gcrm"], [5, 7], [8], networks=["nic"],
                faults=["", fault])
        else:
            self.cells = plan_campaign(
                ["g2dbc", "gcrm"], [23, 35], [16],
                networks=["nic", "contention"], faults=["", fault],
                resizes=["", "31@0.05"],
                schedulers=["priority", "work_stealing"])

    def op(self, tracer):
        with tracer.span("campaign.run"):
            rows = self.run_campaign(self.cells, jobs=self.JOBS)
        tracer.count("campaign.cells", len(self.cells))
        tracer.count("campaign.unique_graphs", len(
            {(c.family, c.kernel, c.P, c.m) for c in self.cells}))
        return rows

    def key(self, rows) -> dict:
        return {"rows": [[r.family, r.P, r.network, r.scheduler, r.faults,
                          r.resize, r.makespan_s, r.simulated_messages]
                         for r in rows]}

    def check(self, rows) -> dict:
        fails = []
        for r in rows:
            cell = f"{r.family} P={r.P} {r.network} {r.scheduler} " \
                   f"faults={r.faults!r} resize={r.resize!r}"
            plain = not r.faults and not r.resize
            if plain and r.predicted_messages != r.simulated_messages:
                fails.append(f"{cell}: {r.simulated_messages} messages "
                             f"simulated, {r.predicted_messages} predicted")
            # owner-computes bound: priority scheduling only
            if plain and r.scheduler == "priority" \
                    and r.makespan_s < r.predicted_makespan_s:
                fails.append(f"{cell}: makespan below its lower bound")
            # a grown cluster may beat bounds computed for the old one
            if not r.resize and not r.optimality_ratio >= 1:
                fails.append(f"{cell}: optimality ratio "
                             f"{r.optimality_ratio} < 1")
        return {"failures": fails,
                "sim": {"sim_makespan": statistics.fmean(
                            r.makespan_s for r in rows),
                        "sim_messages": sum(r.simulated_messages
                                            for r in rows),
                        "pattern_cost": statistics.fmean(
                            r.pattern_cost / optimum(r.kernel, r.P)
                            for r in rows)}}

    def after_traced(self, tracer, rows) -> dict:
        """Serial replay of the cells through the public calls each
        campaign cell makes, timing each layer's share."""
        from dataclasses import replace

        from repro.cost import (count_cholesky_messages, count_lu_messages,
                                schedule_lower_bounds)
        from repro.distribution import TileDistribution
        from repro.dla import build_cholesky_graph, build_lu_graph
        from repro.experiments.machine import sim_cluster
        from repro.patterns import PATTERN_FAMILIES
        from repro.runtime.analysis import makespan_bounds
        from repro.runtime.faults import colrow_recovery
        from repro.runtime.simulator import simulate

        tracer.op = "replay"
        patterns, graphs, mismatches = {}, {}, 0
        with tracer.span("replay"):
            for cell, row in zip(self.cells, rows):
                with tracer.span("replay.resolve"):
                    pkey = (cell.family, cell.P, cell.kernel)
                    if pkey not in patterns:
                        patterns[pkey] = PATTERN_FAMILIES[cell.family](
                            cell.P, kernel=cell.kernel, jobs=1)
                    pat = patterns[pkey]
                cluster = sim_cluster(cell.P, tile_size=TILE)
                if cluster.nnodes < pat.nnodes:
                    cluster = cluster.with_nodes(pat.nnodes)
                if cell.scheduler != "priority":
                    cluster = replace(cluster, scheduler=cell.scheduler)
                symmetric = cell.kernel == "cholesky"
                with tracer.span("replay.build"):
                    dist = TileDistribution(pat, cell.m, symmetric=symmetric)
                    gkey = (cell.family, cell.kernel, cell.P, cell.m)
                    if gkey not in graphs:
                        build = build_cholesky_graph if symmetric \
                            else build_lu_graph
                        graphs[gkey] = build(dist, TILE)
                    graph, home = graphs[gkey]
                with tracer.span("replay.count"):
                    (count_cholesky_messages if symmetric
                     else count_lu_messages)(dist)
                with tracer.span("replay.bounds"):
                    makespan_bounds(graph, cluster)
                    schedule_lower_bounds(graph, cluster, data_home=home,
                                          network=cell.network)
                sim = ("replay.sim_work_stealing"
                       if cell.scheduler == "work_stealing"
                       else "replay.sim_plain")
                with tracer.span(sim):
                    trace = simulate(graph, cluster, data_home=home,
                                     network=cell.network)
                if cell.faults:
                    with tracer.span("replay.sim_faults"):
                        trace = simulate(graph, cluster, data_home=home,
                                         network=cell.network,
                                         faults=cell.faults,
                                         recovery=colrow_recovery(pat))
                elif cell.resize:
                    with tracer.span("replay.sim_resize"):
                        trace = simulate(graph, cluster, data_home=home,
                                         network=cell.network,
                                         resize=cell.resize)
                if (trace.makespan, trace.n_messages) != \
                        (row.makespan_s, row.simulated_messages):
                    mismatches += 1
        times = layer_times(tracer.op_spans("replay"))
        total = times["replay"]["total"]
        out = {"campaign.replay_s": total,
               "campaign.replay_mismatches": mismatches}
        for part in ("resolve", "build", "count", "bounds", "sim_plain",
                     "sim_faults", "sim_resize", "sim_work_stealing"):
            spent = times.get(f"replay.{part}", {"total": 0.0})["total"]
            out[f"campaign.replay.{part}_frac"] = spent / total
        return out


WORKLOADS = {w.name: w for w in (LuLarge, SimulateTraced, PatternService,
                                 CampaignMixed)}


def op_layers(tracer: Tracer, op: str) -> dict:
    """Per-layer metrics of one traced op from its spans and counts."""
    times = layer_times(tracer.op_spans(op))

    def total(name):
        return times.get(name, {"total": 0.0})["total"]

    def self_time(name):
        return times.get(name, {"self": 0.0})["self"]

    out = dict(tracer.counts.get(op, {}))
    out.update({
        "patterns.resolve_s": total("patterns.resolve"),
        "patterns.search_s": self_time("patterns.resolve"),
        "patterns.store_get_s": total("patterns.store_get"),
        "patterns.store_put_s": total("patterns.store_put"),
        "dla.build_s": total("dla.build"),
        "simplan.lower_s": total("simplan.lower"),
        "simulator.loop_s": self_time("simulator.simulate"),
        "schedbounds.bounds_s": total("schedbounds.bounds"),
        "trace.emit_s": total("trace.emit") + total("trace.close"),
        "trace.summarize_s": total("trace.summarize"),
        "campaign.run_s": total("campaign.run"),
    })
    loop, emit = out["simulator.loop_s"], out["trace.emit_s"]
    out["simulator.tasks_per_s"] = out.get("dla.tasks", 0) / loop \
        if loop else 0.0
    out["trace.emit_mb_per_s"] = out.get("trace.mb", 0) / emit \
        if emit else 0.0
    covered = sum(t["self"] for name, t in times.items() if name != "op")
    out["layer_coverage_frac"] = covered / total("op")
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    if cfg["mode"] == "build":
        print(json.dumps({"backend": setup_common()}))
        return 0
    sampler = HostSampler()
    try:
        return run_child(cfg, sampler)
    finally:
        sampler.stop()


def run_child(cfg: dict, sampler: HostSampler) -> int:
    backend = setup_common()
    wl = WORKLOADS[cfg["workload"]](cfg["seed"], cfg["smoke"],
                                    Path(cfg["work_dir"]))
    wl.prepare()
    setup_s = time.monotonic() - cfg["spawn_ts"]
    ready = time.perf_counter()

    mode = cfg["mode"]
    tracer = Tracer() if mode in ("trace", "cold-traced") else NullTracer()
    untraced = NullTracer()
    ops, last = [], None

    def run_op(traced: bool) -> None:
        nonlocal last
        wl.before_op()
        gc.collect()
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.op = f"op{len(ops)}"
                with tracer.span("op"):
                    result = wl.op(tracer)
            else:
                result = wl.op(untraced)
        except Exception:
            traceback.print_exc()
            ops.append({"s": time.perf_counter() - t0, "traced": traced,
                        "key": None})
            return
        t1 = time.perf_counter()
        key = hashlib.sha256(json.dumps(wl.key(result), sort_keys=True)
                             .encode()).hexdigest()[:16]
        ops.append({"s": t1 - t0, "traced": traced, "key": key,
                    "scaled_s": sampler.scaled(t1 - t0, t0, t1)})
        last = result

    run_op(mode == "cold-traced")
    if mode in ("warm", "trace"):
        start = time.monotonic()
        traced = mode == "trace"
        while (len(ops) - 1 < cfg["min_ops"]
               or time.monotonic() - start < cfg["seconds"]):
            if time.monotonic() + ops[-1]["s"] > cfg["stop_by"]:
                break
            run_op(traced)
            if mode == "trace":
                traced = not traced

    sampler.stop()
    # peak RSS of the ops, before the checks allocate their own tables
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    # imports disturb the probes, so set-up is scaled by the host's
    # speed during the ops that follow it
    out = {"setup_s": setup_s, "backend": backend, "ops": ops,
           "scaled_setup_s": sampler.scaled(
               setup_s, 0.0, ready, speed=(ready, time.perf_counter())),
           "probe_s": statistics.fmean(s for _, s in sampler.probes),
           "rss_mb": max(usage) / 1024}  # ru_maxrss is in KiB on Linux
    layers = {}
    if last is not None:
        if cfg["check"]:
            checked = wl.check(last)
            out["failures"] = checked["failures"]
            out["sim"] = checked["sim"]
            layers.update(checked.get("layers", {}))
        if mode == "cold-traced":
            layers.update(wl.after_traced(tracer, last))
    if tracer.enabled:
        per_op = [op_layers(tracer, f"op{i}")
                  for i, o in enumerate(ops) if o["traced"] and o["key"]]
        for name in sorted({n for d in per_op for n in d}):
            layers[name] = statistics.median(d.get(name, 0.0) for d in per_op)
        out["layers"] = layers
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    wl.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

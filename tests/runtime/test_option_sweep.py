"""Small-grid sweep over the simulator's option space.

Every combination of node count, cores, network model and topology,
scheduler, kernel and run kind (fault-free, message loss, fail-stop,
grow, shrink) either runs and agrees with the independent views of the
same run, or is rejected with the one named error a plan that fails
every node raises:

* a fault-free run sends exactly the analytic message count
  (:mod:`repro.cost.exact`);
* fault-free and loss-only runs take at least the policy-universal
  :func:`~repro.cost.schedbounds.schedule_lower_bounds` of their
  network;
* fault-free runs under an owner-computes scheduler (any but
  ``work_stealing``) take at least
  :func:`~repro.cost.schedbounds.makespan_bounds`;
* every run recorded by a :class:`~repro.runtime.tracefmt.ChromeTraceWriter`
  has the canonical outcome of its unrecorded twin (makespan, message
  counts, fault and resize stats), and its file parses to the
  ``events_written`` events;
* every fault-free run has the same canonical dump, records included,
  under each available event loop (the backend axis: the compiled
  loop runs every combination whose scheduler has static keys).

The machine is comm-bound (8-wide tiles, 1 GFLOP/s cores), the regime
where a bound that overcharges a message is broken.
"""

import itertools
import json
import os

import pytest

from repro.cost.exact import count_cholesky_messages, count_lu_messages
from repro.cost.schedbounds import makespan_bounds, schedule_lower_bounds
from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.library import shipped_pattern
from repro.runtime.backends import BACKEND_ENV
from repro.runtime.cluster import ClusterSpec
from repro.runtime.faults import colrow_recovery
from repro.runtime.resize import ResizeEvent
from repro.runtime.schedulers import registered_schedulers
from repro.runtime.simulator import SimulationError, simulate
from repro.runtime.tracefmt import ChromeTraceWriter
from tests.conftest import available_sim_backends

TILE = 8
M = 2
#: (network, ranks per machine)
NETWORKS = [(net, rpn) for net in ("hierarchical", "nic", "contention")
            for rpn in (1, 2)]
#: relative slack for floating-point sums of the same terms
REL = 1e-9


@pytest.mark.parametrize("P", [1, 2, 5])
@pytest.mark.parametrize("kernel", ["lu", "cholesky"])
def test_every_option_runs_and_respects_its_bounds(P, kernel, tmp_path,
                                                   monkeypatch):
    pattern = shipped_pattern(P, kernel)
    symmetric = kernel == "cholesky"
    dist = TileDistribution(pattern, M, symmetric=symmetric)
    build = build_cholesky_graph if symmetric else build_lu_graph
    graph, home = build(dist, TILE)
    count = count_cholesky_messages if symmetric else count_lu_messages
    messages = count(dist).total
    path = tmp_path / "trace.json"
    # resolved once: outside the shipped 2..44 range (P' = 1) each
    # resolution is a GCR&M search
    targets = {n: shipped_pattern(n, kernel) for n in (P + 1, P - 1) if n}
    loops = available_sim_backends()
    default_loop = os.environ.get(BACKEND_ENV, "auto")
    for cores, (net, rpn), scheduler in itertools.product(
            (1, 2), NETWORKS, registered_schedulers()):
        case = (cores, net, rpn, scheduler)
        cl = ClusterSpec(nnodes=P, cores_per_node=cores, core_gflops=1.0,
                         bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE,
                         ranks_per_node=rpn, scheduler=scheduler)
        recovery = colrow_recovery(pattern)

        def run(**kw):
            """One run, and its twin recorded by a Chrome writer."""
            kw.update(data_home=home, network=net)
            trace = simulate(graph, cl, **kw)
            with ChromeTraceWriter(path, graph=graph) as w:
                twin = simulate(graph, cl, trace_writer=w, **kw)
            assert twin.to_canonical() == trace.to_canonical(), (case, kw)
            with open(path) as fh:
                events = json.load(fh)["traceEvents"]
            assert len(events) == w.events_written, (case, kw)
            return trace

        sched_bound = schedule_lower_bounds(graph, cl, data_home=home,
                                            network=net).best
        plain = run()
        assert plain.n_messages == messages, case
        dumps = set()
        for backend in loops:
            monkeypatch.setenv(BACKEND_ENV, backend)
            dumps.add(json.dumps(simulate(
                graph, cl, data_home=home, network=net,
                record_tasks=True).to_canonical(), sort_keys=True))
        monkeypatch.setenv(BACKEND_ENV, default_loop)
        assert len(dumps) == 1, case
        assert plain.makespan >= sched_bound * (1 - REL), case
        if scheduler != "work_stealing":
            assert plain.makespan >= makespan_bounds(graph, cl).best \
                * (1 - REL), case

        lossy = run(faults="loss:0.3,seed:1", recovery=recovery)
        assert lossy.makespan >= sched_bound * (1 - REL), case

        fail = f"fail:{P - 1}@{plain.makespan / 3!r}"
        if P == 1:
            kw = dict(data_home=home, network=net, faults=fail,
                      recovery=recovery)
            with pytest.raises(SimulationError, match="all nodes failed"):
                simulate(graph, cl, **kw)
            with ChromeTraceWriter(path) as w, \
                    pytest.raises(SimulationError, match="all nodes failed"):
                simulate(graph, cl, trace_writer=w, **kw)
        else:
            run(faults=fail, recovery=recovery)

        for n, target in targets.items():  # grow, and shrink unless P = 1
            run(resize=ResizeEvent(plain.makespan / 3, n, target))

"""Golden equivalence locks for the batch-drained simulator hot path.

These goldens were generated from the pre-batching event loop (PR 3's
array hot path) and pin its canonical outputs for:

* the no-record fast path (the one the batched loop and the compiled
  backends replace) on both network models,
* the recording path (``record_tasks=True``),
* degraded runs under fail-stop and message-loss plans (the resilient
  loop of :mod:`repro.runtime.faults` shares the planner and delivery
  helpers).

Any byte-level drift of the event schedule — from batch draining, the
one task-completion body, the vectorized planner, or a compiled
backend — fails here.  Every case runs under each available event loop (the
``sim_backends`` fixture).  Regenerate only after an intentional
behavior change::

    REGEN_GOLDEN=1 python -m pytest tests/runtime/test_batch_loop.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.distribution import TileDistribution
from repro.dla.cholesky import build_cholesky_graph
from repro.dla.lu import build_lu_graph
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simulator import simulate

GOLDEN_DIR = Path(__file__).parent / "golden"
TILE = 8
M = 10
PS = (5, 7, 12)
NETWORKS = ("nic", "contention")
#: fault axis: fault-free, an early fail-stop, seeded message loss
FAULT_SPECS = ("", "fail:1@2e-4,seed:3", "loss:0.05,seed:7")


def _cluster(P: int) -> ClusterSpec:
    return ClusterSpec(nnodes=P, cores_per_node=2, core_gflops=1.0,
                       bandwidth_Bps=1e9, latency_s=1e-6, tile_size=TILE)


def _graphs(P: int):
    lu_dist = TileDistribution(g2dbc(P), M, symmetric=False)
    chol_pat = gcrm(P, feasible_sizes(P)[0], seed=0).pattern
    chol_dist = TileDistribution(chol_pat, M, symmetric=True)
    return {
        "lu": build_lu_graph(lu_dist, TILE),
        "cholesky": build_cholesky_graph(chol_dist, TILE),
    }


def compute_case(P: int) -> dict:
    cluster = _cluster(P)
    out = {}
    for kernel, (graph, home) in _graphs(P).items():
        out[kernel] = {}
        for net in NETWORKS:
            for spec in FAULT_SPECS:
                for record in (False, True):
                    key = f"{net}|{spec or 'none'}|{'rec' if record else 'norec'}"
                    trace = simulate(graph, cluster, data_home=home,
                                     record_tasks=record, network=net,
                                     faults=spec or None)
                    out[kernel][key] = trace.to_canonical()
    return out


@pytest.mark.parametrize("P", PS, ids=[f"P{P}" for P in PS])
def test_batch_loop_golden(P, sim_backends):
    path = GOLDEN_DIR / f"batch_P{P}_m{M}.json"
    for backend in sim_backends:
        actual = compute_case(P)
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
            pytest.skip(f"regenerated {path.name}")
        expected = json.loads(path.read_text())
        for kernel, cases in expected.items():
            for key, exp in cases.items():
                assert actual[kernel][key] == exp, (
                    f"canonical trace drifted for P={P} {kernel} [{key}] "
                    f"on the {backend} loop")

"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.runtime.cluster import ClusterSpec


@pytest.fixture
def tiny_cluster():
    """A small, fast cluster model for simulator tests: 1 GFlop/s cores,
    1 GB/s links, zero-ish latency — easy mental arithmetic."""
    def make(nnodes, cores=2, tile_size=10):
        return ClusterSpec(
            nnodes=nnodes,
            cores_per_node=cores,
            core_gflops=1.0,
            bandwidth_Bps=1e9,
            latency_s=0.0,
            tile_size=tile_size,
        )
    return make


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def available_sim_backends():
    """Event loops this host can run: ``python`` always, ``c`` when the
    compiled loop builds."""
    from repro.runtime import csim
    return ["python", "c"] if csim.available() else ["python"]


@pytest.fixture
def sim_backends(monkeypatch):
    """Iterate to run a block under every available event loop: each
    step sets ``REPRO_SIM_BACKEND`` to the backend it yields.  Used by
    the golden suites, which then pin both loops under one test id."""
    from repro.runtime.backends import BACKEND_ENV

    def each():
        for name in available_sim_backends():
            monkeypatch.setenv(BACKEND_ENV, name)
            yield name
    return each()

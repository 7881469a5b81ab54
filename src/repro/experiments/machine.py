"""Machine models used by the experiment drivers.

``paper_cluster`` (in :mod:`repro.runtime.cluster`) mirrors the
PlaFRIM platform 1:1.  But the paper's runs use 100–600 tile rows, and
at those tile counts one run takes seconds and gigabytes of memory (a
400-tile LU run has 21.3M tasks and takes about 2.6 GB), so the
experiment drivers run at reduced tile counts (32–64) on
:func:`sim_cluster`, a *scaled* platform chosen so the reduced runs sit
at the same operating point as the paper's measured range:

* ``cores_per_node = 8`` (instead of 34) keeps per-core task
  concurrency comparable at the smaller tile counts — with 34 cores a
  48-tile run is pure critical path and no distribution choice matters;
* ``bandwidth = 3 GB/s`` (instead of 12.5) keeps the ratio of per-node
  communication time to per-node compute time in the paper's 10–30 %
  window, where communication volume is the discriminating factor
  (at full scale the same ratio arises from the larger tile counts).

Only ratios matter for *who wins and by how much*; absolute GFlop/s are
not comparable to the paper's (and are not meant to be).
"""

from __future__ import annotations

from ..runtime.cluster import ClusterSpec

__all__ = ["sim_cluster", "PAPER_TILE_SIZE", "PAPER_TILE_COUNTS"]

#: tile edge used throughout the paper's evaluation
PAPER_TILE_SIZE = 500

#: the paper's matrix sizes, in tiles (m = 50 000 … 300 000)
PAPER_TILE_COUNTS = (100, 200, 300, 400, 500, 600)


def sim_cluster(nnodes: int, tile_size: int = PAPER_TILE_SIZE) -> ClusterSpec:
    """Scaled simulation platform (see module docstring)."""
    return ClusterSpec(
        nnodes=nnodes,
        cores_per_node=8,
        core_gflops=38.0,
        bandwidth_Bps=3e9,
        latency_s=5e-6,
        tile_size=tile_size,
    )

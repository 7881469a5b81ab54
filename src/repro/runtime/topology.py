"""Two-level cluster topology: ranks packed into nodes.

The paper's cost model (Section III) treats the ``P`` processes of a
pattern as interchangeable peers on a flat network.  Real clusters are
hierarchical: ranks live inside NUMA/GPU *nodes*, nodes inside racks,
and only the *inter-node* hops cross links that cost real bandwidth
(following "Node-Aware Processor Grids", Irmler et al.).

:class:`Topology` captures the first level of that hierarchy — a
contiguous packing of ``nranks`` ranks into nodes of ``ranks_per_node``.
Rank ``p`` lives on node ``p // ranks_per_node``.  The last node may be
partially filled when ``ranks_per_node`` does not divide ``nranks``
("any number of nodes" applies at both levels).

:meth:`Topology.flat` is the degenerate one-rank-per-node case: every
hierarchical quantity collapses to its flat counterpart *exactly*
(``Pattern.cost_hier`` with a flat topology is bit-identical to
``Pattern.cost``), which is what lets the topology parameter thread
through the whole stack without perturbing flat results.

The class is a frozen dataclass: hashable (usable in cost-cache keys
via :attr:`cache_key`) and picklable (shipped to search-engine worker
processes inside task chunks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Topology"]


@dataclass(frozen=True)
class Topology:
    """Packing of ``nranks`` ranks into nodes of ``ranks_per_node``.

    Parameters
    ----------
    nranks:
        Total number of ranks ``P`` (the pattern's node count).
    ranks_per_node:
        Ranks packed per physical node.  ``1`` (the default) is the
        degenerate flat topology.
    """

    nranks: int
    ranks_per_node: int = 1

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, nranks: int) -> "Topology":
        """One rank per node: the degenerate (paper) topology."""
        return cls(nranks=nranks, ranks_per_node=1)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_flat(self) -> bool:
        """True when every node holds exactly one rank."""
        return self.ranks_per_node == 1

    @property
    def nnodes(self) -> int:
        """Number of physical nodes (last one may be partially filled)."""
        return -(-self.nranks // self.ranks_per_node)

    @cached_property
    def rank_nodes(self) -> np.ndarray:
        """``rank_nodes[p]`` = node id of rank ``p`` (read-only int64)."""
        arr = np.arange(self.nranks, dtype=np.int64) // self.ranks_per_node
        arr.setflags(write=False)
        return arr

    def node_of(self, rank: int) -> int:
        """Node id of ``rank``."""
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} outside 0..{self.nranks - 1}")
        return rank // self.ranks_per_node

    def node_ranks(self, node: int) -> range:
        """The ranks living on ``node`` (a contiguous range)."""
        if not 0 <= node < self.nnodes:
            raise ValueError(f"node {node} outside 0..{self.nnodes - 1}")
        lo = node * self.ranks_per_node
        return range(lo, min(lo + self.ranks_per_node, self.nranks))

    @property
    def cache_key(self) -> tuple:
        """Hashable identity for cost-cache keys."""
        return (self.nranks, self.ranks_per_node)

    def __repr__(self) -> str:
        return (f"Topology(nranks={self.nranks}, "
                f"ranks_per_node={self.ranks_per_node}, "
                f"nnodes={self.nnodes})")

"""Closed-form communication models of Section III.

All volumes are expressed in *tiles sent* (each tile is one
point-to-point message in the Chameleon/StarPU execution model, so the
message count and the volume are proportional — Section II-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..patterns.base import Pattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.topology import Topology

__all__ = [
    "communication_cost",
    "q_lu",
    "q_cholesky",
    "per_node_volume",
    "inter_node_volume",
    "intra_node_volume",
]


def communication_cost(pattern: Pattern, kernel: str) -> float:
    """The pattern-only cost metric ``T(G)`` of Section III-C."""
    return pattern.cost(kernel)


def q_lu(pattern: Pattern, m: int) -> float:
    """Equation 1 — total tiles sent by an LU factorization of an
    ``m × m`` *tile* matrix: ``m(m+1)/2 · (x̄ + ȳ − 2)``."""
    xbar = pattern.mean_row_count
    ybar = pattern.mean_col_count
    return m * (m + 1) / 2.0 * (xbar + ybar - 2.0)


def q_cholesky(pattern: Pattern, m: int) -> float:
    """Equation 2 — total tiles sent by a Cholesky factorization of an
    ``m × m`` tile matrix: ``m(m+1)/2 · (z̄ − 1)`` (square patterns)."""
    return m * (m + 1) / 2.0 * (pattern.mean_colrow_count - 1.0)


def _flat_volume(pattern: Pattern, m: int, kernel: str) -> float:
    """Equation 1 or 2, by kernel name."""
    if kernel == "lu":
        return q_lu(pattern, m)
    if kernel == "cholesky":
        return q_cholesky(pattern, m)
    raise ValueError(f"unknown kernel {kernel!r}; expected 'lu' or 'cholesky'")


def per_node_volume(pattern: Pattern, m: int, kernel: str) -> float:
    """Average tiles sent per node over the whole factorization."""
    return _flat_volume(pattern, m, kernel) / pattern.nnodes


def inter_node_volume(pattern: Pattern, m: int, kernel: str,
                      topology: "Topology") -> float:
    """Tiles crossing *node* boundaries under a two-level topology.

    The closed forms of Equations 1–2 count one message per distinct
    consumer rank beyond the producer.  Replaying them on the node-mapped
    grid counts one message per distinct consumer *node* beyond the
    producer's node: ``m(m+1)/2 · (x̄ₙ + ȳₙ − 2)`` for LU and
    ``m(m+1)/2 · (z̄ₙ − 1)`` for Cholesky, where the barred quantities
    are mean distinct-node counts.  With ``Topology.flat(P)`` this
    equals the flat total exactly.
    """
    if kernel == "lu":
        xn = float(pattern.row_node_counts(topology).mean())
        yn = float(pattern.col_node_counts(topology).mean())
        return m * (m + 1) / 2.0 * (xn + yn - 2.0)
    if kernel == "cholesky":
        zn = float(pattern.colrow_node_counts(topology).mean())
        return m * (m + 1) / 2.0 * (zn - 1.0)
    raise ValueError(f"unknown kernel {kernel!r}; expected 'lu' or 'cholesky'")


def intra_node_volume(pattern: Pattern, m: int, kernel: str,
                      topology: "Topology") -> float:
    """Tiles staying inside a node: flat total minus inter-node volume."""
    return (_flat_volume(pattern, m, kernel)
            - inter_node_volume(pattern, m, kernel, topology))

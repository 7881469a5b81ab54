"""Exact communication counting on a concrete tiled matrix.

The closed forms of Section III (Equations 1–2) neglect edge effects:
domain shrinking during the last ``max(r, c)`` iterations and partial
pattern replication when the tile count is not a multiple of the
pattern size.  This module counts the *actual* number of tile messages
generated by the right-looking LU / Cholesky algorithms under the
owner-computes rule, for a given :class:`~repro.distribution.TileDistribution`.

Both kernels share one pass.  At iteration ``l`` every tile that is
sent is one row of a boolean ``rows × P`` presence matrix: the nodes
owning a tile that reads it, with the tile's own owner cleared.  Every
reader set is the part of one tile row right of column ``l`` or of one
tile column below row ``l``, so the pass runs ``l`` downwards and adds
one owner column and one owner row to those sets per iteration.

The counts returned here are cross-validated in two independent ways:

* against the closed forms (property tests check convergence of the
  relative difference as the matrix grows), and
* against the message log of the distributed numeric executors in
  :mod:`repro.dla` (exact equality — with ``detailed=True`` the
  comparison is tile-for-tile: both sides produce the same multiset of
  ``(src, dst, i, j)`` transfers, not just the same totals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..distribution import TileDistribution

__all__ = ["CommCount", "count_lu_messages", "count_cholesky_messages"]


@dataclass
class CommCount:
    """Message (= tile) counts, broken down by producing kernel."""

    panel: int = 0      #: factorized diagonal tiles sent (GETRF/POTRF results)
    trsm: int = 0       #: solved panel tiles sent (TRSM results, dominant term)
    total: int = 0
    per_iteration: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    per_node_sent: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    per_node_recv: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: full transfer list ``(src, dst, i, j)``; only with ``detailed=True``
    messages: Optional[List[Tuple[int, int, int, int]]] = None

    def __post_init__(self):
        if self.total == 0:
            self.total = self.panel + self.trsm


def _count(dist: TileDistribution, detailed: bool) -> CommCount:
    """The counting pass of both kernels.

    Iteration ``l``'s rows are the diagonal tile ``(l, l)``, then the
    column-panel tiles ``(i, l)``, ``i > l``, then (LU only) the
    row-panel tiles ``(l, j)``, ``j > l``.
    """
    own, n, P = dist.owners, dist.n_tiles, dist.nnodes
    every_row = np.arange(n)
    # right[i, p]: node p owns a tile of row i right of column l;
    # below[j, p]: node p owns a tile of column j below row l
    right = np.zeros((n, P), dtype=bool)
    below = np.zeros((n, P), dtype=bool)
    per_iter = np.zeros(n, dtype=np.int64)
    sent = np.zeros(P, dtype=np.int64)
    recv = np.zeros(P, dtype=np.int64)
    panel = 0
    blocks: List[List[Tuple[int, int, int, int]]] = []
    for l in range(n - 1, -1, -1):
        rows = [right[l:l + 1] | below[l:l + 1], right[l + 1:]]
        src, ti, tj = own[l:, l], np.arange(l, n), np.full(n - l, l)
        if not dist.symmetric:
            rows.append(below[l + 1:])
            src = np.concatenate([src, own[l, l + 1:]])
            ti = np.concatenate([ti, np.full(n - l - 1, l)])
            tj = np.concatenate([tj, np.arange(l + 1, n)])
        pres = np.concatenate(rows)
        pres[np.arange(len(src)), src] = False
        count = pres.sum(axis=1)
        panel += int(count[0])
        per_iter[l] = count.sum()
        np.add.at(sent, src, count)
        recv += pres.sum(axis=0)
        if detailed:
            row, dst = np.nonzero(pres)
            blocks.append(list(zip(src[row].tolist(), dst.tolist(),
                                   ti[row].tolist(), tj[row].tolist())))
        right[every_row, own[:, l]] = True
        below[every_row, own[l]] = True
    messages = [m for block in reversed(blocks) for m in block] \
        if detailed else None
    return CommCount(panel=panel, trsm=int(per_iter.sum()) - panel,
                     per_iteration=per_iter, per_node_sent=sent,
                     per_node_recv=recv, messages=messages)


def count_lu_messages(dist: TileDistribution, detailed: bool = False) -> CommCount:
    """Messages of a right-looking tiled LU ``A = L·U``.

    At iteration ``l`` (0-indexed):

    * the factorized tile ``(l, l)`` is sent to the distinct owners of
      the panel tiles ``(i, l)`` for ``i > l`` and ``(l, j)`` for
      ``j > l`` (TRSM inputs);
    * each column-panel tile ``(i, l)`` is sent to the distinct owners
      of row ``i`` to the right (GEMM inputs ``(i, j)``, ``j > l``);
    * each row-panel tile ``(l, j)`` is sent to the distinct owners of
      column ``j`` below (GEMM inputs ``(i, j)``, ``i > l``).

    ``detailed=True`` also records every transfer as ``(src, dst, i, j)``.
    """
    if dist.symmetric:
        raise ValueError("LU counting requires a non-symmetric distribution")
    return _count(dist, detailed)


def count_cholesky_messages(dist: TileDistribution,
                            detailed: bool = False) -> CommCount:
    """Messages of a right-looking tiled Cholesky ``A = L·Lᵀ``
    (lower triangle stored).

    At iteration ``l``:

    * the factorized tile ``(l, l)`` is sent to the distinct owners of
      the panel tiles ``(i, l)``, ``i > l`` (TRSM inputs);
    * each panel tile ``(i, l)`` is sent to the distinct owners of the
      *colrow* ``i`` of the trailing matrix: tiles ``(i, j)`` for
      ``l < j ≤ i`` and ``(k, i)`` for ``i ≤ k < n`` (SYRK and GEMM
      inputs).  The owner map is mirrored, so that colrow is row ``i``
      right of column ``l``.

    ``detailed=True`` also records every transfer as ``(src, dst, i, j)``.
    """
    if not dist.symmetric:
        raise ValueError("Cholesky counting requires a symmetric distribution")
    return _count(dist, detailed)

"""Tiled right-looking LU factorization (no pivoting).

Mirrors Chameleon's ``dgetrf_nopiv``: at iteration ``k``

* ``GETRF(k,k)`` factorizes the diagonal tile,
* ``TRSM`` solves the column panel ``(i,k) ← (i,k)·U(k,k)⁻¹`` and the
  row panel ``(k,j) ← L(k,k)⁻¹·(k,j)``,
* ``GEMM(i,j) ← (i,j) − (i,k)·(k,j)`` updates the trailing matrix.

Two consumers of the same builder:

* :func:`build_lu_graph` → a :class:`~repro.runtime.graph.TaskGraph`
  for the event-driven simulator;
* :func:`execute_lu` → the actual numeric factorization (optionally
  logging inter-node tile messages when given a distribution), used to
  validate both the algorithm and the communication model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..distribution import TileDistribution
from ..runtime.graph import ColumnFill, TaskGraph, TaskKind
from .kernels import (
    flops_gemm,
    flops_getrf,
    flops_trsm,
    gemm_update,
    getrf_nopiv,
    trsm_left_lower_unit,
    trsm_right_upper,
)
from .tiles import TiledMatrix

__all__ = ["build_lu_graph", "execute_lu", "lu_task_count", "MessageLog"]


@dataclass
class MessageLog:
    """Inter-node tile transfers recorded by a distributed execution.

    ``messages`` (kept only on request) lists every transfer as
    ``(src, dst, i, j)`` — the tile-for-tile record the differential
    conformance tests compare against the analytic counts of
    :mod:`repro.cost.exact`.
    """

    n_messages: int
    per_node_sent: np.ndarray
    per_node_recv: Optional[np.ndarray] = None
    messages: Optional[list] = None

    def __repr__(self) -> str:
        return f"MessageLog(n_messages={self.n_messages})"


def lu_task_count(n: int) -> int:
    """Number of tasks of the tiled LU on ``n × n`` tiles (closed form).

    ``n`` GETRF + ``n(n-1)`` TRSM + ``Σ_k (n-1-k)² = n(n-1)(2n-1)/6``
    GEMM.
    """
    return n + n * (n - 1) + n * (n - 1) * (2 * n - 1) // 6


def build_lu_graph(
    dist: TileDistribution, tile_size: int
) -> Tuple[TaskGraph, np.ndarray]:
    """Build the LU task graph for a distribution.

    Returns the graph and ``data_home`` (initial owner of every tile).

    Every column is allocated once, at its closed-form size
    (:func:`lu_task_count` tasks), and each iteration writes its panel
    and its trailing update into the next slots as whole arrays (no
    per-tile ``submit``).  This yields exactly the task sequence of the
    per-tile reference builder
    (:func:`repro.runtime.objgraph.build_lu_graph_reference`): tile
    ``(i, j)`` is written once per iteration ``k ≤ min(i, j)``, so at
    iteration ``k`` every touched tile moves from version ``k`` to
    ``k + 1``.
    """
    if dist.symmetric:
        raise ValueError("LU requires a non-symmetric distribution")
    n = dist.n_tiles
    fill, own = _column_fill(dist, lu_task_count(n))
    b = tile_size
    f_getrf, f_trsm, f_gemm = flops_getrf(b), flops_trsm(b), flops_gemm(b)

    for k in range(n):
        t = n - k - 1
        r = np.arange(k + 1, n, dtype=np.int32)

        # panel: GETRF(k,k), column TRSM(i,k), row TRSM(k,j)
        c = fill.batch(1 + 2 * t, 1 + 4 * t)
        c["i"][:] = k
        c["i"][1:t + 1] = r
        c["j"][:] = k
        c["j"][t + 1:] = r
        _panel(fill, c, own, n, k, TaskKind.GETRF, f_getrf, f_trsm)

        # trailing update: GEMM(i,j) for i, j > k, i-major like the
        # reference double loop; each reads its tile at k, then (i,k)
        # and (k,j) at k+1
        c = fill.batch(t * t, 3 * t * t)
        c["i"].reshape(t, t)[:] = r[:, None]
        c["j"].reshape(t, t)[:] = r
        _write_tiles(c, own, n, k)
        c["kind"][:] = TaskKind.GEMM
        c["flops"][:] = f_gemm
        c["rc"][:] = 3
        rd = c["rd"].reshape(t, t, 3)
        rd[..., 0] = c["wd"].reshape(t, t)
        rd[..., 1] = (r * n + k)[:, None]
        rd[..., 2] = k * n + r
        c["rv"][:] = k + 1
        c["rv"][::3] = k
        fill.link()
    return fill.graph(), dist.owners.astype(np.int64).reshape(-1)


def _column_fill(dist: TileDistribution,
                 n_tasks: int) -> Tuple[ColumnFill, np.ndarray]:
    """The columns of an LU or Cholesky graph of ``n_tasks`` tasks, and
    the owner of every tile as a flat int32 array.

    Both kernels read alike: one tile per diagonal factorization, two
    per panel TRSM and per SYRK (``n(n-1)`` of them together), three
    per GEMM, so ``3·n_tasks − n(n+1)`` reads in all.
    """
    n = dist.n_tiles
    fill = ColumnFill(n_tasks, 3 * n_tasks - n * (n + 1), n * n,
                      dist.nnodes)
    return fill, dist.owners.astype(np.int32).reshape(-1)


def _write_tiles(c: dict, own: np.ndarray, n: int, k: int) -> None:
    """Fill the writes of batch ``c`` of iteration ``k`` from its ``i``
    and ``j``: datum ``i·n + j`` at version ``k + 1``, on its owner.
    The data ids are in range, so ``take`` may skip its bounds check
    (``mode="clip"``), which would buffer the output."""
    np.multiply(c["i"], n, out=c["wd"])
    c["wd"] += c["j"]
    c["wv"][:] = k + 1
    c["k"][:] = k
    np.take(own, c["wd"], out=c["node"], mode="clip")


def _panel(fill: ColumnFill, c: dict, own: np.ndarray, n: int, k: int,
           diag: TaskKind, f_diag: float, f_trsm: float) -> None:
    """Fill and link panel batch ``c`` of iteration ``k``, whose ``i``
    and ``j`` are set: the factorization of ``(k,k)`` reads that tile at
    ``k``, then each TRSM reads its own tile at ``k`` and ``(k,k)`` at
    ``k + 1``, which the batch's first task writes."""
    _write_tiles(c, own, n, k)
    c["kind"][:] = TaskKind.TRSM
    c["kind"][0] = diag
    c["flops"][:] = f_trsm
    c["flops"][0] = f_diag
    c["rc"][:] = 2
    c["rc"][0] = 1
    c["rd"][:] = k * n + k
    c["rd"][1::2] = c["wd"][1:]
    c["rv"][:] = k
    c["rv"][2::2] = k + 1
    c["rp"][2::2] = fill.link()


def execute_lu(
    matrix: TiledMatrix, dist: Optional[TileDistribution] = None,
    log_messages: bool = False,
) -> Optional[MessageLog]:
    """Run the tiled LU numerically, in place.

    Without a distribution this is a plain sequential tiled LU.  With
    one, the execution additionally simulates the StarPU data cache:
    each produced tile version is "sent" once to every remote node that
    reads it, and the resulting message counts are returned.  The
    numeric result is identical either way.  ``log_messages=True``
    additionally keeps the full ``(src, dst, i, j)`` transfer list.
    """
    n = matrix.n_tiles
    log = _Logger(dist, keep_messages=log_messages) if dist is not None else None
    for k in range(n):
        diag = matrix.tile(k, k)
        getrf_nopiv(diag)
        if log:
            log.produce(k, k)
        for i in range(k + 1, n):
            if log:
                log.consume(k, k, by=(i, k))
            trsm_right_upper(matrix.tile(i, k), diag)
            if log:
                log.produce(i, k)
        for j in range(k + 1, n):
            if log:
                log.consume(k, k, by=(k, j))
            trsm_left_lower_unit(matrix.tile(k, j), diag)
            if log:
                log.produce(k, j)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                if log:
                    log.consume(i, k, by=(i, j))
                    log.consume(k, j, by=(i, j))
                gemm_update(matrix.tile(i, j), matrix.tile(i, k), matrix.tile(k, j))
                if log:
                    log.produce(i, j)
    return log.result() if log else None


class _Logger:
    """Tracks which nodes hold the current version of each tile."""

    def __init__(self, dist: TileDistribution, keep_messages: bool = False):
        self.dist = dist
        self.n_messages = 0
        self.per_node = np.zeros(dist.nnodes, dtype=np.int64)
        self.per_node_recv = np.zeros(dist.nnodes, dtype=np.int64)
        self.messages: Optional[list] = [] if keep_messages else None
        # holders of the *current* version of each tile; producing a new
        # version invalidates all remote copies (StarPU write-invalidate)
        self.holders: dict[tuple[int, int], set[int]] = {}

    def _owner(self, i: int, j: int) -> int:
        return self.dist.owner(i, j)

    def produce(self, i: int, j: int) -> None:
        self.holders[(i, j)] = {self._owner(i, j)}

    def consume(self, i: int, j: int, by: tuple[int, int]) -> None:
        node = self._owner(*by)
        held = self.holders.setdefault((i, j), {self._owner(i, j)})
        if node not in held:
            src = self._owner(i, j)
            self.n_messages += 1
            self.per_node[src] += 1
            self.per_node_recv[node] += 1
            if self.messages is not None:
                self.messages.append((src, node, i, j))
            held.add(node)

    def result(self) -> MessageLog:
        return MessageLog(n_messages=self.n_messages, per_node_sent=self.per_node,
                          per_node_recv=self.per_node_recv, messages=self.messages)

"""Tiled right-looking Cholesky factorization (lower storage).

Mirrors Chameleon's ``dpotrf``: at iteration ``k``

* ``POTRF(k,k)`` factorizes the diagonal tile,
* ``TRSM`` solves the panel ``(i,k) ← (i,k)·L(k,k)⁻ᵀ`` for ``i > k``,
* ``SYRK(i,i) ← (i,i) − (i,k)·(i,k)ᵀ`` updates diagonal tiles,
* ``GEMM(i,j) ← (i,j) − (i,k)·(j,k)ᵀ`` for ``k < j < i`` updates the
  strictly-lower trailing tiles.

Only the lower triangle of the matrix is touched — a panel tile
``(i,k)`` is consumed by the whole *colrow* ``i`` of the trailing
matrix, which is where the symmetric communication savings come from
(Section III-B).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..distribution import TileDistribution
from ..runtime.graph import TaskGraph, TaskKind
from .kernels import (
    flops_gemm,
    flops_potrf,
    flops_syrk,
    flops_trsm,
    gemm_update,
    potrf,
    syrk_update,
    trsm_right_lower_trans,
)
from .lu import MessageLog, _Logger, _column_fill, _panel, _write_tiles
from .tiles import TiledMatrix

__all__ = ["build_cholesky_graph", "execute_cholesky", "cholesky_task_count"]


def cholesky_task_count(n: int) -> int:
    """Number of tasks of the tiled Cholesky on ``n × n`` tiles (closed form).

    ``n`` POTRF + ``n(n-1)/2`` TRSM + ``n(n-1)/2`` SYRK +
    ``Σ_k C(n-1-k, 2) = C(n, 3)`` GEMM.
    """
    return n + n * (n - 1) + n * (n - 1) * (n - 2) // 6


def build_cholesky_graph(
    dist: TileDistribution, tile_size: int
) -> Tuple[TaskGraph, np.ndarray]:
    """Build the Cholesky task graph for a symmetric distribution.

    As in :func:`repro.dla.lu.build_lu_graph`, every column is allocated
    once (:func:`cholesky_task_count` tasks) and each iteration writes
    two batches into it: the panel (POTRF + TRSMs) and the trailing
    update (SYRK/GEMM interleaved i-major, matching the reference
    builder's ``for i: SYRK(i,i); for j<i: GEMM(i,j)`` order).  Every
    lower-triangle tile touched at iteration ``k`` moves from version
    ``k`` to ``k + 1``; panel reads reference ``((i,k), k+1)``.
    """
    if not dist.symmetric:
        raise ValueError("Cholesky requires a symmetric distribution")
    n = dist.n_tiles
    fill, own = _column_fill(dist, cholesky_task_count(n))
    b = tile_size
    f_potrf, f_trsm, f_syrk, f_gemm = (
        flops_potrf(b),
        flops_trsm(b),
        flops_syrk(b),
        flops_gemm(b),
    )

    for k in range(n):
        t = n - k - 1
        r = np.arange(k + 1, n, dtype=np.int32)

        # panel: POTRF(k,k), TRSM(i,k) for i > k
        c = fill.batch(1 + t, 1 + 2 * t)
        c["i"][0] = k
        c["i"][1:] = r
        c["j"][:] = k
        _panel(fill, c, own, n, k, TaskKind.POTRF, f_potrf, f_trsm)

        # trailing update: for each i > k, SYRK(i,i) then GEMM(i,j) for
        # k < j < i; row i holds i - k tasks, its SYRK first.  SYRK
        # reads its tile at k and (i,k) at k+1, GEMM also (j,k) at k+1
        size = np.arange(1, t + 1)
        c = fill.batch(t * (t + 1) // 2, t * (3 * t + 1) // 2)
        syrk = np.cumsum(size) - size
        c["i"][:] = np.repeat(r, size)
        c["j"][:] = np.arange(k, k + len(c["j"])) - np.repeat(syrk, size)
        c["j"][syrk] = r
        _write_tiles(c, own, n, k)
        c["kind"][:] = TaskKind.GEMM
        c["kind"][syrk] = TaskKind.SYRK
        c["flops"][:] = f_gemm
        c["flops"][syrk] = f_syrk
        c["rc"][:] = 3
        c["rc"][syrk] = 2
        pos = np.cumsum(c["rc"]) - c["rc"]
        gemm = c["kind"] == TaskKind.GEMM
        c["rd"][pos] = c["wd"]
        c["rd"][pos + 1] = c["i"] * n + k
        c["rd"][pos[gemm] + 2] = c["j"][gemm] * n + k
        c["rv"][:] = k + 1
        c["rv"][pos] = k
        fill.link()
    return fill.graph(), dist.owners.astype(np.int64).reshape(-1)


def execute_cholesky(
    matrix: TiledMatrix, dist: Optional[TileDistribution] = None,
    log_messages: bool = False,
) -> Optional[MessageLog]:
    """Run the tiled Cholesky numerically, in place (lower triangle).

    After the call the lower triangle of the matrix holds ``L`` with
    ``A = L·Lᵀ``; the strictly-upper triangle is left untouched except
    for diagonal tiles (zeroed above their diagonal by POTRF).  With a
    distribution, inter-node tile messages are logged as in
    :func:`repro.dla.lu.execute_lu` (``log_messages=True`` keeps the
    full transfer list).
    """
    n = matrix.n_tiles
    log = _Logger(dist, keep_messages=log_messages) if dist is not None else None
    for k in range(n):
        diag = matrix.tile(k, k)
        potrf(diag)
        if log:
            log.produce(k, k)
        for i in range(k + 1, n):
            if log:
                log.consume(k, k, by=(i, k))
            trsm_right_lower_trans(matrix.tile(i, k), diag)
            if log:
                log.produce(i, k)
        for i in range(k + 1, n):
            if log:
                log.consume(i, k, by=(i, i))
            syrk_update(matrix.tile(i, i), matrix.tile(i, k))
            if log:
                log.produce(i, i)
            for j in range(k + 1, i):
                if log:
                    log.consume(i, k, by=(i, j))
                    log.consume(j, k, by=(i, j))
                gemm_update(matrix.tile(i, j), matrix.tile(i, k), matrix.tile(j, k),
                            transpose_b=True)
                if log:
                    log.produce(i, j)
    return log.result() if log else None

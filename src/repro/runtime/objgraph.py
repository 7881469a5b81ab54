"""Legacy array-of-objects task graph — the executable reference spec.

Before the columnar refactor, :class:`~repro.runtime.graph.TaskGraph`
stored one frozen :class:`~repro.runtime.graph.Task` dataclass per
kernel call and a ``producer`` dict keyed on ``(data, version)``
tuples.  This module preserves that representation verbatim as
:class:`ObjectTaskGraph`, together with per-tile-submit reference
builders for LU and Cholesky, for two purposes:

* the Hypothesis equivalence suite
  (``tests/runtime/test_columnar_equivalence.py``) asserts the
  vectorized columnar builders emit **task-for-task identical** graphs
  (kind, tile, iteration, node, flops, reads, write) to these
  reference builders;
* ``benchmarks/bench_graph.py`` times the batch builders against these
  per-tile builders on the same machine and inputs.

Nothing in the runtime depends on this module — it is a frozen spec,
not a second implementation to evolve.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .graph import DataRef, Task, TaskKind

__all__ = [
    "ObjectTaskGraph",
    "build_lu_graph_reference",
    "build_cholesky_graph_reference",
]


class ObjectTaskGraph:
    """The pre-refactor array-of-objects DAG (one ``Task`` per submit)."""

    def __init__(self, n_data: int, nnodes: int):
        self.n_data = n_data
        self.nnodes = nnodes
        self.tasks: List[Task] = []
        #: producer task id of each written (data, version)
        self.producer: Dict[DataRef, int] = {}
        self._version: List[int] = [0] * n_data
        self.total_flops = 0.0

    def version(self, data: int) -> int:
        return self._version[data]

    def current(self, data: int) -> DataRef:
        return (data, self._version[data])

    def submit(self, kind, i, j, k, node, flops, reads, write_data) -> Task:
        new_version = self._version[write_data] + 1
        task = Task(tid=len(self.tasks), kind=kind, i=i, j=j, k=k, node=node,
                    flops=flops, reads=reads, write=(write_data, new_version))
        self.tasks.append(task)
        self._version[write_data] = new_version
        self.producer[(write_data, new_version)] = task.tid
        self.total_flops += flops
        return task

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)


def build_lu_graph_reference(dist, tile_size: int) -> Tuple[ObjectTaskGraph, np.ndarray]:
    """The pre-refactor per-tile-submit LU builder, kept verbatim."""
    from ..dla.kernels import flops_gemm, flops_getrf, flops_trsm

    if dist.symmetric:
        raise ValueError("LU requires a non-symmetric distribution")
    n = dist.n_tiles
    own = dist.owners
    graph = ObjectTaskGraph(n_data=n * n, nnodes=dist.nnodes)
    b = tile_size
    f_getrf, f_trsm, f_gemm = flops_getrf(b), flops_trsm(b), flops_gemm(b)

    def d(i: int, j: int) -> int:
        return i * n + j

    for k in range(n):
        dk = d(k, k)
        graph.submit(TaskKind.GETRF, k, k, k, int(own[k, k]), f_getrf,
                     (graph.current(dk),), dk)
        diag_ref = graph.current(dk)
        for i in range(k + 1, n):
            dik = d(i, k)
            graph.submit(TaskKind.TRSM, i, k, k, int(own[i, k]), f_trsm,
                         (graph.current(dik), diag_ref), dik)
        for j in range(k + 1, n):
            dkj = d(k, j)
            graph.submit(TaskKind.TRSM, k, j, k, int(own[k, j]), f_trsm,
                         (graph.current(dkj), diag_ref), dkj)
        col_refs = [graph.current(d(i, k)) for i in range(k + 1, n)]
        row_refs = [graph.current(d(k, j)) for j in range(k + 1, n)]
        for ii, i in enumerate(range(k + 1, n)):
            for jj, j in enumerate(range(k + 1, n)):
                dij = d(i, j)
                graph.submit(TaskKind.GEMM, i, j, k, int(own[i, j]), f_gemm,
                             (graph.current(dij), col_refs[ii], row_refs[jj]), dij)
    data_home = own.reshape(-1).astype(np.int64)
    return graph, data_home


def build_cholesky_graph_reference(dist, tile_size: int) -> Tuple[ObjectTaskGraph, np.ndarray]:
    """The pre-refactor per-tile-submit Cholesky builder, kept verbatim."""
    from ..dla.kernels import flops_gemm, flops_potrf, flops_syrk, flops_trsm

    if not dist.symmetric:
        raise ValueError("Cholesky requires a symmetric distribution")
    n = dist.n_tiles
    own = dist.owners
    graph = ObjectTaskGraph(n_data=n * n, nnodes=dist.nnodes)
    b = tile_size
    f_potrf, f_trsm, f_syrk, f_gemm = (
        flops_potrf(b), flops_trsm(b), flops_syrk(b), flops_gemm(b))

    def d(i: int, j: int) -> int:
        return i * n + j

    for k in range(n):
        dk = d(k, k)
        graph.submit(TaskKind.POTRF, k, k, k, int(own[k, k]), f_potrf,
                     (graph.current(dk),), dk)
        diag_ref = graph.current(dk)
        for i in range(k + 1, n):
            dik = d(i, k)
            graph.submit(TaskKind.TRSM, i, k, k, int(own[i, k]), f_trsm,
                         (graph.current(dik), diag_ref), dik)
        panel_refs = {i: graph.current(d(i, k)) for i in range(k + 1, n)}
        for i in range(k + 1, n):
            dii = d(i, i)
            graph.submit(TaskKind.SYRK, i, i, k, int(own[i, i]), f_syrk,
                         (graph.current(dii), panel_refs[i]), dii)
            for j in range(k + 1, i):
                dij = d(i, j)
                graph.submit(TaskKind.GEMM, i, j, k, int(own[i, j]), f_gemm,
                             (graph.current(dij), panel_refs[i], panel_refs[j]), dij)
    data_home = own.reshape(-1).astype(np.int64)
    return graph, data_home

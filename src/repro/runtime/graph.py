"""Columnar task-graph representation (StarPU-style sequential task flow).

A :class:`TaskGraph` is built by submitting tasks in the sequential
order of the algorithm (exactly how Chameleon submits to StarPU,
Section II-C).  Each task reads a set of *data versions* and writes a
new version of one datum; dependencies are inferred from these
versions, never declared explicitly.  In-place updates (e.g. a GEMM
accumulating into its output tile) read the previous version of the
tile they write, which makes write-after-write ordering a special case
of read-after-write.

Data items are tiles, identified by an integer id; version 0 of every
tile is the initial matrix content, resident on the tile's owner.
Under the owner-computes rule every task runs on the node owning the
tile it writes, so version-0 reads of the written tile are always
local, and inter-node messages happen only for cross-tile reads.

Storage layout
--------------
The graph is stored structure-of-arrays, not array-of-structures: one
NumPy column per task field (``kind``, ``i``, ``j``, ``k``, ``node``,
``flops``, ``write_data``, ``write_version``) plus a CSR layout for the
variable-length read lists (``read_indptr`` into flat ``read_data`` /
``read_version`` / ``read_producer`` columns).  Tasks are appended one
at a time by :meth:`submit` (tests and the small SYRK/GEMM builders).
A builder that knows its size up front (the LU and Cholesky
factorizations) instead fills a :class:`ColumnFill`: every column is
allocated once, written batch by batch, and adopted as it is.

Index columns are int32 (tids, tile coordinates, nodes, data ids,
versions and read offsets), which halves the bytes per task against
int64; :data:`INDEX_LIMIT` is the largest task count, flat-read count
or data id a graph may reach, and every way into a graph checks it.
Code that packs or encodes these columns (priority keys, message
codes) widens to int64 first.

In a sequential task flow a read's producer is its datum's last
writer at that version, so every way into a graph fills
``read_producer`` with the reads (:meth:`submit`, :class:`ColumnFill`,
:meth:`TaskGraph.from_columns`).  Derived indexes are computed once
per finalized graph, vectorized, and cached: the per-datum first
writer (:attr:`first_writer`), each read's consumer
(:attr:`read_task`) and the CSR dependency table
(:meth:`dependencies_csr`).  Every consumer reads the columns;
:meth:`task` materializes one row as a frozen :class:`Task` (for error
messages, tests and exploratory code) and :meth:`dependencies` lists
one task's producers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = ["TaskKind", "Task", "TaskGraph", "DataRef", "GraphColumns",
           "ColumnFill", "INDEX_LIMIT"]

#: A (data_id, version) pair.
DataRef = Tuple[int, int]

#: Largest task count, flat-read count or data id the int32 index
#: columns hold; it also keeps every tid inside the 32-bit tid field of
#: the packed priority keys.
INDEX_LIMIT = int(np.iinfo(np.int32).max)

#: Column dtype per raw chunk key.  Every chunk is stored in these
#: dtypes, so finalization concatenates without casting.
_CHUNK_DTYPES = {
    "kind": np.int8, "i": np.int32, "j": np.int32, "k": np.int32,
    "node": np.int32, "flops": np.float64, "wd": np.int32, "wv": np.int32,
    "rc": np.int32, "rd": np.int32, "rv": np.int32, "rp": np.int32,
}


def _check_index_range(n_tasks: int, n_reads: int, max_data: int) -> None:
    """Raise ``ValueError`` unless a graph of ``n_tasks`` tasks and
    ``n_reads`` flat reads, naming data ids up to ``max_data``, fits the
    int32 index columns."""
    for what, value in (("task count", n_tasks), ("flat read count", n_reads),
                        ("data id", max_data)):
        if value > INDEX_LIMIT:
            raise ValueError(
                f"graph outgrows its int32 index columns: {what} {value} "
                f"would pass the limit {INDEX_LIMIT}")


def _join(parts: List[np.ndarray], dtype) -> np.ndarray:
    """Concatenate one key's chunk arrays; a lone chunk is not copied."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


class TaskKind(IntEnum):
    """Kernel kinds; values double as intra-node scheduling priority
    (lower value = more critical, scheduled first)."""

    GETRF = 0
    POTRF = 1
    TRSM = 2
    SYRK = 3
    GEMM = 4


#: kind value -> kernel name, for array-based consumers (stats, traces)
KIND_NAMES = tuple(k.name for k in TaskKind)


def column_view(a: np.ndarray) -> memoryview:
    """Zero-copy memoryview of a 1-D column that indexes to plain Python
    ints and floats, several times cheaper per item than NumPy scalar
    indexing.  The cast to the dtype's native code also covers columns
    whose buffer format carries a byte order (``np.frombuffer`` at an
    unaligned offset), which a plain memoryview cannot index."""
    a = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("="))
    return memoryview(a).cast("B").cast(a.dtype.char)


@dataclass(frozen=True)
class Task:
    """One tile kernel invocation (materialized view of one row)."""

    tid: int
    kind: TaskKind
    i: int  #: tile row of the written tile
    j: int  #: tile column of the written tile
    k: int  #: iteration (panel index) this task belongs to
    node: int  #: executing node (owner of the written tile)
    flops: float
    reads: Tuple[DataRef, ...]
    write: DataRef

    def __repr__(self) -> str:  # compact for traces
        return f"{self.kind.name}({self.i},{self.j};k={self.k})@{self.node}"


@dataclass(frozen=True)
class GraphColumns:
    """Finalized structure-of-arrays view of a :class:`TaskGraph`.

    All arrays are aligned by task id except the flat read columns,
    which are addressed through ``read_indptr`` (CSR): the reads of
    task ``t`` are ``read_data[read_indptr[t]:read_indptr[t+1]]`` with
    matching ``read_version`` and ``read_producer`` entries, in
    submission (tuple) order.  Every index column is int32 (see
    :data:`INDEX_LIMIT`): 37 bytes per task plus 12 per flat read.
    """

    kind: np.ndarray           #: int8, TaskKind value per task
    i: np.ndarray              #: int32, written-tile row
    j: np.ndarray              #: int32, written-tile column
    k: np.ndarray              #: int32, iteration index
    node: np.ndarray           #: int32, executing node
    flops: np.ndarray          #: float64
    write_data: np.ndarray     #: int32, written datum id
    write_version: np.ndarray  #: int32, version produced
    read_indptr: np.ndarray    #: int32, len n_tasks + 1
    read_data: np.ndarray      #: int32, flat read datum ids
    read_version: np.ndarray   #: int32, flat read versions
    read_producer: np.ndarray  #: int32, producer tid per read, -1 for v0

    @property
    def n_tasks(self) -> int:
        return len(self.kind)


class TaskGraph:
    """An append-only DAG of tile tasks with version-based dependencies,
    stored as columns (see module docstring)."""

    def __init__(self, n_data: int, nnodes: int):
        self.n_data = n_data
        self.nnodes = nnodes
        #: current version of each datum
        self._version = np.zeros(n_data, dtype=np.int32)
        #: each datum's writers in version order (None: not gathered yet)
        self._writers: Optional[Dict[int, List[int]]] = None
        #: finalized column chunks (dicts of arrays), in append order
        self._chunks: List[dict] = []
        #: scalar staging buffers filled by :meth:`submit`
        self._stage: dict = self._empty_stage()
        self._n = 0
        self._n_reads = 0
        self._total_flops = 0.0
        self._gen = 0            #: bumped on every append (cache invalidation)
        self._cols: Optional[GraphColumns] = None
        self._cols_gen = -1
        self._derived: dict = {}

    @staticmethod
    def _empty_stage() -> dict:
        return {key: [] for key in _CHUNK_DTYPES}

    @classmethod
    def from_columns(cls, cat: Dict[str, np.ndarray], n_data: int,
                     nnodes: int, total_flops: float) -> "TaskGraph":
        """Adopt raw columns (a copied graph's, or resize's remaining
        tasks) as a finalized graph.

        ``cat`` uses the internal chunk keys (``kind``/``i``/``j``/``k``/
        ``node``/``flops``/``wd``/``wv``/``rc``/``rd``/``rv``, and the
        read producers ``rp`` if known: else :meth:`producer_for` gives
        them, -1 for a version nobody writes).  Arrays already in the
        column dtypes are adopted **by reference** — they may be
        read-only or unaligned views of a foreign buffer — and others
        are converted.  ``total_flops`` is taken as given: when the
        columns copy an existing graph, pass that graph's sequential
        sum so simulated traces stay byte-identical to its own.  Raises
        ``ValueError`` when the columns outgrow :data:`INDEX_LIMIT`.
        """
        _check_index_range(
            len(cat["kind"]), len(cat["rd"]),
            max(int(np.max(cat["wd"], initial=0)),
                int(np.max(cat["rd"], initial=0))))
        chunk = {key: np.asarray(cat[key], dtype=dtype)
                 for key, dtype in _CHUNK_DTYPES.items() if key in cat}
        rp = chunk.setdefault("rp", np.empty(len(chunk["rd"]), np.int32))
        # versions are dense: the current version is the write count
        g = cls._adopt(chunk, n_data, nnodes, total_flops, np.bincount(
            chunk["wd"], minlength=n_data).astype(np.int32))
        if "rp" not in cat:
            rp[:] = g.producer_for(chunk["rd"], chunk["rv"])
        return g

    @classmethod
    def _adopt(cls, chunk: Dict[str, np.ndarray], n_data: int, nnodes: int,
               total_flops: float, version: np.ndarray) -> "TaskGraph":
        """A finalized graph of one checked chunk, data at ``version``."""
        g = cls(n_data, nnodes)
        g._version, g._chunks, g._gen = version, [chunk], 1
        g._n, g._n_reads = len(chunk["kind"]), len(chunk["rd"])
        g._total_flops = float(total_flops)
        return g

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def version(self, data: int) -> int:
        """Latest version of ``data``."""
        return int(self._version[data])

    def current(self, data: int) -> DataRef:
        """Latest (data, version) reference for ``data``."""
        return (data, int(self._version[data]))

    def submit(
        self,
        kind: TaskKind,
        i: int,
        j: int,
        k: int,
        node: int,
        flops: float,
        reads: Tuple[DataRef, ...],
        write_data: int,
    ) -> Task:
        """Append one task that bumps ``write_data`` to a new version.

        ``reads`` must already include the previous version of
        ``write_data`` when the kernel updates it in place (all
        factorization kernels do).  This is the scalar path, kept for
        tests and the small SYRK/GEMM builders; the factorization
        builders fill a :class:`ColumnFill`.  Raises ``ValueError``,
        before any state changes, when the task would take the graph
        past :data:`INDEX_LIMIT`, names a datum outside ``[0, n_data)``
        or reads a version its datum has not reached.
        """
        _check_index_range(
            self._n + 1, self._n_reads + len(reads),
            max([write_data, *(d for d, _ in reads)]))
        for access, d in (("writes", write_data),
                          *(("reads", d) for d, _ in reads)):
            if not 0 <= d < self.n_data:
                raise ValueError(
                    f"task {TaskKind(kind).name}({i},{j};k={k})@{node}: "
                    f"{access} datum {d} outside [0, {self.n_data})")
        new_version = int(self._version[write_data]) + 1
        tid = self._n
        task = Task(tid=tid, kind=TaskKind(kind), i=i, j=j, k=k, node=node,
                    flops=flops, reads=tuple(reads),
                    write=(write_data, new_version))
        if self._writers is None:   # a new or adopted graph's writers
            writers = self._writers = {}
            for t, d in enumerate(self.columns.write_data.tolist()):
                writers.setdefault(d, []).append(t)
        producers = []
        for d, v in reads:
            if v > self._version[d]:
                raise ValueError(
                    f"task {task}: reads ({d},{v}) before it is produced")
            producers.append(self._writers[d][v - 1] if v > 0 else -1)
        st = self._stage
        st["kind"].append(int(kind))
        st["i"].append(i)
        st["j"].append(j)
        st["k"].append(k)
        st["node"].append(node)
        st["flops"].append(flops)
        st["wd"].append(write_data)
        st["wv"].append(new_version)
        st["rc"].append(len(reads))
        st["rd"].extend(d for d, _ in reads)
        st["rv"].extend(v for _, v in reads)
        st["rp"].extend(producers)
        self._writers.setdefault(write_data, []).append(tid)
        self._version[write_data] = new_version
        self._total_flops = self._total_flops + flops
        self._n += 1
        self._n_reads += len(reads)
        self._gen += 1
        return task

    @property
    def total_flops(self) -> float:
        return self._total_flops

    # ------------------------------------------------------------------
    # finalization and derived indexes
    # ------------------------------------------------------------------
    def _flush_stage(self) -> None:
        st = self._stage
        if not st["kind"]:
            return
        self._chunks.append({key: np.asarray(st[key], dtype=dtype)
                             for key, dtype in _CHUNK_DTYPES.items()})
        self._stage = self._empty_stage()

    @property
    def columns(self) -> GraphColumns:
        """Finalize pending appends and return the column arrays.

        The result is cached until the next append; derived indexes
        hang off the same cache generation.
        """
        if self._cols is not None and self._cols_gen == self._gen:
            return self._cols
        self._flush_stage()
        chunks = self._chunks
        # key by key: each key's chunks are released once joined, so at
        # most one column is held twice
        cat = {key: _join([c.pop(key) for c in chunks], dtype)
               for key, dtype in _CHUNK_DTYPES.items()}
        # later appends re-concatenate against one chunk, not many
        self._chunks = [cat]
        indptr = np.zeros(len(cat["kind"]) + 1, dtype=np.int32)
        np.cumsum(cat["rc"], out=indptr[1:])
        self._cols = GraphColumns(
            kind=cat["kind"], i=cat["i"], j=cat["j"], k=cat["k"],
            node=cat["node"], flops=cat["flops"],
            write_data=cat["wd"], write_version=cat["wv"],
            read_indptr=indptr, read_data=cat["rd"], read_version=cat["rv"],
            read_producer=cat["rp"])
        self._cols_gen = self._gen
        self._derived = {}
        return self._cols

    def _index(self, name: str):
        """Memoized derived index, recomputed when the graph grows."""
        self.columns  # refresh generation / clear stale cache
        val = self._derived.get(name)
        if val is None:
            val = getattr(self, "_compute_" + name)()
            self._derived[name] = val
        return val

    def _compute_writer_index(self):
        """Stable grouping of writes by datum: (order, start, count).

        ``order`` lists task ids sorted by written datum (submission
        order within a datum, so position ``v-1`` in a group is the
        producer of version ``v`` — versions are dense by construction).
        """
        cols = self._cols
        order = np.argsort(cols.write_data, kind="stable")
        count = np.bincount(cols.write_data, minlength=self.n_data)
        start = np.zeros(self.n_data + 1, dtype=np.int64)
        np.cumsum(count, out=start[1:])
        return order, start, count

    def _compute_first_writer(self):
        """Per-datum tid of the first writer, -1 for never-written data."""
        cols = self._cols
        fw = np.full(self.n_data, -1, dtype=np.int64)
        tids = np.arange(len(cols.write_data), dtype=np.int64)
        # reversed assignment: the first (lowest-tid) write wins
        fw[cols.write_data[::-1]] = tids[::-1]
        return fw

    @property
    def first_writer(self) -> np.ndarray:
        """``first_writer[d]`` = tid of the first task writing datum
        ``d``, or -1 (the precomputed first-writer / data-home index)."""
        return self._index("first_writer")

    def _compute_read_task(self):
        counts = np.diff(self._cols.read_indptr)
        return np.repeat(np.arange(len(counts), dtype=np.int32), counts)

    @property
    def read_task(self) -> np.ndarray:
        """Consumer task id of every flat read entry (int32)."""
        return self._index("read_task")

    def producer_for(self, data: np.ndarray, version: np.ndarray) -> np.ndarray:
        """Vectorized producer lookup: tid of the task writing each
        ``(data, version)``, or -1 (version 0 / never produced)."""
        order, start, count = self._index("writer_index")
        data = np.asarray(data, dtype=np.int64)
        version = np.asarray(version, dtype=np.int64)
        valid = (version >= 1) & (version <= count[data])
        idx = np.where(valid, start[data] + version - 1, 0)
        return np.where(valid, order[idx], -1)

    def _compute_dependencies_csr(self):
        cols = self._cols
        rp = cols.read_producer
        has = rp >= 0
        dep_flat = rp[has]
        counts = np.bincount(self.read_task[has], minlength=len(cols.kind))
        indptr = np.zeros(len(cols.kind) + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        return indptr, dep_flat

    def dependencies_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR dependency table ``(indptr, dep_tids)``, both int32: the
        producers of task ``t``'s reads are
        ``dep_tids[indptr[t]:indptr[t+1]]``, in read order (version-0
        reads contribute no entry)."""
        return self._index("dependencies_csr")

    # ------------------------------------------------------------------
    # per-task reads
    # ------------------------------------------------------------------
    def task(self, tid: int) -> Task:
        """Materialize one task row as a frozen :class:`Task`."""
        cols = self.columns
        s, e = int(cols.read_indptr[tid]), int(cols.read_indptr[tid + 1])
        reads = tuple(zip(cols.read_data[s:e].tolist(),
                          cols.read_version[s:e].tolist()))
        return Task(
            tid=tid,
            kind=TaskKind(int(cols.kind[tid])),
            i=int(cols.i[tid]),
            j=int(cols.j[tid]),
            k=int(cols.k[tid]),
            node=int(cols.node[tid]),
            flops=float(cols.flops[tid]),
            reads=reads,
            write=(int(cols.write_data[tid]), int(cols.write_version[tid])),
        )

    def task_label(self, tid: int) -> str:
        """Compact trace label, identical to ``repr(graph.task(tid))``
        but built straight from the columns."""
        return self.task_labeler()(tid)

    def task_labeler(self) -> Callable[[int], str]:
        """:meth:`task_label` as a function, for labelling many tasks.

        It reads :func:`column_view` views of the columns, so no label
        table is built.  Valid until the graph grows.
        """
        cols = self.columns
        kind, i, j, k, node = (column_view(a) for a in (
            cols.kind, cols.i, cols.j, cols.k, cols.node))

        def label(tid: int) -> str:
            return (f"{KIND_NAMES[kind[tid]]}({i[tid]},{j[tid]};"
                    f"k={k[tid]})@{node[tid]}")
        return label

    def __len__(self) -> int:
        return self._n

    def dependencies(self, task: Union[Task, int]) -> List[int]:
        """Task ids this task waits for (producers of its read versions)."""
        tid = task.tid if isinstance(task, Task) else int(task)
        indptr, dep_flat = self.dependencies_csr()
        return dep_flat[indptr[tid]:indptr[tid + 1]].tolist()

    # ------------------------------------------------------------------
    # graph-level queries (vectorized)
    # ------------------------------------------------------------------
    def message_count(self) -> int:
        """Number of inter-node messages the graph induces: one per
        (data version, remote consumer node) pair — StarPU caches a
        received version and never re-fetches it.

        One grouping pass over the read columns gives the pairs, and
        :attr:`first_writer` the version-0 homes.
        """
        cols = self.columns
        if not cols.read_data.size:
            return 0
        # one int64 ((data·M)+version)·Pn + consumer_node code per read
        M = int(cols.read_version.max()) + 1
        Pn = max(self.nnodes, int(cols.node.max()) + 1)
        uniq = np.unique((cols.read_data.astype(np.int64) * M
                          + cols.read_version) * Pn
                         + cols.node[self.read_task])
        con_node = uniq % Pn
        ref = uniq // Pn
        data = ref // M
        ver = ref % M
        prod = self.producer_for(data, ver)
        fw = self.first_writer
        fw_node = np.where(fw >= 0, cols.node[np.where(fw >= 0, fw, 0)], -1)
        home = np.where(prod >= 0, cols.node[np.where(prod >= 0, prod, 0)],
                        fw_node[data])
        return int(np.count_nonzero((home >= 0) & (con_node != home)))

    def validate(self) -> None:
        """Structural sanity: versions are dense, producers exist,
        every read refers to a version that exists when the task runs."""
        cols = self.columns
        order, start, count = self._index("writer_index")
        # dense versions: within each datum group (submission order),
        # the written versions must be 1, 2, 3, ...
        expected = np.empty(len(order), dtype=np.int64)
        expected[order] = np.arange(len(order)) - start[cols.write_data[order]] + 1
        wrong = np.flatnonzero(cols.write_version != expected)
        if wrong.size:
            tid = int(wrong[0])
            raise ValueError(
                f"task {self.task(tid)}: writes version "
                f"{int(cols.write_version[tid])}, expected {int(expected[tid])}")
        # reads: version 0 always exists; version v > 0 must have a
        # producer that was submitted strictly earlier
        rp = cols.read_producer
        rt = self.read_task
        bad_read = (cols.read_version > 0) & ((rp < 0) | (rp >= rt))
        if np.any(bad_read):
            idx = int(np.flatnonzero(bad_read)[0])
            tid = int(rt[idx])
            raise ValueError(
                f"task {self.task(tid)}: reads ({int(cols.read_data[idx])},"
                f"{int(cols.read_version[idx])}) before it is produced")


class ColumnFill:
    """The raw columns of a graph whose size is known up front, filled
    in submission order, one batch at a time.

    The totals are checked against :data:`INDEX_LIMIT` (data ids run
    below ``n_data``) before anything is allocated; then each column is
    allocated once, in its dtype.  :meth:`batch` hands out views of the
    next slots, which the caller must overwrite entirely, ``rp`` by
    :meth:`link`; :meth:`graph` adopts the filled columns by reference.
    """

    def __init__(self, n_tasks: int, n_reads: int, n_data: int,
                 nnodes: int):
        _check_index_range(n_tasks, n_reads, n_data - 1)
        self.n_data = n_data
        self.nnodes = nnodes
        self._cols = {key: np.empty(n_reads if key in ("rd", "rv", "rp")
                                    else n_tasks, dtype=dtype)
                      for key, dtype in _CHUNK_DTYPES.items()}
        #: tid of each datum's last writer so far, -1 for none
        self._last = np.full(n_data, -1, dtype=np.int32)
        self._t = self._r = self._t0 = self._r0 = 0

    def batch(self, n_tasks: int, n_reads: int) -> Dict[str, np.ndarray]:
        """Views of the next ``n_tasks`` task slots and ``n_reads`` flat
        read slots, under the raw column keys."""
        t, r = self._t0, self._r0 = self._t, self._r
        self._t, self._r = t + n_tasks, r + n_reads
        return {key: a[r:self._r] if key in ("rd", "rv", "rp")
                else a[t:self._t] for key, a in self._cols.items()}

    def link(self) -> int:
        """Fill the read producers of the last batch, whose reads and
        writes are set, from each datum's last writer before the batch
        (-1: none); then its tasks become the last writers of the data
        they write, once each.  Returns the batch's first tid: a read of
        a version the batch itself writes is the caller's to name.
        ``clip`` skips a bounds check that would buffer the output."""
        t, r, cols = self._t0, self._r0, self._cols
        np.take(self._last, cols["rd"][r:self._r], out=cols["rp"][r:self._r],
                mode="clip")
        self._last[cols["wd"][t:self._t]] = np.arange(t, self._t,
                                                      dtype=np.int32)
        return t

    def graph(self) -> TaskGraph:
        """The filled columns as a graph; ``total_flops`` is their
        sequential sum in submission order (``cumsum`` chains left to
        right, unlike ``np.sum``'s pairwise reduction), as
        :meth:`TaskGraph.submit` accumulates it."""
        cols = self._cols
        if (self._t, self._r) != (len(cols["kind"]), len(cols["rd"])):
            raise ValueError(
                f"filled {self._t} tasks and {self._r} reads of "
                f"{len(cols['kind'])} and {len(cols['rd'])}")
        flops = cols["flops"]
        total = float(np.cumsum(flops)[-1]) if flops.size else 0.0
        written = self._last >= 0
        version = np.zeros(self.n_data, dtype=np.int32)
        version[written] = cols["wv"][self._last[written]]
        return TaskGraph._adopt(cols, self.n_data, self.nnodes, total,
                                version)

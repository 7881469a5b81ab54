"""Disk-backed pattern store: sharded cold tier + LRU hot tier.

The paper's conclusion proposes shipping "a database containing, for
each possible value of P, a very efficient pattern".  This module is
that database's one on-disk form and its only reader and writer: the
P = 2..44 tables shipped in ``repro/data``
(:func:`repro.patterns.library.load_shipped_database`) are four of its
shards, and a scheduler service warms and serves any other P from a
store directory of its own.

**The key.**  A pattern is filed under the key of
:func:`~repro.patterns.library.best_pattern`: ``(kernel, family, P,
budget)``, where ``family`` is a registered family or ``"best"`` (the
per-kernel default) and ``budget`` is the search budget ``(seed count,
max_factor, prune)`` of :func:`~repro.patterns.library.search_budget`.
Two budgets never share a shard file or a hot-tier slot, so a store
warmed at one budget never serves another.

**Cold tier — columnar npz shards.**  Patterns are grouped by P-range
into compressed ``.npz`` files, one shard per :data:`SHARD_SIZE`
consecutive node counts, named after the rest of the key:
``{kernel}-{family}-s{seeds}-f{max_factor}-{prune|noprune}-p{lo}-{hi}.npz``,
e.g. ``cholesky-best-s20-f6.0-prune-p000033-000064.npz``.  Files whose
names match no key (such as shards written before the budget joined
the key) are ignored.  A shard stores every grid flattened into one
``cells`` array plus ``offsets`` / ``nrows`` / ``ncols`` / ``nnodes`` /
``names`` columns — the same structure-of-arrays layout as the
columnar task graphs.  Writes are atomic (temp file + ``os.replace``)
and leave the file with the mode a plain ``open()`` would give it, and
every load failure — missing arrays, inconsistent offsets, truncated or
corrupt zip data — raises :class:`~repro.patterns.base.PatternError`
naming the shard path.

**Hot tier — in-process LRU.**  Lookups go through a
:class:`~repro.cost.cache.CostCache` keyed ``(kernel, family, P,
budget)``, so a service hitting the same P repeatedly never touches
disk.  Hit / miss / eviction counters are exact
(:meth:`PatternStore.stats`).

**Batched lookup + pool fallback.**  :meth:`PatternStore.patterns_for`
serves a whole ``P_array`` at one seed count (factor 6, pruned): hot
tier, then shards, then — for store misses — live
:func:`~repro.patterns.library.best_pattern` calls fanned out on the
same executors as the GCR&M search (:mod:`repro.patterns.search`),
filed in the store as they arrive.  Each fallback task is a pure
function of its key, and results are merged back in input order, so
the output is independent of ``jobs``, as a search's winner is.

:func:`repro.patterns.library.best_pattern` accepts ``store=`` to make
any call site read-through, and ``python -m repro store
precompute|query|stats`` exposes warming, lookup and the shard
inventory on the command line.
"""

from __future__ import annotations

import os
import re
import uuid
import zipfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cost.cache import CacheInfo, CostCache
from .base import Pattern, PatternError
from .io import pattern_from_arrays
from .library import BEST_FAMILY, KERNELS, best_pattern, search_budget
from .search import auto_executor, chunk_tasks

__all__ = ["PatternStore", "StoreStats", "SHARD_VERSION", "SHARD_SIZE",
           "read_shard", "shard_stem"]

#: On-disk shard format version (bumped on incompatible layout changes).
SHARD_VERSION = 1

#: Node counts per shard file, in every store on disk.
SHARD_SIZE = 32

#: Budget of a default search: 20 seeds, factor 6, pruned.
DEFAULT_BUDGET = search_budget()

Budget = Tuple[int, float, bool]

#: A shard's file name, the inverse of :func:`shard_stem` plus its span.
_SHARD_NAME = re.compile(r"([a-z]+)-(\w+)-s(\d+)-f(\d+\.\d+)-(prune|noprune)"
                         r"-p\d+-\d+\.npz")


def shard_stem(kernel: str, family: str, budget: Budget) -> str:
    """File-name stem of every shard of one key, e.g.
    ``cholesky-best-s20-f6.0-prune``."""
    seeds, max_factor, prune = budget
    return (f"{kernel}-{family}-s{int(seeds)}-f{float(max_factor)!r}-"
            f"{'prune' if prune else 'noprune'}")


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of store effectiveness counters.

    ``hot_hits`` / ``cold_hits`` / ``misses`` partition the ``get``
    calls: served from the LRU, served from a shard (and promoted), or
    absent from both tiers.  ``hot`` is the LRU's own
    :class:`~repro.cost.cache.CacheInfo` (its ``misses`` also count
    lookups that went on to hit a shard).
    """

    hot_hits: int
    cold_hits: int
    misses: int
    fallbacks: int
    shards_read: int
    shards_written: int
    hot: CacheInfo

    @property
    def hit_rate(self) -> float:
        total = self.hot_hits + self.cold_hits + self.misses
        return (self.hot_hits + self.cold_hits) / total if total else 0.0


# ---------------------------------------------------------------------------
# live fallback (module-level: must be picklable for the process pool)
# ---------------------------------------------------------------------------
def _compute_pattern_chunk(
    args: Tuple[str, str, int, List[int]],
) -> List[Tuple[int, Pattern]]:
    """Worker body: build one chunk of patterns."""
    kernel, family, budget, Ps = args
    fam = None if family == BEST_FAMILY else family
    return [(P, best_pattern(P, kernel, fam, seeds=range(budget), jobs=1))
            for P in Ps]


class PatternStore:
    """Sharded on-disk pattern database with an LRU hot tier.

    Parameters
    ----------
    root:
        Directory holding the shard files (created by the first write;
        opening a store creates nothing).
    hot_maxsize:
        Capacity of the in-process LRU (0 disables the hot tier).
    """

    def __init__(self, root: Union[str, Path], hot_maxsize: int = 256):
        self.root = Path(root)
        self.hot = CostCache(maxsize=hot_maxsize)
        self._hot_hits = 0
        self._cold_hits = 0
        self._misses = 0
        self._fallbacks = 0
        self._shards_read = 0
        self._shards_written = 0

    # ------------------------------------------------------------------
    # shard addressing
    # ------------------------------------------------------------------
    def shard_span(self, P: int) -> Tuple[int, int]:
        """Inclusive ``[lo, hi]`` node-count range of ``P``'s shard."""
        if P < 1:
            raise ValueError(f"node count must be >= 1, got P={P}")
        lo = ((P - 1) // SHARD_SIZE) * SHARD_SIZE + 1
        return lo, lo + SHARD_SIZE - 1

    def shard_path(self, P: int, kernel: str, family: str = BEST_FAMILY,
                   budget: Budget = DEFAULT_BUDGET) -> Path:
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
        lo, hi = self.shard_span(P)
        return self.root / (f"{shard_stem(kernel, family, budget)}"
                            f"-p{lo:06d}-{hi:06d}.npz")

    def shards(self) -> Dict[Tuple[str, str, Budget], List[Path]]:
        """Every shard file on disk, by key ``(kernel, family, budget)``,
        in P order (the inverse of :meth:`shard_path`'s naming).  Lists
        names only: no shard is opened and no counter moves."""
        out: Dict[Tuple[str, str, Budget], List[Path]] = {}
        for path in sorted(self.root.glob("*.npz")):
            m = _SHARD_NAME.fullmatch(path.name)
            if m:
                budget = (int(m[3]), float(m[4]), m[5] == "prune")
                out.setdefault((m[1], m[2], budget), []).append(path)
        return out

    def budgets(self, kernel: str, family: str = BEST_FAMILY) -> List[Budget]:
        """Every search budget with a shard on disk for ``kernel`` and
        ``family``."""
        return sorted(b for k, f, b in self.shards() if (k, f) == (kernel, family))

    # ------------------------------------------------------------------
    # single-pattern interface
    # ------------------------------------------------------------------
    def get(self, P: int, kernel: str = "cholesky",
            family: str = BEST_FAMILY,
            budget: Budget = DEFAULT_BUDGET) -> Optional[Pattern]:
        """Look up one pattern: hot tier, then shard; ``None`` on miss.

        A shard hit promotes the pattern into the hot tier.
        """
        key = (kernel, family, int(P), tuple(budget))
        pat = self.hot.get(key)
        if pat is not None:
            self._hot_hits += 1
            return pat
        path = self.shard_path(P, kernel, family, budget)
        if not path.exists():
            self._misses += 1
            return None
        pat = self._read_shard(path).get(int(P))
        if pat is None:
            self._misses += 1
            return None
        self._cold_hits += 1
        self.hot.put(key, pat)
        return pat

    def put(self, pattern: Pattern, P: int, kernel: str = "cholesky",
            family: str = BEST_FAMILY, budget: Budget = DEFAULT_BUDGET) -> None:
        """Insert/overwrite one pattern (rewrites its shard atomically)."""
        self.put_many({int(P): pattern}, kernel=kernel, family=family,
                      budget=budget)

    def put_many(self, patterns: Dict[int, Pattern], kernel: str = "cholesky",
                 family: str = BEST_FAMILY,
                 budget: Budget = DEFAULT_BUDGET) -> List[Path]:
        """Merge a ``{P: pattern}`` batch into the store, shard by shard.

        Each affected shard is read (if present), merged, and rewritten
        atomically; every inserted pattern is also promoted into the
        hot tier.  Returns the written shard paths.
        """
        by_shard: Dict[Path, Dict[int, Pattern]] = {}
        for P, pat in patterns.items():
            by_shard.setdefault(self.shard_path(P, kernel, family, budget),
                                {})[int(P)] = pat
        written: List[Path] = []
        for path, batch in sorted(by_shard.items()):
            entries = self._read_shard(path) if path.exists() else {}
            entries.update(batch)
            self._write_shard(path, entries)
            written.append(path)
        for P, pat in patterns.items():
            self.hot.put((kernel, family, int(P), tuple(budget)), pat)
        return written

    # ------------------------------------------------------------------
    # batched interface
    # ------------------------------------------------------------------
    def patterns_for(
        self,
        P_array: Sequence[int],
        kernel: str = "cholesky",
        budget: int = 20,
        *,
        family: str = BEST_FAMILY,
        jobs: Optional[int] = 1,
    ) -> List[Pattern]:
        """Serve a batch of node counts; results align with ``P_array``.

        Hot tier first, then shards, under the key of
        ``best_pattern(P, kernel, family, seeds=range(budget))``; the
        remaining misses are built live by that call, fanned out over
        ``jobs`` worker processes, and filed under that key, as
        ``best_pattern(store=)`` does.  Each fallback task is
        deterministic in its key, misses are dispatched in sorted-P
        order, and results are merged by P — so the returned patterns
        are independent of ``jobs``.  :meth:`stats` counts the live
        builds (``fallbacks``) and the shards they were filed in
        (``shards_written``).
        """
        Ps = [int(P) for P in P_array]
        if not Ps:
            raise ValueError("P_array must not be empty")
        bad = sorted({P for P in Ps if P < 1})
        if bad:
            raise ValueError(f"node counts must be >= 1, got {bad}")
        dups = sorted(P for P, n in Counter(Ps).items() if n > 1)
        if dups:
            raise ValueError(f"duplicate node counts in batch: {dups}")
        if budget < 1:
            raise ValueError(f"search budget must be >= 1, got {budget}")
        key = dict(kernel=kernel, family=family,
                   budget=search_budget(range(budget)))
        found: Dict[int, Pattern] = {}
        for P in Ps:
            pat = self.get(P, **key)
            if pat is not None:
                found[P] = pat
        missing = sorted(P for P in Ps if P not in found)
        if missing:
            self._fallbacks += len(missing)
            computed = self._compute_live(missing, kernel, family,
                                          budget, jobs)
            self.put_many(computed, **key)
            found.update(computed)
        return [found[P] for P in Ps]

    def stats(self) -> StoreStats:
        return StoreStats(self._hot_hits, self._cold_hits, self._misses,
                          self._fallbacks, self._shards_read,
                          self._shards_written, self.hot.cache_info())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _compute_live(self, Ps: List[int], kernel: str, family: str,
                      budget: int, jobs: Optional[int]) -> Dict[int, Pattern]:
        executor = auto_executor(len(Ps), jobs)
        try:
            chunks = chunk_tasks(Ps, executor.jobs)
            results = executor.map(
                _compute_pattern_chunk,
                [(kernel, family, budget, c) for c in chunks])
        finally:
            executor.close()
        return {P: pat for chunk_result in results for P, pat in chunk_result}

    def _write_shard(self, path: Path, entries: Dict[int, Pattern]) -> None:
        Ps = np.array(sorted(entries), dtype=np.int64)
        pats = [entries[int(P)] for P in Ps]
        nrows = np.array([p.nrows for p in pats], dtype=np.int64)
        ncols = np.array([p.ncols for p in pats], dtype=np.int64)
        nnodes = np.array([p.nnodes for p in pats], dtype=np.int64)
        offsets = np.zeros(len(pats) + 1, dtype=np.int64)
        np.cumsum(nrows * ncols, out=offsets[1:])
        cells = np.concatenate([p.grid.ravel() for p in pats]).astype(np.int64)
        names = np.array([p.name for p in pats], dtype=np.str_)
        meta = np.array([SHARD_VERSION], dtype=np.int64)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{uuid.uuid4().hex}.tmp")
        # 0o666 under the umask: the mode a plain open() gives, so other
        # accounts can read the store (mkstemp would give 0o600)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, meta=meta, Ps=Ps, nrows=nrows,
                                    ncols=ncols, nnodes=nnodes,
                                    offsets=offsets, cells=cells, names=names)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._shards_written += 1

    def _read_shard(self, path: Path) -> Dict[int, Pattern]:
        self._shards_read += 1
        return read_shard(path)


def read_shard(path: Union[str, Path]) -> Dict[int, Pattern]:
    """Load one shard as ``{P: pattern}``, validating its layout; every
    failure raises :class:`PatternError` naming the path."""
    try:
        with np.load(path, allow_pickle=False) as z:
            return _decode_shard(path, z)
    except PatternError:
        raise
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile) as exc:
        raise PatternError(f"{path}: unreadable shard: {exc}") from None


def _decode_shard(path, z) -> Dict[int, Pattern]:
    for key in ("meta", "Ps", "nrows", "ncols", "nnodes",
                "offsets", "cells", "names"):
        if key not in z.files:
            raise PatternError(f"{path}: shard missing array {key!r}")
    meta = z["meta"]
    if meta.size < 1 or int(meta[0]) != SHARD_VERSION:
        raise PatternError(
            f"{path}: unsupported shard version "
            f"{meta[0] if meta.size else '?'} (expected {SHARD_VERSION})")
    Ps, nrows, ncols = z["Ps"], z["nrows"], z["ncols"]
    nnodes, offsets, cells, names = (z["nnodes"], z["offsets"],
                                     z["cells"], z["names"])
    n = Ps.size
    if len(np.unique(Ps)) != n:
        raise PatternError(f"{path}: duplicate node counts in shard")
    for arr, label in ((nrows, "nrows"), (ncols, "ncols"),
                       (nnodes, "nnodes"), (names, "names")):
        if arr.size != n:
            raise PatternError(
                f"{path}: array {label!r} has {arr.size} entries, "
                f"expected {n}")
    if offsets.size != n + 1 or (n and offsets[0] != 0) \
            or np.any(np.diff(offsets) < 0):
        raise PatternError(f"{path}: inconsistent shard offsets")
    if n and int(offsets[-1]) != cells.size:
        raise PatternError(
            f"{path}: cell array has {cells.size} entries, offsets "
            f"expect {int(offsets[-1])}")
    out: Dict[int, Pattern] = {}
    for k in range(n):
        P = int(Ps[k])
        out[P] = pattern_from_arrays(
            cells[int(offsets[k]):int(offsets[k + 1])],
            int(nrows[k]), int(ncols[k]), int(nnodes[k]),
            name=str(names[k]), context=f"{path}[P={P}]")
    return out

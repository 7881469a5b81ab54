"""Parallel search engine for randomized pattern construction.

The paper's GCR&M evaluation protocol (Section V) scores every feasible
pattern size ``r ≤ 6√P`` with a budget of random seeds and keeps the
cheapest pattern — an embarrassingly parallel sweep.  The sweep itself
is :func:`repro.patterns.gcrm.gcrm_search`; this module supplies the
machinery underneath it:

* **Executors** — a minimal serial / process-pool abstraction.
  :func:`auto_executor` picks one by workload size: small sweeps are not
  worth the fork+IPC overhead and stay in-process.
* **Chunking** — tasks ship to workers in batches
  (:func:`chunk_tasks`), one per worker, to amortize per-call pickling
  and process startup.
* **The report** — :class:`SearchReport` records what a sweep did: one
  :class:`TaskOutcome` per evaluated ``(r, seed)`` task, the sizes
  evaluated and pruned, and the winner.

Every task's seed is one of the caller's integer seeds, used as given,
so the stream a task sees never depends on scheduling and parallel and
serial runs return bit-identical winners.  Pruning is decided on size
boundaries only, and :meth:`SearchReport.reduce` scans outcomes in task
order, so the winner is the same for every ``jobs`` value.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

__all__ = [
    "AUTO_SERIAL_THRESHOLD",
    "TaskOutcome",
    "SearchReport",
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_jobs",
    "auto_executor",
    "chunk_tasks",
]

#: Below this many tasks an auto-selected executor stays serial: the
#: fork + pickle overhead of a pool exceeds the work itself.
AUTO_SERIAL_THRESHOLD = 64


@dataclass(frozen=True)
class TaskOutcome:
    """Compact result of one task, cheap to ship between processes."""

    index: int  #: position in the flat ``sizes × seeds`` task list
    r: int
    cost: float
    uses_all_nodes: bool


@dataclass
class SearchReport:
    """What the search actually did — attached to the returned result."""

    best_index: Optional[int]
    best_cost: float
    jobs: int
    sizes_evaluated: List[int] = field(default_factory=list)
    sizes_pruned: List[int] = field(default_factory=list)
    n_tasks_total: int = 0
    n_tasks_evaluated: int = 0
    outcomes: List[TaskOutcome] = field(default_factory=list)

    @property
    def pruned(self) -> bool:
        return bool(self.sizes_pruned)

    def reduce(self) -> None:
        """Set the winner: ``outcomes`` (kept in task order) scanned in
        order, only patterns that use all nodes, and a new winner must
        be cheaper by more than ``1e-12`` — so ties keep the earliest
        task."""
        best_index, best_cost = None, float("inf")
        for o in self.outcomes:
            if not o.uses_all_nodes:
                continue
            if best_index is None or o.cost < best_cost - 1e-12:
                best_index, best_cost = o.index, o.cost
        self.best_index = best_index
        self.best_cost = best_cost


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------
class SerialExecutor:
    """Run chunks in-process; the ``jobs=1`` reference path."""

    jobs = 1

    def map(self, fn: Callable, args: Sequence) -> list:
        return [fn(a) for a in args]

    def close(self) -> None:
        pass


class ProcessExecutor:
    """``concurrent.futures.ProcessPoolExecutor`` wrapper (order-preserving)."""

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError(f"ProcessExecutor needs jobs >= 2, got {jobs}")
        self.jobs = jobs
        self._pool = ProcessPoolExecutor(max_workers=jobs)

    def map(self, fn: Callable, args: Sequence) -> list:
        return list(self._pool.map(fn, args))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request: ``None``/``0`` mean "auto" (CPU count)."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return jobs


def auto_executor(n_tasks: int, jobs: Optional[int] = 1):
    """Pick an executor for ``n_tasks``.

    Explicit ``jobs >= 2`` always yields a process pool (the determinism
    tests rely on exercising the parallel path even on one core);
    ``jobs in (None, 0)`` auto-selects — serial for small sweeps or
    single-core machines, a pool otherwise.
    """
    auto = jobs is None or jobs == 0
    resolved = resolve_jobs(jobs)
    if resolved == 1 or (auto and n_tasks < AUTO_SERIAL_THRESHOLD):
        return SerialExecutor()
    return ProcessExecutor(resolved)


def chunk_tasks(tasks: Sequence, jobs: int) -> List[list]:
    """Split ``tasks`` into order-preserving batches, one per worker.

    Tasks inside a group share the same pattern size, so their
    durations are near-uniform and fewer, larger chunks minimize
    pickling/dispatch roundtrips.
    """
    size = max(1, math.ceil(len(tasks) / max(1, jobs)))
    return [list(tasks[i:i + size]) for i in range(0, len(tasks), size)]

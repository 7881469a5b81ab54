"""Parallel search engine for randomized pattern construction.

The paper's GCR&M evaluation protocol (Section V) scores every feasible
pattern size ``r ≤ 6√P`` with a budget of random seeds and keeps the
cheapest pattern — an embarrassingly parallel sweep that
:func:`repro.patterns.gcrm.gcrm_search` historically ran serially.
This module supplies the engine underneath it:

* **Executors** — a minimal serial / process-pool abstraction.
  :func:`auto_executor` picks one by workload size: small sweeps are not
  worth the fork+IPC overhead and stay in-process.
* **Deterministic seeding** — per-task generators are derived with
  :meth:`numpy.random.SeedSequence.spawn` from one root seed, so the
  stream a task sees depends only on its position in the task list,
  never on scheduling.  Parallel and serial runs therefore return
  bit-identical winners.
* **Chunking** — tasks ship to workers in batches
  (:func:`chunk_tasks`) to amortize per-call pickling and process
  startup.
* **Pruning** — candidate sizes are evaluated in increasing order; once
  the running best is within ``prune_tol`` of the empirical cost floor
  (``√(3P/2)`` for GCR&M, Section V-B) the remaining, larger — and more
  expensive — sizes are skipped.  The pruning decision is made on group
  boundaries only, so it is identical for every ``jobs`` value.

The reduction replicates the legacy serial semantics exactly: outcomes
are scanned in task order and a candidate replaces the incumbent only
when it is cheaper by more than ``1e-12``, so ties keep the earliest
task.  Workers return compact ``(cost, uses_all_nodes)`` outcomes; the
single winning pattern is rebuilt in the parent from its task seed,
which avoids shipping pattern grids through IPC and is bit-identical by
the seeding scheme above.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "AUTO_SERIAL_THRESHOLD",
    "SearchTask",
    "TaskOutcome",
    "SearchReport",
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_jobs",
    "auto_executor",
    "chunk_tasks",
    "spawn_task_seeds",
    "run_search",
]

#: Below this many tasks an auto-selected executor stays serial: the
#: fork + pickle overhead of a pool exceeds the work itself.
AUTO_SERIAL_THRESHOLD = 64

#: Seed material accepted for one task: a legacy integer seed, a spawned
#: :class:`numpy.random.SeedSequence`, or ``None`` (OS entropy).
SeedLike = Union[int, None, np.random.SeedSequence]


@dataclass(frozen=True)
class SearchTask:
    """One (pattern size, seed) evaluation in the sweep."""

    index: int  #: position in the flat task list — the determinism anchor
    r: int  #: pattern size to build
    seed: SeedLike  #: RNG material, a function of ``index`` only


@dataclass(frozen=True)
class TaskOutcome:
    """Compact result of one task, cheap to ship between processes."""

    index: int
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


def chunk_tasks(tasks: Sequence, jobs: int, chunk_size: Optional[int] = None) -> List[list]:
    """Split ``tasks`` into order-preserving batches.

    The default is one chunk per worker: tasks inside a group share the
    same pattern size, so their durations are near-uniform and fewer,
    larger chunks minimize pickling/dispatch roundtrips.
    """
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(tasks) / max(1, jobs)))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [list(tasks[i:i + chunk_size]) for i in range(0, len(tasks), chunk_size)]


# ---------------------------------------------------------------------------
# deterministic seeding
# ---------------------------------------------------------------------------
def spawn_task_seeds(root_seed: int, n: int) -> List[np.random.SeedSequence]:
    """Derive ``n`` independent per-task seeds from one root seed.

    ``SeedSequence.spawn`` gives child ``i`` the spawn key ``(i,)``:
    its stream depends only on ``(root_seed, i)``, so any execution
    order — serial, chunked, multiprocess — sees identical randomness.
    """
    return np.random.SeedSequence(root_seed).spawn(n)


# ---------------------------------------------------------------------------
# GCR&M task evaluation (module-level: must be picklable for the pool)
# ---------------------------------------------------------------------------
def _eval_gcrm_chunk(args: Tuple) -> List[TaskOutcome]:
    """Worker body: score one chunk of GCR&M tasks.

    Imports :mod:`repro.patterns.gcrm` lazily — that module imports this
    one at load time, and workers only need it at call time.
    A non-``None`` ``topology`` (a frozen, picklable
    :class:`~repro.runtime.topology.Topology`) routes tasks through the
    hierarchy-aware :func:`~repro.patterns.gcrm.gcrm_hier`, scoring the
    weighted two-level objective instead of the flat cost.
    """
    P, tie_break, topology, inter_weight, chunk = args
    from .gcrm import gcrm, gcrm_hier

    out = []
    for task in chunk:
        if topology is not None:
            res = gcrm_hier(P, task.r, topology, seed=task.seed,
                            inter_weight=inter_weight, tie_break=tie_break)
        else:
            res = gcrm(P, task.r, seed=task.seed, tie_break=tie_break)
        out.append(TaskOutcome(task.index, task.r, res.cost, res.uses_all_nodes))
    return out


# ---------------------------------------------------------------------------
# the search loop
# ---------------------------------------------------------------------------
def run_search(
    P: int,
    groups: Sequence[Tuple[int, Sequence[SearchTask]]],
    *,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    tie_break: str = "usage_random",
    prune: bool = True,
    prune_floor: Optional[float] = None,
    prune_tol: float = 0.05,
    topology=None,
    inter_weight: float = 4.0,
) -> SearchReport:
    """Evaluate task ``groups`` (one per candidate size, in order).

    Within a group, tasks run concurrently on the selected executor;
    between groups the running best is compared against
    ``prune_floor * (1 + prune_tol)`` and the remaining groups are
    skipped once the best is inside that band.  Group-boundary pruning
    plus index-ordered reduction make the outcome independent of
    ``jobs`` and ``chunk_size``.  ``topology``/``inter_weight`` select the hierarchical objective
    (see :func:`_eval_gcrm_chunk`) and ship to workers inside each
    chunk's argument tuple.
    """
    if not groups:
        raise ValueError("run_search needs at least one task group")
    n_total = sum(len(tasks) for _, tasks in groups)
    if n_total == 0:
        raise ValueError("run_search received only empty task groups")
    executor = auto_executor(n_total, jobs)
    report = SearchReport(best_index=None, best_cost=float("inf"),
                          jobs=executor.jobs, n_tasks_total=n_total)
    try:
        remaining = list(groups)
        while remaining:
            r, tasks = remaining.pop(0)
            chunks = chunk_tasks(list(tasks), executor.jobs, chunk_size)
            for outcomes in executor.map(
                    _eval_gcrm_chunk,
                    [(P, tie_break, topology, inter_weight, c)
                     for c in chunks]):
                report.outcomes.extend(outcomes)
            report.sizes_evaluated.append(r)
            report.n_tasks_evaluated += len(tasks)
            if prune and prune_floor is not None:
                _reduce(report)
                if report.best_cost <= prune_floor * (1.0 + prune_tol):
                    report.sizes_pruned = [g_r for g_r, _ in remaining]
                    break
    finally:
        executor.close()
    _reduce(report)
    return report


def _reduce(report: SearchReport) -> None:
    """Legacy-exact reduction: index order, strict ``1e-12`` improvement."""
    best_index, best_cost = None, float("inf")
    for o in sorted(report.outcomes, key=lambda o: o.index):
        if not o.uses_all_nodes:
            continue
        if best_index is None or o.cost < best_cost - 1e-12:
            best_index, best_cost = o.index, o.cost
    report.best_index = best_index
    report.best_cost = best_cost

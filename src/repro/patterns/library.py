"""Pattern resolution: one function turns a request into a pattern.

The paper's conclusion suggests shipping "a database containing, for
each possible value of P, a very efficient pattern".  Two products
implement it:

* :func:`load_shipped_database` / :func:`shipped_pattern` — the
  precomputed P = 2..44 databases shipped with the package, as
  :class:`~repro.patterns.store.PatternStore` shards filed under
  :func:`best_pattern`'s key at the shipped budget;
* :func:`best_pattern` — resolves any request.  Its key holds every
  argument that changes the grid: kernel, family, ``P`` and the search
  budget (:func:`search_budget`).  With a
  :class:`~repro.patterns.store.PatternStore` it serves that key from
  the store and files live builds under it.

:data:`PATTERN_FAMILIES` is the one builder registry; inside the
package only :func:`best_pattern` calls its builders.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple

from .base import Pattern
from .bc2d import best_2dbc, best_2dbc_within
from .g2dbc import g2dbc
from .gcrm import gcrm_search
from .sbc import best_sbc_within, sbc, sbc_feasible
from .sts import sts_node_counts, sts_pattern

__all__ = ["best_pattern", "search_budget", "KERNELS", "BEST_FAMILY",
           "PATTERN_FAMILIES", "load_shipped_database", "shipped_pattern"]

KERNELS = ("lu", "cholesky")

#: Key family of :func:`best_pattern`'s default recommendation (G-2DBC
#: for LU, best of SBC/GCR&M for Cholesky) — distinct from any
#: registered explicit family.
BEST_FAMILY = "best"


def _family_2dbc(P: int, **kw) -> Pattern:
    return best_2dbc(P)


def _family_2dbc_within(P: int, kernel: str = "lu", **kw) -> Pattern:
    return best_2dbc_within(P, kernel=kernel)


def _family_g2dbc(P: int, **kw) -> Pattern:
    return g2dbc(P)


def _family_sbc(P: int, **kw) -> Pattern:
    return sbc(P)


def _family_sbc_within(P: int, **kw) -> Pattern:
    return best_sbc_within(P)


def _family_gcrm(P: int, seeds: Iterable[int] = range(20), max_factor: float = 6.0,
                 jobs: Optional[int] = 1, prune: bool = True, **kw) -> Pattern:
    return gcrm_search(P, seeds=seeds, max_factor=max_factor,
                       jobs=jobs, prune=prune).pattern


def _family_sts(P: int, **kw) -> Pattern:
    counts = sts_node_counts(max_r=max(9, int(math.isqrt(6 * P)) + 3))
    if P not in counts:
        raise ValueError(
            f"no Steiner-triple pattern for P={P} (need P = r(r-1)/6, "
            f"r ≡ 1 or 3 mod 6; nearby: {sorted(counts)[:8]}...)"
        )
    return sts_pattern(counts[P])


#: Registered pattern families.  ``*_within`` variants may use fewer
#: than ``P`` nodes (the practical fallbacks of the paper's baselines).
PATTERN_FAMILIES: Dict[str, Callable[..., Pattern]] = {
    "2dbc": _family_2dbc,
    "2dbc_within": _family_2dbc_within,
    "g2dbc": _family_g2dbc,
    "sbc": _family_sbc,
    "sbc_within": _family_sbc_within,
    "gcrm": _family_gcrm,
    "sts": _family_sts,
}


def search_budget(seeds: Iterable[int] = range(20), max_factor: float = 6.0,
                  prune: bool = True) -> Tuple[int, float, bool]:
    """The search-budget part of a resolver key:
    ``(seed count, max_factor, prune)``.

    Only ``seeds=range(n)`` has a key; any other seed set would be
    filed under the key of the ``range`` of the same length.
    """
    if not (isinstance(seeds, range) and seeds == range(len(seeds))):
        raise ValueError(
            f"seeds must be range(n) to have a store key, got {seeds!r}")
    return len(seeds), float(max_factor), bool(prune)


def best_pattern(P: int, kernel: str = "lu", family: Optional[str] = None,
                 *, seeds: Iterable[int] = range(20), max_factor: float = 6.0,
                 prune: bool = True, jobs: Optional[int] = 1,
                 store=None) -> Pattern:
    """Best known pattern for ``P`` nodes and the given kernel.

    Without an explicit ``family``, returns G-2DBC for LU and the better
    of SBC and the GCR&M search for Cholesky — the paper's
    recommendations for arbitrary ``P``.  ``seeds``, ``max_factor`` and
    ``prune`` are the GCR&M search budget; ``jobs`` only spreads the
    search over worker processes and never changes the result.

    ``store`` (a :class:`~repro.patterns.store.PatternStore`, duck-typed:
    only its ``get`` and ``put`` are called) makes the call
    read-through under the key ``(kernel, family or "best", P,
    search_budget(seeds, max_factor, prune))``: a stored pattern is
    returned without any search, and a live one is filed for the next
    caller.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
    if family is not None and family not in PATTERN_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(PATTERN_FAMILIES)}")
    search = dict(seeds=seeds, max_factor=max_factor, prune=prune, jobs=jobs)
    if store is None:
        return _build(P, kernel, family, **search)
    key = dict(kernel=kernel, family=family or BEST_FAMILY,
               budget=search_budget(seeds, max_factor, prune))
    pattern = store.get(P, **key)
    if pattern is None:
        pattern = _build(P, kernel, family, **search)
        store.put(pattern, P, **key)
    return pattern


def _build(P: int, kernel: str, family: Optional[str], **search) -> Pattern:
    """Live construction of a checked request (no store)."""
    if family is not None:
        return PATTERN_FAMILIES[family](P, kernel=kernel, **search)
    if kernel == "lu":
        return g2dbc(P)
    searched = gcrm_search(P, **search).pattern
    if sbc_feasible(P) is None:
        return searched
    candidate = sbc(P)
    return searched if searched.cost_cholesky < candidate.cost_cholesky \
        else candidate


# ---------------------------------------------------------------------------
# precomputed databases shipped with the package
# ---------------------------------------------------------------------------
_DATA_DIR = Path(__file__).resolve().parent.parent / "data"
_SHIPPED_CACHE: Dict[str, Dict[int, Pattern]] = {}


def load_shipped_database(kernel: str = "cholesky") -> Dict[int, Pattern]:
    """Load the precomputed best-pattern database shipped with repro.

    Covers P = 2..44 (the paper's PlaFRIM cluster size): G-2DBC for LU,
    and for Cholesky the best of SBC and a GCR&M search with 25 seeds,
    factor 4, exhaustive (``prune=False``).  The entries are the store
    shards in ``repro/data``, filed under the key of ``best_pattern(P,
    kernel, seeds=range(25), max_factor=4.0, prune=False)``, and every
    entry equals that call.  This is exactly the "database containing,
    for each possible value of P, a very efficient pattern" the paper's
    conclusion proposes.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel not in _SHIPPED_CACHE:
        from .store import PatternStore, read_shard

        budget = search_budget(range(25), max_factor=4.0, prune=False)
        paths = PatternStore(_DATA_DIR).shards().get(
            (kernel, BEST_FAMILY, budget))
        if not paths:
            raise FileNotFoundError(
                f"no shipped {kernel!r} shards in {_DATA_DIR}; regenerate "
                f"with PatternStore({str(_DATA_DIR)!r}).put_many({{P: "
                f"best_pattern(P, {kernel!r}, seeds=range(25), max_factor="
                f"4.0, prune=False) for P in range(2, 45)}}, {kernel!r}, "
                f"budget={budget})")
        db: Dict[int, Pattern] = {}
        for path in paths:
            db.update(read_shard(path))
        _SHIPPED_CACHE[kernel] = db
    return _SHIPPED_CACHE[kernel]


#: ``best_pattern(P, kernel)`` at the default budget, without a store,
#: for the node counts :func:`shipped_pattern` resolved outside the
#: shipped range; keyed ``(P, kernel)``
_SEARCHED: Dict[Tuple[int, str], Pattern] = {}


def shipped_pattern(P: int, kernel: str = "cholesky") -> Pattern:
    """One very efficient pattern for ``P`` nodes.

    The shipped database's entry when ``P`` is in its 2..44 range, else
    :func:`best_pattern` ``(P, kernel)`` — so callers that only know a
    node count (e.g. elastic-resize targets with P′ > 44) always
    resolve.  That search runs once per ``(P, kernel)`` and process:
    its pattern is kept, as the shipped entries are, and handed to
    every later caller (patterns are read-only).
    """
    db = load_shipped_database(kernel)
    if P in db:
        return db[P]
    if (P, kernel) not in _SEARCHED:
        _SEARCHED[P, kernel] = best_pattern(P, kernel)
    return _SEARCHED[P, kernel]

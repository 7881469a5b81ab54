"""Pattern façade and pattern database.

The paper's conclusion suggests shipping "a database containing, for
each possible value of P, a very efficient pattern for the symmetric
case".  :class:`PatternDatabase` implements that idea for both kernels;
:func:`best_pattern` is the one-call entry point used by the examples
and the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional

from .base import Pattern
from .bc2d import best_2dbc, best_2dbc_within
from .g2dbc import g2dbc
from .gcrm import gcrm_search
from .sbc import best_sbc_within, sbc, sbc_feasible
from .sts import sts_node_counts, sts_pattern

__all__ = ["best_pattern", "PatternDatabase", "PATTERN_FAMILIES",
           "load_shipped_database", "shipped_pattern"]


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


def best_pattern(P: int, kernel: str = "lu", family: Optional[str] = None,
                 store=None, **kw) -> Pattern:
    """Best known pattern for ``P`` nodes and the given kernel.

    Without an explicit ``family``, returns G-2DBC for LU and the
    GCR&M search result for Cholesky — the paper's recommendations for
    arbitrary ``P``.

    ``store`` (a :class:`~repro.patterns.store.PatternStore`, duck-typed
    to avoid an import cycle) makes the call read-through: a stored
    pattern is returned without any search, and a live result is
    persisted for the next caller.
    """
    if store is not None:
        fam = family if family is not None else "best"
        cached = store.get(P, kernel=kernel, family=fam)
        if cached is not None:
            return cached
        pattern = best_pattern(P, kernel=kernel, family=family, **kw)
        store.put(pattern, P, kernel=kernel, family=fam)
        return pattern
    if family is not None:
        try:
            builder = PATTERN_FAMILIES[family]
        except KeyError:
            raise ValueError(
                f"unknown family {family!r}; choose from {sorted(PATTERN_FAMILIES)}"
            ) from None
        return builder(P, kernel=kernel, **kw)
    if kernel == "lu":
        return g2dbc(P)
    if kernel == "cholesky":
        if sbc_feasible(P) is not None:
            candidate = sbc(P)
            searched = gcrm_search(P, seeds=kw.pop("seeds", range(20)), **kw).pattern
            return searched if searched.cost_cholesky < candidate.cost_cholesky else candidate
        return gcrm_search(P, seeds=kw.pop("seeds", range(20)), **kw).pattern
    raise ValueError(f"unknown kernel {kernel!r}")


# (gcrm_search accepts jobs=/prune= keywords; best_pattern forwards any
# extra keyword arguments unchanged, so callers can parallelize the
# Cholesky search with best_pattern(P, "cholesky", jobs=4).)


@dataclass
class PatternDatabase:
    """In-memory best-pattern-per-P database with lazy construction."""

    kernel: str = "cholesky"
    seeds: int = 20
    max_factor: float = 6.0
    jobs: Optional[int] = 1  #: GCR&M search parallelism (0/None = auto)
    prune: bool = True  #: stop the search near the sqrt(3P/2) floor

    def __post_init__(self):
        self._store: Dict[int, Pattern] = {}

    def get(self, P: int) -> Pattern:
        if P not in self._store:
            kw = {}
            if self.kernel == "cholesky":
                kw = {"jobs": self.jobs, "prune": self.prune}
            self._store[P] = best_pattern(
                P,
                kernel=self.kernel,
                seeds=range(self.seeds),
                max_factor=self.max_factor,
                **kw,
            )
        return self._store[P]

    def build(self, node_counts: Iterable[int]) -> "PatternDatabase":
        for P in node_counts:
            self.get(P)
        return self

    def costs(self) -> Dict[int, float]:
        return {P: pat.cost(self.kernel) for P, pat in sorted(self._store.items())}

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, P: int) -> bool:
        return P in self._store

    def efficiency(self, P: int) -> float:
        """Pattern cost relative to its asymptotic optimum
        (``2√P`` for LU, ``√(3P/2)`` for Cholesky)."""
        ref = 2 * math.sqrt(P) if self.kernel == "lu" else math.sqrt(1.5 * P)
        return ref / self.get(P).cost(self.kernel)


# ---------------------------------------------------------------------------
# precomputed databases shipped with the package
# ---------------------------------------------------------------------------
_DATA_DIR = Path(__file__).resolve().parent.parent / "data"
_SHIPPED_CACHE: Dict[str, Dict[int, Pattern]] = {}


def load_shipped_database(kernel: str = "cholesky") -> Dict[int, Pattern]:
    """Load the precomputed best-pattern database shipped with repro.

    Covers P = 2..44 (the paper's PlaFRIM cluster size): G-2DBC for LU,
    best of SBC/GCR&M (25 seeds, factor 4 search) for Cholesky.  This is
    exactly the "database containing, for each possible value of P, a
    very efficient pattern" the paper's conclusion proposes.
    """
    if kernel not in ("lu", "cholesky"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel not in _SHIPPED_CACHE:
        from .io import load_database

        path = _DATA_DIR / f"{kernel}_patterns_p44.json"
        if not path.exists():
            raise FileNotFoundError(
                f"shipped database missing: {path}; regenerate with "
                f"'python -m repro db --max-nodes 44 --kernel {kernel} "
                f"--out {path}'"
            )
        _SHIPPED_CACHE[kernel] = load_database(path)
    return _SHIPPED_CACHE[kernel]


def shipped_pattern(P: int, kernel: str = "cholesky", store=None,
                    **kw) -> Pattern:
    """One very efficient pattern for ``P`` nodes.

    Served from the shipped database when ``P`` is in its 2..44 range.
    Outside that range the call falls through to the pattern-service
    read-through path — the sharded :class:`~repro.patterns.store
    .PatternStore` (when ``store`` is given) or a live
    :func:`best_pattern` search — so callers that only know a node
    count (e.g. elastic-resize targets with P′ > 44) always resolve.
    Extra keywords go to :func:`best_pattern`.
    """
    db = load_shipped_database(kernel)
    if P in db:
        return db[P]
    return best_pattern(P, kernel=kernel, store=store, **kw)

"""Backend selection for the compiled kernels (compiled C > pure Python).

Three hot paths have a C twin in ``_fastsim.c``, and one resolution
picks all three: the event loop of
:func:`repro.runtime.simulator.simulate` for every fault-free run whose
scheduler has a static key table, without fork-join and with p2p
multicast, under every network model (``nic`` and the contention
family's flow engine), work stealing included and with or without
task/message recording
(:func:`~repro.runtime.simulator.python_loop_reason` names why any
other run takes the Python loop); phase 1 of
:func:`repro.patterns.gcrm.gcrm`; and the lowering of
:func:`repro.runtime.simplan.build_plan`.

* ``c``      — :mod:`.csim`, compiled on demand with the system C
  compiler;
* ``python`` — each kernel's one Python twin, always available: the
  batch-drained event loop, the reference phase 1 ``gcrm._phase1`` and
  the NumPy lowering ``simplan._lower``.  The tests pin each C kernel
  against its twin.

Both produce byte-identical event schedules, network statistics,
patterns and plans (the golden, cross-backend, flow-engine, GCR&M
differential and plan-oracle tests pin this).
``REPRO_SIM_BACKEND`` selects the backend: ``auto`` (default) uses C
when it compiles and loads, else Python; ``c`` demands the compiled
kernels; ``python`` forces the pure-Python ones.  Any other value, or an
explicit ``c`` that cannot be built, raises :class:`BackendError` —
only ``auto`` falls back.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Optional, Tuple

__all__ = ["select_backend", "active_backend", "BACKEND_ENV", "BACKENDS",
           "BackendError"]

BACKEND_ENV = "REPRO_SIM_BACKEND"

#: Accepted values of ``REPRO_SIM_BACKEND``.
BACKENDS = ("auto", "c", "python")


class BackendError(RuntimeError):
    """``REPRO_SIM_BACKEND`` names an unknown or unusable backend."""


def select_backend() -> Tuple[str, Optional[Callable]]:
    """Resolve ``(name, runner)`` for the accelerated event loop.

    ``runner`` is ``None`` when only the pure-Python loop is usable.
    :func:`repro.patterns.gcrm.gcrm` runs phase 1, and
    :func:`repro.runtime.simplan.build_plan` its lowering, in C when
    ``name`` is ``"c"``.
    The choice is cached per ``REPRO_SIM_BACKEND`` value, so tests can
    monkeypatch the environment and re-resolve; errors are not cached.
    """
    return _resolve(os.environ.get(BACKEND_ENV, "auto").lower())


@functools.lru_cache(maxsize=None)
def _resolve(env: str) -> Tuple[str, Optional[Callable]]:
    from . import csim
    if env not in BACKENDS:
        raise BackendError(
            f"{BACKEND_ENV}={env!r} is not a simulator backend; "
            f"choose one of {', '.join(BACKENDS)}")
    if env == "python":
        return "python", None
    if csim.available():
        return "c", csim.run
    if env == "c":
        raise BackendError(
            f"{BACKEND_ENV}=c but the compiled loop is unavailable: "
            f"{csim.load_error()}")
    return "python", None


def active_backend() -> str:
    """Name of the backend ``simulate`` will use for eligible runs."""
    return select_backend()[0]

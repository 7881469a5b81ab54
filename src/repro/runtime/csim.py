"""Runtime-compiled C backend: the simulator's event loop, GCR&M phase 1
and the simulation plan's lowering.

Compiles ``_fastsim.c`` with the system C compiler on first use
(``cc -O2 -ffp-contract=off -fPIC -shared``) into a cache directory
keyed by the hash of the source and flags, and binds its entry points
through :mod:`ctypes`/:mod:`numpy.ctypeslib`.  The event loop's
double arithmetic must stay IEEE-identical to Python's, so the build
uses no ``-ffast-math`` and turns off floating-point contraction: on
targets that contract by default (GCC on aarch64), the flow update
``remaining - rate * dt`` would become one fused multiply-add, rounded
once where Python rounds twice, and the C loop would drift from the
Python loop.

* :func:`run` — the event loop of every fault-free run the simulator
  compiles (static-key scheduler, no fork-join, p2p multicast), under
  the ``nic`` model or the contention family's flow engine, with or
  without work stealing.  A run may record: it then also returns each
  task's start and end time, each message's send start and arrival,
  and the order in which the Python loop would have emitted those
  records (see :class:`FastSimResult`).
* :func:`gcrm_phase1` — phase 1 of GCR&M, drawing from the caller's
  numpy generator through its ``bitgen_t``.
* :func:`lower_plan` — the tables of
  :func:`~repro.runtime.simplan.build_plan`, in two linear passes over
  the reads.

No compiler, a failed compile, or a missing source file makes
:func:`available` return ``False`` and :func:`load_error` say why;
:mod:`.backends` then falls back to the pure-Python paths under
``REPRO_SIM_BACKEND=auto`` and raises under ``REPRO_SIM_BACKEND=c``.
``REPRO_CACHE_DIR`` overrides where the shared object is cached.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = ["available", "load_error", "run", "FastSimResult",
           "gcrm_phase1", "lower_plan"]

_SRC = Path(__file__).with_name("_fastsim.c")
#: compiler flags; the cached object is keyed by them and the source
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_lib = None
_load_tried = False
_load_error: Optional[str] = None

_I32 = ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_I64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_U64 = ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")

#: ``PyCapsule_GetPointer`` under a prototype of its own, so the shared
#: ``ctypes.pythonapi`` function object keeps whatever argtypes it has
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / f"repro-fastsim-{os.getuid()}"


def _load():
    """Compile (if needed) and bind the shared object; None on failure."""
    global _lib, _load_tried, _load_error
    if _load_tried:
        return _lib
    _load_tried = True
    try:
        src = _SRC.read_bytes()
        tag = hashlib.sha256(
            src + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        cache = _cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
        so = cache / f"fastsim_{tag}.so"
        if not so.exists():
            cc = os.environ.get("CC", "cc")
            tmp = cache / f".fastsim_{tag}.{os.getpid()}.so"
            subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp), str(_SRC)],
                check=True, capture_output=True, timeout=120)
            os.replace(tmp, so)  # atomic: concurrent builders race safely
        lib = ctypes.CDLL(str(so))
        fn = lib.repro_run_sim
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64, ctypes.c_int64,            # n_tasks, nnodes
            _I32, _F64, _I64,                          # node, dur, keys
            _I32,                                      # pending (mutated)
            _I32, _I32,                                # ld_indptr, ld_tasks
            _I32, _I32,                                # push_indptr, push_uids
            _I32, _I32,                                # msg_dst, msg_src
            _I32, _I32,                                # w_indptr, w_tasks
            ctypes.c_int64, _I32,                      # n_init, init_uids
            ctypes.c_double,                           # msg_time
            ctypes.c_int64, _I32, ctypes.c_int64,      # flows, machine, nmachines
            _F64,                                      # net parameters
            ctypes.c_int64, _I32, _I32,                # steal, victim CSR
            _F64, _F64, ctypes.c_double,               # base_dur, speed, intra
            _F64, _I64, _I64,                          # event heap scratch
            _I64, _I64, _I64,                          # ready arena, base, size
            _I64, _F64,                                # idle, tx_free
            _I64, _F64, _I32, _U64,                    # flow scratch
            ctypes.c_int64, _F64, _F64,                # record, task_start, task_end
            _F64, _F64, _I64,                          # msg_start, msg_arrive, log
            _I32,                                      # exec_node
            _F64, _I64, _I64,                          # busy, msgs_sent, msgs_recv
            _F64, _F64,                                # tx_busy, rx_busy
            _F64, _I64,                                # out_times, out_counts
        ]
        fn = lib.repro_plan_count
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64, ctypes.c_int64,            # n_tasks, n_reads
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # n_data, M, N
            _I32, _I32,                                # node, read_indptr
            _I32, _I32, _I32,                          # read data, version, producer
            ctypes.c_int64, _I64,                      # has_home, home
            _I32, _I32, _I32,                          # pending, ld and push counts
            _I32, _I64, _I32, _I32, _I32, _I32,        # chains, groups, read groups
            _I64,                                      # out_counts
        ]
        fn = lib.repro_plan_fill
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64, ctypes.c_int64,            # n_tasks, n_groups
            _I32, _I32, _I32, _I32,                    # node, reads
            ctypes.c_int64, _I64,                      # has_home, home
            _I32, _I32, _I32,                          # read groups, g_prod, uid
            _I32, _I32, _I32, _I32, _I32, _I32,        # ld, waiter, push CSRs
        ]
        fn = lib.repro_gcrm_phase1
        fn.restype = ctypes.c_int64
        # ctypes arrays, not ndpointer: a search makes thousands of
        # calls, and three ndarray conversions cost more than a small
        # phase 1 (~10 us against ~3 us per call)
        fn.argtypes = [
            ctypes.c_int64, ctypes.c_int64,            # P, r
            ctypes.c_int64, ctypes.c_void_p,           # tie_break, bitgen_t *
            ctypes.POINTER(ctypes.c_uint64),           # scratch words
            ctypes.POINTER(ctypes.c_int64),            # scratch ints
            ctypes.POINTER(ctypes.c_uint8),            # member (P x r)
        ]
        _lib = lib
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace").strip()
        _load_error = (f"{' '.join(exc.cmd)} exited {exc.returncode}: "
                       f"{stderr}")
    except Exception as exc:
        _load_error = f"{type(exc).__name__}: {exc}"
    return _lib


def available() -> bool:
    """True when the compiled loop is usable on this machine."""
    return _load() is not None


def load_error() -> Optional[str]:
    """Why the compiled loop failed to build or load (``None`` if it
    loaded or was never tried)."""
    return _load_error


@dataclass
class FastSimResult:
    """Raw outputs of one compiled event-loop run."""

    makespan: float
    completed: int
    busy: np.ndarray
    msgs_sent: np.ndarray
    msgs_recv: np.ndarray
    tx_busy: np.ndarray
    rx_busy: np.ndarray
    pending: np.ndarray  #: post-run prerequisite counts (deadlock forensics)
    #: executing node per task: the plan's ``node`` unless tasks were
    #: stolen
    node: np.ndarray
    #: flow engine only (zero under ``nic``): seconds the bisection link
    #: carried a flow, machine-seconds of the intra-machine links, and
    #: the messages that crossed, or stayed inside, a machine
    link_busy: float = 0.0
    intra_link_busy: float = 0.0
    inter_msgs: int = 0
    intra_msgs: int = 0
    #: recorded runs only (``None`` otherwise): start and end time per
    #: tid, send start and arrival per message uid, and the emission
    #: log — ``tid`` for a dispatched task, ``-1 - uid`` for a recorded
    #: message, in the order the Python loop produces its records
    task_start: Optional[np.ndarray] = None
    task_end: Optional[np.ndarray] = None
    msg_start: Optional[np.ndarray] = None
    msg_arrive: Optional[np.ndarray] = None
    log: Optional[np.ndarray] = None


def _empty(dtype) -> np.ndarray:
    return np.empty(0, dtype=dtype)


def run(plan, dur: np.ndarray, nnodes: int, cores_per_node: int,
        msg_time: float, record: bool = False, keys=None, machine=None,
        nbytes: float = 0.0, bandwidths=(0.0, 0.0, 0.0),
        latencies=(0.0, 0.0), victims=None, base_dur=None,
        speeds=None, intra_msg_time=0.0) -> FastSimResult:
    """Run the compiled loop over a :class:`~.simplan.SimPlan`.

    Only valid once :func:`available` is true.  ``dur`` is the per-task
    duration vector (cluster-dependent, so not in the plan), and
    ``keys`` the scheduler's static key table (default: the plan's
    priority keys).  The plan's arrays are passed as they are — their
    dtypes are the C signature's — and only ``pending``, which the loop
    counts down, is copied.

    Messages take the ``nic`` model's ``msg_time`` unless ``machine``
    (the machine of each rank) is given: the contention family's flow
    engine then moves ``nbytes`` per message, with ``bandwidths`` =
    (NIC, bisection link, intra-machine link) in bytes/s and
    ``latencies`` = (inter-machine, intra-machine) seconds per message
    (see :meth:`~repro.runtime.network.ContentionModel.engine_args`).
    ``victims`` (each node's steal order, as
    :meth:`~repro.runtime.schedulers.Scheduler.victim_order` returns
    it) turns on work stealing: a stolen task runs ``base_dur[tid] /
    speeds[thief] + msg_time`` (``speeds`` ``None`` = all 1), or ``+
    intra_msg_time`` when ``machine`` puts thief and victim on one
    machine.

    With ``record`` the result carries the recording arrays: 24 bytes
    per task plus 24 per message.
    """
    lib = _load()
    n_tasks = plan.n_tasks
    n_msgs = plan.n_msgs
    flows = machine is not None
    # the loop indexes these by tid and node id unchecked
    for name, a, n in (("dur", dur, n_tasks), ("keys", keys, n_tasks),
                       ("machine", machine, nnodes),
                       ("base_dur", base_dur, n_tasks),
                       ("speeds", speeds, nnodes)):
        if a is not None and len(a) != n:
            raise ValueError(f"{name} has {len(a)} entries, expected {n}")
    if flows and not np.all(np.asarray(machine) >= 0):
        raise ValueError("machine ids must be >= 0")
    if victims is not None and (
            len(victims) != nnodes
            or any(not 0 <= v < nnodes for vs in victims for v in vs)):
        raise ValueError(f"victims must list node ids 0..{nnodes - 1} "
                         f"for each of {nnodes} nodes")
    # every push is one task completion, one nic arrival, or one flow's
    # activation or one of its two re-apportionings
    cap = n_tasks + (3 if flows else 1) * n_msgs + 1
    ev_t = np.empty(cap, dtype=np.float64)
    ev_tag = np.empty(cap, dtype=np.int64)
    ev_pl = np.empty(cap, dtype=np.int64)
    # a task enters only its own node's ready heap, at most once: one
    # arena of n_tasks slots, nodes offset by their task counts.  The
    # node column is the graph's own, which ``from_columns`` may have
    # adopted unaligned; C reads it aligned.
    node = np.require(plan.node, np.int32, ["C_CONTIGUOUS", "ALIGNED"])
    counts = np.bincount(node, minlength=nnodes)
    rbase = np.zeros(nnodes + 1, dtype=np.int64)
    np.cumsum(counts, out=rbase[1:])
    ready = np.empty(max(n_tasks, 1), dtype=np.int64)
    rsize = np.zeros(nnodes, dtype=np.int64)
    idle = np.full(nnodes, cores_per_node, dtype=np.int64)
    tx_free = np.zeros(nnodes, dtype=np.float64)
    busy = np.zeros(nnodes, dtype=np.float64)
    msgs_sent = np.zeros(nnodes, dtype=np.int64)
    msgs_recv = np.zeros(nnodes, dtype=np.int64)
    tx_busy = np.zeros(nnodes, dtype=np.float64)
    rx_busy = np.zeros(nnodes, dtype=np.float64)
    out_times = np.zeros(3, dtype=np.float64)
    out_counts = np.zeros(5, dtype=np.int64)
    pending = plan.pending.copy()
    if flows:
        machine = np.ascontiguousarray(machine, dtype=np.int32)
        nmachines = int(machine.max()) + 1
        net = np.array([nbytes, *bandwidths, *latencies], dtype=np.float64)
        flow_i = np.empty(7 * nnodes + 1 + nmachines, dtype=np.int64)
        flow_f = np.empty(3 * nnodes, dtype=np.float64)
        qnext = np.empty(n_msgs, dtype=np.int32)
        waiting = np.empty((nnodes + 63) >> 6, dtype=np.uint64)
    else:
        machine, nmachines, net = _empty(np.int32), 0, _empty(np.float64)
        flow_i, flow_f = _empty(np.int64), _empty(np.float64)
        qnext, waiting = _empty(np.int32), _empty(np.uint64)
    if victims is not None:
        v_indptr = np.zeros(nnodes + 1, dtype=np.int32)
        np.cumsum([len(v) for v in victims], out=v_indptr[1:])
        v_nodes = np.fromiter((x for v in victims for x in v),
                              dtype=np.int32, count=int(v_indptr[-1]))
        base_dur = np.ascontiguousarray(base_dur, dtype=np.float64)
        speeds = (np.ones(nnodes) if speeds is None
                  else np.ascontiguousarray(speeds, dtype=np.float64))
        exec_node = node.copy()
    else:
        v_indptr = v_nodes = exec_node = _empty(np.int32)
        base_dur = speeds = _empty(np.float64)
    if record:
        task_start = np.zeros(n_tasks, dtype=np.float64)
        task_end = np.zeros(n_tasks, dtype=np.float64)
        msg_start = np.zeros(n_msgs, dtype=np.float64)
        msg_arrive = np.zeros(n_msgs, dtype=np.float64)
        log = np.empty(n_tasks + n_msgs, dtype=np.int64)
    else:
        task_start = task_end = msg_start = msg_arrive = _empty(np.float64)
        log = _empty(np.int64)
    status = lib.repro_run_sim(
        n_tasks, nnodes,
        node, np.ascontiguousarray(dur, dtype=np.float64),
        plan.keys if keys is None else keys,
        pending, plan.ld_indptr, plan.ld_tasks,
        plan.push_indptr, plan.push_uids,
        plan.msg_dst, plan.msg_src,
        plan.w_indptr, plan.w_tasks,
        len(plan.init_uids), plan.init_uids,
        float(msg_time),
        int(flows), machine, nmachines, net,
        int(victims is not None), v_indptr, v_nodes, base_dur, speeds,
        float(intra_msg_time),
        ev_t, ev_tag, ev_pl,
        ready, rbase, rsize,
        idle, tx_free,
        flow_i, flow_f, qnext, waiting,
        int(bool(record)), task_start, task_end, msg_start, msg_arrive, log,
        exec_node,
        busy, msgs_sent, msgs_recv,
        tx_busy, rx_busy,
        out_times, out_counts)
    if status != 0:  # pragma: no cover - no failing status is emitted yet
        raise RuntimeError(f"compiled event loop returned status {status}")
    res = FastSimResult(
        makespan=float(out_times[0]),
        completed=int(out_counts[0]),
        busy=busy, msgs_sent=msgs_sent, msgs_recv=msgs_recv,
        tx_busy=tx_busy, rx_busy=rx_busy, pending=pending,
        node=plan.node if victims is None else exec_node,
        link_busy=float(out_times[1]),
        intra_link_busy=float(out_times[2]),
        inter_msgs=int(out_counts[3]), intra_msgs=int(out_counts[4]))
    if record:
        res.task_start = task_start
        res.task_end = task_end
        res.msg_start = msg_start
        res.msg_arrive = msg_arrive
        res.log = log[:int(out_counts[2])]
    return res


def gcrm_phase1(P: int, r: int, rng: np.random.Generator,
                tie_break: int) -> np.ndarray:
    """GCR&M phase 1 in C: the ``(P, r)`` boolean colrow membership.

    Only valid once :func:`available` is true.  Makes the decisions of
    its Python twin :func:`repro.patterns.gcrm._phase1` one for one, on
    bitsets of ``ceil(r / 64)`` words, with ``tie_break`` the policy's
    index in :data:`repro.patterns.gcrm.TIE_BREAKS`.  It draws through
    ``rng``'s own bit generator (numpy's ``bitgen_t``, under its lock)
    by the rule of ``Generator.integers(0, n)``, which consumes the
    draws of the twin's ``Generator.choice``, so the draws, and the
    generator's state afterwards, are those of the Python loop for any
    bit generator.
    """
    if P < 1 or r < 1 or tie_break not in (0, 1, 2):
        raise ValueError(f"phase 1 needs P >= 1, r >= 1 and a tie-break "
                         f"index 0..2, got P={P}, r={r}, {tie_break!r}")
    lib = _load()
    W = (r + 63) >> 6
    words = (ctypes.c_uint64 * ((P + r + 1) * W))()
    ints = (ctypes.c_int64 * (2 * (P + r)))()
    member = (ctypes.c_uint8 * (P * r))()
    bitgen = rng.bit_generator
    with bitgen.lock:
        status = lib.repro_gcrm_phase1(
            P, r, tie_break, _capsule_pointer(bitgen.capsule, b"BitGenerator"),
            words, ints, member)
    if status != 0:  # pragma: no cover - safety net, as in _phase1
        raise RuntimeError(f"GCR&M phase 1 did not converge (P={P}, r={r})")
    return np.frombuffer(member, dtype=np.bool_).reshape(P, r)


def lower_plan(node: np.ndarray, read_indptr: np.ndarray,
               read_data: np.ndarray, read_version: np.ndarray,
               read_producer: np.ndarray, n_data: int,
               home: Optional[np.ndarray], M: int, N: int) -> tuple:
    """The tables of :func:`repro.runtime.simplan.build_plan` in C.

    Only valid once :func:`available` is true.  Takes a graph's columns,
    ``read_producer`` among them, ``home`` (``None``: no version-0
    fetches) and the code radices ``M`` (versions) and ``N`` (nodes).
    The first pass classifies every read and numbers the message
    groups by first occurrence; between the passes one ``argsort`` of
    the group codes fixes the uids, and the second pass fills the CSRs
    in read order.  Every output is allocated at its exact size.  A bad
    length, or a read offset, producer tid or datum id out of range
    (checked by the first pass), raises a named ``ValueError``.
    Returns ``(pending, ld_indptr, ld_tasks, codes, producer, w_indptr,
    w_tasks, push_indptr, push_uids, init_uids)``: ``codes`` and
    ``producer`` give each uid's group code and producer tid (-1 for a
    fetch from home).
    """
    node, read_indptr, read_data, read_version, read_producer = (
        np.require(a, np.int32, ["C_CONTIGUOUS", "ALIGNED"])
        for a in (node, read_indptr, read_data, read_version,
                  read_producer))
    n_tasks = len(node)
    n_reads = len(read_data)
    if (len(read_indptr) != n_tasks + 1 or len(read_version) != n_reads
            or len(read_producer) != n_reads
            or (home is not None and len(home) < n_data)):
        raise ValueError("plan columns disagree in length")
    lib = _load()
    has_home = home is not None
    home = (np.ascontiguousarray(home, dtype=np.int64) if has_home
            else _empty(np.int64))
    pending = np.empty(n_tasks, dtype=np.int32)
    ld_indptr = np.zeros(n_tasks + 1, dtype=np.int32)
    push_indptr = np.zeros(n_tasks + 1, dtype=np.int32)
    head = np.full(n_tasks + (n_data if has_home else 0), -1, dtype=np.int32)
    # a group per message read at most: only the used prefix of these
    # is ever touched
    g_code = np.empty(n_reads, dtype=np.int64)
    g_next, g_count, g_prod, read_group = (
        np.empty(n_reads, dtype=np.int32) for _ in range(4))
    counts = np.zeros(3, dtype=np.int64)
    status = lib.repro_plan_count(
        n_tasks, n_reads, n_data, M, N, node, read_indptr, read_data,
        read_version, read_producer, int(has_home), home, pending,
        ld_indptr, push_indptr, head, g_code, g_next, g_count, g_prod,
        read_group, counts)
    if status:
        raise ValueError(("reads name a task or datum out of range",
                          "read_indptr is not a CSR index of the reads")
                         [status - 1])
    del head, g_next
    n_groups, n_msg, n_local = counts.tolist()
    codes = g_code[:n_groups]
    order = np.argsort(codes)     # the codes are unique: any sort will do
    uid = np.empty(n_groups, dtype=np.int32)
    uid[order] = np.arange(n_groups, dtype=np.int32)
    producer = g_prod[:n_groups]
    init_uids = uid[producer < 0]
    w_indptr = np.zeros(n_groups + 1, dtype=np.int32)
    w_indptr[1:] = g_count[order]
    ld_tasks = np.empty(n_local, dtype=np.int32)
    w_tasks = np.empty(n_msg, dtype=np.int32)
    push_uids = np.empty(n_groups - init_uids.size, dtype=np.int32)
    lib.repro_plan_fill(
        n_tasks, n_groups, node, read_indptr, read_data, read_producer,
        int(has_home), home, read_group, g_prod, uid,
        ld_indptr, ld_tasks, w_indptr, w_tasks, push_indptr, push_uids)
    return (pending, ld_indptr, ld_tasks, codes[order], producer[order],
            w_indptr, w_tasks, push_indptr, push_uids, init_uids)

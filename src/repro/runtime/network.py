"""Pluggable network models for the event-driven simulator.

The v1 simulator hard-wired one communication model: sender-serialized
NICs with a fixed per-message wire time.  This module turns that model
into one of several :class:`NetworkModel` plugins, chosen by their
:data:`NETWORK_MODELS` name (``simulate(network=...)``):

* ``"nic"`` — :class:`NicModel`, the legacy model, kept **bit-for-bit**
  identical to the v1 arithmetic (the golden-trace tests pin this);
* ``"contention"`` — :class:`ContentionModel`, a contention-aware model
  with receive-side serialization, per-message eager/rendezvous α–β
  latency, and fair bandwidth sharing on a full-bisection link;
* ``"hierarchical"`` — :class:`HierarchicalModel`, the same flow engine
  with ranks packed into machines, whose same-machine flows take a
  fast private link (:class:`ResilientNetwork` wraps any of them in
  fault runs).

Models read machine parameters from the ``ClusterSpec`` and fixed
protocol constants from this module.  An instance is *bound* to one run
(:meth:`NetworkModel.bind`), schedules its internal events through the
simulator's shared event heap, hands each message record to the run's
record sink, and reports :class:`NetworkStats` at the end of the run.
Those stats are the one ledger of a run's communication: the message
totals of an :class:`~repro.runtime.trace.ExecutionTrace` are views of
them.

Contention model semantics
--------------------------
Every message is a *flow* of ``tile_bytes`` bytes from ``src`` to
``dst``:

1. **Injection serialization** — a node's NIC transmits one outgoing
   flow at a time; queued messages leave in FIFO order.  The head of
   the queue also waits for the destination NIC (head-of-line
   blocking): receive-side serialization, absent from ``nic``.
2. **Protocol latency** — an *eager* message (``bytes ≤
   EAGER_THRESHOLD_BYTES``) pays one ``latency_s`` before data flows; a
   *rendezvous* message pays ``(1 + HANDSHAKE_RTTS) · latency_s``
   (request + acknowledgement round trips of the large-message MPI
   protocol).  Both NICs are held during the handshake.
3. **Fair bandwidth sharing** — each flow crosses one link.  Flows
   between machines share the bisection link of capacity
   ``ClusterSpec.full_bisection_Bps(machines) = bandwidth_Bps · max(1,
   machines/2)``: with ``n`` of them in flight each progresses at
   ``min(bandwidth_Bps, bisection / n)``.  Flows inside one machine
   share its private link of ``INTRA_BANDWIDTH_SCALE · bandwidth_Bps``
   equally (``"hierarchical"`` only: ``"contention"`` puts each rank on
   its own machine).  Shares are progressive filling, re-evaluated at
   every flow start/finish.  Each re-evaluation pushes one finish
   event, for the flow that ends first: any later flow's event would be
   superseded by the re-evaluation that first finish triggers, so one
   finish event is pending at a time.

Because each endpoint carries at most one flow in each direction, the
equal split is exactly the max-min fair allocation.  Under
``"contention"`` every per-message delay is ≥ the legacy model's
``latency + bytes/bandwidth``, which is why contention-model makespans
dominate ``nic`` makespans on the same graph (asserted by the property
tests).

The model is deterministic: flows are started by scanning the senders
with queued messages in ascending node id, and all events carry the
simulator's global sequence number.

Engines
-------
The classes here are the reference engines, and the only ones of fault
runs and of the resize engine's migration replay.  A fault-free run on
the compiled loop (:mod:`~repro.runtime.csim`) binds the model only for
its parameters and its ledger: :meth:`NetworkModel.engine_args` hands
the loop the model's machine map, bandwidths and latencies, the loop
replays :meth:`ContentionModel.send` … :meth:`ContentionModel.on_internal`
push for push in C, and :meth:`NetworkModel.adopt` takes its counters,
so :meth:`NetworkModel.stats` reports the run either way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .cluster import ClusterSpec
from .graph import DataRef
from .trace import MsgRecord

__all__ = [
    "EVENT_TASK_DONE",
    "EVENT_MSG_ARRIVE",
    "EVENT_NET_INTERNAL",
    "EVENT_FAULT",
    "NetworkStats",
    "NetworkModel",
    "NicModel",
    "ContentionModel",
    "HierarchicalModel",
    "ResilientNetwork",
    "NETWORK_MODELS",
    "make_network",
    "EAGER_THRESHOLD_BYTES",
    "HANDSHAKE_RTTS",
    "INTRA_BANDWIDTH_SCALE",
    "INTRA_LATENCY_SCALE",
    "intra_message_time",
]

#: Event type codes shared with the simulator's heap.
EVENT_TASK_DONE = 0
EVENT_MSG_ARRIVE = 1
EVENT_NET_INTERNAL = 2
EVENT_FAULT = 3

#: Largest message (bytes) sent with the eager protocol: one latency.
EAGER_THRESHOLD_BYTES = 65536.0
#: Extra latency round trips a rendezvous message pays for its handshake.
HANDSHAKE_RTTS = 2
#: Intra-machine link bandwidth, as a multiple of the NIC bandwidth
#: (NUMA / NVLink class).
INTRA_BANDWIDTH_SCALE = 4.0
#: Intra-machine latency, as a multiple of the NIC latency.
INTRA_LATENCY_SCALE = 0.2


def intra_message_time(cluster: ClusterSpec) -> float:
    """Least time :class:`HierarchicalModel` takes to move one tile
    between two ranks of one machine: the intra-machine latency (times
    ``1 + HANDSHAKE_RTTS`` above :data:`EAGER_THRESHOLD_BYTES`) plus
    the tile at the intra-machine bandwidth.  The makespan lower bounds
    charge it in place of :meth:`ClusterSpec.message_time`."""
    latency = cluster.latency_s * INTRA_LATENCY_SCALE
    if cluster.tile_bytes > EAGER_THRESHOLD_BYTES:
        latency *= 1 + HANDSHAKE_RTTS
    return latency + cluster.tile_bytes / (cluster.bandwidth_Bps
                                           * INTRA_BANDWIDTH_SCALE)


@dataclass
class NetworkStats:
    """Structured communication observability for one simulated run."""

    model: str
    msgs_sent: np.ndarray       #: per-node messages sent
    msgs_recv: np.ndarray       #: per-node messages received
    bytes_sent: np.ndarray      #: per-node bytes sent
    bytes_recv: np.ndarray      #: per-node bytes received
    tx_busy: np.ndarray         #: per-node seconds the sending NIC was occupied
    rx_busy: np.ndarray         #: per-node seconds the receiving NIC was occupied
    link_busy: float = 0.0      #: seconds the shared bisection link carried ≥1 flow
    link_bytes: float = 0.0     #: total bytes that crossed the bisection link
    n_eager: int = 0            #: messages below the eager threshold
    n_rendezvous: int = 0       #: messages using the rendezvous protocol
    bisection_Bps: float = 0.0  #: resolved bisection capacity (contention family)
    ranks_per_node: int = 1     #: topology of the run (1 = flat)
    intra_bytes: float = 0.0    #: bytes that stayed inside a physical node
    inter_bytes: float = 0.0    #: bytes that crossed node boundaries
    intra_msgs: int = 0         #: messages between ranks on the same node
    inter_msgs: int = 0         #: messages between ranks on different nodes
    intra_link_busy: float = 0.0  #: node-seconds any intra-node link carried ≥1 flow

    def busy_fractions(self, makespan: float) -> dict:
        """Link/NIC busy- and idle-time breakdown as fractions of the run."""
        span = makespan if makespan > 0 else 1.0
        return {
            "tx_busy": self.tx_busy / span,
            "rx_busy": self.rx_busy / span,
            "link_busy": self.link_busy / span,
            "link_idle": max(0.0, 1.0 - self.link_busy / span),
        }


class NetworkModel:
    """Base class: per-node counters, recording, the p2p multicast
    fallback and :meth:`stats`.

    Subclasses implement :meth:`send` (and may override
    :meth:`multicast` and :meth:`on_internal`).  The simulator calls
    :meth:`bind` once per run with a ``push_event(time, etype,
    payload)`` callback that allocates the shared sequence number.
    A message ref is a tuple whose first two fields are the datum and
    version the message carries (the simulator may append more).
    The per-node counters are plain lists (a send updates them once or
    twice, and list indexing is several times faster than NumPy scalar
    indexing); :meth:`stats` turns them into arrays.
    """

    name = "base"

    def bind(self, cluster: ClusterSpec,
             push_event: Callable[[float, int, object], None],
             writer=None) -> None:
        """Attach the model to one run.

        ``writer`` is the run's record sink, a
        :class:`~repro.runtime.trace.TraceWriter` (``None`` = the run
        records nothing): each delivered message is handed to its
        :meth:`~repro.runtime.trace.TraceWriter.write_msg`.
        """
        self.cluster = cluster
        self._push = push_event
        P = cluster.nnodes
        self.msgs_sent = [0] * P
        self.msgs_recv = [0] * P
        self.bytes_sent = [0.0] * P
        self.bytes_recv = [0.0] * P
        self.tx_busy = [0.0] * P
        self.rx_busy = [0.0] * P
        self._writer = writer
        self._bind()

    def _bind(self) -> None:  # pragma: no cover - overridden
        pass

    # ------------------------------------------------------------------
    def send(self, ref: DataRef, src: int, dst: int, t: float) -> None:
        raise NotImplementedError

    def multicast(self, src: int, dests, t: float) -> None:
        """Push one produced version to several consumers (p2p default)."""
        for ref, dst in dests:
            self.send(ref, src, dst, t)

    def on_internal(self, payload, now: float) -> List[Tuple[DataRef, int]]:
        """Handle a model-internal event; return completed arrivals."""
        return []

    # ------------------------------------------------------------------
    def _record(self, ref: DataRef, src: int, dst: int,
                start: float, end: float, nbytes: float) -> None:
        if self._writer is not None:
            self._writer.write_msg(
                MsgRecord(data=ref[0], version=ref[1], src=src, dst=dst,
                          start=start, end=end, nbytes=nbytes))

    def engine_args(self) -> dict:
        """Keyword arguments of :func:`repro.runtime.csim.run` that make
        the compiled loop run this (bound) model: none for ``nic``,
        whose wire time the loop always takes."""
        return {}

    def adopt(self, res) -> None:
        """Take the counters of a compiled run of this (bound) model,
        a :class:`~repro.runtime.csim.FastSimResult`, so that
        :meth:`stats` reports that run."""
        nbytes = float(self.cluster.tile_bytes)
        self.msgs_sent = res.msgs_sent
        self.msgs_recv = res.msgs_recv
        self.bytes_sent = res.msgs_sent * nbytes
        self.bytes_recv = res.msgs_recv * nbytes
        self.tx_busy = res.tx_busy
        self.rx_busy = res.rx_busy

    def stats(self) -> NetworkStats:
        return NetworkStats(
            model=self.name,
            msgs_sent=np.asarray(self.msgs_sent, dtype=np.int64),
            msgs_recv=np.asarray(self.msgs_recv, dtype=np.int64),
            bytes_sent=np.asarray(self.bytes_sent, dtype=np.float64),
            bytes_recv=np.asarray(self.bytes_recv, dtype=np.float64),
            tx_busy=np.asarray(self.tx_busy, dtype=np.float64),
            rx_busy=np.asarray(self.rx_busy, dtype=np.float64),
        )


class NicModel(NetworkModel):
    """The legacy v1 model: sender-serialized NICs, fixed wire time.

    The arithmetic (and its operation order) is copied verbatim from
    the v1 simulator so that ``nic`` traces are bit-for-bit identical
    to pre-v2 output — the golden-trace regression tests enforce this.
    It is the only model of the idealized binomial ``tree`` multicast
    (``ClusterSpec.multicast``).
    """

    name = "nic"

    def _bind(self) -> None:
        self.msg_time = self.cluster.message_time()
        self._nbytes = self.cluster.tile_bytes
        self.tx_free = [0.0] * self.cluster.nnodes

    def send(self, ref: DataRef, src: int, dst: int, t: float) -> None:
        mt = self.msg_time
        start = max(t, self.tx_free[src])
        arrival = start + mt
        self.tx_free[src] = arrival
        nbytes = self._nbytes
        self.msgs_sent[src] += 1
        self.msgs_recv[dst] += 1
        self.bytes_sent[src] += nbytes
        self.bytes_recv[dst] += nbytes
        self.tx_busy[src] += mt
        self.rx_busy[dst] += mt
        if self._writer is not None:
            self._record(ref, src, dst, start, arrival, nbytes)
        self._push(arrival, EVENT_MSG_ARRIVE, (ref, dst))

    def multicast(self, src: int, dests, t: float) -> None:
        if self.cluster.multicast == "tree" and len(dests) > 1:
            self._multicast_tree(src, dests, t)
        else:
            for ref, dst in dests:
                self.send(ref, src, dst, t)

    def _multicast_tree(self, src: int, dests, t: float) -> None:
        """Idealized binomial-tree broadcast: the set of holders doubles
        every message round, so destination ``i`` receives after
        ``ceil(log2(i+2))`` rounds.  The root's NIC is charged for its
        own first send; forwarding is done by earlier receivers (not
        charged — this is the *best case* collectives could achieve,
        used by the ablation benchmarks)."""
        start = max(t, self.tx_free[src])
        self.tx_free[src] = start + self.msg_time
        self.tx_busy[src] += self.msg_time
        nbytes = self._nbytes
        for i, (ref, dst) in enumerate(dests):
            rounds = (i + 1).bit_length()  # == ceil(log2(i + 2))
            arrival = start + rounds * self.msg_time
            self.msgs_sent[src] += 1
            self.msgs_recv[dst] += 1
            self.bytes_sent[src] += nbytes
            self.bytes_recv[dst] += nbytes
            self.rx_busy[dst] += self.msg_time
            self._record(ref, src, dst, float(start), float(arrival), nbytes)
            self._push(arrival, EVENT_MSG_ARRIVE, (ref, dst))


class _Flow:
    """One in-flight transfer of the contention model, over one link."""

    __slots__ = ("ref", "src", "dst", "nbytes", "t0", "remaining", "rate",
                 "link")

    def __init__(self, ref: DataRef, src: int, dst: int, nbytes: float,
                 t0: float, link: int):
        self.ref = ref
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.t0 = t0
        self.remaining = nbytes
        self.rate = 0.0
        self.link = link


class ContentionModel(NetworkModel):
    """Contention-aware model (see module docstring for semantics).

    Every flow crosses one link: link ``0`` is the shared bisection
    link, and link ``1 + m`` is machine ``m``'s private intra-machine
    link, which carries the flows between two ranks of machine ``m``.
    Fair shares are per link, from the per-link counts of active flows.
    This model puts each rank on its own machine (:meth:`_machines`),
    so every flow crosses the bisection link;
    :class:`HierarchicalModel` packs ranks into machines.
    """

    name = "contention"

    def _machines(self) -> Sequence[int]:
        """Machine of each rank: here, one rank per machine."""
        return range(self.cluster.nnodes)

    def _bind(self) -> None:
        cl = self.cluster
        P = cl.nnodes
        self._machine = [int(m) for m in self._machines()]
        nmachines = max(self._machine) + 1
        self.node_bw = float(cl.bandwidth_Bps)
        self.link_bw = cl.full_bisection_Bps(nmachines)
        self.intra_link_bw = self.node_bw * INTRA_BANDWIDTH_SCALE
        self.alpha = float(cl.latency_s)
        self.intra_alpha = self.alpha * INTRA_LATENCY_SCALE
        self._queues: List[deque] = [deque() for _ in range(P)]
        self._waiting: set = set()  # senders whose queue is non-empty
        self._tx_held = [False] * P
        self._rx_held = [False] * P
        self._flows: dict[int, _Flow] = {}
        self._active: List[int] = []  # insertion-ordered active flow ids
        self._link_flows = [0] * (1 + nmachines)  # active flows per link
        self._intra_busy = 0  # private links with an active flow
        self._next_fid = 0
        self._token = 0  # names the one finish event that is current
        self._last_t = 0.0
        self.link_busy = 0.0
        self.link_bytes = 0.0
        self.n_eager = 0
        self.n_rendezvous = 0
        self.intra_bytes = 0.0
        self.intra_msgs = 0
        self.inter_msgs = 0
        self.intra_link_busy = 0.0

    # ------------------------------------------------------------------
    def send(self, ref: DataRef, src: int, dst: int, t: float) -> None:
        self._queues[src].append((ref, dst))
        self._waiting.add(src)
        self._pump(t)

    def _pump(self, now: float) -> None:
        """Start queued flows wherever both endpoint NICs are idle,
        visiting the senders with queued messages in ascending node id."""
        for src in sorted(self._waiting):
            if self._tx_held[src]:
                continue
            queue = self._queues[src]
            ref, dst = queue[0]
            if self._rx_held[dst]:
                continue  # head-of-line blocking on the busy receiver
            queue.popleft()
            if not queue:
                self._waiting.discard(src)
            self._start_flow(ref, src, dst, now)

    def _start_flow(self, ref: DataRef, src: int, dst: int, now: float) -> None:
        nbytes = float(self.cluster.tile_bytes)
        machine = self._machine[src]
        link = 0 if machine != self._machine[dst] else 1 + machine
        alpha = self.intra_alpha if link else self.alpha
        eager = nbytes <= EAGER_THRESHOLD_BYTES
        lat = alpha if eager else alpha * (1 + HANDSHAKE_RTTS)
        if eager:
            self.n_eager += 1
        else:
            self.n_rendezvous += 1
        fid = self._next_fid
        self._next_fid += 1
        self._tx_held[src] = True
        self._rx_held[dst] = True
        self._flows[fid] = _Flow(ref, src, dst, nbytes, now, link)
        self.msgs_sent[src] += 1
        self.bytes_sent[src] += nbytes
        if link:
            self.intra_msgs += 1
            self.intra_bytes += nbytes
        else:
            self.inter_msgs += 1
            self.link_bytes += nbytes
        self._push(now + lat, EVENT_NET_INTERNAL, ("data", fid))

    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Drain bytes of the active flows up to ``now``, and charge the
        time to the links that carried them."""
        dt = now - self._last_t
        if dt > 0.0 and self._active:
            for fid in self._active:
                flow = self._flows[fid]
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
            if self._link_flows[0]:
                self.link_busy += dt
            self.intra_link_busy += dt * self._intra_busy
        self._last_t = max(self._last_t, now)

    def _count(self, link: int, step: int) -> None:
        """Add ``step`` (±1) to the active flows of ``link``."""
        n = self._link_flows[link]
        self._link_flows[link] = n + step
        if link and (n == 0 or n + step == 0):
            self._intra_busy += step

    def _reschedule(self, now: float) -> None:
        """Re-apportion the fair shares of every link, and push a finish
        event for the active flow that ends first (the first in
        activation order on ties), superseding the pending one.

        Only that event can still be current when it pops: the flow's
        finish re-apportions the shares, as does any flow start before
        it, and each re-apportioning pushes a new event.
        """
        if not self._active:
            return
        counts = self._link_flows
        n = counts[0]
        inter = min(self.node_bw, self.link_bw / n) if n else 0.0
        first, t_first = -1, float("inf")
        for fid in self._active:
            flow = self._flows[fid]
            link = flow.link
            flow.rate = self.intra_link_bw / counts[link] if link else inter
            t = now + flow.remaining / flow.rate
            if t < t_first:
                first, t_first = fid, t
        self._token += 1
        self._push(t_first, EVENT_NET_INTERNAL, ("fin", first, self._token))

    def on_internal(self, payload, now: float) -> List[Tuple[DataRef, int]]:
        if payload[0] == "data":
            fid = payload[1]
            self._advance(now)
            self._active.append(fid)
            self._count(self._flows[fid].link, 1)
            self._reschedule(now)
            return []
        # ("fin", fid, token): a superseded finish event does nothing
        if payload[2] != self._token:
            return []
        fid = payload[1]
        flow = self._flows[fid]
        self._advance(now)
        self._active.remove(fid)
        self._count(flow.link, -1)
        del self._flows[fid]
        self._tx_held[flow.src] = False
        self._rx_held[flow.dst] = False
        busy = now - flow.t0
        self.tx_busy[flow.src] += busy
        self.rx_busy[flow.dst] += busy
        self.msgs_recv[flow.dst] += 1
        self.bytes_recv[flow.dst] += flow.nbytes
        self._record(flow.ref, flow.src, flow.dst, flow.t0, now, flow.nbytes)
        self._reschedule(now)
        self._pump(now)
        return [(flow.ref, flow.dst)]

    def engine_args(self) -> dict:
        """The flow engine's parameters for the compiled loop: the
        machine map, the message size, the NIC, bisection and
        intra-machine bandwidths, and the per-message latency between
        and inside machines, computed as :meth:`_start_flow` does."""
        nbytes = float(self.cluster.tile_bytes)
        eager = nbytes <= EAGER_THRESHOLD_BYTES
        return {
            "machine": self._machine,
            "nbytes": nbytes,
            "bandwidths": (self.node_bw, self.link_bw, self.intra_link_bw),
            "latencies": tuple(
                alpha if eager else alpha * (1 + HANDSHAKE_RTTS)
                for alpha in (self.alpha, self.intra_alpha)),
        }

    def adopt(self, res) -> None:
        super().adopt(res)
        nbytes = float(self.cluster.tile_bytes)
        n = res.inter_msgs + res.intra_msgs
        if nbytes <= EAGER_THRESHOLD_BYTES:
            self.n_eager = n
        else:
            self.n_rendezvous = n
        self.inter_msgs = res.inter_msgs
        self.intra_msgs = res.intra_msgs
        self.link_bytes = res.inter_msgs * nbytes
        self.intra_bytes = res.intra_msgs * nbytes
        self.link_busy = res.link_busy
        self.intra_link_busy = res.intra_link_busy

    def stats(self) -> NetworkStats:
        out = super().stats()
        out.link_busy = self.link_busy
        out.link_bytes = self.link_bytes
        out.n_eager = self.n_eager
        out.n_rendezvous = self.n_rendezvous
        out.bisection_Bps = self.link_bw
        return out


class HierarchicalModel(ContentionModel):
    """Two-level contention model: the contention engine plus a map of
    ranks to machines.

    The cluster's :class:`~repro.runtime.topology.Topology`
    (``ClusterSpec.ranks_per_node``) packs ranks into machines.  A flow
    between two ranks of one machine crosses that machine's private
    intra-machine link (NUMA / NVLink class:
    :data:`INTRA_BANDWIDTH_SCALE` × the NIC bandwidth,
    :data:`INTRA_LATENCY_SCALE` × the NIC latency); a flow between
    machines crosses the global bisection link, which is sized for the
    number of *machines*, not ranks.  Fair sharing is per link: ``n``
    concurrent inter-machine flows each get ``min(bandwidth, bisection
    / n)``, ``n`` concurrent flows inside one machine each get
    ``intra_bandwidth / n``, and the two levels never take bandwidth
    from each other.

    Everything else is :class:`ContentionModel`'s flow engine, which
    this class feeds only its machine map.  With ``ranks_per_node ==
    1`` every rank is its own machine and the traces match
    ``"contention"`` exactly apart from the recorded model name (pinned
    by the hierarchical test suite).  Its :class:`NetworkStats` add the
    per-level traffic (``intra_bytes``/``inter_bytes``, message counts,
    ``intra_link_busy`` in machine-seconds).
    """

    name = "hierarchical"

    def _machines(self) -> Sequence[int]:
        return self.cluster.topology().rank_nodes

    def stats(self) -> NetworkStats:
        out = super().stats()
        out.ranks_per_node = self.cluster.ranks_per_node
        out.intra_bytes = self.intra_bytes
        out.inter_bytes = self.link_bytes
        out.intra_msgs = self.intra_msgs
        out.inter_msgs = self.inter_msgs
        out.intra_link_busy = self.intra_link_busy
        return out


class ResilientNetwork(NetworkModel):
    """Fault-plan decorator around a concrete network model.

    Wraps any :class:`NetworkModel` and intercepts *deliveries* (not
    sends): the inner model keeps its exact timing arithmetic, and the
    wrapper decides at arrival time whether the message was lost to the
    plan's loss probability (seeded PCG64, one draw per delivery) or
    stretched by an active link-degradation window.

    Retry protocol: a lost delivery schedules a retransmission of the
    same ``(ref, dst)`` after ``retry_timeout_s · backoff^attempt``
    (attempt counted per message); after ``max_retries`` lost attempts
    the delivery succeeds unconditionally — the transport's last-resort
    acknowledged path — so every run terminates.  Each loss initiates
    exactly one retransmission, hence ``retries == msgs_lost``.
    Retransmissions re-enter the inner model through :meth:`send`, so
    they pay NIC serialization and contention like any other message;
    a retransmission whose source has since failed is satisfied from
    stable storage (:meth:`storage_fetch`) instead.

    Multicast is the base class's point-to-point fan-out through
    :meth:`send`: a binomial ``tree`` schedule cannot be retried per
    destination, so fault runs reject ``multicast="tree"`` at entry.

    The simulator must filter every ``EVENT_MSG_ARRIVE`` through
    :meth:`arrived` (and internal events through :meth:`on_internal`,
    which applies the same filter to the contention model's completed
    flows).  Only :func:`repro.runtime.faults.simulate_with_faults`
    does this; the fast path never instantiates the wrapper.
    """

    def __init__(self, inner: NetworkModel, plan) -> None:
        self.inner = inner
        self.plan = plan

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    def bind(self, cluster: ClusterSpec,
             push_event: Callable[[float, int, object], None],
             writer=None) -> None:
        from .faults import FaultEvent  # late: faults imports this module
        self._FaultEvent = FaultEvent
        self.cluster = cluster
        self._push = push_event
        self.inner.bind(cluster, push_event, writer=writer)
        plan = self.plan
        self._rng = np.random.Generator(np.random.PCG64(plan.seed))
        self._timeout = (plan.retry_timeout_s if plan.retry_timeout_s is not None
                         else 4.0 * cluster.message_time())
        self._attempts: dict = {}
        self._src: dict = {}
        self._dead: set = set()
        self.msgs_lost = 0
        self.retries = 0
        self.msgs_degraded = 0
        self.fault_events: list = []

    def mark_dead(self, node: int) -> None:
        self._dead.add(node)

    # ------------------------------------------------------------------
    def send(self, ref: DataRef, src: int, dst: int, t: float) -> None:
        self._src[(ref, dst)] = src
        self.inner.send(ref, src, dst, t)

    def storage_fetch(self, ref: DataRef, dst: int, t: float) -> None:
        """Reliable re-fetch from stable storage (one message time)."""
        self._push(t + self.cluster.message_time(), EVENT_NET_INTERNAL,
                   ("_flt", "deliver", ref, dst))

    # ------------------------------------------------------------------
    def arrived(self, ref: DataRef, dst: int, t: float) -> bool:
        """Loss/degradation filter applied to every delivery.

        Returns ``True`` if the message really arrives at ``t``; a
        ``False`` means the wrapper has scheduled a later retry or a
        stretched delivery on the shared event heap.
        """
        plan = self.plan
        key = (ref, dst)
        if plan.msg_loss_prob > 0.0:
            attempt = self._attempts.get(key, 0)
            if attempt < plan.max_retries and self._rng.random() < plan.msg_loss_prob:
                self._attempts[key] = attempt + 1
                self.msgs_lost += 1
                self.retries += 1  # the retransmission initiated below
                delay = self._timeout * plan.retry_backoff ** attempt
                self._push(t + delay, EVENT_NET_INTERNAL,
                           ("_flt", "retry", ref, dst))
                self.fault_events.append(self._FaultEvent(
                    t, "loss", dst,
                    f"d{ref[0]}v{ref[1]} attempt {attempt + 1}"))
                return False
            self._attempts.pop(key, None)
        factor = plan.degradation_factor(t)
        if factor < 1.0:
            extra = (self.cluster.tile_bytes / self.cluster.bandwidth_Bps
                     ) * (1.0 / factor - 1.0)
            self.msgs_degraded += 1
            self._push(t + extra, EVENT_NET_INTERNAL,
                       ("_flt", "deliver", ref, dst))
            return False
        return True

    def on_internal(self, payload, now: float) -> List[Tuple[DataRef, int]]:
        if payload and payload[0] == "_flt":
            op, ref, dst = payload[1], payload[2], payload[3]
            if op == "deliver":
                return [(ref, dst)]
            # op == "retry"
            if dst in self._dead:
                return []  # consumer was re-homed; its copy is resent
            self.fault_events.append(self._FaultEvent(
                now, "retry", dst, f"d{ref[0]}v{ref[1]}"))
            src = self._src.get((ref, dst), dst)
            if src in self._dead:
                self.storage_fetch(ref, dst, now)
            else:
                self.send(ref, src, dst, now)
            return []
        out = self.inner.on_internal(payload, now)
        return [a for a in out if self.arrived(a[0], a[1], now)]

    def stats(self) -> NetworkStats:
        return self.inner.stats()


#: Registered network models, by CLI/`simulate(network=...)` name.
NETWORK_MODELS = {"nic": NicModel, "contention": ContentionModel,
                  "hierarchical": HierarchicalModel}


def make_network(network: Optional[str]) -> NetworkModel:
    """A fresh model for a ``simulate(network=...)`` registry name.

    ``None`` is the legacy default, ``"nic"``; anything that is not a
    key of :data:`NETWORK_MODELS` raises ``ValueError``.
    """
    try:
        return NETWORK_MODELS["nic" if network is None else network]()
    except KeyError:
        raise ValueError(
            f"unknown network model {network!r}; "
            f"available: {sorted(NETWORK_MODELS)}") from None

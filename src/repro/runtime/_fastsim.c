/* The package's compiled kernels: the simulator's event loop
 * (``repro_run_sim``), phase 1 of GCR&M (``repro_gcrm_phase1``) and the
 * two passes that lower a task graph to its simulation plan
 * (``repro_plan_count`` and ``repro_plan_fill``, at the end of this
 * file).  ``csim.py`` binds them all, and one ``REPRO_SIM_BACKEND``
 * resolution selects them all.  The caller passes every buffer, scratch
 * included: nothing is allocated here and no libc beyond the implicit
 * runtime is used.
 *
 * The event loop replicates, event for event, the Python loop of
 * ``repro.runtime.simulator`` for every fault-free run without a
 * fork-join barrier, with point-to-point multicast and a scheduler
 * whose keys are a static table (priority, lookahead, comm_avoiding,
 * work_stealing), under every network model:
 *
 *  - ``nic``: sender-serialized NICs with a fixed wire time
 *    (``NicModel``);
 *  - the contention family (``flows != 0``): ``ContentionModel``'s
 *    flow engine, push for push — FIFO NIC queues pumped in ascending
 *    sender order with head-of-line blocking, eager/rendezvous
 *    latency events, per-link fair shares with one current finish
 *    event per re-apportioning (ties to the first flow in activation
 *    order), and the machine map that ``hierarchical`` feeds it.
 *
 * Work stealing (``steal != 0``) is the Python loop's rebalance hook:
 * at the seed and after each same-time batch, idle nodes with empty
 * queues pull queued tasks from their victims; a stolen task runs
 * ``base_dur / speed[thief] + msg_time`` on the thief (``+
 * intra_msg_time`` instead when the flow engine's machine map puts
 * thief and victim on one machine), and its completion frees a core
 * there while its wakes stay at the owner.
 * The caller hands in the SimPlan arrays as they are (int32 indexes,
 * int64 keys).
 *
 * Recording (``record != 0``) stores each task's start and end time,
 * each message's send start and arrival, and one log entry per record
 * in the order the Python loop emits them: ``tid`` when a task is
 * dispatched, ``-1 - uid`` when a message is recorded (at its send
 * under ``nic``, at its arrival under the flow engine).  The caller
 * turns these arrays into task/message records or trace-writer calls.
 *
 * Byte-identity contract:
 *  - the event heap orders ``(time, tag)`` with unique tags exactly
 *    like the Python tuple heap (tags are seq+etype, seq += 4);
 *  - ready queues are per-node min-heaps of the packed keys; keys are
 *    unique, so pop order is a pure function of the key set and
 *    matches Python's single-list heaps bit for bit;
 *  - both heaps pop bottom-up (the hole walks to a leaf along the
 *    smaller child, then the former last entry sifts up), so their
 *    slots are laid out unlike Python's ``heapq``; but every key is
 *    unique, so each pop still returns the one minimum of the set and
 *    the pop sequence is the same;
 *  - NIC and flow arithmetic is the verbatim operation sequence of
 *    ``NicModel`` and ``ContentionModel`` on IEEE doubles (compile
 *    WITHOUT -ffast-math, and with -ffp-contract=off: a fused
 *    multiply-add in ``remaining - rate * dt`` rounds once where
 *    Python rounds twice);
 *  - per-node busy time accumulates in pop order, so the float sums
 *    equal the Python path's.
 *
 * Event types (low two tag bits): 0 = TASK_DONE, 1 = MSG_ARRIVE,
 * 2 = NET_INTERNAL (a flow's data starts moving: payload = its sender;
 * a finish event: payload = -1 - token).
 */

#include <stdint.h>

typedef struct {
    double *t;
    int64_t *tag;
    int64_t *pl;
    int64_t n;
    int64_t seq;
} EvHeap;

/* put an event in hole ``i`` and sift it up */
static void ev_sift_up(EvHeap *h, int64_t i, double t, int64_t tag,
                       int64_t pl)
{
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (t < h->t[p] || (t == h->t[p] && tag < h->tag[p])) {
            h->t[i] = h->t[p];
            h->tag[i] = h->tag[p];
            h->pl[i] = h->pl[p];
            i = p;
        } else {
            break;
        }
    }
    h->t[i] = t;
    h->tag[i] = tag;
    h->pl[i] = pl;
}

/* push with the next sequence number: tag = seq + etype */
static void ev_push(EvHeap *h, double t, int64_t etype, int64_t pl)
{
    h->seq += 4;
    ev_sift_up(h, h->n++, t, h->seq + etype, pl);
}

/* event a orders before event b: no short-circuit, so the compiler
 * can keep the comparison free of branches */
static int ev_before(const EvHeap *h, int64_t a, int64_t b)
{
    return (h->t[a] < h->t[b]) |
           ((h->t[a] == h->t[b]) & (h->tag[a] < h->tag[b]));
}

/* bottom-up pop: walk the hole from the root to a leaf along the
 * smaller child, then sift the former last entry (slot ``n``) up from
 * that leaf.  When ``c + 1 == n`` the child test reads slot ``n``,
 * which stays inside the buffer: it still holds the entry being
 * re-inserted. */
static void ev_pop(EvHeap *h, double *t, int64_t *tag, int64_t *pl)
{
    *t = h->t[0];
    *tag = h->tag[0];
    *pl = h->pl[0];
    int64_t n = --h->n;
    int64_t i = 0;
    for (int64_t c = 1; c < n; c = 2 * i + 1) {
        c += (c + 1 < n) & ev_before(h, c + 1, c);
        h->t[i] = h->t[c];
        h->tag[i] = h->tag[c];
        h->pl[i] = h->pl[c];
        i = c;
    }
    ev_sift_up(h, i, h->t[n], h->tag[n], h->pl[n]);
}

/* min-heap of int64 keys inside a per-node arena slice */
static void rq_push(int64_t *a, int64_t n, int64_t key)
{
    int64_t i = n;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (key < a[p]) {
            a[i] = a[p];
            i = p;
        } else {
            break;
        }
    }
    a[i] = key;
}

/* bottom-up pop of a heap of ``n`` keys, as ``ev_pop`` */
static int64_t rq_pop(int64_t *a, int64_t n)
{
    int64_t top = a[0];
    int64_t i = 0;
    n--;
    for (int64_t c = 1; c < n; c = 2 * i + 1) {
        c += (c + 1 < n) & (a[c + 1] < a[c]);
        a[i] = a[c];
        i = c;
    }
    rq_push(a, i, a[n]);
    return top;
}

static int64_t popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555u);
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
    return (int64_t)((x * 0x0101010101010101u) >> 56);
}

/* ------------------------------------------------------------------ */
/* The contention family's flow engine (``ContentionModel``)          */
/* ------------------------------------------------------------------ */

/* A NIC sends one flow at a time (``_tx_held``), so every flow in
 * progress is named by its sender: the per-sender arrays hold that
 * flow, and ``active`` lists the senders whose flow carries data, in
 * activation order (the Python model's ``_active``).  Link 0 is the
 * bisection link, link 1 + m machine m's private link. */
typedef struct {
    const int32_t *machine;     /* machine of each rank */
    const int32_t *msg_dst;
    double nbytes;              /* bytes of every message */
    double node_bw, link_bw, intra_bw;
    double lat_inter, lat_intra;
    int32_t *qnext;             /* per-sender FIFO queues, linked by uid */
    int64_t *qhead, *qtail;
    uint64_t *waiting;          /* bitset: senders with a queued uid */
    int64_t nwords;
    int64_t *tx_held, *rx_held;
    int64_t *f_uid, *f_link;    /* each sender's flow */
    double *f_t0, *f_rem, *f_rate;
    int64_t *active, n_active;
    int64_t *link_flows;        /* active flows per link */
    int64_t intra_busy;         /* machine links carrying >= 1 flow */
    int64_t token, fin_src;     /* the current finish event, its flow */
    double last_t, link_busy, intra_link_busy;
    int64_t n_inter, n_intra;   /* flows started, per level */
} Flows;

static void flow_start(Flows *F, EvHeap *h, int64_t uid, int64_t src,
                       double now, int64_t *msgs_sent)
{
    int64_t dst = F->msg_dst[uid];
    int64_t m = F->machine[src];
    int64_t link = m != F->machine[dst] ? 0 : 1 + m;
    F->tx_held[src] = 1;
    F->rx_held[dst] = 1;
    F->f_uid[src] = uid;
    F->f_link[src] = link;
    F->f_t0[src] = now;
    F->f_rem[src] = F->nbytes;
    F->f_rate[src] = 0.0;
    msgs_sent[src]++;
    if (link)
        F->n_intra++;
    else
        F->n_inter++;
    ev_push(h, now + (link ? F->lat_intra : F->lat_inter), 2, src);
}

/* start queued flows wherever both endpoint NICs are idle, visiting
 * the senders with queued messages in ascending node id */
static void flow_pump(Flows *F, EvHeap *h, double now, int64_t *msgs_sent)
{
    for (int64_t w = 0; w < F->nwords; w++) {
        uint64_t bits = F->waiting[w];
        while (bits) {
            uint64_t low = bits & (~bits + 1u);
            bits ^= low;
            int64_t src = w * 64 + popcount64(low - 1u);
            if (F->tx_held[src])
                continue;
            int64_t uid = F->qhead[src];
            if (F->rx_held[F->msg_dst[uid]])
                continue;  /* head-of-line blocking on the busy receiver */
            F->qhead[src] = F->qnext[uid];
            if (F->qhead[src] < 0) {
                F->qtail[src] = -1;
                F->waiting[w] &= ~low;
            }
            flow_start(F, h, uid, src, now, msgs_sent);
        }
    }
}

static void flow_send(Flows *F, EvHeap *h, int64_t uid, int64_t src,
                      double now, int64_t *msgs_sent)
{
    F->qnext[uid] = -1;
    if (F->qtail[src] < 0)
        F->qhead[src] = uid;
    else
        F->qnext[F->qtail[src]] = (int32_t)uid;
    F->qtail[src] = uid;
    F->waiting[src >> 6] |= (uint64_t)1 << (src & 63);
    flow_pump(F, h, now, msgs_sent);
}

/* drain bytes of the active flows up to ``now`` and charge the time
 * to the links that carried them */
static void flow_advance(Flows *F, double now)
{
    double dt = now - F->last_t;
    if (dt > 0.0 && F->n_active) {
        for (int64_t k = 0; k < F->n_active; k++) {
            int64_t s = F->active[k];
            double r = F->f_rem[s] - F->f_rate[s] * dt;
            F->f_rem[s] = r > 0.0 ? r : 0.0;
        }
        if (F->link_flows[0])
            F->link_busy += dt;
        F->intra_link_busy += dt * (double)F->intra_busy;
    }
    if (now > F->last_t)
        F->last_t = now;
}

static void flow_count(Flows *F, int64_t link, int64_t step)
{
    int64_t n = F->link_flows[link];
    F->link_flows[link] = n + step;
    if (link && (n == 0 || n + step == 0))
        F->intra_busy += step;
}

/* re-apportion every link's fair shares and push a finish event for
 * the active flow that ends first (the first in activation order on
 * ties), superseding the pending one */
static void flow_reschedule(Flows *F, EvHeap *h, double now)
{
    if (F->n_active == 0)
        return;
    int64_t n = F->link_flows[0];
    double inter = 0.0;
    if (n) {
        double share = F->link_bw / (double)n;
        inter = share < F->node_bw ? share : F->node_bw;
    }
    int64_t first = -1;
    double t_first = 0.0;
    for (int64_t k = 0; k < F->n_active; k++) {
        int64_t s = F->active[k];
        int64_t link = F->f_link[s];
        double rate = link ? F->intra_bw / (double)F->link_flows[link]
                           : inter;
        F->f_rate[s] = rate;
        double t = now + F->f_rem[s] / rate;
        if (first < 0 || t < t_first) {
            first = s;
            t_first = t;
        }
    }
    F->token++;
    F->fin_src = first;
    ev_push(h, t_first, 2, -1 - F->token);
}

/* a flow's latency has elapsed: its data starts moving */
static void flow_activate(Flows *F, EvHeap *h, int64_t src, double now)
{
    flow_advance(F, now);
    F->active[F->n_active++] = src;
    flow_count(F, F->f_link[src], 1);
    flow_reschedule(F, h, now);
}

/* the current finish event: retire its flow (the caller then books
 * the message, re-apportions, pumps and delivers) */
static int64_t flow_finish(Flows *F, double now)
{
    int64_t src = F->fin_src;
    flow_advance(F, now);
    int64_t k = 0;
    while (F->active[k] != src)
        k++;
    for (F->n_active--; k < F->n_active; k++)
        F->active[k] = F->active[k + 1];
    flow_count(F, F->f_link[src], -1);
    F->tx_held[src] = 0;
    F->rx_held[F->msg_dst[F->f_uid[src]]] = 0;
    return src;
}

/* ------------------------------------------------------------------ */
/* The event loop                                                     */
/* ------------------------------------------------------------------ */

int64_t repro_run_sim(
    int64_t n_tasks, int64_t nnodes,
    const int32_t *node, const double *dur, const int64_t *keys,
    int32_t *pending,
    const int32_t *ld_indptr, const int32_t *ld_tasks,
    const int32_t *push_indptr, const int32_t *push_uids,
    const int32_t *msg_dst, const int32_t *msg_src,
    const int32_t *w_indptr, const int32_t *w_tasks,
    int64_t n_init, const int32_t *init_uids,
    double msg_time,
    /* flow engine (contention family) when flows != 0: the machine of
     * each rank, and [nbytes, NIC, bisection and intra-machine
     * bandwidth, inter- and intra-machine latency] */
    int64_t flows, const int32_t *machine, int64_t nmachines,
    const double *net,
    /* work stealing when steal != 0: each node's victims (CSR), the
     * per-task base durations, the node speeds, and the tile transfer
     * a thief pays from a rank of its own machine (flows != 0) */
    int64_t steal, const int32_t *v_indptr, const int32_t *v_nodes,
    const double *base_dur, const double *speed, double intra_msg_time,
    /* scratch, preallocated by the caller */
    double *ev_t, int64_t *ev_tag, int64_t *ev_pl,
    int64_t *ready, const int64_t *rbase, int64_t *rsize,
    int64_t *idle, double *tx_free,
    /* flow scratch (flows != 0): 7 * nnodes + 1 + nmachines ints,
     * 3 * nnodes doubles, one int per message, ceil(nnodes / 64)
     * words */
    int64_t *flow_i, double *flow_f, int32_t *qnext, uint64_t *waiting,
    /* recording: written only when record != 0 (else may be empty) */
    int64_t record, double *task_start, double *task_end,
    double *msg_start, double *msg_arrive, int64_t *log,
    /* outputs; exec_node (steal != 0) comes in as a copy of node */
    int32_t *exec_node,
    double *busy, int64_t *msgs_sent, int64_t *msgs_recv,
    double *tx_busy, double *rx_busy,
    double *out_times /* [makespan, link_busy, intra_link_busy] */,
    int64_t *out_counts /* [completed, n_messages, log length,
                           inter-machine and intra-machine messages] */)
{
    EvHeap h = { ev_t, ev_tag, ev_pl, 0, 0 };
    int64_t n_messages = 0;
    int64_t completed = 0;
    int64_t n_log = 0;
    double now = 0.0;
    Flows F = { 0 };

    if (flows) {
        int64_t P = nnodes;
        F.machine = machine;
        F.msg_dst = msg_dst;
        F.nbytes = net[0];
        F.node_bw = net[1];
        F.link_bw = net[2];
        F.intra_bw = net[3];
        F.lat_inter = net[4];
        F.lat_intra = net[5];
        F.qnext = qnext;
        F.qhead = flow_i;
        F.qtail = flow_i + P;
        F.tx_held = flow_i + 2 * P;
        F.rx_held = flow_i + 3 * P;
        F.f_uid = flow_i + 4 * P;
        F.f_link = flow_i + 5 * P;
        F.active = flow_i + 6 * P;
        F.link_flows = flow_i + 7 * P;
        for (int64_t k = 0; k < 7 * P + 1 + nmachines; k++)
            flow_i[k] = k < 2 * P ? -1 : 0;
        F.f_t0 = flow_f;
        F.f_rem = flow_f + P;
        F.f_rate = flow_f + 2 * P;
        F.waiting = waiting;
        F.nwords = (P + 63) >> 6;
        for (int64_t w = 0; w < F.nwords; w++)
            waiting[w] = 0;
    }

#define SEND(uid_, src_, t_)                                            \
    do {                                                                \
        int64_t uid__ = (uid_), src__ = (src_);                         \
        double t__ = (t_);                                              \
        if (flows) {                                                    \
            flow_send(&F, &h, uid__, src__, t__, msgs_sent);            \
        } else {                                                        \
            int64_t dst__ = msg_dst[uid__];                             \
            double start__ = t__ > tx_free[src__] ? t__ : tx_free[src__]; \
            double arr__ = start__ + msg_time;                          \
            tx_free[src__] = arr__;                                     \
            n_messages++;                                               \
            msgs_sent[src__]++;                                         \
            msgs_recv[dst__]++;                                         \
            tx_busy[src__] += msg_time;                                 \
            rx_busy[dst__] += msg_time;                                 \
            if (record) {                                               \
                msg_start[uid__] = start__;                             \
                msg_arrive[uid__] = arr__;                              \
                log[n_log++] = -1 - uid__;                              \
            }                                                           \
            ev_push(&h, arr__, 1, uid__);                               \
        }                                                               \
    } while (0)

#define RUN(tid_, n_, t_, d_)                                           \
    do {                                                                \
        busy[n_] += (d_);                                               \
        if (record) {                                                   \
            task_start[tid_] = (t_);                                    \
            task_end[tid_] = (t_) + (d_);                               \
            log[n_log++] = (tid_);                                      \
        }                                                               \
        ev_push(&h, (t_) + (d_), 0, (tid_));                            \
    } while (0)

#define DISPATCH(n_, t_)                                                \
    do {                                                                \
        int64_t nn__ = (n_);                                            \
        int64_t idl__ = idle[nn__];                                     \
        int64_t *rq__ = ready + rbase[nn__];                            \
        int64_t sz__ = rsize[nn__];                                     \
        while (idl__ > 0 && sz__ > 0) {                                 \
            int64_t key__ = rq_pop(rq__, sz__);                         \
            sz__--;                                                     \
            int64_t tid__ = key__ & 0xFFFFFFFFLL;                       \
            idl__--;                                                    \
            RUN(tid__, nn__, (t_), dur[tid__]);                         \
        }                                                               \
        idle[nn__] = idl__;                                             \
        rsize[nn__] = sz__;                                             \
    } while (0)

    /* a message arrived at its destination: wake its waiting consumers
     * (all on that node) and refill the node */
#define DELIVER(uid_, t_)                                               \
    do {                                                                \
        int64_t u__ = (uid_);                                           \
        int64_t dst__ = msg_dst[u__];                                   \
        int64_t any__ = 0;                                              \
        int64_t *rq__ = ready + rbase[dst__];                           \
        for (int64_t q = w_indptr[u__]; q < w_indptr[u__ + 1]; q++) {   \
            int64_t dep = w_tasks[q];                                   \
            if (--pending[dep] == 0) {                                  \
                rq_push(rq__, rsize[dst__], keys[dep]);                 \
                rsize[dst__]++;                                         \
                any__ = 1;                                              \
            }                                                           \
        }                                                               \
        if (any__)                                                      \
            DISPATCH(dst__, (t_));                                      \
    } while (0)

    /* idle nodes with empty queues steal from their victims, in node
     * order; nothing to scan while every queue is empty */
#define REBALANCE(t_)                                                   \
    do {                                                                \
        int64_t queued__ = 0;                                           \
        for (int64_t n = 0; n < nnodes && !queued__; n++)               \
            queued__ = rsize[n];                                        \
        for (int64_t n = 0; queued__ && n < nnodes; n++) {              \
            int64_t idl = idle[n];                                      \
            if (idl <= 0 || rsize[n] > 0)                               \
                continue;                                               \
            for (int64_t q = v_indptr[n]; q < v_indptr[n + 1]; q++) {   \
                int64_t v = v_nodes[q];                                 \
                while (idl > 0 && rsize[v] > 0) {                       \
                    int64_t tid = rq_pop(ready + rbase[v], rsize[v])    \
                        & 0xFFFFFFFFLL;                                 \
                    rsize[v]--;                                         \
                    double d = base_dur[tid] / speed[n];                \
                    d += flows && machine[v] == machine[n]              \
                        ? intra_msg_time : msg_time;                    \
                    exec_node[tid] = (int32_t)n;                        \
                    idl--;                                              \
                    RUN(tid, n, (t_), d);                               \
                }                                                       \
                if (idl == 0)                                           \
                    break;                                              \
            }                                                           \
            idle[n] = idl;                                              \
        }                                                               \
    } while (0)

    /* seed: version-0 fetches, then dependency-free tasks (ascending
     * tid), then one dispatch per node in ascending node order */
    for (int64_t i = 0; i < n_init; i++) {
        int64_t uid = init_uids[i];
        SEND(uid, msg_src[uid], 0.0);
    }
    for (int64_t tid = 0; tid < n_tasks; tid++) {
        if (pending[tid] == 0) {
            int64_t n = node[tid];
            rq_push(ready + rbase[n], rsize[n], keys[tid]);
            rsize[n]++;
        }
    }
    for (int64_t n = 0; n < nnodes; n++) {
        if (rsize[n] > 0)
            DISPATCH(n, 0.0);
    }
    if (steal)
        REBALANCE(0.0);

    while (h.n > 0) {
        double t;
        int64_t tag, pl;
        ev_pop(&h, &t, &tag, &pl);
        now = t;
        int64_t etype = tag & 3;
        if (etype == 0) { /* TASK_DONE */
            int64_t tid = pl;
            completed++;
            int64_t tn = node[tid];
            for (int64_t p = push_indptr[tid]; p < push_indptr[tid + 1]; p++)
                SEND(push_uids[p], tn, now);
            int64_t *rq = ready + rbase[tn];
            for (int64_t q = ld_indptr[tid]; q < ld_indptr[tid + 1]; q++) {
                int64_t dep = ld_tasks[q];
                if (--pending[dep] == 0) {
                    rq_push(rq, rsize[tn], keys[dep]);
                    rsize[tn]++;
                }
            }
            if (steal) {
                /* a stolen task frees a core on the thief; both nodes
                 * refill, in ascending order */
                int64_t wn = exec_node[tid];
                idle[wn]++;
                if (wn < tn)
                    DISPATCH(wn, now);
                DISPATCH(tn, now);
                if (wn > tn)
                    DISPATCH(wn, now);
            } else {
                idle[tn]++;
                DISPATCH(tn, now);
            }
        } else if (etype == 1) { /* MSG_ARRIVE (nic) */
            DELIVER(pl, now);
        } else if (pl >= 0) { /* a flow's data starts moving */
            flow_activate(&F, &h, pl, now);
        } else if (-1 - pl == F.token) { /* the current finish event */
            int64_t src = flow_finish(&F, now);
            int64_t uid = F.f_uid[src];
            int64_t dst = msg_dst[uid];
            double b = now - F.f_t0[src];
            tx_busy[src] += b;
            rx_busy[dst] += b;
            msgs_recv[dst]++;
            if (record) {
                msg_start[uid] = F.f_t0[src];
                msg_arrive[uid] = now;
                log[n_log++] = -1 - uid;
            }
            flow_reschedule(&F, &h, now);
            flow_pump(&F, &h, now, msgs_sent);
            DELIVER(uid, now);
        } /* else: a superseded finish event, which does nothing */
        if (steal && (h.n == 0 || h.t[0] != now))
            REBALANCE(now);
    }

    out_times[0] = now;
    out_times[1] = F.link_busy;
    out_times[2] = F.intra_link_busy;
    out_counts[0] = completed;
    out_counts[1] = n_messages + F.n_inter + F.n_intra;
    out_counts[2] = n_log;
    out_counts[3] = F.n_inter;
    out_counts[4] = F.n_intra;
    return 0;
}

/* ------------------------------------------------------------------ */
/* GCR&M phase 1: greedy colrow assignment (Algorithm 1, lines 1-10)  */
/* ------------------------------------------------------------------ */

/* numpy's public bit generator interface, as declared in
 * ``numpy/random/bitgen.h``.  The caller passes the pointer held by a
 * generator's ``bit_generator.capsule`` and holds its
 * ``bit_generator.lock`` for the whole call. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* ``Generator.integers(0, n)`` for 1 <= n < 2**32, draw for draw: no
 * draw when n == 1, else Lemire's rejection on ``next_uint32`` (numpy's
 * ``buffered_bounded_lemire_uint32`` with rng = n - 1). */
static int64_t draw_below(bitgen_t *bg, int64_t n)
{
    if (n == 1)
        return 0;
    uint32_t n32 = (uint32_t)n;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * n32;
    uint32_t leftover = (uint32_t)(m & 0xFFFFFFFFu);
    if (leftover < n32) {
        uint32_t threshold = (UINT32_MAX - (n32 - 1u)) % n32;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * n32;
            leftover = (uint32_t)(m & 0xFFFFFFFFu);
        }
    }
    return (int64_t)(m >> 32);
}

/* bit ``b`` of a multi-word bitset: word b / 64, bit b % 64 */
#define BIT(b_) ((uint64_t)1 << ((b_) & 63))
#define HAS(set_, b_) (((set_)[(b_) >> 6] >> ((b_) & 63)) & 1u)

/* tie_break: the index of the policy in ``gcrm.TIE_BREAKS`` */
#define TIE_USAGE_RANDOM 0
#define TIE_FIRST 2

/* Makes the decisions of its Python twin ``gcrm._phase1`` one for one,
 * on bitsets of W = ceil(r / 64) words: the same least-loaded nodes in
 * node order (kept as a list, the picked node dropped in place when
 * its load changes), the same candidate colrows in ascending order,
 * and the same draws (``Generator.integers(0, n)``, which consumes what
 * the twin's ``Generator.choice`` does).  It counts each newly covered
 * cell once where the twin sums its symmetric uncovered matrix over
 * rows and columns, a uniform factor 2 that keeps every tie.  Returns 0
 * and writes ``member[p * r + b] = 1`` iff colrow b is in A[p]; 1 if
 * the safety net of 4 P r + 16 steps trips. */
int64_t repro_gcrm_phase1(
    int64_t P, int64_t r, int64_t tie_break, void *bitgen,
    /* scratch, preallocated by the caller: (P + r + 1) * W words and
     * 2 * (P + r) ints */
    uint64_t *words, int64_t *ints,
    /* output, P * r bytes */
    uint8_t *member)
{
    bitgen_t *bg = bitgen;
    int64_t W = (r + 63) >> 6;
    uint64_t *own = words;              /* A[p], P bitsets */
    uint64_t *unc = words + P * W;      /* uncovered cells, row b of r */
    uint64_t *flips = unc + r * W;      /* cells the new colrow covers */
    int64_t *sizes = ints;              /* |A[p]| */
    int64_t *least = ints + P;          /* least-loaded nodes */
    int64_t *usage = ints + 2 * P;      /* how many A[p] hold colrow b */
    int64_t *cand = usage + r;          /* candidate colrows */
    uint64_t tail = (r & 63) ? BIT(r) - 1u : ~(uint64_t)0;

    for (int64_t k = 0; k < P * W; k++)
        own[k] = 0;
    for (int64_t p = 0; p < P; p++)
        sizes[p] = 0;
    for (int64_t i = 0; i < r; i++) {   /* round-robin start */
        own[(i % P) * W + (i >> 6)] |= BIT(i);
        sizes[i % P]++;
        usage[i] = 1;
        for (int64_t w = 0; w < W; w++)
            unc[i * W + w] = w == W - 1 ? tail : ~(uint64_t)0;
        unc[i * W + (i >> 6)] &= ~BIT(i);
    }

    int64_t n_unc = r * r - r;
    int64_t nleast = 0, best_load = 0;
    int64_t max_iter = 4 * P * r + 16;
    for (int64_t guard = 1; n_unc > 0; guard++) {
        if (guard > max_iter)
            return 1;
        if (nleast == 0) {
            best_load = sizes[0] * (sizes[0] - 1);
            for (int64_t p = 1; p < P; p++)
                if (sizes[p] * (sizes[p] - 1) < best_load)
                    best_load = sizes[p] * (sizes[p] - 1);
            for (int64_t p = 0; p < P; p++)
                if (sizes[p] * (sizes[p] - 1) == best_load)
                    least[nleast++] = p;
        }
        int64_t idx = draw_below(bg, nleast);
        int64_t p = least[idx];
        uint64_t *mine = own + p * W;

        int64_t best_gain = -1, ncand = 0;
        for (int64_t b = 0; b < r; b++) {
            if (HAS(mine, b))
                continue;
            int64_t g = 0;
            for (int64_t w = 0; w < W; w++)
                g += popcount64(unc[b * W + w] & mine[w]);
            if (g > best_gain) {
                best_gain = g;
                ncand = 0;
            }
            if (g == best_gain)
                cand[ncand++] = b;
        }
        if (ncand == 0)  /* p owns every colrow: it covers every cell */
            break;
        if (ncand > 1 && tie_break == TIE_USAGE_RANDOM) {
            int64_t umin = usage[cand[0]], kept = 0;
            for (int64_t k = 1; k < ncand; k++)
                if (usage[cand[k]] < umin)
                    umin = usage[cand[k]];
            for (int64_t k = 0; k < ncand; k++)
                if (usage[cand[k]] == umin)
                    cand[kept++] = cand[k];
            ncand = kept;
        }
        int64_t b = tie_break == TIE_FIRST ? cand[0]
                                           : cand[draw_below(bg, ncand)];

        mine[b >> 6] |= BIT(b);
        int64_t s = ++sizes[p];
        if (s * (s - 1) != best_load) {
            nleast--;
            for (int64_t k = idx; k < nleast; k++)
                least[k] = least[k + 1];
        }
        usage[b]++;
        int64_t n_flips = 0;
        for (int64_t w = 0; w < W; w++) {
            flips[w] = unc[b * W + w] & mine[w];
            unc[b * W + w] &= ~flips[w];
            n_flips += popcount64(flips[w]);
        }
        n_unc -= 2 * n_flips;
        for (int64_t i = 0; i < r; i++)
            if (HAS(flips, i))
                unc[i * W + (b >> 6)] &= ~BIT(b);
    }

    for (int64_t p = 0; p < P; p++)
        for (int64_t b = 0; b < r; b++)
            member[p * r + b] = (uint8_t)HAS(own + p * W, b);
    return 0;
}

/* ------------------------------------------------------------------ */
/* The simulation plan (``simplan.build_plan``), in two passes        */
/* ------------------------------------------------------------------ */

/* Both passes walk every task's reads in flat read order, and classify
 * each read the same way: local (its producer runs on the reader's
 * node), a message (a remote producer, or a version-0 datum away from
 * its ``home``; ``has_home == 0`` means no fetches) or already met.
 * Message reads form groups, one per (datum, version, destination),
 * numbered by first occurrence.  A group is found through the chain of
 * groups of its slot: the producer's tid, or ``n_tasks + datum`` for a
 * version-0 fetch.  The ``(d * M + v) * N + dst`` code names a group.
 * ``plan_slot`` returns -1 for a local read, -2 for one already met, and
 * a message read's slot. */
static int64_t plan_slot(int64_t t, int64_t r, int64_t n_tasks,
                         const int32_t *node, const int32_t *read_data,
                         const int32_t *read_producer, int64_t has_home,
                         const int64_t *home)
{
    int32_t p = read_producer[r];
    if (p >= 0)
        return node[p] == node[t] ? -1 : p;
    if (has_home && home[read_data[r]] != node[t])
        return n_tasks + read_data[r];
    return -2;
}

/* Pass 1: count each task's prerequisites, and each producer's local
 * dependents and pushed groups at [producer + 1]; number the groups
 * (code, chain link, waiter count and producer, -1 for a fetch) and
 * note the group of each message read, in read order.  ``head`` holds
 * -1 per slot on entry.  Writes [groups, message reads, local reads].
 * It checks each read offset, producer tid and datum id before it
 * indexes with it, so pass 2 may trust them: returns 1 for a producer
 * or datum out of range, 2 when ``read_indptr`` is not a CSR index of
 * the ``n_reads`` reads, and 0 otherwise. */
int64_t repro_plan_count(
    int64_t n_tasks, int64_t n_reads, int64_t n_data, int64_t M, int64_t N,
    const int32_t *node, const int32_t *read_indptr,
    const int32_t *read_data, const int32_t *read_version,
    const int32_t *read_producer, int64_t has_home, const int64_t *home,
    int32_t *pending, int32_t *ld_count, int32_t *push_count,
    int32_t *head, int64_t *g_code, int32_t *g_next, int32_t *g_count,
    int32_t *g_prod, int32_t *read_group, int64_t *out_counts)
{
    int32_t n_groups = 0;
    int64_t n_msg = 0, n_local = 0;
    if (read_indptr[0] != 0 || read_indptr[n_tasks] != n_reads)
        return 2;
    for (int64_t t = 0; t < n_tasks; t++) {
        int32_t need = 0;
        if (read_indptr[t + 1] < read_indptr[t]
                || read_indptr[t + 1] > n_reads)
            return 2;
        for (int64_t r = read_indptr[t]; r < read_indptr[t + 1]; r++) {
            /* one unsigned compare per range, no branch between them */
            uint64_t p1 = (uint64_t)((int64_t)read_producer[r] + 1);
            if ((p1 > (uint64_t)n_tasks)
                    | ((uint64_t)read_data[r] >= (uint64_t)n_data))
                return 1;
            int64_t slot = plan_slot(t, r, n_tasks, node, read_data,
                                     read_producer, has_home, home);
            if (slot == -2)
                continue;
            need++;
            if (slot == -1) {
                ld_count[read_producer[r] + 1]++;
                n_local++;
                continue;
            }
            int64_t code = ((int64_t)read_data[r] * M + read_version[r]) * N
                           + node[t];
            int32_t g = head[slot];
            while (g >= 0 && g_code[g] != code)
                g = g_next[g];
            if (g < 0) {
                g = n_groups++;
                g_code[g] = code;
                g_next[g] = head[slot];
                head[slot] = g;
                g_count[g] = 0;
                g_prod[g] = read_producer[r];
                if (g_prod[g] >= 0)
                    push_count[g_prod[g] + 1]++;
            }
            g_count[g]++;
            read_group[n_msg++] = g;
        }
        pending[t] = need;
    }
    out_counts[0] = n_groups;
    out_counts[1] = n_msg;
    out_counts[2] = n_local;
    return 0;
}

/* turn the row counts at [row + 1] of a CSR indptr into row starts */
static void plan_starts(int32_t *indptr, int64_t n_rows)
{
    int32_t run = 0;
    for (int64_t i = 1; i <= n_rows; i++) {
        int32_t c = indptr[i];
        indptr[i] = run;
        run += c;
    }
}

/* Pass 2: fill the local-dependent and waiter CSRs in read order, and
 * each producer's pushes in group order; ``uid`` is the uid of each
 * group.  Each indptr comes in holding counts at [row + 1] and leaves
 * finished. */
int64_t repro_plan_fill(
    int64_t n_tasks, int64_t n_groups,
    const int32_t *node, const int32_t *read_indptr,
    const int32_t *read_data, const int32_t *read_producer,
    int64_t has_home, const int64_t *home,
    const int32_t *read_group, const int32_t *g_prod, const int32_t *uid,
    int32_t *ld_indptr, int32_t *ld_tasks,
    int32_t *w_indptr, int32_t *w_tasks,
    int32_t *push_indptr, int32_t *push_uids)
{
    plan_starts(ld_indptr, n_tasks);
    plan_starts(w_indptr, n_groups);
    plan_starts(push_indptr, n_tasks);
    int64_t n_msg = 0;
    for (int64_t t = 0; t < n_tasks; t++) {
        for (int64_t r = read_indptr[t]; r < read_indptr[t + 1]; r++) {
            int64_t slot = plan_slot(t, r, n_tasks, node, read_data,
                                     read_producer, has_home, home);
            if (slot == -1)
                ld_tasks[ld_indptr[read_producer[r] + 1]++] = (int32_t)t;
            else if (slot >= 0)
                w_tasks[w_indptr[uid[read_group[n_msg++]] + 1]++] =
                    (int32_t)t;
        }
    }
    for (int64_t g = 0; g < n_groups; g++)
        if (g_prod[g] >= 0)
            push_uids[push_indptr[g_prod[g] + 1]++] = uid[g];
    return 0;
}

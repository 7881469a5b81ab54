/* The package's two compiled kernels: the simulator's event loop
 * (``repro_run_sim``) and phase 1 of GCR&M (``repro_gcrm_phase1``, at
 * the end of this file).  ``csim.py`` binds both, and one
 * ``REPRO_SIM_BACKEND`` resolution selects both.  The caller passes
 * every buffer, scratch included: nothing is allocated here and no
 * libc beyond the implicit runtime is used.
 *
 * The event loop replicates, event for event, the Python loop of
 * ``repro.runtime.simulator`` for its default configuration: priority
 * scheduler, no fork-join barrier, NIC network model with
 * point-to-point multicast.  The caller hands in the SimPlan arrays as
 * they are (int32 indexes, int64 priority keys).
 *
 * Recording (``record != 0``) stores each task's start time, each
 * message's send start and arrival, and one log entry per record in
 * the order the Python loop emits them: ``tid`` when a task is
 * dispatched, ``-1 - uid`` when a message is sent.  The caller turns
 * these arrays into task/message records or trace-writer calls.
 *
 * Byte-identity contract:
 *  - the event heap orders ``(time, tag)`` with unique tags exactly
 *    like the Python tuple heap (tags are seq+etype, seq += 4);
 *  - ready queues are per-node min-heaps of the packed priority keys;
 *    keys are unique, so pop order is a pure function of the key set
 *    and matches Python's single-list heaps bit for bit;
 *  - NIC arithmetic is the verbatim max/add sequence of
 *    ``NicModel.send`` on IEEE doubles (compile WITHOUT -ffast-math);
 *  - per-node busy time accumulates in pop order, so the float sums
 *    equal the Python path's.
 *
 * Event types (low two tag bits): 0 = TASK_DONE, 1 = MSG_ARRIVE.
 */

#include <stdint.h>

typedef struct {
    double *t;
    int64_t *tag;
    int64_t *pl;
    int64_t n;
} EvHeap;

static void ev_push(EvHeap *h, double t, int64_t tag, int64_t pl)
{
    int64_t i = h->n++;
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

static void ev_pop(EvHeap *h, double *t, int64_t *tag, int64_t *pl)
{
    *t = h->t[0];
    *tag = h->tag[0];
    *pl = h->pl[0];
    int64_t n = --h->n;
    if (n == 0)
        return;
    double lt = h->t[n];
    int64_t ltag = h->tag[n], lpl = h->pl[n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        int64_t r = c + 1;
        if (r < n && (h->t[r] < h->t[c] ||
                      (h->t[r] == h->t[c] && h->tag[r] < h->tag[c])))
            c = r;
        if (h->t[c] < lt || (h->t[c] == lt && h->tag[c] < ltag)) {
            h->t[i] = h->t[c];
            h->tag[i] = h->tag[c];
            h->pl[i] = h->pl[c];
            i = c;
        } else {
            break;
        }
    }
    h->t[i] = lt;
    h->tag[i] = ltag;
    h->pl[i] = lpl;
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

static int64_t rq_pop(int64_t *a, int64_t n)
{
    int64_t top = a[0];
    int64_t last = a[--n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && a[c + 1] < a[c])
            c = c + 1;
        if (a[c] < last) {
            a[i] = a[c];
            i = c;
        } else {
            break;
        }
    }
    a[i] = last;
    return top;
}

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
    /* scratch, preallocated by the caller */
    double *ev_t, int64_t *ev_tag, int64_t *ev_pl,
    int64_t *ready, const int64_t *rbase, int64_t *rsize,
    int64_t *idle, double *tx_free,
    /* recording: written only when record != 0 (else may be empty) */
    int64_t record, double *task_start, double *msg_start,
    double *msg_arrive, int64_t *log,
    /* outputs */
    double *busy, int64_t *msgs_sent, int64_t *msgs_recv,
    double *tx_busy, double *rx_busy,
    double *out_makespan,
    int64_t *out_counts /* [completed, n_messages, log length] */)
{
    EvHeap h = { ev_t, ev_tag, ev_pl, 0 };
    int64_t seq = 0;
    int64_t n_messages = 0;
    int64_t completed = 0;
    int64_t n_log = 0;
    double now = 0.0;

#define NIC_SEND(uid_, src_, dst_, t_)                                  \
    do {                                                                \
        int64_t uid__ = (uid_), src__ = (src_), dst__ = (dst_);         \
        double t__ = (t_);                                              \
        double start__ = t__ > tx_free[src__] ? t__ : tx_free[src__];   \
        double arr__ = start__ + msg_time;                              \
        tx_free[src__] = arr__;                                         \
        n_messages++;                                                   \
        msgs_sent[src__]++;                                             \
        msgs_recv[dst__]++;                                             \
        tx_busy[src__] += msg_time;                                     \
        rx_busy[dst__] += msg_time;                                     \
        if (record) {                                                   \
            msg_start[uid__] = start__;                                 \
            msg_arrive[uid__] = arr__;                                  \
            log[n_log++] = -1 - uid__;                                  \
        }                                                               \
        seq += 4;                                                       \
        ev_push(&h, arr__, seq + 1, uid__);                             \
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
            double d__ = dur[tid__];                                    \
            busy[nn__] += d__;                                          \
            if (record) {                                               \
                task_start[tid__] = (t_);                               \
                log[n_log++] = tid__;                                   \
            }                                                           \
            seq += 4;                                                   \
            ev_push(&h, (t_) + d__, seq, tid__);                        \
        }                                                               \
        idle[nn__] = idl__;                                             \
        rsize[nn__] = sz__;                                             \
    } while (0)

    /* seed: version-0 fetches, then dependency-free tasks (ascending
     * tid), then one dispatch per node in ascending node order */
    for (int64_t i = 0; i < n_init; i++) {
        int64_t uid = init_uids[i];
        NIC_SEND(uid, msg_src[uid], msg_dst[uid], 0.0);
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

    while (h.n > 0) {
        double t;
        int64_t tag, pl;
        ev_pop(&h, &t, &tag, &pl);
        now = t;
        if ((tag & 3) == 0) { /* TASK_DONE */
            int64_t tid = pl;
            completed++;
            int64_t tn = node[tid];
            for (int64_t p = push_indptr[tid]; p < push_indptr[tid + 1]; p++) {
                int64_t uid = push_uids[p];
                NIC_SEND(uid, tn, msg_dst[uid], now);
            }
            int64_t *rq = ready + rbase[tn];
            for (int64_t q = ld_indptr[tid]; q < ld_indptr[tid + 1]; q++) {
                int64_t dep = ld_tasks[q];
                if (--pending[dep] == 0) {
                    rq_push(rq, rsize[tn], keys[dep]);
                    rsize[tn]++;
                }
            }
            idle[tn]++;
            DISPATCH(tn, now);
        } else { /* MSG_ARRIVE */
            int64_t uid = pl;
            int64_t dst = msg_dst[uid];
            int64_t any = 0;
            int64_t *rq = ready + rbase[dst];
            for (int64_t q = w_indptr[uid]; q < w_indptr[uid + 1]; q++) {
                int64_t dep = w_tasks[q];
                if (--pending[dep] == 0) {
                    rq_push(rq, rsize[dst], keys[dep]);
                    rsize[dst]++;
                    any = 1;
                }
            }
            if (any)
                DISPATCH(dst, now);
        }
    }

    *out_makespan = now;
    out_counts[0] = completed;
    out_counts[1] = n_messages;
    out_counts[2] = n_log;
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

static int64_t popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555u);
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
    return (int64_t)((x * 0x0101010101010101u) >> 56);
}

/* bit ``b`` of a multi-word bitset: word b / 64, bit b % 64 */
#define BIT(b_) ((uint64_t)1 << ((b_) & 63))
#define HAS(set_, b_) (((set_)[(b_) >> 6] >> ((b_) & 63)) & 1u)

/* tie_break: the index of the policy in ``gcrm.TIE_BREAKS`` */
#define TIE_USAGE_RANDOM 0
#define TIE_FIRST 2

/* Makes ``gcrm._phase1_fast``'s decisions one for one, on bitsets of
 * W = ceil(r / 64) words: the same least-loaded list (in node order,
 * the picked node dropped in place when its load changes), the same
 * candidate colrows in ascending order, and the same draws.  Returns 0
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

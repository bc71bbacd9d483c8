/* SimGen lane core: one whole Algorithm-1 attempt per call, in C.
 *
 * repro/core/batch.py lowers a network straight into this core: dense
 * slots in topological order, each with its level, its fanin slots and
 * its examiners (the node, then its fanouts), one transition table per
 * distinct gate function, the network's PIs in order, and the Equation-4
 * priority of every gate row.  The assignment is a flat value array and a
 * trail; each gate's pin state is one packed index, (output + 1) * 4**k +
 * (known_mask << k) + known_values, kept up to date incrementally, so an
 * examination is a single table lookup.
 *
 * The contract is *bit-identity* with the reference engines
 * (ImplicationEngine, DecisionEngine and SimGenGenerator in repro/core):
 * every counter bump, every queue push, every trail entry and every RNG
 * draw happens in exactly their order.  The core owns a port of CPython's
 * MT19937 (Modules/_randommodule.c) plus the Python-level draw rules
 * SimGen uses (random.py's _randbelow_with_getrandbits, choice, sample,
 * random), so sg_attempt runs a whole attempt without calling back into
 * Python: select_targets, the OUTgold values, the decreasing-level target
 * order, each target's Algorithm 1 with its roulette/choice draws, the
 * claimed-values skip check, and the random completion of the free PIs,
 * which lands in one bit lane of the per-PI verification words.  The
 * driver hands the Python Random's state over once per generate() call
 * (sg_rng_set/sg_rng_get); sg_attempt saves the RNG and the counters
 * under the attempt's index in the pending batch before it draws, and
 * sg_rewind restores them when the driver finds it speculated too far.
 *
 * Transition-table states are resolved lazily (sg_resolve_forced /
 * sg_resolve_decision, ports of ImplicationEngine._examine_state and
 * DecisionEngine.candidate_rows): resolution is a pure integer function
 * of the packed state and the rows.
 *
 * One core holds ONE assignment state (values/trail/packed gate state).
 * Lane parallelism lives a level up: the batch driver runs attempts
 * sequentially (the RNG serializes them anyway) and verifies up to 64 of
 * them in one 64-wide simulator word.
 *
 * Floating point: the roulette repeats DecisionEngine.decide's operations
 * one by one.  The build uses -std=c99, under which GCC never contracts
 * an expression into a fused multiply-add; the floor's multiply and add
 * also sit in two statements, so no other compiler may fuse them.
 * random()'s a * 2**26 + b is exact, fused or not.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Outcomes of one target (sg_run_target). */
#define SG_DONE 0     /* target finished, or nothing left to do for it */
#define SG_CONFLICT 1 /* conflict: the report counts one                */
#define SG_ERROR (-1)

/* Outcomes of one attempt (sg_attempt). */
#define SG_SKIPPED 0 /* claimed values fail the skip criterion: no vector */
#define SG_VERIFY 1  /* completed vector written into its lane            */

/* Transition-table entry markers (fref/dref). */
#define REF_UNRESOLVED (-1)
#define REF_CONFLICT (-2)

/* Counter indices (sg_counters order; the driver folds deltas). */
#define C_PROP_CALLS 0
#define C_EXAMINATIONS 1
#define C_FORCED 2
#define C_IMPL_CONFLICTS 3
#define C_DECISIONS 4
#define C_DEC_CONFLICTS 5
#define C_ROWS_COMMITTED 6
#define C_REVERTED 7
#define C_COUNT 8

/* Attempt results in the info mailbox. */
#define I_TARGETS 0
#define I_IMPLICATIONS 1
#define I_DECISIONS 2
#define I_CONFLICTS 3

#define LANES 64

/* MT19937 as CPython keeps it: Random.getstate()[1] is mt[0..623] followed
 * by index. */
#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER 0x80000000U
#define MT_LOWER 0x7fffffffU

typedef struct {
    uint32_t mt[MT_N];
    int32_t index;
} SgRng;

/* What a speculative rewind restores: the RNG and the counters. */
typedef struct {
    SgRng rng;
    int64_t counters[C_COUNT];
} SgMark;

typedef struct {
    int32_t k;
    int32_t n_rows;
    int32_t advanced; /* ImplicationStrategy.ADVANCED (multi-row meet) */
    int64_t stride;   /* 1 << (2k); index space is 3 * stride */
    int64_t *row_mask;
    int64_t *row_vals;
    int8_t *row_out;
    int32_t *fref; /* forced-pin pool offsets, REF_* markers */
    int32_t *dref; /* decision-row pool offsets, REF_* markers */
} SgTable;

typedef struct {
    int32_t n;

    /* Compiled network (write-once at build). */
    int8_t *is_pi;
    int32_t *table_of; /* table id, -1 for PI/const */
    int32_t *level;
    int64_t *full_bits;
    int64_t *out_delta;
    int32_t *fi_off; /* fanin CSR */
    int32_t *fi;
    int32_t fi_len, fi_cap;
    int32_t *exam_off; /* examiner CSR */
    int32_t *exam;
    int32_t exam_len, exam_cap;
    int32_t *pin_off; /* pin-position CSR: (gate, delta0, delta1) */
    int32_t *pin_g;
    int64_t *pin_d0;
    int64_t *pin_d1;
    int32_t *pis; /* network.pis order */
    int32_t n_pis;
    double *prio;      /* Equation-4 priority per gate row, slot order */
    int64_t *prio_off; /* slot -> first row's priority; [n] = all rows */
    int64_t n_prio;
    int32_t built_upto; /* next slot sg_set_node expects */
    int finalized;

    SgTable *tables;
    int32_t n_tables, cap_tables;

    /* Shared pools behind fref/dref (offset -> [count, payload...]). */
    int32_t *fpool;
    int32_t fpool_len, fpool_cap;
    int32_t *dpool;
    int32_t dpool_len, dpool_cap;
    int32_t *scratch; /* decision-resolution row buffer (max table rows) */
    int32_t scratch_cap;
    double *weights; /* roulette weights (max table rows) */

    /* Decision and target policy (sg_set_policy). */
    int policy_set;
    int32_t random_rows;   /* DecisionStrategy.RANDOM: choice, no roulette */
    int32_t level_outgold; /* level_alternating_outgold, else alternating */
    int32_t max_targets;   /* select_targets' cap (INT32_MAX: no cap)     */
    int32_t sample_k;      /* max(max_targets, 2)                          */
    int64_t setsize;       /* random.sample's pool/set threshold for k    */

    SgRng rng;
    SgMark *marks;
    int32_t n_marks, cap_marks;

    /* Assignment state (one lane; reused across attempts). */
    int8_t *values; /* -1 unassigned */
    int64_t *state;
    int32_t *trail;
    int32_t trail_len;
    uint8_t *queued;
    int32_t *queue; /* FIFO ring, capacity n + 1 */
    int32_t q_head, q_tail, q_cap;
    int64_t *exh_epoch;
    int64_t *cone_epoch;
    int64_t epoch;

    /* Cone cache: per target slot, fanin-cone members and cone PIs (built
     * lazily by one C DFS; only the *sets* are observable — via the
     * cone-epoch stamps and the all-PIs-assigned check — so the C visit
     * order need not replicate the Python dfs_fanin order). */
    int32_t **cone_mem;
    int32_t *cone_mem_n;
    int32_t **cone_pi;
    int32_t *cone_pi_n;
    int64_t *visit_epoch;
    int64_t visit_counter;
    int32_t *dfs_stack;
    int32_t *mem_buf;
    int32_t *pi_buf;

    /* Per-attempt scratch (sized n): sample pool, picked stamps, chosen
     * class positions, OUTgold order, sort keys. */
    int32_t *pool;
    int64_t *pick_epoch;
    int64_t pick_counter;
    int32_t *picked;
    int32_t *og_pos;
    int64_t *keys;

    /* Per-target context. */
    const int32_t *cur_cone_pis;
    int32_t n_cone_pis;
    int32_t marker;
    int32_t *seeds;
    int32_t n_seeds, cap_seeds;
    int64_t prop_examined, prop_assigned;
    int64_t rep_implications, rep_decisions;

    int64_t counters[C_COUNT];

    /* Caller-owned mailboxes: attempt results, the OUTgold targets (slot;
     * gold | claimed << 1) and the per-PI verification words. */
    int64_t *info;
    int32_t *out_slots;
    int8_t *out_flags;
    uint64_t *words;
} SgCore;

static void *xalloc(size_t bytes) {
    void *p = malloc(bytes ? bytes : 1);
    return p;
}

static int grow_i32(int32_t **arr, int32_t *cap, int32_t need) {
    if (need <= *cap)
        return 0;
    int32_t c = *cap ? *cap : 64;
    while (c < need)
        c *= 2;
    int32_t *p = (int32_t *)realloc(*arr, (size_t)c * sizeof(int32_t));
    if (!p)
        return -1;
    *arr = p;
    *cap = c;
    return 0;
}

/* ------------------------------------------------------------------ */
/* CPython's random.Random, bit for bit                                */
/* ------------------------------------------------------------------ */

/* genrand_uint32 of Modules/_randommodule.c. */
static uint32_t mt_next(SgRng *r) {
    static const uint32_t mag01[2] = {0x0U, MT_MATRIX_A};
    uint32_t *mt = r->mt;
    uint32_t y;
    if (r->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & MT_UPPER) | (mt[kk + 1] & MT_LOWER);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & MT_UPPER) | (mt[kk + 1] & MT_LOWER);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & MT_UPPER) | (mt[0] & MT_LOWER);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->index = 0;
    }
    y = mt[r->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* getrandbits(k) for 0 <= k <= 32. */
static uint32_t rng_bits(SgRng *r, int32_t k) {
    if (k <= 0)
        return 0;
    return mt_next(r) >> (32 - k);
}

/* _randbelow_with_getrandbits(n) for 1 <= n < 2**31: k is n.bit_length(),
 * not (n - 1)'s, and every draw >= n is thrown away. */
static int32_t rng_below(SgRng *r, int32_t n) {
    int32_t k = 0;
    for (uint32_t v = (uint32_t)n; v; v >>= 1)
        k++;
    uint32_t x = rng_bits(r, k);
    while (x >= (uint32_t)n)
        x = rng_bits(r, k);
    return (int32_t)x;
}

/* random(): 53 bits from two words, a first. */
static double rng_random(SgRng *r) {
    uint32_t a = mt_next(r) >> 5;
    uint32_t b = mt_next(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------------ */
/* Lowering                                                            */
/* ------------------------------------------------------------------ */

void *sg_new(int32_t n) {
    if (n < 0)
        return NULL;
    SgCore *h = (SgCore *)calloc(1, sizeof(SgCore));
    if (!h)
        return NULL;
    h->n = n;
    h->is_pi = (int8_t *)calloc((size_t)n + 1, 1);
    h->table_of = (int32_t *)xalloc(((size_t)n) * sizeof(int32_t));
    h->level = (int32_t *)calloc((size_t)n + 1, sizeof(int32_t));
    h->full_bits = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    h->out_delta = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    h->fi_off = (int32_t *)calloc((size_t)n + 2, sizeof(int32_t));
    h->exam_off = (int32_t *)calloc((size_t)n + 2, sizeof(int32_t));
    h->values = (int8_t *)xalloc((size_t)n);
    h->state = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    h->trail = (int32_t *)xalloc((size_t)n * sizeof(int32_t));
    h->queued = (uint8_t *)calloc((size_t)n + 1, 1);
    h->q_cap = n + 1;
    h->queue = (int32_t *)xalloc((size_t)h->q_cap * sizeof(int32_t));
    h->exh_epoch = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    h->cone_epoch = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    if (!h->is_pi || !h->table_of || !h->level || !h->full_bits ||
        !h->out_delta || !h->fi_off || !h->exam_off || !h->values ||
        !h->state || !h->trail || !h->queued || !h->queue || !h->exh_epoch ||
        !h->cone_epoch) {
        /* Leak-free enough for a build-time failure: the caller frees. */
        return NULL;
    }
    memset(h->values, 0xff, (size_t)n); /* all -1 */
    for (int32_t i = 0; i < n; i++)
        h->table_of[i] = -1;
    h->rng.index = MT_N + 1; /* invalid until sg_rng_set */
    return h;
}

void sg_free(void *hp) {
    SgCore *h = (SgCore *)hp;
    if (!h)
        return;
    for (int32_t t = 0; t < h->n_tables; t++) {
        free(h->tables[t].row_mask);
        free(h->tables[t].row_vals);
        free(h->tables[t].row_out);
        free(h->tables[t].fref);
        free(h->tables[t].dref);
    }
    free(h->tables);
    free(h->is_pi);
    free(h->table_of);
    free(h->level);
    free(h->full_bits);
    free(h->out_delta);
    free(h->fi_off);
    free(h->fi);
    free(h->exam_off);
    free(h->exam);
    free(h->pin_off);
    free(h->pin_g);
    free(h->pin_d0);
    free(h->pin_d1);
    free(h->pis);
    free(h->prio);
    free(h->prio_off);
    free(h->fpool);
    free(h->dpool);
    free(h->scratch);
    free(h->weights);
    free(h->marks);
    free(h->values);
    free(h->state);
    free(h->trail);
    free(h->queued);
    free(h->queue);
    free(h->exh_epoch);
    free(h->cone_epoch);
    if (h->cone_mem)
        for (int32_t i = 0; i < h->n; i++)
            free(h->cone_mem[i]);
    if (h->cone_pi)
        for (int32_t i = 0; i < h->n; i++)
            free(h->cone_pi[i]);
    free(h->cone_mem);
    free(h->cone_mem_n);
    free(h->cone_pi);
    free(h->cone_pi_n);
    free(h->visit_epoch);
    free(h->dfs_stack);
    free(h->mem_buf);
    free(h->pi_buf);
    free(h->pool);
    free(h->pick_epoch);
    free(h->picked);
    free(h->og_pos);
    free(h->keys);
    free(h->seeds);
    free(h);
}

int32_t sg_add_table(void *hp, int32_t k, int32_t n_rows, int32_t advanced,
                     const int64_t *mask, const int64_t *vals,
                     const int8_t *out) {
    SgCore *h = (SgCore *)hp;
    if (!h || h->finalized || k < 0 || k > 15 || n_rows < 0)
        return -1;
    if (grow_i32(&h->scratch, &h->scratch_cap, n_rows))
        return -1;
    if (h->n_tables == h->cap_tables) {
        int32_t c = h->cap_tables ? h->cap_tables * 2 : 16;
        SgTable *p = (SgTable *)realloc(h->tables, (size_t)c * sizeof(SgTable));
        if (!p)
            return -1;
        h->tables = p;
        h->cap_tables = c;
    }
    SgTable *t = &h->tables[h->n_tables];
    memset(t, 0, sizeof(*t));
    t->k = k;
    t->n_rows = n_rows;
    t->advanced = advanced ? 1 : 0;
    t->stride = (int64_t)1 << (2 * k);
    size_t span = (size_t)(3 * t->stride);
    t->row_mask = (int64_t *)xalloc((size_t)n_rows * sizeof(int64_t));
    t->row_vals = (int64_t *)xalloc((size_t)n_rows * sizeof(int64_t));
    t->row_out = (int8_t *)xalloc((size_t)n_rows);
    t->fref = (int32_t *)xalloc(span * sizeof(int32_t));
    t->dref = (int32_t *)xalloc(span * sizeof(int32_t));
    if (!t->row_mask || !t->row_vals || !t->row_out || !t->fref || !t->dref)
        return -1;
    memcpy(t->row_mask, mask, (size_t)n_rows * sizeof(int64_t));
    memcpy(t->row_vals, vals, (size_t)n_rows * sizeof(int64_t));
    memcpy(t->row_out, out, (size_t)n_rows);
    /* 0xff bytes == REF_UNRESOLVED (-1) in every int32. */
    memset(t->fref, 0xff, span * sizeof(int32_t));
    memset(t->dref, 0xff, span * sizeof(int32_t));
    return h->n_tables++;
}

int32_t sg_set_node(void *hp, int32_t slot, int32_t table_id, int32_t is_pi,
                    int32_t level, const int32_t *fanins, int32_t k,
                    const int32_t *examiners, int32_t n_exam) {
    SgCore *h = (SgCore *)hp;
    if (!h || slot != h->built_upto || slot >= h->n || h->finalized)
        return -1;
    if (table_id >= h->n_tables || k < 0 || n_exam < 0 || level < 0)
        return -1;
    h->built_upto++;
    h->is_pi[slot] = (int8_t)(is_pi ? 1 : 0);
    h->table_of[slot] = table_id;
    h->level[slot] = level;
    if (table_id >= 0) {
        if (h->tables[table_id].k != k)
            return -1;
        h->full_bits[slot] = (((int64_t)1 << k) - 1) << k;
        h->out_delta[slot] = (int64_t)1 << (2 * k);
    }
    if (grow_i32(&h->fi, &h->fi_cap, h->fi_len + k) ||
        grow_i32(&h->exam, &h->exam_cap, h->exam_len + n_exam))
        return -1;
    h->fi_off[slot] = h->fi_len;
    for (int32_t i = 0; i < k; i++) {
        if (fanins[i] < 0 || fanins[i] >= h->n)
            return -1;
        h->fi[h->fi_len++] = fanins[i];
    }
    h->fi_off[slot + 1] = h->fi_len;
    h->exam_off[slot] = h->exam_len;
    for (int32_t i = 0; i < n_exam; i++) {
        if (examiners[i] < 0 || examiners[i] >= h->n)
            return -1;
        h->exam[h->exam_len++] = examiners[i];
    }
    h->exam_off[slot + 1] = h->exam_len;
    if (k + 2 > h->cap_seeds)
        h->cap_seeds = k + 2;
    return 0;
}

/* Close the build: the PIs in network.pis order, and the Equation-4
 * priorities of every gate row in slot order (none for random decisions). */
int32_t sg_finalize(void *hp, const int32_t *pis, int32_t n_pis,
                    const double *prio, int64_t n_prio) {
    SgCore *h = (SgCore *)hp;
    if (!h || h->built_upto != h->n || h->finalized || n_pis < 0 ||
        n_prio < 0)
        return -1;
    int32_t n = h->n;
    h->seeds = (int32_t *)xalloc((size_t)(h->cap_seeds + 1) * sizeof(int32_t));
    h->pin_off = (int32_t *)calloc((size_t)n + 2, sizeof(int32_t));
    h->cone_mem = (int32_t **)calloc((size_t)n + 1, sizeof(int32_t *));
    h->cone_mem_n = (int32_t *)calloc((size_t)n + 1, sizeof(int32_t));
    h->cone_pi = (int32_t **)calloc((size_t)n + 1, sizeof(int32_t *));
    h->cone_pi_n = (int32_t *)calloc((size_t)n + 1, sizeof(int32_t));
    h->visit_epoch = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    h->dfs_stack = (int32_t *)xalloc(((size_t)n + 1) * sizeof(int32_t));
    h->mem_buf = (int32_t *)xalloc(((size_t)n + 1) * sizeof(int32_t));
    h->pi_buf = (int32_t *)xalloc(((size_t)n + 1) * sizeof(int32_t));
    h->pool = (int32_t *)xalloc(((size_t)n + 1) * sizeof(int32_t));
    h->pick_epoch = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    h->picked = (int32_t *)xalloc(((size_t)n + 1) * sizeof(int32_t));
    h->og_pos = (int32_t *)xalloc(((size_t)n + 1) * sizeof(int32_t));
    h->keys = (int64_t *)xalloc(((size_t)n + 1) * sizeof(int64_t));
    h->weights = (double *)xalloc((size_t)h->scratch_cap * sizeof(double));
    h->pis = (int32_t *)xalloc((size_t)n_pis * sizeof(int32_t));
    h->prio_off = (int64_t *)calloc((size_t)n + 1, sizeof(int64_t));
    h->prio = (double *)xalloc((size_t)n_prio * sizeof(double));
    if (!h->seeds || !h->pin_off || !h->cone_mem || !h->cone_mem_n ||
        !h->cone_pi || !h->cone_pi_n || !h->visit_epoch || !h->dfs_stack ||
        !h->mem_buf || !h->pi_buf || !h->pool || !h->pick_epoch ||
        !h->picked || !h->og_pos || !h->keys || !h->weights || !h->pis ||
        !h->prio_off || !h->prio)
        return -1;
    for (int32_t i = 0; i < n_pis; i++) {
        if (pis[i] < 0 || pis[i] >= n || !h->is_pi[pis[i]])
            return -1;
        h->pis[i] = pis[i];
    }
    h->n_pis = n_pis;
    int64_t rows = 0;
    for (int32_t s = 0; s < n; s++) {
        h->prio_off[s] = rows;
        if (h->table_of[s] >= 0)
            rows += h->tables[h->table_of[s]].n_rows;
    }
    h->prio_off[n] = rows;
    if (n_prio != 0 && n_prio != rows)
        return -1;
    if (n_prio)
        memcpy(h->prio, prio, (size_t)n_prio * sizeof(double));
    h->n_prio = n_prio;
    /* Count pin positions per driver, then fill (classic CSR two-pass). */
    for (int32_t g = 0; g < n; g++)
        for (int32_t p = h->fi_off[g]; p < h->fi_off[g + 1]; p++)
            h->pin_off[h->fi[p] + 1]++;
    for (int32_t s = 0; s < n; s++)
        h->pin_off[s + 1] += h->pin_off[s];
    int32_t total = h->pin_off[n];
    h->pin_g = (int32_t *)xalloc((size_t)total * sizeof(int32_t));
    h->pin_d0 = (int64_t *)xalloc((size_t)total * sizeof(int64_t));
    h->pin_d1 = (int64_t *)xalloc((size_t)total * sizeof(int64_t));
    int32_t *cursor = (int32_t *)xalloc((size_t)(n + 1) * sizeof(int32_t));
    if (!h->pin_g || !h->pin_d0 || !h->pin_d1 || !cursor) {
        free(cursor);
        return -1;
    }
    memcpy(cursor, h->pin_off, (size_t)n * sizeof(int32_t));
    for (int32_t g = 0; g < n; g++) {
        int32_t k = h->fi_off[g + 1] - h->fi_off[g];
        for (int32_t i = 0; i < k; i++) {
            int32_t driver = h->fi[h->fi_off[g] + i];
            int32_t at = cursor[driver]++;
            int64_t mask_delta = (int64_t)1 << (i + k);
            h->pin_g[at] = g;
            h->pin_d0[at] = mask_delta;
            h->pin_d1[at] = mask_delta + ((int64_t)1 << i);
        }
    }
    free(cursor);
    h->finalized = 1;
    return 0;
}

/* How attempts pick targets and rows.  max_targets is select_targets'
 * cap before its clamp to 2 (INT32_MAX for None), sample_k the clamped
 * sample size, setsize random.sample's threshold for sample_k. */
int32_t sg_set_policy(void *hp, int32_t random_rows, int32_t level_outgold,
                      int32_t max_targets, int32_t sample_k, int64_t setsize) {
    SgCore *h = (SgCore *)hp;
    if (!h || !h->finalized || sample_k < 2)
        return -1;
    if (!random_rows && h->n_prio != h->prio_off[h->n])
        return -1; /* scored decisions need every row's priority */
    h->random_rows = random_rows ? 1 : 0;
    h->level_outgold = level_outgold ? 1 : 0;
    h->max_targets = max_targets;
    h->sample_k = sample_k;
    h->setsize = setsize;
    h->policy_set = 1;
    return 0;
}

void sg_set_mailbox(void *hp, int64_t *info, int32_t *out_slots,
                    int8_t *out_flags, uint64_t *words) {
    SgCore *h = (SgCore *)hp;
    h->info = info;
    h->out_slots = out_slots;
    h->out_flags = out_flags;
    h->words = words;
}

/* Load Random.getstate()[1]: 624 words, then the index. */
int32_t sg_rng_set(void *hp, const uint32_t *state) {
    SgCore *h = (SgCore *)hp;
    if (!h || state[MT_N] > MT_N)
        return -1;
    memcpy(h->rng.mt, state, sizeof(h->rng.mt));
    h->rng.index = (int32_t)state[MT_N];
    return 0;
}

void sg_rng_get(void *hp, uint32_t *state) {
    SgCore *h = (SgCore *)hp;
    memcpy(state, h->rng.mt, sizeof(h->rng.mt));
    state[MT_N] = (uint32_t)h->rng.index;
}

void sg_counters(void *hp, int64_t *out) {
    SgCore *h = (SgCore *)hp;
    memcpy(out, h->counters, sizeof(h->counters));
}

static int32_t pool_append(int32_t **pool, int32_t *len, int32_t *cap,
                           const int32_t *payload, int32_t count) {
    if (grow_i32(pool, cap, *len + count + 1))
        return -1;
    int32_t off = *len;
    (*pool)[(*len)++] = count;
    for (int32_t i = 0; i < count; i++)
        (*pool)[(*len)++] = payload[i];
    return off;
}

/* Lazily resolve one packed implication state: what
 * ImplicationEngine._examine_state forces, in one fused pass over the
 * rows (same row order, same single-match and "nothing forced" results,
 * same advanced-mode meet of Definition 4.1).  Stores into fref; returns
 * 0, or -1 on allocation failure. */
static int sg_resolve_forced(SgCore *h, SgTable *t, int64_t index) {
    int32_t k = t->k;
    int32_t output = (int32_t)(index / t->stride) - 1;
    int64_t rem = index - (int64_t)(output + 1) * t->stride;
    int64_t known_mask = rem >> k;
    int64_t known_values = rem & (((int64_t)1 << k) - 1);
    int32_t pairs[2 * 16]; /* k <= 15 pins + output */
    int32_t n_pairs = 0;
    if (output < 0 && !known_mask) {
        int32_t off =
            pool_append(&h->fpool, &h->fpool_len, &h->fpool_cap, pairs, 0);
        if (off < 0)
            return -1;
        t->fref[index] = off;
        return 0;
    }
    int advanced = t->advanced;
    int32_t count = 0;
    int64_t base_vals = 0;
    int32_t base_out = 0;
    int64_t forced_mask = 0;
    int out_agree = output < 0;
    int dead = 0; /* an early "nothing forced" return of _examine_state */
    for (int32_t r = 0; r < t->n_rows; r++) {
        if (output >= 0 && t->row_out[r] != output)
            continue;
        if ((t->row_vals[r] ^ known_values) & (t->row_mask[r] & known_mask))
            continue;
        if (count == 0) {
            base_vals = t->row_vals[r];
            base_out = t->row_out[r];
            forced_mask = t->row_mask[r] & ~known_mask;
        } else {
            if (!advanced) {
                /* Two or more matches without advanced implications:
                 * nothing is forced. */
                dead = 1;
                break;
            }
            forced_mask &= t->row_mask[r] & ~(t->row_vals[r] ^ base_vals);
            if (t->row_out[r] != base_out)
                out_agree = 0;
            if (!forced_mask && !out_agree) {
                dead = 1;
                break;
            }
        }
        count++;
    }
    if (count == 0) {
        t->fref[index] = REF_CONFLICT;
        return 0;
    }
    if (!dead) {
        for (int32_t i = 0; i < k; i++) {
            if ((forced_mask >> i) & 1) {
                pairs[2 * n_pairs] = i;
                pairs[2 * n_pairs + 1] = (int32_t)((base_vals >> i) & 1);
                n_pairs++;
            }
        }
        if (out_agree) {
            /* Single match: iff the output was unassigned; multi match:
             * iff every matching row agrees on the output. */
            pairs[2 * n_pairs] = k;
            pairs[2 * n_pairs + 1] = base_out;
            n_pairs++;
        }
    }
    int32_t off = pool_append(&h->fpool, &h->fpool_len, &h->fpool_cap, pairs,
                              2 * n_pairs);
    if (off < 0)
        return -1;
    /* The count slot stores the PAIR count. */
    h->fpool[off] = n_pairs;
    t->fref[index] = off;
    return 0;
}

/* Lazily resolve one packed decision state: the candidate rows of
 * DecisionEngine.candidate_rows as row indices, in one pass (the early
 * break only trims the useful list; the conflict test needs just "any
 * match").  Stores into dref; returns 0, or -1 on allocation failure. */
static int sg_resolve_decision(SgCore *h, SgTable *t, int64_t index) {
    int32_t k = t->k;
    int32_t output = (int32_t)(index / t->stride) - 1;
    int64_t rem = index - (int64_t)(output + 1) * t->stride;
    int64_t known_mask = rem >> k;
    int64_t known_values = rem & (((int64_t)1 << k) - 1);
    int32_t n_match = 0;
    int32_t n_useful = 0;
    for (int32_t r = 0; r < t->n_rows; r++) {
        if (output >= 0 && t->row_out[r] != output)
            continue;
        if ((t->row_vals[r] ^ known_values) & (t->row_mask[r] & known_mask))
            continue;
        n_match++;
        int64_t binds_new = t->row_mask[r] & ~known_mask;
        if (!binds_new && output >= 0) {
            /* A matching row whose bound pins are all assigned covers
             * every completion: the node needs no decision at all. */
            n_useful = 0;
            break;
        }
        if (binds_new || output < 0)
            h->scratch[n_useful++] = r;
    }
    if (n_match == 0) {
        t->dref[index] = REF_CONFLICT;
        return 0;
    }
    int32_t off = pool_append(&h->dpool, &h->dpool_len, &h->dpool_cap,
                              h->scratch, n_useful);
    if (off < 0)
        return -1;
    t->dref[index] = off;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Assignment primitives: assign/unwind keep the packed states current */
/* ------------------------------------------------------------------ */

static void sg_assign_slot(SgCore *h, int32_t slot, int32_t value) {
    h->values[slot] = (int8_t)value;
    h->trail[h->trail_len++] = slot;
    int32_t lo = h->pin_off[slot], hi = h->pin_off[slot + 1];
    if (value) {
        for (int32_t p = lo; p < hi; p++)
            h->state[h->pin_g[p]] += h->pin_d1[p];
        h->state[slot] += h->out_delta[slot] << 1;
    } else {
        for (int32_t p = lo; p < hi; p++)
            h->state[h->pin_g[p]] += h->pin_d0[p];
        h->state[slot] += h->out_delta[slot];
    }
}

static void sg_unwind_to(SgCore *h, int32_t mark) {
    for (int32_t t = mark; t < h->trail_len; t++) {
        int32_t slot = h->trail[t];
        int8_t value = h->values[slot];
        h->values[slot] = -1;
        int32_t lo = h->pin_off[slot], hi = h->pin_off[slot + 1];
        if (value) {
            for (int32_t p = lo; p < hi; p++)
                h->state[h->pin_g[p]] -= h->pin_d1[p];
            h->state[slot] -= h->out_delta[slot] << 1;
        } else {
            for (int32_t p = lo; p < hi; p++)
                h->state[h->pin_g[p]] -= h->pin_d0[p];
            h->state[slot] -= h->out_delta[slot];
        }
    }
    h->trail_len = mark;
}

static void sg_drain(SgCore *h) {
    while (h->q_head != h->q_tail) {
        h->queued[h->queue[h->q_head]] = 0;
        h->q_head = (h->q_head + 1) % h->q_cap;
    }
}

/* ------------------------------------------------------------------ */
/* One target: Algorithm 1 lines 4-16                                  */
/* ------------------------------------------------------------------ */

static int sg_pis_set(SgCore *h) {
    for (int32_t i = 0; i < h->n_cone_pis; i++)
        if (h->values[h->cur_cone_pis[i]] < 0)
            return 0;
    return 1;
}

/* Build and cache the fanin cone of one target slot (members + PIs). */
static int sg_build_cone(SgCore *h, int32_t root) {
    int32_t n_mem = 0, n_pi = 0, sp = 0;
    int64_t vc = ++h->visit_counter;
    h->dfs_stack[sp++] = root;
    h->visit_epoch[root] = vc;
    while (sp) {
        int32_t u = h->dfs_stack[--sp];
        h->mem_buf[n_mem++] = u;
        if (h->is_pi[u])
            h->pi_buf[n_pi++] = u;
        for (int32_t p = h->fi_off[u]; p < h->fi_off[u + 1]; p++) {
            int32_t f = h->fi[p];
            if (h->visit_epoch[f] != vc) {
                h->visit_epoch[f] = vc;
                h->dfs_stack[sp++] = f;
            }
        }
    }
    int32_t *mem = (int32_t *)xalloc((size_t)n_mem * sizeof(int32_t));
    int32_t *pis = (int32_t *)xalloc((size_t)n_pi * sizeof(int32_t));
    if (!mem || !pis) {
        free(mem);
        free(pis);
        return -1;
    }
    memcpy(mem, h->mem_buf, (size_t)n_mem * sizeof(int32_t));
    if (n_pi > 0)
        memcpy(pis, h->pi_buf, (size_t)n_pi * sizeof(int32_t));
    h->cone_mem[root] = mem;
    h->cone_mem_n[root] = n_mem;
    h->cone_pi[root] = pis;
    h->cone_pi_n[root] = n_pi;
    return 0;
}

static void sg_push_examiners(SgCore *h, int32_t slot) {
    int32_t lo = h->exam_off[slot], hi = h->exam_off[slot + 1];
    for (int32_t e = lo; e < hi; e++) {
        int32_t cand = h->exam[e];
        if (!h->queued[cand]) {
            h->queued[cand] = 1;
            h->queue[h->q_tail] = cand;
            h->q_tail = (h->q_tail + 1) % h->q_cap;
        }
    }
}

/* Apply one slot's forced entry: 0 ok, 1 conflict, -1 allocation error. */
static int sg_examine(SgCore *h, int32_t slot) {
    int32_t tid = h->table_of[slot];
    SgTable *t = &h->tables[tid];
    int64_t index = h->state[slot];
    int32_t fr = t->fref[index];
    if (fr == REF_UNRESOLVED) {
        if (sg_resolve_forced(h, t, index))
            return -1;
        fr = t->fref[index];
    }
    if (fr == REF_CONFLICT)
        return 1;
    int32_t n_pairs = h->fpool[fr];
    const int32_t *pairs = h->fpool + fr + 1;
    int32_t k = t->k;
    const int32_t *fanins = h->fi + h->fi_off[slot];
    for (int32_t i = 0; i < n_pairs; i++) {
        int32_t pin = pairs[2 * i];
        int32_t val = pairs[2 * i + 1];
        int32_t target = (pin == k) ? slot : fanins[pin];
        int8_t cur = h->values[target];
        if (cur >= 0) {
            if (cur != val)
                return 1; /* clash with another implication path */
            continue;
        }
        sg_assign_slot(h, target, val);
        h->prop_assigned++;
        sg_push_examiners(h, target);
    }
    return 0;
}

/* Worklist fixpoint: 0 fixpoint, 1 conflict, -1 allocation error. */
static int sg_propagate(SgCore *h) {
    while (h->q_head != h->q_tail) {
        int32_t slot = h->queue[h->q_head];
        h->q_head = (h->q_head + 1) % h->q_cap;
        h->queued[slot] = 0;
        h->prop_examined++;
        if (h->table_of[slot] < 0)
            continue; /* PI or constant: nothing to force */
        int r = sg_examine(h, slot);
        if (r)
            return r;
    }
    return 0;
}

static int32_t sg_pick_candidate(SgCore *h) {
    for (int32_t t = h->trail_len - 1; t >= 0; t--) {
        int32_t slot = h->trail[t];
        if (h->cone_epoch[slot] != h->epoch)
            continue;
        int64_t full = h->full_bits[slot];
        if ((h->state[slot] & full) != full && h->exh_epoch[slot] != h->epoch)
            return slot;
    }
    return -1;
}

/* DecisionEngine.decide's draw among the candidate rows: rng.choice for
 * random decisions, else the min-shifted Equation-4 roulette by
 * stochastic acceptance, every float operation in its order.  Each
 * weight carries the 0.1 + 0.05 * span floor, so roulette_select's
 * 1e-9 clamp is the identity. */
static int32_t sg_choose_row(SgCore *h, int32_t slot, const int32_t *rows,
                             int32_t count) {
    SgRng *r = &h->rng;
    if (h->random_rows)
        return rows[rng_below(r, count)];
    const double *prio = h->prio + h->prio_off[slot];
    double low = prio[rows[0]], high = low;
    for (int32_t i = 1; i < count; i++) {
        double p = prio[rows[i]];
        if (p < low)
            low = p;
        if (p > high)
            high = p;
    }
    double span = high - low;
    double scaled = 0.05 * span;
    double floor = 0.1 + scaled;
    double *w = h->weights;
    double top = 0.0;
    for (int32_t i = 0; i < count; i++) {
        w[i] = (prio[rows[i]] - low) + floor;
        if (i == 0 || w[i] > top)
            top = w[i];
    }
    for (;;) {
        int32_t j = rng_below(r, count);
        double u = rng_random(r);
        if (u * top <= w[j])
            return rows[j];
    }
}

static int32_t sg_conflict_out(SgCore *h) {
    h->counters[C_REVERTED] += h->trail_len - h->marker;
    sg_unwind_to(h, h->marker);
    return SG_CONFLICT;
}

/* SimGenGenerator._process_target on one target slot.  The report
 * counts of the target land in rep_implications / rep_decisions. */
static int32_t sg_run_target(SgCore *h, int32_t target, int32_t gold) {
    if (!h->cone_mem[target] && sg_build_cone(h, target))
        return SG_ERROR;
    h->epoch++;
    h->cur_cone_pis = h->cone_pi[target];
    h->n_cone_pis = h->cone_pi_n[target];
    const int32_t *members = h->cone_mem[target];
    int32_t n_members = h->cone_mem_n[target];
    for (int32_t i = 0; i < n_members; i++)
        h->cone_epoch[members[i]] = h->epoch;
    h->marker = h->trail_len;
    h->rep_implications = 0;
    h->rep_decisions = 0;
    int8_t cur = h->values[target];
    if (cur >= 0) {
        if (cur != (int8_t)gold)
            return SG_CONFLICT; /* assign() raised: nothing to revert */
        if (sg_pis_set(h))
            return SG_DONE; /* already consistent and fully propagated */
    } else {
        sg_assign_slot(h, target, gold);
    }
    h->seeds[0] = target;
    h->n_seeds = 1;
    for (;;) {
        if (sg_pis_set(h)) /* line 8 */
            return SG_DONE;
        for (int32_t s = 0; s < h->n_seeds; s++)
            sg_push_examiners(h, h->seeds[s]);
        h->n_seeds = 0;
        h->prop_examined = 0;
        h->prop_assigned = 0;
        int r = sg_propagate(h); /* line 9 */
        if (r < 0)
            return SG_ERROR;
        /* Close the propagate stats window (ImplicationEngine.propagate's
         * `finally`). */
        h->counters[C_PROP_CALLS]++;
        h->counters[C_EXAMINATIONS] += h->prop_examined;
        h->counters[C_FORCED] += h->prop_assigned;
        h->rep_implications += h->prop_assigned;
        if (r == 1) { /* lines 10-13 */
            h->counters[C_IMPL_CONFLICTS]++;
            sg_drain(h);
            return sg_conflict_out(h);
        }
        if (sg_pis_set(h))
            return SG_DONE;
        int32_t slot = sg_pick_candidate(h); /* line 15 */
        if (slot < 0)
            return SG_DONE;
        h->counters[C_DECISIONS]++; /* line 16: decide() */
        SgTable *t = &h->tables[h->table_of[slot]];
        int64_t index = h->state[slot];
        int32_t dr = t->dref[index];
        if (dr == REF_UNRESOLVED) {
            if (sg_resolve_decision(h, t, index))
                return SG_ERROR;
            dr = t->dref[index];
        }
        if (dr == REF_CONFLICT) {
            h->counters[C_DEC_CONFLICTS]++;
            return sg_conflict_out(h);
        }
        int32_t count = h->dpool[dr];
        if (count == 0) {
            /* decide() returned (False, []): candidate exhausted. */
            h->exh_epoch[slot] = h->epoch;
            continue;
        }
        h->counters[C_ROWS_COMMITTED]++;
        int32_t row = sg_choose_row(h, slot, h->dpool + dr + 1, count);
        int64_t mask = t->row_mask[row];
        int64_t vals = t->row_vals[row];
        int32_t k = t->k;
        const int32_t *fanins = h->fi + h->fi_off[slot];
        int committed = 0;
        for (int32_t i = 0; i < k; i++) {
            if (!((mask >> i) & 1))
                continue;
            int32_t lit = (int32_t)((vals >> i) & 1);
            int32_t f = fanins[i];
            int8_t fv = h->values[f];
            if (fv >= 0) {
                if (fv != lit) {
                    /* Duplicated fanins bound to opposite values by the
                     * chosen row: decide() -> (True, committed); the
                     * driver reverts, with NO dec-conflict count. */
                    return sg_conflict_out(h);
                }
                continue;
            }
            sg_assign_slot(h, f, lit);
            h->seeds[h->n_seeds++] = f;
            committed = 1;
        }
        if (h->values[slot] < 0) {
            sg_assign_slot(h, slot, t->row_out[row]);
            h->seeds[h->n_seeds++] = slot;
            committed = 1;
        }
        if (!committed) {
            h->exh_epoch[slot] = h->epoch;
            h->n_seeds = 0;
        } else {
            h->rep_decisions++;
        }
    }
}

/* ------------------------------------------------------------------ */
/* One attempt: select_targets .. free-PI completion                   */
/* ------------------------------------------------------------------ */

static int cmp_i32(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

static int cmp_i64(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* sorted(rng.sample(range(n), k)): random.sample's pool branch when
 * n <= setsize, its set-rejection branch above it. */
static void sg_sample(SgCore *h, int32_t n, int32_t k, int32_t *out) {
    SgRng *r = &h->rng;
    if ((int64_t)n <= h->setsize) {
        int32_t *pool = h->pool;
        for (int32_t i = 0; i < n; i++)
            pool[i] = i;
        for (int32_t i = 0; i < k; i++) {
            int32_t j = rng_below(r, n - i);
            out[i] = pool[j];
            pool[j] = pool[n - i - 1];
        }
    } else {
        int64_t stamp = ++h->pick_counter;
        for (int32_t i = 0; i < k; i++) {
            int32_t j = rng_below(r, n);
            while (h->pick_epoch[j] == stamp)
                j = rng_below(r, n);
            h->pick_epoch[j] = stamp;
            out[i] = j;
        }
    }
    qsort(out, (size_t)k, sizeof(int32_t), cmp_i32);
}

/* Run one attempt of SimGenGenerator.generate on a class given as slots
 * in uid order.  Saves the RNG and counters under `mark` first, so
 * sg_rewind(mark) undoes the whole attempt.  Writes the report counters
 * to info, the OUTgold targets in OUTgold order to out_slots/out_flags,
 * and — when the claimed values pass the skip check — the completed
 * vector to bit `lane` of the per-PI words (bits above it are cleared,
 * so the lanes of a batch are written 0, 1, 2, ...).  Returns SG_SKIPPED,
 * SG_VERIFY or SG_ERROR. */
int32_t sg_attempt(void *hp, const int32_t *cls, int32_t n_cls, int32_t mark,
                   int32_t lane) {
    SgCore *h = (SgCore *)hp;
    if (!h || !h->finalized || !h->policy_set || !h->info ||
        h->rng.index > MT_N || n_cls < 1 || n_cls > h->n || lane < 0 ||
        lane >= LANES || mark < 0 || mark > h->n_marks)
        return SG_ERROR;
    for (int32_t i = 0; i < n_cls; i++)
        if (cls[i] < 0 || cls[i] >= h->n)
            return SG_ERROR;
    if (mark == h->cap_marks) {
        int32_t c = h->cap_marks ? h->cap_marks * 2 : 16;
        SgMark *p = (SgMark *)realloc(h->marks, (size_t)c * sizeof(SgMark));
        if (!p)
            return SG_ERROR;
        h->marks = p;
        h->cap_marks = c;
    }
    h->marks[mark].rng = h->rng;
    memcpy(h->marks[mark].counters, h->counters, sizeof(h->counters));
    if (mark == h->n_marks)
        h->n_marks++;

    /* A fresh Assignment: unwind everything, NO reverted accounting. */
    sg_unwind_to(h, 0);
    sg_drain(h);

    /* select_targets: positions into cls, ascending (= uid order). */
    int32_t *picked = h->picked;
    int32_t n_t;
    if (n_cls <= h->max_targets) {
        n_t = n_cls;
        for (int32_t i = 0; i < n_t; i++)
            picked[i] = i;
    } else {
        n_t = h->sample_k;
        if (n_t > n_cls)
            return SG_ERROR;
        sg_sample(h, n_cls, n_t, picked);
    }

    /* OUTgold order: uid order, or (level, uid) for the level variant;
     * target i of that order gets gold i % 2. */
    int32_t *og = h->og_pos;
    int64_t *keys = h->keys;
    if (h->level_outgold) {
        for (int32_t i = 0; i < n_t; i++)
            keys[i] = ((int64_t)h->level[cls[picked[i]]] << 32) | picked[i];
        qsort(keys, (size_t)n_t, sizeof(int64_t), cmp_i64);
        for (int32_t i = 0; i < n_t; i++)
            og[i] = (int32_t)(keys[i] & 0xffffffff);
    } else {
        memcpy(og, picked, (size_t)n_t * sizeof(int32_t));
    }

    /* Algorithm 1 line 2: decreasing (level, uid).  Within one level the
     * OUTgold index grows with the uid in both orders, so it stands in
     * for the uid in the key. */
    for (int32_t i = 0; i < n_t; i++)
        keys[i] = ((int64_t)h->level[cls[og[i]]] << 32) | i;
    qsort(keys, (size_t)n_t, sizeof(int64_t), cmp_i64);
    int64_t implications = 0, decisions = 0, conflicts = 0;
    for (int32_t t = n_t - 1; t >= 0; t--) {
        int32_t i = (int32_t)(keys[t] & 0xffffffff);
        int32_t status = sg_run_target(h, cls[og[i]], i & 1);
        if (status < 0)
            return SG_ERROR;
        implications += h->rep_implications;
        decisions += h->rep_decisions;
        if (status == SG_CONFLICT)
            conflicts++;
    }
    h->info[I_TARGETS] = n_t;
    h->info[I_IMPLICATIONS] = implications;
    h->info[I_DECISIONS] = decisions;
    h->info[I_CONFLICTS] = conflicts;

    /* The skip check on the claimed values (unassigned never claims). */
    int claimed_gold[2] = {0, 0};
    for (int32_t i = 0; i < n_t; i++) {
        int32_t slot = cls[og[i]];
        int32_t gold = i & 1;
        int claimed = h->values[slot] == gold;
        h->out_slots[i] = slot;
        h->out_flags[i] = (int8_t)(gold | (claimed << 1));
        if (claimed)
            claimed_gold[gold] = 1;
    }
    if (!(claimed_gold[0] && claimed_gold[1]))
        return SG_SKIPPED;

    /* InputVector.completed: free PIs draw getrandbits(1) in PI order. */
    uint64_t keep = ((uint64_t)1 << lane) - 1;
    for (int32_t i = 0; i < h->n_pis; i++) {
        int8_t v = h->values[h->pis[i]];
        uint64_t bit = v >= 0 ? (uint64_t)v : (uint64_t)rng_bits(&h->rng, 1);
        h->words[i] = (h->words[i] & keep) | (bit << lane);
    }
    return SG_VERIFY;
}

/* Undo every attempt from the one saved under `mark` on. */
int32_t sg_rewind(void *hp, int32_t mark) {
    SgCore *h = (SgCore *)hp;
    if (!h || mark < 0 || mark >= h->n_marks)
        return -1;
    h->rng = h->marks[mark].rng;
    memcpy(h->counters, h->marks[mark].counters, sizeof(h->counters));
    return 0;
}

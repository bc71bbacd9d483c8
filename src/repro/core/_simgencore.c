/* SimGen core: one whole TargetedVectorGenerator.generate() per call, in C.
 *
 * repro/core/batch.py hands a network's lowering (repro/network/lowering.py)
 * to this core with one sg_load call: per slot (topological order) its
 * kind, level, function id, fanins and fanouts (a slot's examiners are the
 * slot, then its fanouts: the reference worklist order); each distinct
 * gate function's rows once; the network's PIs in order; the node id of
 * every slot; and the MFFC depth of every slot, which sg_mffc_depths
 * computes for a whole lowering in one call.  sg_load derives from these each row's Equation-4
 * priority and each table's truth table.  The assignment is a flat value
 * array and a trail; each gate's pin state is one base-3 index (a digit
 * per fanin pin, then the output digit at 3**k: 0 unknown, 1 a known 0,
 * 2 a known 1), with the count of unassigned fanin pins above it, kept up
 * to date incrementally, so an examination is a single table lookup.
 *
 * sg_generate runs the reference generate() loop: the class rotation, the
 * attempt budget and every attempt — select_targets, the OUTgold values,
 * the decreasing-(level, uid) target order, each target's Algorithm 1 with
 * its roulette/choice draws, the claimed-values skip check and the random
 * completion of the free PIs — and then verifies the completed vector the
 * way TargetedVectorGenerator._finalize does, by simulating it: each
 * target's cached fanin cone is evaluated in slot (= topological) order,
 * nodes shared between cones once, from the tables' truth tables.  A
 * vector is kept when targets of both gold values survive.  The caller
 * gets the kept vectors' PI bits, the new rotation, the RNG state and one
 * log record per attempt.
 *
 * The contract is *bit-identity* with the reference engines
 * (ImplicationEngine, DecisionEngine and SimGenGenerator in repro/core):
 * every counter bump, every queue push, every trail entry and every RNG
 * draw happens in exactly their order.  The core owns a port of CPython's
 * MT19937 (Modules/_randommodule.c) plus the Python-level draw rules
 * SimGen uses (random.py's _randbelow_with_getrandbits, choice, sample,
 * random); the driver hands the Python Random's state in and takes it back
 * once per generate() call.
 *
 * Transition-table states are resolved lazily (sg_resolve_forced /
 * sg_resolve_decision, ports of ImplicationEngine._examine_state and
 * DecisionEngine.candidate_rows): resolution is a pure integer function
 * of the packed state and the rows.
 *
 * Floating point: the priorities and the roulette repeat
 * DecisionEngine.priority's and DecisionEngine.decide's operations one by
 * one.  The build uses -std=c99, under which GCC never contracts an
 * expression into a fused multiply-add; the floor's multiply and add also
 * sit in two statements, so no other compiler may fuse them.  random()'s
 * a * 2**26 + b is exact, fused or not.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Largest gate arity: a truth table is at most 2**8 bits. */
#define SG_MAX_K 8
#define TT_WORDS 4

/* Node kinds (NODE_* in repro/network/lowering.py). */
#define NODE_PI 0
#define NODE_FALSE 1
#define NODE_TRUE 2
#define NODE_GATE 3

/* Decision scoring (DecisionStrategy). */
#define SCORE_RANDOM 0 /* choice among the rows, no roulette  */
#define SCORE_DC 1     /* Equation 4 without the MFFC term     */
#define SCORE_DC_MFFC 2

/* Outcomes of one target (sg_run_target). */
#define SG_DONE 0     /* target finished, or nothing left to do for it */
#define SG_CONFLICT 1 /* conflict: the report counts one                */
#define SG_ERROR (-1)

/* Attempt statuses in the log. */
#define SG_SKIPPED 0   /* claimed values fail the skip check: not simulated */
#define SG_REJECTED 1  /* simulated; no opposite-gold pair survived         */
#define SG_COMMITTED 2 /* simulated; the vector is kept                     */

/* Per-target flags in the log. */
#define F_GOLD 1
#define F_CLAIMED 2
#define F_SURVIVED 4

/* A log record: status, target count, implications, decisions,
 * conflicts, then (slot, flags) per target in OUTgold order. */
#define REC_HEAD 5

/* A pin state: the base-3 index below PIN_SHIFT, the number of unassigned
 * fanin pins above it (3**9 < 2**16). */
#define PIN_SHIFT 16
#define INDEX_MASK ((1 << PIN_SHIFT) - 1)

/* Transition tables hold 0 for a state not resolved yet.  A forced entry
 * (fref) packs what ImplicationEngine._examine_state returns: the forced
 * fanin pins and their values, the forced output, or a conflict. */
#define FX_RESOLVED 1
#define FX_CONFLICT 2
#define FX_OUT 4       /* the output is forced ...          */
#define FX_OUT_ONE 8   /* ... to 1                          */
#define FX_PINS 4      /* forced fanin pins: bits 4..11     */
#define FX_VALUES 12   /* their values: bits 12..19         */
/* A decision entry (dref) is its candidate rows' dpool offset + 1, or: */
#define REF_CONFLICT (-1)

/* Counter indices (the per-call counts sg_generate writes out). */
#define C_PROP_CALLS 0
#define C_EXAMINATIONS 1
#define C_FORCED 2
#define C_IMPL_CONFLICTS 3
#define C_DECISIONS 4
#define C_DEC_CONFLICTS 5
#define C_ROWS_COMMITTED 6
#define C_REVERTED 7
#define C_ATTEMPTS 8
#define C_SIMULATED 9
#define C_COUNT 10
#define C_LOG_LEN C_COUNT /* one more slot: the log's length */

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

typedef struct {
    int32_t k;
    int32_t n_rows;
    int32_t span; /* 3**(k + 1) pin states */
    int64_t *row_mask;
    int64_t *row_vals;
    int8_t *row_out;
    /* NULL until first used (sg_table_refs); 0 = unresolved. */
    int32_t *fref; /* packed forced entries (FX_*) */
    int32_t *dref; /* decision-row pool offsets + 1, or REF_CONFLICT */
    uint64_t tt[TT_WORDS]; /* bit m: the output on minterm m */
} SgTable;

typedef struct {
    int32_t n;

    /* Lowered network (write-once in sg_load). */
    int8_t *kind;
    int32_t *table_of; /* table id, -1 for PI/const */
    int32_t *level;
    int32_t *out_delta; /* 3**k: the output digit's unit, 0 off gates */
    int32_t *fi_off; /* fanin CSR */
    int32_t *fi;
    int32_t *exam_off; /* examiner CSR */
    int32_t *exam;
    int32_t *pin_off; /* pin-position CSR: (gate, delta0, delta1) */
    int32_t *pin_g;
    int32_t *pin_d0;
    int32_t *pin_d1;
    int32_t *pis; /* network.pis order */
    int32_t n_pis;
    int32_t *uid_slot; /* node id -> slot, -1 for none */
    int32_t n_uids;
    double *prio;      /* Equation-4 priority per gate row, slot order */
    int64_t *prio_off; /* slot -> first row's priority */

    SgTable *tables;
    int32_t n_tables;
    int32_t advanced; /* ImplicationStrategy.ADVANCED (multi-row meet) */

    /* The pool behind dref (offset -> [count, row indices...]). */
    int32_t *dpool;
    int32_t dpool_len, dpool_cap;
    int32_t *scratch; /* decision-resolution row buffer (max table rows) */
    double *weights;  /* roulette weights (max table rows) */

    /* Decision and target policy. */
    int32_t random_rows;   /* DecisionStrategy.RANDOM: choice, no roulette */
    int32_t level_outgold; /* level_alternating_outgold, else alternating */
    int32_t max_targets;   /* select_targets' cap (INT32_MAX: no cap)     */
    int32_t sample_k;      /* max(max_targets, 2)                          */
    int64_t setsize;       /* random.sample's pool/set threshold for k    */

    SgRng rng;

    /* Assignment state (reused across attempts). */
    int8_t *values; /* -1 unassigned */
    int32_t *state;
    int32_t *trail;
    int32_t trail_len;
    uint8_t *queued;
    int32_t *queue; /* FIFO ring, capacity n + 1 */
    int32_t q_head, q_tail, q_cap;
    int64_t *exh_epoch;
    int64_t *cone_epoch;
    int64_t epoch;

    /* Cone cache: per target slot, fanin-cone members in slot order and
     * cone PIs (built lazily by one DFS).  Algorithm 1 observes only the
     * *sets*, via the cone-epoch stamps and the all-PIs-assigned check;
     * the verifier evaluates the members in slot order. */
    int32_t **cone_mem;
    int32_t *cone_mem_n;
    int32_t **cone_pi;
    int32_t *cone_pi_n;
    int64_t *visit_epoch;
    int64_t visit_counter;
    int32_t *dfs_stack;
    int32_t *mem_buf;
    int32_t *pi_buf;

    /* Verification: simulated values, stamped per attempt. */
    int8_t *simv;
    int64_t *sim_stamp;
    int64_t sim_epoch;

    /* Per-attempt scratch (sized n): sample pool, picked stamps, chosen
     * class positions, OUTgold order, sort keys. */
    int32_t *pool;
    int64_t *pick_epoch;
    int64_t pick_counter;
    int32_t *picked;
    int32_t *og_pos;
    int64_t *keys;

    /* The classes of one sg_generate call, as slots in uid order. */
    int32_t *cls;
    int64_t cls_cap;

    /* Per-target context. */
    const int32_t *cur_cone_pis;
    int32_t n_cone_pis;
    int32_t marker;
    int32_t *seeds;
    int32_t n_seeds;
    int64_t prop_examined, prop_assigned;
    int64_t rep_implications, rep_decisions;
    /* Candidate pick: trail intervals not yet rejected, as a stack. */
    int32_t *unseen_lo;
    int32_t *unseen_hi;
    int32_t n_unseen;
    int32_t scanned; /* trail length at the last pick */

    int64_t counters[C_COUNT];
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

void sg_free(void *hp) {
    SgCore *h = (SgCore *)hp;
    if (!h)
        return;
    if (h->tables)
        for (int32_t t = 0; t < h->n_tables; t++) {
            free(h->tables[t].row_mask);
            free(h->tables[t].row_vals);
            free(h->tables[t].row_out);
            free(h->tables[t].fref);
            free(h->tables[t].dref);
        }
    free(h->tables);
    free(h->kind);
    free(h->table_of);
    free(h->level);
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
    free(h->uid_slot);
    free(h->prio);
    free(h->prio_off);
    free(h->dpool);
    free(h->scratch);
    free(h->weights);
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
    free(h->simv);
    free(h->sim_stamp);
    free(h->pool);
    free(h->pick_epoch);
    free(h->picked);
    free(h->og_pos);
    free(h->keys);
    free(h->cls);
    free(h->seeds);
    free(h->unseen_lo);
    free(h->unseen_hi);
    free(h);
}

/* Every per-slot array, sized for n slots. */
static SgCore *sg_alloc(int32_t n) {
    SgCore *h = (SgCore *)calloc(1, sizeof(SgCore));
    if (!h)
        return NULL;
    size_t m = (size_t)n + 1;
    h->n = n;
    h->kind = (int8_t *)calloc(m, 1);
    h->table_of = (int32_t *)xalloc(m * sizeof(int32_t));
    h->level = (int32_t *)calloc(m, sizeof(int32_t));
    h->out_delta = (int32_t *)calloc(m, sizeof(int32_t));
    h->fi_off = (int32_t *)calloc(m + 1, sizeof(int32_t));
    h->exam_off = (int32_t *)calloc(m + 1, sizeof(int32_t));
    h->pin_off = (int32_t *)calloc(m + 1, sizeof(int32_t));
    h->prio_off = (int64_t *)calloc(m, sizeof(int64_t));
    h->values = (int8_t *)xalloc(m);
    h->state = (int32_t *)calloc(m, sizeof(int32_t));
    h->trail = (int32_t *)xalloc(m * sizeof(int32_t));
    h->queued = (uint8_t *)calloc(m, 1);
    h->q_cap = n + 1;
    h->queue = (int32_t *)xalloc(m * sizeof(int32_t));
    h->exh_epoch = (int64_t *)calloc(m, sizeof(int64_t));
    h->cone_epoch = (int64_t *)calloc(m, sizeof(int64_t));
    h->cone_mem = (int32_t **)calloc(m, sizeof(int32_t *));
    h->cone_mem_n = (int32_t *)calloc(m, sizeof(int32_t));
    h->cone_pi = (int32_t **)calloc(m, sizeof(int32_t *));
    h->cone_pi_n = (int32_t *)calloc(m, sizeof(int32_t));
    h->visit_epoch = (int64_t *)calloc(m, sizeof(int64_t));
    h->dfs_stack = (int32_t *)xalloc(m * sizeof(int32_t));
    h->mem_buf = (int32_t *)xalloc(m * sizeof(int32_t));
    h->pi_buf = (int32_t *)xalloc(m * sizeof(int32_t));
    h->simv = (int8_t *)calloc(m, 1);
    h->sim_stamp = (int64_t *)calloc(m, sizeof(int64_t));
    h->pool = (int32_t *)xalloc(m * sizeof(int32_t));
    h->pick_epoch = (int64_t *)calloc(m, sizeof(int64_t));
    h->picked = (int32_t *)xalloc(m * sizeof(int32_t));
    h->og_pos = (int32_t *)xalloc(m * sizeof(int32_t));
    h->keys = (int64_t *)xalloc(m * sizeof(int64_t));
    h->unseen_lo = (int32_t *)xalloc(m * sizeof(int32_t));
    h->unseen_hi = (int32_t *)xalloc(m * sizeof(int32_t));
    if (!h->kind || !h->table_of || !h->level || !h->out_delta ||
        !h->fi_off || !h->exam_off || !h->pin_off ||
        !h->prio_off || !h->values || !h->state || !h->trail ||
        !h->queued || !h->queue || !h->exh_epoch || !h->cone_epoch ||
        !h->cone_mem || !h->cone_mem_n || !h->cone_pi || !h->cone_pi_n ||
        !h->visit_epoch || !h->dfs_stack || !h->mem_buf || !h->pi_buf ||
        !h->simv || !h->sim_stamp || !h->pool || !h->pick_epoch ||
        !h->picked || !h->og_pos || !h->keys || !h->unseen_lo ||
        !h->unseen_hi) {
        sg_free(h);
        return NULL;
    }
    memset(h->values, 0xff, m); /* all -1 */
    return h;
}

/* One gate function: copy its rows and derive its truth table (every
 * minterm covered, by rows that agree).  Returns 0, or -1 on a bad row
 * set or allocation failure. */
static int sg_add_table(SgTable *t, int32_t k, int32_t n_rows,
                        const int32_t *rows) {
    memset(t, 0, sizeof(*t));
    if (k < 0 || k > SG_MAX_K || n_rows < 0)
        return -1;
    t->k = k;
    t->n_rows = n_rows;
    t->span = 3;
    for (int32_t i = 0; i < k; i++)
        t->span *= 3;
    t->row_mask = (int64_t *)xalloc((size_t)n_rows * sizeof(int64_t));
    t->row_vals = (int64_t *)xalloc((size_t)n_rows * sizeof(int64_t));
    t->row_out = (int8_t *)xalloc((size_t)n_rows);
    if (!t->row_mask || !t->row_vals || !t->row_out)
        return -1;
    int32_t size = 1 << k;
    uint64_t covered[TT_WORDS] = {0, 0, 0, 0};
    for (int32_t r = 0; r < n_rows; r++) {
        int32_t mask = rows[3 * r], vals = rows[3 * r + 1];
        int32_t out = rows[3 * r + 2];
        if (mask < 0 || mask >= size || vals < 0 || vals >= size ||
            (out != 0 && out != 1))
            return -1;
        t->row_mask[r] = mask;
        t->row_vals[r] = vals;
        t->row_out[r] = (int8_t)out;
        for (int32_t m = 0; m < size; m++) {
            if ((m ^ vals) & mask)
                continue;
            uint64_t bit = (uint64_t)1 << (m & 63);
            int32_t w = m >> 6;
            if ((covered[w] & bit) && ((t->tt[w] & bit) != 0) != (out != 0))
                return -1; /* two rows disagree on a minterm */
            covered[w] |= bit;
            if (out)
                t->tt[w] |= bit;
        }
    }
    for (int32_t m = 0; m < size; m++)
        if (!((covered[m >> 6] >> (m & 63)) & 1))
            return -1; /* a minterm no row covers */
    return 0;
}

/* A function's transition tables, all unresolved (zero), allocated when
 * a gate of it is first examined or decided: many functions are never
 * reached from a target.  Returns 0, or -1 on allocation failure. */
static int sg_table_refs(SgTable *t) {
    t->fref = (int32_t *)calloc((size_t)t->span, sizeof(int32_t));
    t->dref = (int32_t *)calloc((size_t)t->span, sizeof(int32_t));
    if (!t->fref || !t->dref) {
        free(t->fref);
        free(t->dref);
        t->fref = t->dref = NULL;
        return -1;
    }
    return 0;
}

/* A base-3 pin state as the reference engines key it: known fanin pins,
 * their values, and the output (-1 unknown). */
static int32_t sg_decode_state(const SgTable *t, int32_t index,
                               int64_t *known_mask, int64_t *known_values) {
    int64_t mask = 0, values = 0;
    for (int32_t i = 0; i < t->k; i++, index /= 3) {
        int32_t digit = index % 3;
        if (digit) {
            mask |= (int64_t)1 << i;
            if (digit == 2)
                values |= (int64_t)1 << i;
        }
    }
    *known_mask = mask;
    *known_values = values;
    return index - 1;
}

/* One slot: its kind, level, table, fanins (all earlier slots) and
 * fanouts.  Returns 0, or -1 on an inconsistent record. */
static int sg_set_node(SgCore *h, int32_t slot, int32_t kind, int32_t level,
                       int32_t table_id, const int32_t *fanins, int32_t k,
                       const int32_t *fanouts, int32_t n_fo) {
    if (kind < NODE_PI || kind > NODE_GATE || level < 0 || k < 0 ||
        n_fo < 0)
        return -1;
    if (kind == NODE_GATE) {
        if (table_id < 0 || table_id >= h->n_tables ||
            h->tables[table_id].k != k)
            return -1;
        h->out_delta[slot] = h->tables[table_id].span / 3;
        h->state[slot] = k << PIN_SHIFT; /* every fanin pin unassigned */
    } else if (table_id != -1 || k != 0) {
        return -1;
    }
    h->kind[slot] = (int8_t)kind;
    h->table_of[slot] = table_id;
    h->level[slot] = level;
    for (int32_t i = 0; i < k; i++)
        if (fanins[i] < 0 || fanins[i] >= slot)
            return -1; /* slots are in topological order */
    for (int32_t i = 0; i < n_fo; i++)
        if (fanouts[i] <= slot || fanouts[i] >= h->n)
            return -1; /* readers come later in topological order */
    return 0;
}

/* Pin positions per driver (CSR), the PIs, the uid map and every gate
 * row's Equation-4 priority, in DecisionEngine.priority's float order:
 * alpha * dc_size, then the MFFC rank summed over the bound pins in pin
 * order, then beta * rank added.  Returns 0, or -1. */
static int sg_finalize(SgCore *h, const int32_t *pis, int32_t n_pis,
                       const int32_t *uids, int32_t score, double alpha,
                       double beta, const double *depth) {
    int32_t n = h->n;
    int32_t max_rows = 1, max_k = 0, n_pi_kind = 0, max_uid = -1;
    int64_t rows = 0;
    for (int32_t s = 0; s < n; s++) {
        h->prio_off[s] = rows;
        if (h->kind[s] == NODE_PI)
            n_pi_kind++;
        if (uids[s] < 0 || uids[s] == INT32_MAX)
            return -1; /* n_uids = max_uid + 1 must fit */
        if (uids[s] > max_uid)
            max_uid = uids[s];
        if (h->table_of[s] >= 0) {
            SgTable *t = &h->tables[h->table_of[s]];
            rows += t->n_rows;
            if (t->n_rows > max_rows)
                max_rows = t->n_rows;
            if (t->k > max_k)
                max_k = t->k;
        }
    }
    if (n_pis != n_pi_kind)
        return -1;
    h->pis = (int32_t *)xalloc((size_t)n_pis * sizeof(int32_t));
    h->n_uids = max_uid + 1;
    h->uid_slot = (int32_t *)xalloc((size_t)h->n_uids * sizeof(int32_t));
    h->prio = (double *)xalloc((size_t)rows * sizeof(double));
    h->scratch = (int32_t *)xalloc((size_t)max_rows * sizeof(int32_t));
    h->weights = (double *)xalloc((size_t)max_rows * sizeof(double));
    h->seeds = (int32_t *)xalloc((size_t)(max_k + 2) * sizeof(int32_t));
    if (!h->pis || !h->uid_slot || !h->prio || !h->scratch || !h->weights ||
        !h->seeds)
        return -1;
    /* Every PI exactly once: the verifier stamps the PIs from this list. */
    int64_t listed = ++h->visit_counter;
    for (int32_t i = 0; i < n_pis; i++) {
        int32_t s = pis[i];
        if (s < 0 || s >= n || h->kind[s] != NODE_PI ||
            h->visit_epoch[s] == listed)
            return -1;
        h->visit_epoch[s] = listed;
        h->pis[i] = s;
    }
    h->n_pis = n_pis;
    for (int32_t u = 0; u < h->n_uids; u++)
        h->uid_slot[u] = -1;
    for (int32_t s = 0; s < n; s++) {
        if (h->uid_slot[uids[s]] != -1)
            return -1;
        h->uid_slot[uids[s]] = s;
    }
    for (int32_t s = 0; s < n; s++) {
        if (h->table_of[s] < 0)
            continue;
        const SgTable *t = &h->tables[h->table_of[s]];
        const int32_t *fanins = h->fi + h->fi_off[s];
        double *prio = h->prio + h->prio_off[s];
        for (int32_t r = 0; r < t->n_rows; r++) {
            int64_t mask = t->row_mask[r];
            int32_t bound = 0;
            for (int32_t i = 0; i < t->k; i++)
                bound += (int32_t)((mask >> i) & 1);
            double value = alpha * (double)(t->k - bound);
            if (score == SCORE_DC_MFFC) {
                double rank = 0.0;
                for (int32_t i = 0; i < t->k; i++)
                    if ((mask >> i) & 1)
                        rank += depth[fanins[i]];
                value += beta * rank;
            }
            prio[r] = value;
        }
    }
    /* Count pin positions per driver, then fill (classic CSR two-pass). */
    for (int32_t g = 0; g < n; g++)
        for (int32_t p = h->fi_off[g]; p < h->fi_off[g + 1]; p++)
            h->pin_off[h->fi[p] + 1]++;
    for (int32_t s = 0; s < n; s++)
        h->pin_off[s + 1] += h->pin_off[s];
    int32_t total = h->pin_off[n];
    h->pin_g = (int32_t *)xalloc((size_t)total * sizeof(int32_t));
    h->pin_d0 = (int32_t *)xalloc((size_t)total * sizeof(int32_t));
    h->pin_d1 = (int32_t *)xalloc((size_t)total * sizeof(int32_t));
    int32_t *cursor = (int32_t *)xalloc((size_t)(n + 1) * sizeof(int32_t));
    if (!h->pin_g || !h->pin_d0 || !h->pin_d1 || !cursor) {
        free(cursor);
        return -1;
    }
    memcpy(cursor, h->pin_off, (size_t)n * sizeof(int32_t));
    for (int32_t g = 0; g < n; g++) {
        int32_t k = h->fi_off[g + 1] - h->fi_off[g];
        int32_t unit = 1; /* 3**i: pin i's digit */
        for (int32_t i = 0; i < k; i++, unit *= 3) {
            int32_t driver = h->fi[h->fi_off[g] + i];
            int32_t at = cursor[driver]++;
            /* The digit becomes 1 or 2, one fewer pin is unassigned. */
            h->pin_g[at] = g;
            h->pin_d0[at] = unit - (1 << PIN_SHIFT);
            h->pin_d1[at] = 2 * unit - (1 << PIN_SHIFT);
        }
    }
    free(cursor);
    return 0;
}

/* Load a network's lowering in one call.  Per slot (topological order):
 * kind (NODE_*), level, table id (-1 for PIs and constants), fanin slots
 * (CSR fi_off/fi) and fanout slots (CSR fo_off/fo).  Per table: arity
 * tab_k and rows row_off[t] .. row_off[t + 1] - 1, row r being the (mask,
 * values, output) triple at rows[3 * r].  Then the PI slots in
 * network.pis order, every slot's node id, the decision scoring (SCORE_*)
 * with alpha, beta and every slot's MFFC depth (read only for
 * SCORE_DC_MFFC), and the target policy:
 * select_targets' cap before its clamp to 2 (INT32_MAX for None), the
 * clamped sample size, and random.sample's set threshold for it.
 * Returns a handle, or NULL when the buffers are inconsistent. */
void *sg_load(int32_t n, const int32_t *kind, const int32_t *level,
              const int32_t *table_of, const int32_t *fi_off,
              const int32_t *fi, const int32_t *fo_off,
              const int32_t *fo, int32_t n_tables, const int32_t *tab_k,
              const int32_t *row_off, const int32_t *rows, int32_t advanced,
              const int32_t *pis, int32_t n_pis,
              const int32_t *uids, int32_t score, double alpha, double beta,
              const double *depth, int32_t level_outgold,
              int32_t max_targets, int32_t sample_k, int64_t setsize) {
    if (n < 0 || n_tables < 0 || n_pis < 0 || sample_k < 2 ||
        score < SCORE_RANDOM || score > SCORE_DC_MFFC ||
        (score == SCORE_DC_MFFC && !depth) || fi_off[0] != 0 ||
        fo_off[0] != 0 || row_off[0] != 0)
        return NULL;
    SgCore *h = sg_alloc(n);
    if (!h)
        return NULL;
    h->advanced = advanced ? 1 : 0;
    h->random_rows = score == SCORE_RANDOM;
    h->level_outgold = level_outgold ? 1 : 0;
    h->max_targets = max_targets;
    h->sample_k = sample_k;
    h->setsize = setsize;
    h->rng.index = MT_N + 1; /* invalid until sg_generate loads a state */
    h->tables = (SgTable *)calloc((size_t)n_tables + 1, sizeof(SgTable));
    if (!h->tables)
        goto fail;
    for (int32_t t = 0; t < n_tables; t++) {
        h->n_tables = t + 1; /* so sg_free releases a partial table */
        if (row_off[t + 1] < row_off[t] ||
            sg_add_table(&h->tables[t], tab_k[t], row_off[t + 1] - row_off[t],
                         rows + 3 * (int64_t)row_off[t]))
            goto fail;
    }
    int32_t n_fi = fi_off[n], n_fo = fo_off[n];
    if (n_fi < 0 || n_fo < 0)
        goto fail;
    int64_t n_exam = (int64_t)n_fo + n;
    h->fi = (int32_t *)xalloc((size_t)n_fi * sizeof(int32_t));
    h->exam = (int32_t *)xalloc((size_t)n_exam * sizeof(int32_t));
    if (!h->fi || !h->exam)
        goto fail;
    for (int32_t s = 0; s < n; s++) {
        int32_t k = fi_off[s + 1] - fi_off[s];
        int32_t e = fo_off[s + 1] - fo_off[s];
        if (fi_off[s + 1] > n_fi || fo_off[s + 1] > n_fo ||
            sg_set_node(h, s, kind[s], level[s], table_of[s], fi + fi_off[s],
                        k, fo + fo_off[s], e))
            goto fail;
        /* The examiner row: the slot itself, then its fanouts. */
        int32_t at = fo_off[s] + s;
        h->exam_off[s] = at;
        h->exam[at] = s;
        memcpy(h->exam + at + 1, fo + fo_off[s], (size_t)e * sizeof(int32_t));
    }
    h->exam_off[n] = (int32_t)n_exam;
    memcpy(h->fi_off, fi_off, ((size_t)n + 1) * sizeof(int32_t));
    memcpy(h->fi, fi, (size_t)n_fi * sizeof(int32_t));
    if (sg_finalize(h, pis, n_pis, uids, score, alpha, beta, depth))
        goto fail;
    return h;
fail:
    sg_free(h);
    return NULL;
}

/* The nearest common ancestor of two slots in the post-dominator tree:
 * an ancestor is a later slot, the virtual root is slot n. */
static int32_t pdom_meet(const int32_t *ipdom, int32_t a, int32_t b) {
    while (a != b) {
        while (a < b)
            a = ipdom[a];
        while (b < a)
            b = ipdom[b];
    }
    return a;
}

/* Equation 2 for every slot of a lowering in one pass: the mean, over the
 * leaves of the slot's MFFC, of level(slot) - level(leaf), bit for bit as
 * repro.network.cones.mffc_depth computes it one root at a time.
 *
 * A non-PI node u lies in the MFFC of v exactly when v post-dominates u
 * (every path from u to a node without fanouts passes v), so the MFFCs are
 * the subtrees of the post-dominator tree, PIs left out.  u is a leaf of
 * MFFC(v) for the v on its tree path from u up to, not including, the
 * lowest meet of u with any non-PI fanin (above that meet the fanin is in
 * the cone too).  Adding level(u) and 1 at u, subtracting them at that
 * meet, and summing subtrees gives every MFFC's leaf-level sum and leaf
 * count at once.  Reads the fanin and fanout CSRs of a lowering.  Writes
 * n depths; returns 0, or -1 on allocation failure. */
int sg_mffc_depths(int32_t n, const int32_t *kind, const int32_t *fi_off,
                   const int32_t *fi, const int32_t *fo_off,
                   const int32_t *fo, const int32_t *level, double *depth) {
    size_t m = (size_t)n + 1;
    int32_t *ipdom = (int32_t *)xalloc(m * sizeof(int32_t));
    int64_t *sum = (int64_t *)calloc(m, sizeof(int64_t));
    int64_t *cnt = (int64_t *)calloc(m, sizeof(int64_t));
    if (!ipdom || !sum || !cnt) {
        free(ipdom);
        free(sum);
        free(cnt);
        return -1;
    }
    for (int32_t s = n - 1; s >= 0; s--) {
        int32_t lo = fo_off[s], hi = fo_off[s + 1];
        int32_t a = lo < hi ? fo[lo] : n;
        for (int32_t e = lo + 1; e < hi; e++)
            a = pdom_meet(ipdom, a, fo[e]);
        ipdom[s] = a;
    }
    for (int32_t s = 0; s < n; s++) {
        if (kind[s] == NODE_PI)
            continue;
        int32_t low = n;
        for (int32_t p = fi_off[s]; p < fi_off[s + 1]; p++) {
            if (kind[fi[p]] == NODE_PI)
                continue;
            int32_t meet = pdom_meet(ipdom, fi[p], s);
            if (meet < low)
                low = meet;
        }
        if (low == s)
            continue; /* a fanin sits in every MFFC that holds s */
        sum[s] += level[s];
        cnt[s] += 1;
        if (low < n) {
            sum[low] -= level[s];
            cnt[low] -= 1;
        }
    }
    for (int32_t s = 0; s < n; s++) {
        int32_t up = ipdom[s];
        if (up < n) {
            sum[up] += sum[s];
            cnt[up] += cnt[s];
        }
    }
    for (int32_t s = 0; s < n; s++) {
        if (kind[s] == NODE_PI || cnt[s] < 1) {
            depth[s] = 0.0; /* a PI's MFFC is itself */
            continue;
        }
        int64_t total = cnt[s] * level[s] - sum[s];
        depth[s] = (double)total / (double)cnt[s];
    }
    free(ipdom);
    free(sum);
    free(cnt);
    return 0;
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

/* Lazily resolve one pin state: what ImplicationEngine._examine_state
 * forces, in one fused pass over the rows (same row order, same
 * single-match and "nothing forced" results, same advanced-mode meet of
 * Definition 4.1), packed into one FX_* entry, stored and returned. */
static int32_t sg_resolve_forced(SgCore *h, SgTable *t, int32_t index) {
    int64_t known_mask, known_values;
    int32_t output = sg_decode_state(t, index, &known_mask, &known_values);
    int32_t entry = FX_RESOLVED;
    if (output < 0 && !known_mask) {
        t->fref[index] = entry; /* nothing known at this node yet */
        return entry;
    }
    int advanced = h->advanced;
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
        entry |= FX_CONFLICT;
    } else if (!dead) {
        entry |= (int32_t)(forced_mask << FX_PINS);
        entry |= (int32_t)((base_vals & forced_mask) << FX_VALUES);
        /* Single match: iff the output was unassigned; multi match: iff
         * every matching row agrees on the output. */
        if (out_agree)
            entry |= FX_OUT | (base_out ? FX_OUT_ONE : 0);
    }
    t->fref[index] = entry;
    return entry;
}

/* Lazily resolve one pin state's decision: the candidate rows of
 * DecisionEngine.candidate_rows as row indices, in one pass (the early
 * break only trims the useful list; the conflict test needs just "any
 * match").  Stores into dref; returns 0, or -1 on allocation failure. */
static int sg_resolve_decision(SgCore *h, SgTable *t, int32_t index) {
    int64_t known_mask, known_values;
    int32_t output = sg_decode_state(t, index, &known_mask, &known_values);
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
    t->dref[index] = off + 1;
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
        if (++h->q_head == h->q_cap)
            h->q_head = 0;
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

static int cmp_i32(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

static int cmp_i64(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Build and cache the fanin cone of one target slot: its members in slot
 * order (the order the verifier evaluates them in) and its PIs. */
static int sg_build_cone(SgCore *h, int32_t root) {
    int32_t n_mem = 0, n_pi = 0, sp = 0;
    int64_t vc = ++h->visit_counter;
    h->dfs_stack[sp++] = root;
    h->visit_epoch[root] = vc;
    while (sp) {
        int32_t u = h->dfs_stack[--sp];
        h->mem_buf[n_mem++] = u;
        if (h->kind[u] == NODE_PI)
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
    qsort(mem, (size_t)n_mem, sizeof(int32_t), cmp_i32);
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
            if (++h->q_tail == h->q_cap)
                h->q_tail = 0;
        }
    }
}

/* Apply one slot's forced entry: 0 ok, 1 conflict, -1 allocation error. */
static int sg_examine(SgCore *h, int32_t slot) {
    SgTable *t = &h->tables[h->table_of[slot]];
    if (!t->fref && sg_table_refs(t))
        return -1;
    int32_t index = h->state[slot] & INDEX_MASK;
    int32_t entry = t->fref[index];
    if (!entry)
        entry = sg_resolve_forced(h, t, index);
    if (entry & FX_CONFLICT)
        return 1;
    int32_t pins = (entry >> FX_PINS) & 0xff;
    int32_t vals = entry >> FX_VALUES;
    const int32_t *fanins = h->fi + h->fi_off[slot];
    int8_t *values = h->values;
    /* Forced pins in pin order, then the output (pin k). */
    for (int32_t i = 0; pins; i++, pins >>= 1, vals >>= 1) {
        if (!(pins & 1))
            continue;
        int32_t target = fanins[i];
        int8_t val = (int8_t)(vals & 1);
        int8_t cur = values[target];
        if (cur >= 0) {
            if (cur != val)
                return 1; /* clash with another implication path */
            continue;
        }
        sg_assign_slot(h, target, val);
        h->prop_assigned++;
        sg_push_examiners(h, target);
    }
    if (entry & FX_OUT) {
        int8_t val = (entry & FX_OUT_ONE) ? 1 : 0;
        int8_t cur = values[slot];
        if (cur >= 0)
            return cur != val;
        sg_assign_slot(h, slot, val);
        h->prop_assigned++;
        sg_push_examiners(h, slot);
    }
    return 0;
}

/* Worklist fixpoint: 0 fixpoint, 1 conflict, -1 allocation error. */
static int sg_propagate(SgCore *h) {
    while (h->q_head != h->q_tail) {
        int32_t slot = h->queue[h->q_head];
        if (++h->q_head == h->q_cap)
            h->q_head = 0;
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

/* Line 15: the latest trail entry in the cone that still has an
 * unassigned fanin and is not exhausted.  Within one target the trail
 * only grows and a rejected entry stays rejected (cone membership is
 * fixed, fanins only get assigned, exhaustion is sticky), so each pick
 * scans the entries appended since the last pick, then goes on down from
 * the last pick's position, skipping everything rejected before. */
static int32_t sg_pick_candidate(SgCore *h) {
    if (h->trail_len > h->scanned) {
        int32_t top = h->n_unseen - 1;
        if (top >= 0 && h->unseen_hi[top] == h->scanned - 1) {
            h->unseen_hi[top] = h->trail_len - 1;
        } else {
            h->unseen_lo[h->n_unseen] = h->scanned;
            h->unseen_hi[h->n_unseen] = h->trail_len - 1;
            h->n_unseen++;
        }
        h->scanned = h->trail_len;
    }
    while (h->n_unseen > 0) {
        int32_t top = h->n_unseen - 1;
        for (int32_t t = h->unseen_hi[top]; t >= h->unseen_lo[top]; t--) {
            int32_t slot = h->trail[t];
            if (h->cone_epoch[slot] != h->epoch)
                continue;
            if ((h->state[slot] >> PIN_SHIFT) &&
                h->exh_epoch[slot] != h->epoch) {
                h->unseen_hi[top] = t;
                return slot;
            }
        }
        h->n_unseen--;
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
    h->n_unseen = 0;
    h->scanned = 0;
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
        if (!t->dref && sg_table_refs(t))
            return SG_ERROR;
        int32_t index = h->state[slot] & INDEX_MASK;
        int32_t dr = t->dref[index];
        if (!dr) {
            if (sg_resolve_decision(h, t, index))
                return SG_ERROR;
            dr = t->dref[index];
        }
        if (dr == REF_CONFLICT) {
            h->counters[C_DEC_CONFLICTS]++;
            return sg_conflict_out(h);
        }
        dr--; /* the pool offset */
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
/* One attempt: select_targets .. verification                         */
/* ------------------------------------------------------------------ */

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

/* Simulate the completed vector on the fanin cone of `root`: members in
 * slot order, so fanins come first; nodes already stamped `stamp` (the
 * PIs, and cones shared with earlier targets) are not evaluated again. */
static int sg_simulate_cone(SgCore *h, int32_t root, int64_t stamp) {
    if (!h->cone_mem[root] && sg_build_cone(h, root))
        return -1;
    const int32_t *members = h->cone_mem[root];
    int32_t n_members = h->cone_mem_n[root];
    int8_t *simv = h->simv;
    for (int32_t j = 0; j < n_members; j++) {
        int32_t s = members[j];
        if (h->sim_stamp[s] == stamp)
            continue;
        h->sim_stamp[s] = stamp;
        int32_t tid = h->table_of[s];
        if (tid < 0) { /* a constant: PIs are stamped at completion */
            simv[s] = h->kind[s] == NODE_TRUE;
            continue;
        }
        const uint64_t *tt = h->tables[tid].tt;
        int32_t lo = h->fi_off[s], k = h->fi_off[s + 1] - lo;
        int32_t m = 0;
        for (int32_t i = 0; i < k; i++)
            m |= simv[h->fi[lo + i]] << i;
        simv[s] = (int8_t)((tt[m >> 6] >> (m & 63)) & 1);
    }
    return 0;
}

/* Run one attempt of the reference generate() loop on a class given as
 * slots in uid order, and write its log record to rec.  When the claimed
 * values pass the skip check, the completed vector (PI bits in
 * network.pis order) goes to `vector` and is verified by simulation.
 * Returns SG_SKIPPED, SG_REJECTED, SG_COMMITTED or SG_ERROR. */
static int32_t sg_attempt(SgCore *h, const int32_t *cls, int32_t n_cls,
                          int64_t *rec, uint8_t *vector) {
    /* A fresh Assignment: unwind everything, NO reverted accounting. */
    sg_unwind_to(h, 0);
    sg_drain(h);
    h->counters[C_ATTEMPTS]++;

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
    rec[1] = n_t;
    rec[2] = implications;
    rec[3] = decisions;
    rec[4] = conflicts;

    /* The skip check on the claimed values (unassigned never claims). */
    int64_t *pairs = rec + REC_HEAD;
    int claimed_gold[2] = {0, 0};
    for (int32_t i = 0; i < n_t; i++) {
        int32_t slot = cls[og[i]];
        int32_t gold = i & 1;
        int claimed = h->values[slot] == gold;
        pairs[2 * i] = slot;
        pairs[2 * i + 1] = gold | (claimed ? F_CLAIMED : 0);
        if (claimed)
            claimed_gold[gold] = 1;
    }
    if (!(claimed_gold[0] && claimed_gold[1])) {
        rec[0] = SG_SKIPPED;
        return SG_SKIPPED;
    }

    /* InputVector.completed: free PIs draw getrandbits(1) in PI order. */
    h->counters[C_SIMULATED]++;
    int64_t stamp = ++h->sim_epoch;
    for (int32_t i = 0; i < h->n_pis; i++) {
        int32_t pi = h->pis[i];
        int8_t v = h->values[pi];
        uint8_t bit = v >= 0 ? (uint8_t)v : (uint8_t)rng_bits(&h->rng, 1);
        vector[i] = bit;
        h->simv[pi] = (int8_t)bit;
        h->sim_stamp[pi] = stamp;
    }

    /* _finalize: survivors are the targets whose simulated value is
     * their gold value; the vector stays when both gold values survive. */
    int survived_gold[2] = {0, 0};
    for (int32_t i = 0; i < n_t; i++) {
        int32_t slot = (int32_t)pairs[2 * i];
        int32_t gold = i & 1;
        if (sg_simulate_cone(h, slot, stamp))
            return SG_ERROR;
        if (h->simv[slot] == gold) {
            pairs[2 * i + 1] |= F_SURVIVED;
            survived_gold[gold] = 1;
        }
    }
    rec[0] = survived_gold[0] && survived_gold[1] ? SG_COMMITTED : SG_REJECTED;
    return (int32_t)rec[0];
}

/* The reference generate() loop over the splittable classes, largest
 * first: class c is node ids cls_uids[cls_off[c] .. cls_off[c + 1] - 1].
 * Runs at most max(vpi * 4, n_classes) attempts from class *rotation on
 * (advancing it), and stops at vpi kept vectors.  rng is
 * Random.getstate()[1] (624 words, then the index), read on entry and
 * written back on success.  Writes the kept vectors' PI bits to vectors
 * (vpi * n_pis bytes), one record per attempt to log (at most log_cap
 * entries; see REC_HEAD), and to counts this call's counters (C_*) and
 * the log's length.  Returns the number of kept vectors, or -1. */
int32_t sg_generate(void *hp, const int32_t *cls_uids, const int32_t *cls_off,
                    int32_t n_classes, int32_t vpi, int64_t *rotation,
                    uint32_t *rng, uint8_t *vectors, int64_t *log,
                    int64_t log_cap, int64_t *counts) {
    SgCore *h = (SgCore *)hp;
    if (!h || n_classes < 1 || cls_off[0] != 0 || *rotation < 0 ||
        rng[MT_N] > MT_N)
        return -1;
    int64_t total = cls_off[n_classes];
    if (total > h->cls_cap) {
        int32_t *p = (int32_t *)realloc(h->cls, (size_t)total * sizeof(int32_t));
        if (!p)
            return -1;
        h->cls = p;
        h->cls_cap = total;
    }
    for (int32_t c = 0; c < n_classes; c++) {
        int32_t lo = cls_off[c], size = cls_off[c + 1] - lo;
        if (size < 1 || size > h->n || cls_off[c + 1] > total)
            return -1;
        int32_t *cls = h->cls + lo;
        memcpy(cls, cls_uids + lo, (size_t)size * sizeof(int32_t));
        qsort(cls, (size_t)size, sizeof(int32_t), cmp_i32);
        for (int32_t i = 0; i < size; i++) {
            if (cls[i] < 0 || cls[i] >= h->n_uids || h->uid_slot[cls[i]] < 0)
                return -1;
            cls[i] = h->uid_slot[cls[i]];
        }
    }
    memcpy(h->rng.mt, rng, sizeof(h->rng.mt));
    h->rng.index = (int32_t)rng[MT_N];
    memset(h->counters, 0, sizeof(h->counters));
    int64_t max_attempts = (int64_t)vpi * 4;
    if (max_attempts < n_classes)
        max_attempts = n_classes;
    int64_t at = 0, rot = *rotation;
    int32_t kept = 0;
    for (int64_t attempt = 0; kept < vpi && attempt < max_attempts;
         attempt++) {
        int32_t c = (int32_t)(rot % n_classes);
        rot++;
        int32_t lo = cls_off[c], size = cls_off[c + 1] - lo;
        int32_t most = size <= h->max_targets ? size : h->sample_k;
        if (at + REC_HEAD + 2 * (int64_t)most > log_cap)
            return -1;
        int32_t status = sg_attempt(h, h->cls + lo, size, log + at,
                                    vectors + (int64_t)kept * h->n_pis);
        if (status < 0)
            return -1;
        at += REC_HEAD + 2 * log[at + 1];
        if (status == SG_COMMITTED)
            kept++;
    }
    *rotation = rot;
    memcpy(rng, h->rng.mt, sizeof(h->rng.mt));
    rng[MT_N] = (uint32_t)h->rng.index;
    memcpy(counts, h->counters, sizeof(h->counters));
    counts[C_LOG_LEN] = at;
    return kept;
}

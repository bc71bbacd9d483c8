/* SimGen lane core: Algorithm 1's per-target inner loop in C.
 *
 * repro/core/batch.py lowers a network straight into this core: dense
 * slots in topological order, each with its fanin slots and examiners
 * (the node, then its fanouts), plus one transition table per distinct
 * gate function.  The assignment is a flat value array and a trail; each
 * gate's pin state is one packed index, (output + 1) * 4**k +
 * (known_mask << k) + known_values, kept up to date incrementally, so an
 * examination is a single table lookup.  The batch generation driver
 * retires whole targets per call instead of paying interpreter cost per
 * examination.  The contract is *bit-identity* with the reference
 * engines (ImplicationEngine, DecisionEngine and SimGenGenerator in
 * repro/core): every counter bump, every queue push, every trail entry
 * happens in exactly their order.  The Python driver owns everything
 * that consumes the RNG, and this core suspends (a "bounce",
 * SG_NEED_RNG) whenever a decision needs a roulette/choice draw.  The
 * caller draws from the Python Random and resumes; the suspended state
 * machine continues exactly where it stopped, with no double counting.
 * Transition-table states are resolved lazily (sg_resolve_forced /
 * sg_resolve_decision, ports of ImplicationEngine._examine_state and
 * DecisionEngine.candidate_rows): resolution is a pure integer function
 * of the packed state and the rows, so it needs no round trip to Python.
 *
 * One core holds ONE assignment state (values/trail/packed gate state).
 * Lane parallelism lives a level up: the batch driver runs attempts
 * sequentially (the RNG serializes them anyway), snapshots each attempt's
 * tiny result (trail values), and verifies up to 64 of them in one
 * 64-wide simulator word.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Statuses returned by sg_start_target / sg_resume_*. */
#define SG_DONE 0            /* target finished (PIs set / no candidate) */
#define SG_CONFLICT 1        /* conflict hit; trail reverted to marker   */
#define SG_ASSIGN_CONFLICT 2 /* target node already holds the other value */
#define SG_ALREADY 3         /* not fresh and cone PIs already set       */
#define SG_NEED_RNG 4        /* mailbox: cand slot, state index, n rows  */
#define SG_ERROR (-1)

/* Transition-table entry markers (fref/dref). */
#define REF_UNRESOLVED (-1)
#define REF_CONFLICT (-2)

/* Resumable phases of the per-target state machine. */
#define PH_IDLE 0
#define PH_CHECK_TOP 1
#define PH_PROPAGATE 2
#define PH_DECIDE 3
#define PH_COMMIT 4

/* Counter indices (sg_counters order; the glue reads deltas). */
#define C_PROP_CALLS 0
#define C_EXAMINATIONS 1
#define C_FORCED 2
#define C_IMPL_CONFLICTS 3
#define C_DECISIONS 4
#define C_DEC_CONFLICTS 5
#define C_ROWS_COMMITTED 6
#define C_REVERTED 7
#define C_COUNT 8

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

    /* Per-target context. */
    const int32_t *cur_cone_pis;
    int32_t n_cone_pis;
    int32_t marker;
    int32_t phase;
    int32_t cand_slot;
    int32_t chosen_row;
    int32_t *seeds;
    int32_t n_seeds, cap_seeds;
    int64_t prop_examined, prop_assigned;
    int64_t rep_implications, rep_decisions;

    int64_t counters[C_COUNT];

    /* Caller-owned mailboxes (bounce info / candidate row indices). */
    int64_t *info;
    int32_t *indices;
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

void *sg_new(int32_t n) {
    if (n < 0)
        return NULL;
    SgCore *h = (SgCore *)calloc(1, sizeof(SgCore));
    if (!h)
        return NULL;
    h->n = n;
    h->is_pi = (int8_t *)calloc((size_t)n + 1, 1);
    h->table_of = (int32_t *)xalloc(((size_t)n) * sizeof(int32_t));
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
    if (!h->is_pi || !h->table_of || !h->full_bits || !h->out_delta ||
        !h->fi_off || !h->exam_off || !h->values || !h->state || !h->trail ||
        !h->queued || !h->queue || !h->exh_epoch || !h->cone_epoch) {
        /* Leak-free enough for a build-time failure: the caller frees. */
        return NULL;
    }
    memset(h->values, 0xff, (size_t)n); /* all -1 */
    for (int32_t i = 0; i < n; i++)
        h->table_of[i] = -1;
    h->phase = PH_IDLE;
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
    free(h->fpool);
    free(h->dpool);
    free(h->scratch);
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
    free(h->seeds);
    free(h);
}

int32_t sg_add_table(void *hp, int32_t k, int32_t n_rows, int32_t advanced,
                     const int64_t *mask, const int64_t *vals,
                     const int8_t *out) {
    SgCore *h = (SgCore *)hp;
    if (!h || k < 0 || k > 15 || n_rows < 0)
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
                    const int32_t *fanins, int32_t k, const int32_t *examiners,
                    int32_t n_exam) {
    SgCore *h = (SgCore *)hp;
    if (!h || slot != h->built_upto || slot >= h->n || h->finalized)
        return -1;
    if (table_id >= h->n_tables || k < 0 || n_exam < 0)
        return -1;
    h->built_upto++;
    h->is_pi[slot] = (int8_t)(is_pi ? 1 : 0);
    h->table_of[slot] = table_id;
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

int32_t sg_finalize(void *hp) {
    SgCore *h = (SgCore *)hp;
    if (!h || h->built_upto != h->n || h->finalized)
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
    if (!h->seeds || !h->pin_off || !h->cone_mem || !h->cone_mem_n ||
        !h->cone_pi || !h->cone_pi_n || !h->visit_epoch || !h->dfs_stack ||
        !h->mem_buf || !h->pi_buf)
        return -1;
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
    if (!h->pin_g || !h->pin_d0 || !h->pin_d1 || !cursor)
        return -1;
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

void sg_set_mailbox(void *hp, int64_t *info, int32_t *indices) {
    SgCore *h = (SgCore *)hp;
    h->info = info;
    h->indices = indices;
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

void sg_reset(void *hp) {
    SgCore *h = (SgCore *)hp;
    /* A fresh Assignment per attempt: unwind everything, NO reverted
     * accounting. */
    sg_unwind_to(h, 0);
    h->phase = PH_IDLE;
    while (h->q_head != h->q_tail) {
        h->queued[h->queue[h->q_head]] = 0;
        h->q_head = (h->q_head + 1) % h->q_cap;
    }
}

/* Write the requested slots' current values into out (-1 unassigned). */
void sg_read_values(void *hp, const int32_t *slots, int32_t n, int8_t *out) {
    SgCore *h = (SgCore *)hp;
    for (int32_t i = 0; i < n; i++)
        out[i] = h->values[slots[i]];
}

/* Write only the assigned-PI trail entries (slot, value) in trail order;
 * returns the count.  The attempt driver needs exactly the cone-PI
 * bindings — filtering here avoids decoding the full trail in Python. */
int32_t sg_read_trail_pis(void *hp, int32_t *slots, int8_t *vals) {
    SgCore *h = (SgCore *)hp;
    int32_t n = 0;
    for (int32_t t = 0; t < h->trail_len; t++) {
        int32_t slot = h->trail[t];
        if (h->is_pi[slot]) {
            slots[n] = slot;
            vals[n++] = h->values[slot];
        }
    }
    return n;
}

void sg_counters(void *hp, int64_t *out) {
    SgCore *h = (SgCore *)hp;
    memcpy(out, h->counters, sizeof(h->counters));
}

/* ------------------------------------------------------------------ */
/* The per-target state machine                                        */
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

static void sg_push(SgCore *h, int32_t slot) {
    h->queue[h->q_tail] = slot;
    h->q_tail = (h->q_tail + 1) % h->q_cap;
}

static void sg_drain(SgCore *h) {
    while (h->q_head != h->q_tail) {
        h->queued[h->queue[h->q_head]] = 0;
        h->q_head = (h->q_head + 1) % h->q_cap;
    }
}

static void sg_push_examiners(SgCore *h, int32_t slot) {
    int32_t lo = h->exam_off[slot], hi = h->exam_off[slot + 1];
    for (int32_t e = lo; e < hi; e++) {
        int32_t cand = h->exam[e];
        if (!h->queued[cand]) {
            h->queued[cand] = 1;
            sg_push(h, cand);
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

static int32_t sg_finish(SgCore *h, int32_t status) {
    h->info[3] = h->rep_implications;
    h->info[4] = h->rep_decisions;
    h->phase = PH_IDLE;
    return status;
}

static int32_t sg_conflict_out(SgCore *h) {
    h->counters[C_REVERTED] += h->trail_len - h->marker;
    sg_unwind_to(h, h->marker);
    return sg_finish(h, SG_CONFLICT);
}

static int32_t sg_run(SgCore *h) {
    for (;;) {
        switch (h->phase) {
        case PH_CHECK_TOP: {
            if (sg_pis_set(h))
                return sg_finish(h, SG_DONE);
            for (int32_t s = 0; s < h->n_seeds; s++)
                sg_push_examiners(h, h->seeds[s]);
            h->n_seeds = 0;
            h->prop_examined = 0;
            h->prop_assigned = 0;
            h->phase = PH_PROPAGATE;
        } /* fall through */
        case PH_PROPAGATE: {
            int r = sg_propagate(h);
            if (r < 0)
                return SG_ERROR;
            /* Close the propagate stats window (ImplicationEngine.propagate's
             * `finally`). */
            h->counters[C_PROP_CALLS]++;
            h->counters[C_EXAMINATIONS] += h->prop_examined;
            h->counters[C_FORCED] += h->prop_assigned;
            h->rep_implications += h->prop_assigned;
            if (r == 1) {
                h->counters[C_IMPL_CONFLICTS]++;
                sg_drain(h);
                return sg_conflict_out(h);
            }
            if (sg_pis_set(h))
                return sg_finish(h, SG_DONE);
            int32_t cand = sg_pick_candidate(h);
            if (cand < 0)
                return sg_finish(h, SG_DONE);
            h->cand_slot = cand;
            h->counters[C_DECISIONS]++;
            h->phase = PH_DECIDE;
        } /* fall through */
        case PH_DECIDE: {
            int32_t tid = h->table_of[h->cand_slot];
            SgTable *t = &h->tables[tid];
            int64_t index = h->state[h->cand_slot];
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
                h->exh_epoch[h->cand_slot] = h->epoch;
                h->n_seeds = 0;
                h->phase = PH_CHECK_TOP;
                continue;
            }
            h->counters[C_ROWS_COMMITTED]++;
            memcpy(h->indices, h->dpool + dr + 1,
                   (size_t)count * sizeof(int32_t));
            h->info[0] = h->cand_slot;
            h->info[1] = index;
            h->info[2] = count;
            return SG_NEED_RNG; /* resume lands in PH_COMMIT */
        }
        case PH_COMMIT: {
            int32_t slot = h->cand_slot;
            SgTable *t = &h->tables[h->table_of[slot]];
            int32_t row = h->chosen_row;
            if (row < 0 || row >= t->n_rows)
                return SG_ERROR;
            int64_t mask = t->row_mask[row];
            int64_t vals = t->row_vals[row];
            int32_t out = t->row_out[row];
            int32_t k = t->k;
            const int32_t *fanins = h->fi + h->fi_off[slot];
            h->n_seeds = 0;
            int committed = 0;
            for (int32_t i = 0; i < k; i++) {
                if (!((mask >> i) & 1))
                    continue;
                int32_t lit = (int32_t)((vals >> i) & 1);
                int32_t f = fanins[i];
                int8_t cur = h->values[f];
                if (cur >= 0) {
                    if (cur != lit) {
                        /* Duplicated fanins bound to opposite values by
                         * the chosen row: decide() -> (True, committed);
                         * the driver reverts, with NO dec-conflict count. */
                        return sg_conflict_out(h);
                    }
                    continue;
                }
                sg_assign_slot(h, f, lit);
                h->seeds[h->n_seeds++] = f;
                committed = 1;
            }
            if (h->values[slot] < 0) {
                sg_assign_slot(h, slot, out);
                h->seeds[h->n_seeds++] = slot;
                committed = 1;
            }
            if (!committed) {
                h->exh_epoch[slot] = h->epoch;
                h->n_seeds = 0;
            } else {
                h->rep_decisions++;
            }
            h->phase = PH_CHECK_TOP;
            continue;
        }
        default:
            return SG_ERROR;
        }
    }
}

int32_t sg_start_target(void *hp, int32_t target, int32_t gold) {
    SgCore *h = (SgCore *)hp;
    if (!h || !h->finalized || !h->info || target < 0 || target >= h->n)
        return SG_ERROR;
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
    int fresh;
    if (cur >= 0) {
        if (cur != (int8_t)gold)
            return sg_finish(h, SG_ASSIGN_CONFLICT);
        fresh = 0;
    } else {
        sg_assign_slot(h, target, gold);
        fresh = 1;
    }
    if (!fresh && sg_pis_set(h))
        return sg_finish(h, SG_ALREADY);
    h->seeds[0] = target;
    h->n_seeds = 1;
    h->phase = PH_CHECK_TOP;
    return sg_run(h);
}

int32_t sg_resume_rng(void *hp, int32_t chosen_row) {
    SgCore *h = (SgCore *)hp;
    if (!h || h->phase != PH_DECIDE)
        return SG_ERROR;
    h->chosen_row = chosen_row;
    h->phase = PH_COMMIT;
    return sg_run(h);
}

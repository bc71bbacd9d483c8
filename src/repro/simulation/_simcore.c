/* Bit-parallel simulation core: a network lowered once, run over 64-bit
 * pattern words.
 *
 * sim_new takes a network's lowering (repro/network/lowering.py) as flat
 * int32 arrays and copies what it reads.  Nodes are numbered 0..n-1 in the
 * network's topological order (the slots).  Per slot: its kind, its
 * function id (-1 for PIs and constants) and its fanin slots, as the CSR
 * fanin_off/fanins.  A function's plan, at plans[plan_off[function]], is
 *
 *     complement flag, cube count, then per cube: mask, values
 *
 * exactly repro.simulation.simulator._eval_plan(table): the OR of the
 * cubes is the function (complement 0) or its inverse (complement 1).
 * There is one plan per distinct function.
 *
 * A value buffer holds `words` uint64 words per slot, node-major.  The
 * caller writes the PI words; sim_run evaluates every gate, in slot
 * order, from its plan's cubes.  Bits above the batch width stay zero,
 * as in the reference simulator: on the last word, PI words, negated
 * literals, the complement flip and the TRUE constant are masked with
 * last_mask.
 *
 * Cone restriction is an index list over the same lowering: sim_restrict
 * marks the fanin cones of a target set in one backward pass and returns
 * the marked slots in topological order, and sim_run evaluates only those
 * slots.  So a caller restricts as often as it likes without lowering the
 * network again.
 *
 * A lowering is read-only after sim_new; buffers belong to the caller, so
 * any number of value buffers may run over one lowering at once.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NODE_PI 0
#define NODE_FALSE 1
#define NODE_TRUE 2
#define NODE_GATE 3

typedef struct {
    int32_t n;
    int32_t *kinds;
    int32_t *fanin_off;
    int32_t *fanins;
    int32_t *plan_of; /* per slot: its plan's offset, -1 for non-gates */
    int32_t *plans;
} Sim;

void sim_free(Sim *s) {
    if (!s) return;
    free(s->kinds);
    free(s->fanin_off);
    free(s->fanins);
    free(s->plan_of);
    free(s->plans);
    free(s);
}

static int32_t *copy_i32(const int32_t *src, int32_t len) {
    int32_t *dst = (int32_t *)malloc((size_t)(len > 0 ? len : 1) * sizeof(int32_t));
    if (dst && len > 0) memcpy(dst, src, (size_t)len * sizeof(int32_t));
    return dst;
}

/* Every fanin and plan the run loop will read lies inside its array,
 * every fanin precedes its reader, only gates have fanins, and every
 * cube binds only fanins the gate has.  Fills plan_of. */
static int lowering_ok(Sim *s, const int32_t *funcs, const int32_t *plan_off,
                       int32_t n_funcs, int32_t n_plans) {
    if (s->fanin_off[0] != 0) return 0;
    for (int32_t d = 0; d < s->n; d++) {
        int32_t kind = s->kinds[d];
        int32_t lo = s->fanin_off[d], k = s->fanin_off[d + 1] - lo;
        if (kind < NODE_PI || kind > NODE_GATE || k < 0) return 0;
        s->plan_of[d] = -1;
        if (kind != NODE_GATE) {
            if (k) return 0;
            continue;
        }
        if (k < 1 || k > 31) return 0;
        for (int32_t i = 0; i < k; i++)
            if (s->fanins[lo + i] < 0 || s->fanins[lo + i] >= d) return 0;
        int32_t f = funcs[d];
        if (f < 0 || f >= n_funcs) return 0;
        int32_t p = plan_off[f];
        if (p < 0 || p > n_plans - 2) return 0;
        int32_t cubes = s->plans[p + 1];
        if (cubes < 0 || cubes > (n_plans - p - 2) / 2) return 0;
        const int32_t *c = s->plans + p + 2;
        for (int32_t j = 0; j < cubes; j++) {
            uint32_t mask = (uint32_t)c[2 * j];
            if (mask >> k) return 0;
        }
        s->plan_of[d] = p;
    }
    return 1;
}

/* Copy a lowering; NULL on allocation failure or a malformed lowering. */
Sim *sim_new(int32_t n, const int32_t *kinds, const int32_t *funcs,
             const int32_t *fanin_off, const int32_t *fanins,
             const int32_t *plan_off, int32_t n_funcs, const int32_t *plans,
             int32_t n_plans) {
    if (n < 0 || n_funcs < 0 || n_plans < 0) return NULL;
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    if (!s) return NULL;
    s->n = n;
    s->kinds = copy_i32(kinds, n);
    s->fanin_off = copy_i32(fanin_off, n + 1);
    s->fanins = s->fanin_off ? copy_i32(fanins, fanin_off[n]) : NULL;
    s->plan_of = (int32_t *)malloc((size_t)(n > 0 ? n : 1) * sizeof(int32_t));
    s->plans = copy_i32(plans, n_plans);
    if (!s->kinds || !s->fanin_off || !s->fanins || !s->plan_of || !s->plans
        || !lowering_ok(s, funcs, plan_off, n_funcs, n_plans)) {
        sim_free(s);
        return NULL;
    }
    return s;
}

/* The union of the targets' fanin cones.  Writes its slots in topological
 * order to `active` (room for n), its PI slots to `pis` (room for the
 * lowering's PIs), and (slots, PIs, gates) to counts[0..2].  Returns the
 * slot count, -1 for a target outside 0..n-1, -2 on allocation failure. */
int32_t sim_restrict(const Sim *s, const int32_t *targets, int32_t n_targets,
                     int32_t *active, int32_t *pis, int32_t *counts) {
    int32_t n = s->n;
    for (int32_t t = 0; t < n_targets; t++)
        if (targets[t] < 0 || targets[t] >= n) return -1;
    uint8_t *mark = (uint8_t *)calloc((size_t)(n > 0 ? n : 1), 1);
    if (!mark) return -2;
    for (int32_t t = 0; t < n_targets; t++) mark[targets[t]] = 1;
    for (int32_t d = n - 1; d >= 0; d--) {
        if (!mark[d]) continue;
        for (int32_t p = s->fanin_off[d]; p < s->fanin_off[d + 1]; p++)
            mark[s->fanins[p]] = 1;
    }
    int32_t n_active = 0, n_pis = 0, n_gates = 0;
    for (int32_t d = 0; d < n; d++) {
        if (!mark[d]) continue;
        active[n_active++] = d;
        int32_t kind = s->kinds[d];
        if (kind == NODE_PI) pis[n_pis++] = d;
        else if (kind == NODE_GATE) n_gates++;
    }
    free(mark);
    counts[0] = n_active;
    counts[1] = n_pis;
    counts[2] = n_gates;
    return n_active;
}

static void eval_slot(const Sim *s, uint64_t *values, int32_t words,
                      uint64_t last_mask, int32_t d) {
    uint64_t *out = values + (int64_t)d * words;
    int32_t last = words - 1;
    switch (s->kinds[d]) {
    case NODE_PI:
        out[last] &= last_mask;
        return;
    case NODE_FALSE:
        memset(out, 0, (size_t)words * sizeof(uint64_t));
        return;
    case NODE_TRUE:
        for (int32_t w = 0; w < last; w++) out[w] = ~(uint64_t)0;
        out[last] = last_mask;
        return;
    default:
        break;
    }
    const int32_t *fanins = s->fanins + s->fanin_off[d];
    const int32_t *plan = s->plans + s->plan_of[d];
    int32_t complement = plan[0], cubes = plan[1];
    const int32_t *cube = plan + 2;
    for (int32_t w = 0; w < words; w++) {
        uint64_t word_mask = w == last ? last_mask : ~(uint64_t)0;
        uint64_t result = 0;
        for (int32_t j = 0; j < cubes; j++) {
            uint32_t mask = (uint32_t)cube[2 * j];
            uint32_t want = (uint32_t)cube[2 * j + 1];
            uint64_t term = word_mask;
            for (int32_t i = 0; mask; i++, mask >>= 1, want >>= 1) {
                if (!(mask & 1)) continue;
                uint64_t x = values[(int64_t)fanins[i] * words + w];
                term &= (want & 1) ? x : ~x;
            }
            result |= term;
        }
        out[w] = complement ? result ^ word_mask : result;
    }
}

/* Evaluate the lowering over `values` (words per slot, PI words filled
 * in): every slot when `active` is NULL, else the n_active slots of a
 * sim_restrict list, whose words are then also copied, in list order, to
 * `out`.  Returns 0, or -1 for words < 1. */
int sim_run(const Sim *s, uint64_t *values, int32_t words, uint64_t last_mask,
            const int32_t *active, int32_t n_active, uint64_t *out) {
    if (words < 1) return -1;
    if (!active) {
        for (int32_t d = 0; d < s->n; d++)
            eval_slot(s, values, words, last_mask, d);
        return 0;
    }
    for (int32_t j = 0; j < n_active; j++)
        eval_slot(s, values, words, last_mask, active[j]);
    for (int32_t j = 0; j < n_active; j++)
        memcpy(out + (int64_t)j * words, values + (int64_t)active[j] * words,
               (size_t)words * sizeof(uint64_t));
    return 0;
}

/* Bit-parallel simulation core: a network lowered once, run over 64-bit
 * pattern words.
 *
 * repro/simulation/compiled.py lowers a network into flat int32 arrays
 * that sim_new copies.  Nodes are numbered 0..n-1 in the network's
 * topological order (the slots); node d's record, at records[offsets[d]],
 * is
 *
 *     kind, plan offset, fanin count, fanins (slots)...
 *
 * and a gate function's plan, at plans[offset], is
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
    int32_t *offsets;
    int32_t *records;
    int32_t *plans;
} Sim;

void sim_free(Sim *s) {
    if (!s) return;
    free(s->offsets);
    free(s->records);
    free(s->plans);
    free(s);
}

static int32_t *copy_i32(const int32_t *src, int32_t len) {
    int32_t *dst = (int32_t *)malloc((size_t)(len > 0 ? len : 1) * sizeof(int32_t));
    if (dst && len > 0) memcpy(dst, src, (size_t)len * sizeof(int32_t));
    return dst;
}

/* Every record and plan the run loop will read lies inside its array,
 * every fanin precedes its reader, and every cube binds only fanins the
 * gate has. */
static int lowering_ok(const Sim *s, int32_t n_records, int32_t n_plans) {
    for (int32_t d = 0; d < s->n; d++) {
        int32_t at = s->offsets[d];
        if (at < 0 || at > n_records - 3) return 0;
        const int32_t *r = s->records + at;
        int32_t kind = r[0], k = r[2];
        if (kind < NODE_PI || kind > NODE_GATE) return 0;
        if (kind != NODE_GATE) continue;
        if (k < 1 || k > 31 || k > n_records - at - 3) return 0;
        for (int32_t i = 0; i < k; i++)
            if (r[3 + i] < 0 || r[3 + i] >= d) return 0;
        int32_t p = r[1];
        if (p < 0 || p > n_plans - 2) return 0;
        int32_t cubes = s->plans[p + 1];
        if (cubes < 0 || cubes > (n_plans - p - 2) / 2) return 0;
        const int32_t *c = s->plans + p + 2;
        for (int32_t j = 0; j < cubes; j++) {
            uint32_t mask = (uint32_t)c[2 * j];
            if (mask >> k) return 0;
        }
    }
    return 1;
}

/* Copy a lowering; NULL on allocation failure or a malformed lowering. */
Sim *sim_new(int32_t n, const int32_t *offsets, const int32_t *records,
             int32_t n_records, const int32_t *plans, int32_t n_plans) {
    if (n < 0 || n_records < 0 || n_plans < 0) return NULL;
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    if (!s) return NULL;
    s->n = n;
    s->offsets = copy_i32(offsets, n);
    s->records = copy_i32(records, n_records);
    s->plans = copy_i32(plans, n_plans);
    if (!s->offsets || !s->records || !s->plans
        || !lowering_ok(s, n_records, n_plans)) {
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
        const int32_t *r = s->records + s->offsets[d];
        if (r[0] != NODE_GATE) continue;
        for (int32_t i = 0; i < r[2]; i++) mark[r[3 + i]] = 1;
    }
    int32_t n_active = 0, n_pis = 0, n_gates = 0;
    for (int32_t d = 0; d < n; d++) {
        if (!mark[d]) continue;
        active[n_active++] = d;
        int32_t kind = s->records[s->offsets[d]];
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
    const int32_t *r = s->records + s->offsets[d];
    uint64_t *out = values + (int64_t)d * words;
    int32_t last = words - 1;
    switch (r[0]) {
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
    const int32_t *fanins = r + 3;
    const int32_t *plan = s->plans + r[1];
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

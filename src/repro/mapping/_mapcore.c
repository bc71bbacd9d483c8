/* LUT mapping core: the priority cuts of every gate, its best cut and
 * that cut's function, in one call.
 *
 * repro/mapping/compiled.py hands over the network's lowering
 * (repro/network/lowering.py) over slots 0..n-1 in topological order.
 * Slot s carries its node id uids[s], its level, its kind, its fanins as
 * slots in fanin order (fanins[fanin_off[s]] .. fanins[fanin_off[s + 1] -
 * 1], repeats included), its readers as the fanout CSR (a row's length is
 * the slot's distinct-reader count, num_fanouts) and, for a gate, its
 * function id.  A function's truth table is one 64-bit word,
 * func_words[function].  A slot that is not a gate (a PI or a constant)
 * has no fanins and is a source.  The roots are the POs' slots, where
 * covering starts.
 *
 * map_best_cuts reproduces repro.mapping.cuts.enumerate_cuts and the
 * best-cut loop of repro.mapping.lutmap.map_to_luts exactly:
 *
 *   - A gate's candidates are the unions of one cut per distinct fanin
 *     with at most k leaves, each union once.  The minimal candidates (no
 *     other candidate a strict subset) are ranked by (level of the
 *     deepest leaf, size, leaves compared by uid); the first cut_limit
 *     are kept, then the trivial cut {gate}.  The set of candidates does
 *     not depend on the order unions are formed in, and the ranking is a
 *     total order, so the kept cuts are Python's in Python's order.
 *   - The best cut is the first strict minimum over the kept cuts of
 *     (1 + the deepest mapped depth of a leaf, 1.0 + the sum of the
 *     leaves' area flows in uid order, size).  The sum repeats CPython's
 *     sum() of floats: plain left-to-right addition, or, with
 *     `compensated`, the Neumaier loop sum() runs from CPython 3.12 on.
 *     A gate's area flow is its best 1.0 + sum over max(1, num_fanouts).
 *   - The LUT of a gate is cut_function(...).shrink_to_support() of its
 *     best cut: the gate composed down to the leaves (variable i is the
 *     i-th leaf by uid), then the variables it does not depend on
 *     dropped.  It is computed for exactly the gates map_to_luts's
 *     covering walk asks for: the roots' gates and, from each such LUT,
 *     the gates among its inputs.
 *
 * A leaf is held as its uid rank (the slot's position in uid order), so
 * leaves sorted ascending are sorted by uid and compare as Python's
 * tuples do.  Every gate gets its cuts and its best cut, dangling gates
 * too, so a gate without a cut is reported wherever it is, as in Python.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Widest cut: a 6-input table fills one 64-bit word. */
#define MAX_K 6

/* Node kinds (NODE_* in repro/network/lowering.py). */
#define NODE_PI 0
#define NODE_GATE 3

#define MAP_OK 0
#define MAP_MALFORMED -1
#define MAP_NO_CUT -2
#define MAP_NO_MEMORY -3

/* Projection functions of six variables over 64 minterms. */
static const uint64_t VAR_WORDS[MAX_K] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};

static uint64_t full_word(int num_vars) {
    return num_vars == MAX_K ? ~0ULL : (1ULL << (1 << num_vars)) - 1;
}

typedef struct {
    int32_t depth;          /* level of the deepest leaf */
    int32_t size;
    uint64_t sig;           /* OR of 1 << (rank % 64): a subset filter */
    int32_t leaf[MAX_K];    /* uid ranks, ascending */
} Cut;

typedef struct {
    Cut *cuts;
    size_t len, cap;
} CutVec;

static int push(CutVec *v, const Cut *c) {
    if (v->len == v->cap) {
        size_t cap = v->cap ? 2 * v->cap : 256;
        Cut *grown = (Cut *)realloc(v->cuts, cap * sizeof(Cut));
        if (!grown) return 0;
        v->cuts = grown;
        v->cap = cap;
    }
    v->cuts[v->len++] = *c;
    return 1;
}

static int popcount(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

/* a | b into *out when it has at most k leaves; 0 when it has more. */
static int cut_union(const Cut *a, const Cut *b, int k, Cut *out) {
    /* Leaves that differ in their signature bit are distinct leaves. */
    if (popcount(a->sig | b->sig) > k) return 0;
    int i = 0, j = 0, n = 0;
    while (i < a->size || j < b->size) {
        int32_t x;
        if (j == b->size || (i < a->size && a->leaf[i] < b->leaf[j])) {
            x = a->leaf[i++];
        } else if (i == a->size || b->leaf[j] < a->leaf[i]) {
            x = b->leaf[j++];
        } else {
            x = a->leaf[i++];
            j++;
        }
        if (n == k) return 0;
        out->leaf[n++] = x;
    }
    out->size = n;
    out->depth = a->depth > b->depth ? a->depth : b->depth;
    out->sig = a->sig | b->sig;
    return 1;
}

static int by_size(const void *x, const void *y) {
    const Cut *a = (const Cut *)x, *b = (const Cut *)y;
    if (a->size != b->size) return a->size < b->size ? -1 : 1;
    for (int i = 0; i < a->size; i++)
        if (a->leaf[i] != b->leaf[i]) return a->leaf[i] < b->leaf[i] ? -1 : 1;
    return 0;
}

/* The priority order: (depth, size, leaves). */
static int by_priority(const void *x, const void *y) {
    const Cut *a = (const Cut *)x, *b = (const Cut *)y;
    if (a->depth != b->depth) return a->depth < b->depth ? -1 : 1;
    return by_size(x, y);
}

/* Every leaf of a is a leaf of b. */
static int is_subset(const Cut *a, const Cut *b) {
    if (a->sig & ~b->sig) return 0;
    int j = 0;
    for (int i = 0; i < a->size; i++) {
        while (j < b->size && b->leaf[j] < a->leaf[i]) j++;
        if (j == b->size || b->leaf[j] != a->leaf[i]) return 0;
        j++;
    }
    return 1;
}

/* Sort by (size, leaves) and drop repeats. */
static void sort_unique(CutVec *v) {
    if (v->len < 2) return;
    qsort(v->cuts, v->len, sizeof(Cut), by_size);
    size_t kept = 1;
    for (size_t i = 1; i < v->len; i++)
        if (by_size(&v->cuts[kept - 1], &v->cuts[i]) != 0)
            v->cuts[kept++] = v->cuts[i];
    v->len = kept;
}

static double magnitude(double x) { return x < 0 ? -x : x; }

/* CPython's sum() of n >= 1 floats: the int 0 plus the first term, then
 * each next term added left to right, with Neumaier's compensation when
 * asked.  Exported so the tests can hold it to the interpreter's sum(). */
double map_flow_sum(const double *terms, int32_t n, int32_t compensated) {
    double total = 0.0 + terms[0];
    double carry = 0.0;
    for (int32_t i = 1; i < n; i++) {
        double x = terms[i];
        if (!compensated) {
            total += x;
            continue;
        }
        double t = total + x;
        if (magnitude(total) >= magnitude(x))
            carry += (total - t) + x;
        else
            carry += (x - t) + total;
        total = t;
    }
    /* A zero or non-finite carry is not added, as in CPython. */
    if (compensated && carry != 0.0 && carry - carry == 0.0) total += carry;
    return total;
}

/* `table` (a function of `arity` inputs) with input i replaced by in[i]. */
static uint64_t compose(uint64_t table, int arity, const uint64_t *in,
                        uint64_t full) {
    uint64_t result = 0;
    for (int m = 0; m < (1 << arity); m++) {
        if (!((table >> m) & 1)) continue;
        uint64_t term = full;
        for (int i = 0; i < arity; i++)
            term &= ((m >> i) & 1) ? in[i] : ~in[i];
        result |= term;
    }
    return result & full;
}

typedef struct {
    int32_t uid;
    int32_t slot;
} UidSlot;

static int by_uid(const void *x, const void *y) {
    const UidSlot *a = (const UidSlot *)x, *b = (const UidSlot *)y;
    return a->uid < b->uid ? -1 : a->uid > b->uid;
}

/* The buffers describe a network the mapper can read: every slot has a
 * known kind, exactly the gates have fanins and a function, every fanin
 * comes earlier in the order, no gate is wider than MAX_K, every table
 * fits its gate's arity, the fanout CSR is ascending, every root is a
 * slot, and k and cut_limit are in range. */
static int lowering_ok(int32_t n, const int32_t *kinds, const int32_t *funcs,
                       const int32_t *fanin_off, const int32_t *fanins,
                       const int32_t *fanout_off, int32_t n_funcs,
                       const uint64_t *func_words, int32_t n_roots,
                       const int32_t *roots, int32_t k, int32_t cut_limit) {
    if (n < 0 || n_funcs < 0 || n_roots < 0 || k < 1 || k > MAX_K ||
        cut_limit < 1)
        return 0;
    if (fanin_off[0] != 0 || fanout_off[0] != 0) return 0;
    for (int32_t s = 0; s < n; s++) {
        int32_t arity = fanin_off[s + 1] - fanin_off[s];
        if (kinds[s] < NODE_PI || kinds[s] > NODE_GATE || arity < 0 ||
            arity > MAX_K || fanout_off[s + 1] < fanout_off[s])
            return 0;
        if ((kinds[s] == NODE_GATE) != (arity > 0)) return 0;
        for (int32_t i = fanin_off[s]; i < fanin_off[s + 1]; i++)
            if (fanins[i] < 0 || fanins[i] >= s) return 0;
        if (!arity) continue;
        if (funcs[s] < 0 || funcs[s] >= n_funcs) return 0;
        if (arity < MAX_K && (func_words[funcs[s]] >> (1 << arity)) != 0)
            return 0;
    }
    for (int32_t r = 0; r < n_roots; r++)
        if (roots[r] < 0 || roots[r] >= n) return 0;
    return 1;
}

/* The function of gate s over its cut's `size` leaves (slots, by uid):
 * the cone composed from the leaves up, iteratively (a cone can be a long
 * chain), then shrunk to its support.  Writes the LUT's width, inputs and
 * table to the outputs.  `mark`, `value` and `stack` are scratch: marks
 * below *stamp are stale, and the stack holds one entry per fanin. */
static void lut_function(int32_t s, const int32_t *leaf, int size,
                         const int32_t *fanin_off, const int32_t *fanins,
                         const int32_t *funcs, const uint64_t *func_words,
                         int32_t *mark, int32_t *stamp, uint64_t *value,
                         int32_t *stack, int32_t *out_size,
                         int32_t *out_leaves, uint64_t *out_words) {
    uint64_t full = full_word(size);
    int32_t now = ++*stamp;
    for (int i = 0; i < size; i++) {
        value[leaf[i]] = VAR_WORDS[i] & full;
        mark[leaf[i]] = now;
    }
    int32_t top = 0;
    stack[top++] = s;
    while (top > 0) {
        int32_t x = stack[top - 1];
        if (mark[x] == now) {
            top--;
            continue;
        }
        int pending = 0;
        for (int32_t i = fanin_off[x]; i < fanin_off[x + 1]; i++) {
            if (mark[fanins[i]] != now) {
                stack[top++] = fanins[i];
                pending = 1;
            }
        }
        if (pending) continue;
        uint64_t in[MAX_K];
        int arity = fanin_off[x + 1] - fanin_off[x];
        for (int i = 0; i < arity; i++) in[i] = value[fanins[fanin_off[x] + i]];
        value[x] = compose(func_words[funcs[x]], arity, in, full);
        mark[x] = now;
        top--;
    }
    uint64_t bits = value[s];
    int support[MAX_K];
    int width = 0;
    for (int i = 0; i < size; i++)
        if ((bits ^ (bits >> (1 << i))) & full & ~VAR_WORDS[i])
            support[width++] = i;
    uint64_t shrunk = bits;
    if (width == 0) {
        shrunk = bits & 1;
    } else if (width < size) {
        shrunk = 0;
        for (int m = 0; m < (1 << width); m++) {
            int src = 0;
            for (int j = 0; j < width; j++)
                if ((m >> j) & 1) src |= 1 << support[j];
            if ((bits >> src) & 1) shrunk |= 1ULL << m;
        }
    }
    out_size[s] = width;
    for (int j = 0; j < width; j++)
        out_leaves[(size_t)s * MAX_K + j] = leaf[support[j]];
    out_words[s] = shrunk;
}

/* Map the network: every gate's priority cuts and best cut, then the LUT
 * of each gate the cover from the roots (the POs' slots) reaches.  Per
 * slot s, out_size[s] is -1 for a source or a gate the cover does not
 * reach; otherwise it is the LUT's width, its inputs (slots, by uid) are
 * out_leaves[s * MAX_K ...] and its table is out_words[s].
 *
 * Returns MAP_OK; MAP_MALFORMED when the buffers are refused (nothing is
 * written); MAP_NO_CUT, with *out_slot the first gate in the order that
 * has no cut besides its trivial one; or MAP_NO_MEMORY. */
int map_best_cuts(int32_t n, const int32_t *uids, const int32_t *levels,
                  const int32_t *kinds, const int32_t *funcs,
                  const int32_t *fanin_off, const int32_t *fanins,
                  const int32_t *fanout_off, int32_t n_funcs,
                  const uint64_t *func_words, int32_t n_roots,
                  const int32_t *roots, int32_t k, int32_t cut_limit,
                  int32_t compensated, int32_t *out_size,
                  int32_t *out_leaves, uint64_t *out_words, int32_t *out_slot) {
    if (!lowering_ok(n, kinds, funcs, fanin_off, fanins, fanout_off, n_funcs,
                     func_words, n_roots, roots, k, cut_limit))
        return MAP_MALFORMED;
    size_t slots = (size_t)(n > 0 ? n : 1);
    UidSlot *order = (UidSlot *)malloc(slots * sizeof(UidSlot));
    int32_t *rank = (int32_t *)malloc(slots * sizeof(int32_t));
    int32_t *slot_of_rank = (int32_t *)malloc(slots * sizeof(int32_t));
    size_t *first = (size_t *)malloc(slots * sizeof(size_t));
    int32_t *count = (int32_t *)malloc(slots * sizeof(int32_t));
    int32_t *depth = (int32_t *)malloc(slots * sizeof(int32_t));
    double *flow = (double *)malloc(slots * sizeof(double));
    int32_t *best_leaf = (int32_t *)malloc(slots * MAX_K * sizeof(int32_t));
    int32_t *best_size = (int32_t *)malloc(slots * sizeof(int32_t));
    char *reached = (char *)calloc(slots, 1);
    int32_t *mark = (int32_t *)calloc(slots, sizeof(int32_t));
    uint64_t *value = (uint64_t *)malloc(slots * sizeof(uint64_t));
    int32_t *stack =
        (int32_t *)malloc(((size_t)fanin_off[n] + 1) * sizeof(int32_t));
    CutVec all = {0}, cur = {0}, next = {0};
    int rc = MAP_NO_MEMORY;
    if (!order || !rank || !slot_of_rank || !first || !count || !depth ||
        !flow || !best_leaf || !best_size || !reached || !mark || !value ||
        !stack)
        goto done;

    for (int32_t s = 0; s < n; s++) {
        order[s].uid = uids[s];
        order[s].slot = s;
    }
    qsort(order, (size_t)n, sizeof(UidSlot), by_uid);
    for (int32_t r = 0; r < n; r++) {
        if (r > 0 && order[r].uid == order[r - 1].uid) {
            rc = MAP_MALFORMED;
            goto done;
        }
        rank[order[r].slot] = r;
        slot_of_rank[r] = order[r].slot;
    }

    for (int32_t s = 0; s < n; s++) {
        int32_t lo = fanin_off[s], hi = fanin_off[s + 1];
        Cut unit;
        memset(&unit, 0, sizeof unit);
        unit.depth = levels[s];
        unit.size = 1;
        unit.sig = 1ULL << (rank[s] & 63);
        unit.leaf[0] = rank[s];
        out_size[s] = -1;
        if (lo == hi) {
            first[s] = all.len;
            count[s] = 1;
            if (!push(&all, &unit)) goto done;
            depth[s] = 0;
            flow[s] = 0.0;
            continue;
        }

        /* Merge one cut per distinct fanin, in first-occurrence order. */
        int32_t distinct[MAX_K] = {0};
        int nd = 0;
        for (int32_t i = lo; i < hi; i++) {
            int seen = 0;
            for (int d = 0; d < nd; d++) seen |= distinct[d] == fanins[i];
            if (!seen) distinct[nd++] = fanins[i];
        }
        cur.len = 0;
        for (int32_t c = 0; c < count[distinct[0]]; c++)
            if (!push(&cur, &all.cuts[first[distinct[0]] + c])) goto done;
        for (int d = 1; d < nd; d++) {
            const Cut *other = all.cuts + first[distinct[d]];
            int32_t others = count[distinct[d]];
            next.len = 0;
            for (size_t a = 0; a < cur.len; a++) {
                for (int32_t b = 0; b < others; b++) {
                    Cut u;
                    if (cut_union(&cur.cuts[a], &other[b], k, &u) &&
                        !push(&next, &u))
                        goto done;
                }
            }
            sort_unique(&next);
            CutVec swap = cur;
            cur = next;
            next = swap;
        }
        if (nd == 1) sort_unique(&cur); /* a fanin's cuts are distinct */

        /* Keep the minimal candidates: by size, so a strict subset of a
         * candidate is always met before it. */
        size_t kept = 0;
        for (size_t c = 0; c < cur.len; c++) {
            int dominated = 0;
            for (size_t j = 0; j < kept && !dominated; j++)
                dominated = is_subset(&cur.cuts[j], &cur.cuts[c]);
            if (!dominated) cur.cuts[kept++] = cur.cuts[c];
        }
        if (kept == 0) {
            *out_slot = s;
            rc = MAP_NO_CUT;
            goto done;
        }
        qsort(cur.cuts, kept, sizeof(Cut), by_priority);
        if (kept > (size_t)cut_limit) kept = (size_t)cut_limit;

        /* The best cut. */
        size_t best = 0;
        int32_t best_depth = 0;
        double best_flow = 0.0;
        for (size_t c = 0; c < kept; c++) {
            const Cut *cut = &cur.cuts[c];
            int32_t deepest = 0;
            double terms[MAX_K];
            for (int i = 0; i < cut->size; i++) {
                int32_t leaf = slot_of_rank[cut->leaf[i]];
                if (depth[leaf] > deepest) deepest = depth[leaf];
                terms[i] = flow[leaf];
            }
            int32_t cut_depth = 1 + deepest;
            double cut_flow =
                1.0 + map_flow_sum(terms, cut->size, compensated);
            if (c == 0 || cut_depth < best_depth ||
                (cut_depth == best_depth &&
                 (cut_flow < best_flow ||
                  (cut_flow == best_flow &&
                   cut->size < cur.cuts[best].size)))) {
                best = c;
                best_depth = cut_depth;
                best_flow = cut_flow;
            }
        }
        depth[s] = best_depth;
        int32_t readers = fanout_off[s + 1] - fanout_off[s];
        flow[s] = best_flow / (double)(readers > 1 ? readers : 1);
        best_size[s] = cur.cuts[best].size;
        for (int i = 0; i < best_size[s]; i++)
            best_leaf[(size_t)s * MAX_K + i] = slot_of_rank[cur.cuts[best].leaf[i]];

        /* Store the kept cuts, then the trivial one. */
        first[s] = all.len;
        count[s] = (int32_t)kept + 1;
        for (size_t c = 0; c < kept; c++)
            if (!push(&all, &cur.cuts[c])) goto done;
        if (!push(&all, &unit)) goto done;
    }

    /* Cover from the roots, readers before their inputs: a gate's LUT is
     * computed when a root or a reached LUT takes it as an input. */
    for (int32_t r = 0; r < n_roots; r++) reached[roots[r]] = 1;
    int32_t stamp = 0;
    for (int32_t s = n - 1; s >= 0; s--) {
        if (!reached[s] || fanin_off[s] == fanin_off[s + 1]) continue;
        lut_function(s, best_leaf + (size_t)s * MAX_K, best_size[s],
                     fanin_off, fanins, funcs, func_words, mark, &stamp,
                     value, stack, out_size, out_leaves, out_words);
        for (int j = 0; j < out_size[s]; j++)
            reached[out_leaves[(size_t)s * MAX_K + j]] = 1;
    }
    rc = MAP_OK;

done:
    free(order);
    free(rank);
    free(slot_of_rank);
    free(first);
    free(count);
    free(depth);
    free(flow);
    free(best_leaf);
    free(best_size);
    free(reached);
    free(mark);
    free(value);
    free(stack);
    free(all.cuts);
    free(cur.cuts);
    free(next.cuts);
    return rc;
}

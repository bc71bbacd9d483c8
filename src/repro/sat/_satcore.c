/* Array-backed CDCL core: the compiled backend of repro.sat.
 *
 * This is a literal C rendering of the reference CdclSolver
 * (src/repro/sat/solver.py), rebuilt around the memory hierarchy the way
 * MiniSat is (and the sst-sat hardware port makes explicit):
 *
 *   - clause arena: one flat int32 buffer, [len, lit0, .., litk, len, ...];
 *     a clause reference (cref) is the header's index.  Learnt clauses are
 *     appended to the same arena; deletion negates the header (tombstone)
 *     and a compacting GC slides survivors down in attachment order, so
 *     the relative cref order (which the reduction ranking ties on) is
 *     preserved.
 *   - watch vectors: per-literal growable int32 vectors of (cref, blocker)
 *     pairs, stride 2.  A true blocker skips the clause without touching
 *     the arena.  The reference solver implements the same blocker
 *     discipline, so both backends visit identical clauses in identical
 *     order.
 *   - dense state: per-literal truth values (vals[lit] in {1, 0, -1}),
 *     flat trail / level / reason / phase / VSIDS-activity buffers.
 *   - indexed activity max-heap keyed (activity desc, var asc) — exactly
 *     the total order the reference's first-strict-max linear scan
 *     resolves to.
 *
 * Bit-identity with the reference is the contract: same verdicts, models,
 * decision/conflict/propagation counts, learnt-clause trajectories, and
 * budget expiry points.  Every heuristic constant and tie-break below is
 * copied from solver.py; double arithmetic (VSIDS decay/rescale, cap
 * growth) matches CPython's float semantics because both are IEEE-754.
 *
 * The same library holds the cone encoder the compiled backend feeds the
 * solver with (the last section): a C rendering of the reference Tseitin
 * encoder over a lowered network tape, whose clause stream the solver
 * takes in one sat_add_clauses call.
 *
 * The library is self-contained C99 compiled at import time by
 * repro.sat.compiled (no Python.h); the only callback is the optional
 * budget deadline poll, invoked every BUDGET_CHECK_INTERVAL propagations.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define UNSAT_RESULT 0
#define SAT_RESULT 1
#define UNKNOWN_RESULT 2
/* UNSAT decided before the search loop (solver already inconsistent, or
 * the root-level propagation of pending units failed): the Python wrapper
 * keeps the previous model in this case, mirroring the reference's early
 * returns. */
#define UNSAT_EARLY_RESULT 3

#define LEARNT_CAP_GROWTH 1.3
#define BUDGET_CHECK_INTERVAL 2048

typedef int (*time_expired_fn)(void);

/* ------------------------------------------------------------------ */
/* Growable int32 vector                                               */
/* ------------------------------------------------------------------ */
typedef struct {
    int32_t *data;
    int64_t len;
    int64_t cap;
} veci;

static int veci_reserve(veci *v, int64_t need) {
    if (need <= v->cap) return 1;
    int64_t cap = v->cap ? v->cap : 8;
    while (cap < need) cap *= 2;
    int32_t *data = (int32_t *)realloc(v->data, (size_t)cap * sizeof(int32_t));
    if (!data) return 0;
    v->data = data;
    v->cap = cap;
    return 1;
}

static int veci_push(veci *v, int32_t x) {
    if (v->len == v->cap && !veci_reserve(v, v->len + 1)) return 0;
    v->data[v->len++] = x;
    return 1;
}

static int veci_push2(veci *v, int32_t a, int32_t b) {
    if (v->len + 2 > v->cap && !veci_reserve(v, v->len + 2)) return 0;
    v->data[v->len] = a;
    v->data[v->len + 1] = b;
    v->len += 2;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Solver                                                              */
/* ------------------------------------------------------------------ */
typedef struct {
    int32_t num_vars;
    int64_t var_cap;      /* allocated per-var slots (>= num_vars + 1) */

    veci arena;           /* clause arena */
    veci *watches;        /* per internal literal; slots 0/1 unused */
    int64_t watch_cap;    /* allocated literal slots */

    int8_t *vals;         /* per literal: 1 true, 0 false, -1 unassigned */
    int32_t *level;       /* per var */
    int32_t *reason;      /* per var: cref or -1 */
    double *activity;     /* per var */
    int8_t *phase;        /* per var: saved polarity */

    int32_t *heap;        /* branching max-heap of vars */
    int64_t heap_len;
    int32_t *heap_pos;    /* per var: heap index or -1 */

    int32_t *trail;       /* internal literals in assignment order */
    int64_t trail_len;
    veci trail_lim;       /* trail length at each decision level */
    int64_t qhead;

    int ok;
    double var_inc;
    double var_decay;

    /* Live learnt clauses, parallel arrays in attachment (cref asc) order. */
    veci learnt_cref;
    veci learnt_lbd;
    int64_t learnt_cap;   /* reduction threshold */

    /* Model snapshot of the last SAT solve: per-var value or -1. */
    int8_t *model_vals;
    int model_valid;

    /* Scratch buffers. */
    uint8_t *seen;        /* per var, conflict analysis */
    veci learnt_buf;      /* learnt clause under construction */
    int32_t *lit_stamp;   /* per literal, add_clause dup/tautology */
    int32_t stamp_gen;
    int32_t *lvl_stamp;   /* per decision level, LBD distinct-level count */
    int64_t lvl_cap;
    int32_t lvl_gen;

    /* Counters (mirrored into the Python stats dict). */
    int64_t decisions;
    int64_t conflicts;
    int64_t propagations;
    int64_t restarts;
    int64_t learnts_deleted;
    int64_t reductions;
    int64_t watchers_compacted;
    int64_t arena_bytes;  /* high-water of len(arena) * 4 */
    int64_t arena_gcs;
    int64_t arena_words_reclaimed;
} Solver;

static void update_arena_hw(Solver *s) {
    int64_t bytes = s->arena.len * (int64_t)sizeof(int32_t);
    if (bytes > s->arena_bytes) s->arena_bytes = bytes;
}

/* ------------------------------------------------------------------ */
/* Construction                                                        */
/* ------------------------------------------------------------------ */
Solver *sat_new(int64_t learnt_cap_init) {
    Solver *s = (Solver *)calloc(1, sizeof(Solver));
    if (!s) return NULL;
    s->ok = 1;
    s->var_inc = 1.0;
    s->var_decay = 0.95;
    s->learnt_cap = learnt_cap_init;
    return s;
}

void sat_free(Solver *s) {
    if (!s) return;
    free(s->arena.data);
    for (int64_t i = 0; i < s->watch_cap; i++) free(s->watches[i].data);
    free(s->watches);
    free(s->vals);
    free(s->level);
    free(s->reason);
    free(s->activity);
    free(s->phase);
    free(s->heap);
    free(s->heap_pos);
    free(s->trail);
    free(s->trail_lim.data);
    free(s->learnt_cref.data);
    free(s->learnt_lbd.data);
    free(s->model_vals);
    free(s->seen);
    free(s->learnt_buf.data);
    free(s->lit_stamp);
    free(s->lvl_stamp);
    free(s);
}

/* ------------------------------------------------------------------ */
/* Activity heap: max-heap under (activity desc, var asc)              */
/* ------------------------------------------------------------------ */
static void heap_sift_up(Solver *s, int64_t i) {
    int32_t *heap = s->heap;
    int32_t *pos = s->heap_pos;
    double *activity = s->activity;
    int32_t var = heap[i];
    double act = activity[var];
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        int32_t pvar = heap[parent];
        double pact = activity[pvar];
        if (pact > act || (pact == act && pvar < var)) break;
        heap[i] = pvar;
        pos[pvar] = (int32_t)i;
        i = parent;
    }
    heap[i] = var;
    pos[var] = (int32_t)i;
}

static void heap_sift_down(Solver *s, int64_t i) {
    int32_t *heap = s->heap;
    int32_t *pos = s->heap_pos;
    double *activity = s->activity;
    int64_t size = s->heap_len;
    int32_t var = heap[i];
    double act = activity[var];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size) break;
        int32_t cvar = heap[child];
        double cact = activity[cvar];
        int64_t right = child + 1;
        if (right < size) {
            int32_t rvar = heap[right];
            double ract = activity[rvar];
            if (ract > cact || (ract == cact && rvar < cvar)) {
                child = right;
                cvar = rvar;
                cact = ract;
            }
        }
        if (act > cact || (act == cact && var < cvar)) break;
        heap[i] = cvar;
        pos[cvar] = (int32_t)i;
        i = child;
    }
    heap[i] = var;
    pos[var] = (int32_t)i;
}

static void heap_insert(Solver *s, int32_t var) {
    s->heap[s->heap_len] = var;
    s->heap_pos[var] = (int32_t)s->heap_len;
    s->heap_len++;
    heap_sift_up(s, s->heap_len - 1);
}

static int32_t heap_pop(Solver *s) {
    int32_t top = s->heap[0];
    s->heap_pos[top] = -1;
    int32_t last = s->heap[--s->heap_len];
    if (s->heap_len) {
        s->heap[0] = last;
        s->heap_pos[last] = 0;
        heap_sift_down(s, 0);
    }
    return top;
}

/* Re-heapify after an activity rescale collapses ties: rescaling maps
 * distinct activities onto equal doubles, which re-orders the
 * (activity, var) total order, and a stale heap would stop matching the
 * reference's rescan-every-decision argmax. */
static void heap_rebuild(Solver *s) {
    for (int64_t i = s->heap_len / 2 - 1; i >= 0; i--) heap_sift_down(s, i);
    for (int64_t i = 0; i < s->heap_len; i++) s->heap_pos[s->heap[i]] = (int32_t)i;
}

/* ------------------------------------------------------------------ */
/* Variables                                                           */
/* ------------------------------------------------------------------ */
static int grow_vars(Solver *s, int64_t var_cap) {
    if (var_cap <= s->var_cap) return 1;
    int64_t cap = s->var_cap ? s->var_cap : 16;
    while (cap < var_cap) cap *= 2;
    int64_t lit_cap = 2 * cap + 2;

    int8_t *vals = (int8_t *)realloc(s->vals, (size_t)lit_cap);
    if (!vals) return 0;
    s->vals = vals;
    int32_t *level = (int32_t *)realloc(s->level, (size_t)cap * sizeof(int32_t));
    if (!level) return 0;
    s->level = level;
    int32_t *reason = (int32_t *)realloc(s->reason, (size_t)cap * sizeof(int32_t));
    if (!reason) return 0;
    s->reason = reason;
    double *activity = (double *)realloc(s->activity, (size_t)cap * sizeof(double));
    if (!activity) return 0;
    s->activity = activity;
    int8_t *phase = (int8_t *)realloc(s->phase, (size_t)cap);
    if (!phase) return 0;
    s->phase = phase;
    int32_t *heap = (int32_t *)realloc(s->heap, (size_t)cap * sizeof(int32_t));
    if (!heap) return 0;
    s->heap = heap;
    int32_t *heap_pos = (int32_t *)realloc(s->heap_pos, (size_t)cap * sizeof(int32_t));
    if (!heap_pos) return 0;
    s->heap_pos = heap_pos;
    int32_t *trail = (int32_t *)realloc(s->trail, (size_t)cap * sizeof(int32_t));
    if (!trail) return 0;
    s->trail = trail;
    uint8_t *seen = (uint8_t *)realloc(s->seen, (size_t)cap);
    if (!seen) return 0;
    memset(seen + s->var_cap, 0, (size_t)(cap - s->var_cap));
    s->seen = seen;
    int8_t *model_vals = (int8_t *)realloc(s->model_vals, (size_t)cap);
    if (!model_vals) return 0;
    s->model_vals = model_vals;
    int32_t *lit_stamp = (int32_t *)realloc(s->lit_stamp, (size_t)lit_cap * sizeof(int32_t));
    if (!lit_stamp) return 0;
    memset(lit_stamp + 2 * s->var_cap + (s->var_cap ? 2 : 0), 0,
           (size_t)(lit_cap - (s->var_cap ? 2 * s->var_cap + 2 : 0)) * sizeof(int32_t));
    s->lit_stamp = lit_stamp;
    veci *watches = (veci *)realloc(s->watches, (size_t)lit_cap * sizeof(veci));
    if (!watches) return 0;
    memset(watches + s->watch_cap, 0, (size_t)(lit_cap - s->watch_cap) * sizeof(veci));
    s->watches = watches;
    s->watch_cap = lit_cap;

    s->var_cap = cap;
    return 1;
}

int sat_new_var(Solver *s) {
    int32_t var = ++s->num_vars;
    if (!grow_vars(s, (int64_t)var + 1)) {
        s->num_vars--;
        return -1;
    }
    s->vals[2 * var] = -1;
    s->vals[2 * var + 1] = -1;
    s->level[var] = 0;
    s->reason[var] = -1;
    s->activity[var] = 0.0;
    s->phase[var] = 0;
    s->heap_pos[var] = -1;
    heap_insert(s, var);
    return var;
}

/* Create variables num_vars+1 .. var in ascending order (no-op when they
 * exist); 1 on success, 0 on allocation failure. */
int sat_ensure_vars(Solver *s, int32_t var) {
    while (s->num_vars < var) {
        if (sat_new_var(s) < 0) return 0;
    }
    return 1;
}

int sat_num_vars(Solver *s) { return s->num_vars; }
int sat_ok(Solver *s) { return s->ok; }

/* ------------------------------------------------------------------ */
/* Assignment machinery                                                */
/* ------------------------------------------------------------------ */
static int enqueue(Solver *s, int32_t ilit, int32_t reason) {
    int8_t value = s->vals[ilit];
    if (value == 0) return 0;
    if (value == 1) return 1;
    int32_t var = ilit >> 1;
    s->vals[ilit] = 1;
    s->vals[ilit ^ 1] = 0;
    s->level[var] = (int32_t)s->trail_lim.len;
    s->reason[var] = reason;
    s->trail[s->trail_len++] = ilit;
    return 1;
}

/* Unit propagation; returns the conflicting cref or -1.  Same blocker
 * discipline as the reference: a true blocker keeps the entry untouched;
 * otherwise the clause is normalised (false literal to slot 1), a
 * replacement watch is searched, and the entry is moved, kept with a
 * refreshed blocker, or turned into a unit/conflict — in the same order. */
static int32_t propagate(Solver *s) {
    int8_t *vals = s->vals;
    veci *watches = s->watches;
    int32_t *arena = s->arena.data;
    int32_t *trail = s->trail;
    int32_t *level = s->level;
    int32_t *reason = s->reason;
    int32_t current_level = (int32_t)s->trail_lim.len;
    int64_t qhead = s->qhead;
    int64_t props = 0;
    int32_t conflict = -1;

    while (qhead < s->trail_len) {
        int32_t ilit = trail[qhead++];
        props++;
        int32_t false_lit = ilit ^ 1;
        veci *watch = &watches[false_lit];
        int64_t end = watch->len;
        if (!end) continue;
        int32_t *w = watch->data;
        int64_t i = 0, j = 0;
        while (i < end) {
            int32_t cref = w[i];
            int32_t blocker = w[i + 1];
            i += 2;
            if (vals[blocker] == 1) {
                w[j] = cref;
                w[j + 1] = blocker;
                j += 2;
                continue;
            }
            int32_t base = cref + 1;
            int32_t size = arena[cref];
            /* Normalize: put the false literal at position 1. */
            if (arena[base] == false_lit) {
                arena[base] = arena[base + 1];
                arena[base + 1] = false_lit;
            }
            int32_t first = arena[base];
            if (first != blocker && vals[first] == 1) {
                w[j] = cref;
                w[j + 1] = first;
                j += 2;
                continue;
            }
            /* Look for a replacement watch. */
            int moved = 0;
            for (int32_t k = base + 2; k < base + size; k++) {
                int32_t lk = arena[k];
                if (vals[lk] != 0) {
                    arena[base + 1] = lk;
                    arena[k] = false_lit;
                    /* The push may grow another literal's vector; this
                     * one (w) is never reallocated mid-walk. */
                    veci_push2(&watches[lk], cref, first);
                    moved = 1;
                    break;
                }
            }
            if (moved) continue;
            w[j] = cref;
            w[j + 1] = first;
            j += 2;
            int8_t value = vals[first];
            if (value == 0) {
                conflict = cref;
                while (i < end) { /* keep the unvisited tail */
                    w[j] = w[i];
                    w[j + 1] = w[i + 1];
                    i += 2;
                    j += 2;
                }
                break;
            }
            if (value == -1) {
                int32_t var = first >> 1;
                vals[first] = 1;
                vals[first ^ 1] = 0;
                level[var] = current_level;
                reason[var] = cref;
                trail[s->trail_len++] = first;
            }
        }
        watch->len = j;
        if (conflict >= 0) break;
    }
    s->qhead = qhead;
    s->propagations += props;
    return conflict;
}

static void cancel_until(Solver *s, int32_t level) {
    if (s->trail_lim.len <= level) return;
    int64_t bound = s->trail_lim.data[level];
    int8_t *vals = s->vals;
    for (int64_t idx = s->trail_len - 1; idx >= bound; idx--) {
        int32_t var = s->trail[idx] >> 1;
        int32_t pos_lit = var << 1;
        s->phase[var] = vals[pos_lit];
        vals[pos_lit] = -1;
        vals[pos_lit | 1] = -1;
        s->reason[var] = -1;
        if (s->heap_pos[var] < 0) heap_insert(s, var);
    }
    s->trail_len = bound;
    s->trail_lim.len = level;
    if (s->qhead > s->trail_len) s->qhead = s->trail_len;
}

/* ------------------------------------------------------------------ */
/* Clause attachment, learnt reduction, arena GC                       */
/* ------------------------------------------------------------------ */
static int32_t attach_clause(Solver *s, const int32_t *clause, int32_t size, int32_t lbd) {
    int32_t cref = (int32_t)s->arena.len;
    veci_reserve(&s->arena, s->arena.len + size + 1);
    s->arena.data[s->arena.len++] = size;
    memcpy(s->arena.data + s->arena.len, clause, (size_t)size * sizeof(int32_t));
    s->arena.len += size;
    veci_push2(&s->watches[clause[0]], cref, clause[1]);
    veci_push2(&s->watches[clause[1]], cref, clause[0]);
    if (lbd >= 0) {
        veci_push(&s->learnt_cref, cref);
        veci_push(&s->learnt_lbd, lbd);
    }
    return cref;
}

/* Binary search the (ascending) learnt cref list; -1 if not learnt. */
static int64_t learnt_index_of(Solver *s, int32_t cref) {
    int64_t lo = 0, hi = s->learnt_cref.len - 1;
    const int32_t *crefs = s->learnt_cref.data;
    while (lo <= hi) {
        int64_t mid = (lo + hi) >> 1;
        if (crefs[mid] == cref) return mid;
        if (crefs[mid] < cref) lo = mid + 1;
        else hi = mid - 1;
    }
    return -1;
}

/* Compact the arena and every watch vector in one pass.  Survivors slide
 * down in attachment order (monotone cref remap), so the reduce ranking's
 * cref tie-break is preserved; watch entries of deleted clauses are
 * dropped here (eager watcher compaction — deleted clauses never linger
 * in the watch lists of rarely-falsified literals). */
static void gc_arena(Solver *s) {
    update_arena_hw(s);
    int64_t end = s->arena.len;
    int32_t *arena = s->arena.data;
    int32_t *remap = (int32_t *)malloc((size_t)(end ? end : 1) * sizeof(int32_t));
    if (!remap) return; /* skip GC under allocation pressure; stays correct */
    int64_t i = 0, w = 0;
    while (i < end) {
        int32_t size = arena[i];
        if (size > 0) {
            remap[i] = (int32_t)w;
            if (w != i)
                memmove(arena + w, arena + i, (size_t)(size + 1) * sizeof(int32_t));
            w += size + 1;
            i += size + 1;
        } else {
            remap[i] = -1;
            i += 1 - size; /* tombstone: header is the negated length */
        }
    }
    int64_t dropped = 0;
    for (int64_t lit = 0; lit < s->watch_cap; lit++) {
        veci *watch = &s->watches[lit];
        if (!watch->len) continue;
        int32_t *data = watch->data;
        int64_t src = 0, dst = 0, n = watch->len;
        while (src < n) {
            int32_t new_cref = remap[data[src]];
            if (new_cref < 0) {
                dropped++;
            } else {
                data[dst] = new_cref;
                data[dst + 1] = data[src + 1];
                dst += 2;
            }
            src += 2;
        }
        watch->len = dst;
    }
    for (int64_t t = 0; t < s->trail_len; t++) {
        int32_t var = s->trail[t] >> 1;
        if (s->reason[var] >= 0) s->reason[var] = remap[s->reason[var]];
    }
    for (int64_t li = 0; li < s->learnt_cref.len; li++)
        s->learnt_cref.data[li] = remap[s->learnt_cref.data[li]];
    free(remap);
    s->watchers_compacted += dropped;
    s->arena_gcs++;
    s->arena_words_reclaimed += end - w;
    s->arena.len = w;
}

/* Reduction ranking: (LBD desc, length desc, cref desc) — identical to
 * the reference's sorted() key (-lbd, -len, -index). */
typedef struct {
    int32_t cref;
    int32_t lbd;
    int32_t len;
} ReduceEntry;

static int reduce_cmp(const void *pa, const void *pb) {
    const ReduceEntry *a = (const ReduceEntry *)pa;
    const ReduceEntry *b = (const ReduceEntry *)pb;
    if (a->lbd != b->lbd) return a->lbd > b->lbd ? -1 : 1;
    if (a->len != b->len) return a->len > b->len ? -1 : 1;
    return a->cref > b->cref ? -1 : 1;
}

static void reduce_learnts(Solver *s) {
    int64_t n = s->learnt_cref.len;
    uint8_t *locked = (uint8_t *)calloc((size_t)(n ? n : 1), 1);
    ReduceEntry *removable =
        (ReduceEntry *)malloc((size_t)(n ? n : 1) * sizeof(ReduceEntry));
    if (!locked || !removable) {
        free(locked);
        free(removable);
        return;
    }
    for (int64_t t = 0; t < s->trail_len; t++) {
        int32_t reason = s->reason[s->trail[t] >> 1];
        if (reason >= 0) {
            int64_t li = learnt_index_of(s, reason);
            if (li >= 0) locked[li] = 1;
        }
    }
    int64_t n_removable = 0;
    for (int64_t li = 0; li < n; li++) {
        if (s->learnt_lbd.data[li] > 2 && !locked[li]) {
            removable[n_removable].cref = s->learnt_cref.data[li];
            removable[n_removable].lbd = s->learnt_lbd.data[li];
            removable[n_removable].len = s->arena.data[s->learnt_cref.data[li]];
            n_removable++;
        }
    }
    qsort(removable, (size_t)n_removable, sizeof(ReduceEntry), reduce_cmp);
    int64_t n_delete = n_removable / 2;
    for (int64_t d = 0; d < n_delete; d++) {
        int32_t cref = removable[d].cref;
        s->arena.data[cref] = -s->arena.data[cref];
        int64_t li = learnt_index_of(s, cref);
        s->learnt_lbd.data[li] = -1; /* mark deleted */
    }
    if (n_delete) {
        int64_t dst = 0;
        for (int64_t li = 0; li < n; li++) {
            if (s->learnt_lbd.data[li] >= 0) {
                s->learnt_cref.data[dst] = s->learnt_cref.data[li];
                s->learnt_lbd.data[dst] = s->learnt_lbd.data[li];
                dst++;
            }
        }
        s->learnt_cref.len = dst;
        s->learnt_lbd.len = dst;
    }
    free(locked);
    free(removable);
    s->learnts_deleted += n_delete;
    s->reductions++;
    s->learnt_cap = (int64_t)((double)s->learnt_cap * LEARNT_CAP_GROWTH);
    if (n_delete) gc_arena(s);
}

/* ------------------------------------------------------------------ */
/* Conflict analysis                                                   */
/* ------------------------------------------------------------------ */
static void bump(Solver *s, int32_t var) {
    s->activity[var] += s->var_inc;
    if (s->activity[var] > 1e100) {
        for (int32_t v = 1; v <= s->num_vars; v++) s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
        heap_rebuild(s);
    } else if (s->heap_pos[var] >= 0) {
        heap_sift_up(s, s->heap_pos[var]);
    }
}

/* First-UIP analysis; fills s->learnt_buf, returns the backjump level. */
static int32_t analyze(Solver *s, int32_t conflict) {
    int32_t *arena = s->arena.data;
    int32_t *level = s->level;
    int32_t *trail = s->trail;
    uint8_t *seen = s->seen;
    int32_t current = (int32_t)s->trail_lim.len;
    veci *learnt = &s->learnt_buf;
    learnt->len = 0;
    veci_push(learnt, 0); /* placeholder for the asserting literal */
    int32_t counter = 0;
    int32_t p = -1;
    int64_t index = s->trail_len - 1;
    int32_t cref = conflict;
    for (;;) {
        int32_t base = cref + 1;
        int32_t start = (p == -1) ? base : base + 1;
        int32_t stop = base + arena[cref];
        for (int32_t qi = start; qi < stop; qi++) {
            int32_t q = arena[qi];
            int32_t var = q >> 1;
            if (!seen[var] && level[var] > 0) {
                seen[var] = 1;
                bump(s, var);
                /* bump may rescale + rebuild, never touches the arena */
                if (level[var] >= current) counter++;
                else veci_push(learnt, q);
            }
        }
        while (!seen[trail[index] >> 1]) index--;
        p = trail[index];
        index--;
        int32_t var = p >> 1;
        seen[var] = 0;
        counter--;
        if (counter == 0) break;
        cref = s->reason[var];
    }
    learnt->data[0] = p ^ 1;
    int32_t *lits = learnt->data;
    int64_t len = learnt->len;
    for (int64_t i = 1; i < len; i++) seen[lits[i] >> 1] = 0;
    if (len == 1) return 0;
    /* Backjump to the second-highest level in the clause; move that
     * literal to watch position 1. */
    int64_t max_i = 1;
    for (int64_t i = 2; i < len; i++) {
        if (level[lits[i] >> 1] > level[lits[max_i] >> 1]) max_i = i;
    }
    int32_t tmp = lits[1];
    lits[1] = lits[max_i];
    lits[max_i] = tmp;
    return level[lits[1] >> 1];
}

/* Ensure the LBD level-stamp array can index decision levels [0, max]. */
static int grow_lvl_stamp(Solver *s, int64_t max_level) {
    if (max_level < s->lvl_cap) return 1;
    int64_t cap = s->lvl_cap ? s->lvl_cap : 64;
    while (cap <= max_level) cap *= 2;
    int32_t *stamp = (int32_t *)realloc(s->lvl_stamp, (size_t)cap * sizeof(int32_t));
    if (!stamp) return 0;
    memset(stamp + s->lvl_cap, 0, (size_t)(cap - s->lvl_cap) * sizeof(int32_t));
    s->lvl_stamp = stamp;
    s->lvl_cap = cap;
    return 1;
}

/* LBD: distinct decision levels among the learnt clause's literals. */
static int32_t compute_lbd(Solver *s, const int32_t *lits, int64_t len) {
    int32_t gen = ++s->lvl_gen;
    int32_t *stamp = s->lvl_stamp;
    int32_t count = 0;
    for (int64_t i = 0; i < len; i++) {
        int32_t lvl = s->level[lits[i] >> 1];
        if (stamp[lvl] != gen) {
            stamp[lvl] = gen;
            count++;
        }
    }
    return count;
}

/* ------------------------------------------------------------------ */
/* Clause addition (root level)                                        */
/* ------------------------------------------------------------------ */

/* Returns 1 on success (including tautology / satisfied-at-root drops),
 * 0 when the solver became inconsistent.  Mirrors the reference's
 * root-level simplification exactly: tautologies and root-satisfied
 * clauses are dropped, root-falsified literals are stripped, duplicate
 * literals are merged (first occurrence kept), units are enqueued and
 * propagated. */
int sat_add_clause(Solver *s, const int32_t *dimacs, int32_t n) {
    if (s->trail_lim.len) return -1; /* only at decision level 0 */
    int32_t gen = ++s->stamp_gen;
    veci *buf = &s->learnt_buf; /* reuse: never live across calls */
    buf->len = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t lit = dimacs[i];
        int32_t var = lit < 0 ? -lit : lit;
        /* Variables are created per literal, in encounter order, and an
         * early tautology/satisfied return skips the rest — exactly the
         * reference's behavior (var creation order feeds the branching
         * heap, so it is trajectory-relevant). */
        if (!sat_ensure_vars(s, var)) return -1;
        int32_t *stamp = s->lit_stamp; /* may have been reallocated */
        int32_t ilit = (var << 1) | (lit < 0 ? 1 : 0);
        if (stamp[ilit ^ 1] == gen) return 1; /* tautology */
        if (stamp[ilit] == gen) continue;     /* duplicate */
        int8_t value = s->vals[ilit];
        if (value == 1 && s->level[var] == 0) return 1; /* satisfied */
        if (value == 0 && s->level[var] == 0) continue; /* falsified */
        stamp[ilit] = gen;
        veci_push(buf, ilit);
    }
    if (buf->len == 0) {
        s->ok = 0;
        return 0;
    }
    if (buf->len == 1) {
        if (!enqueue(s, buf->data[0], -1)) {
            s->ok = 0;
            return 0;
        }
        if (propagate(s) >= 0) {
            s->ok = 0;
            return 0;
        }
        return 1;
    }
    attach_clause(s, buf->data, (int32_t)buf->len, -1);
    return 1;
}

/* Add a stream of 0-terminated clauses ([lit, .., 0, lit, .., 0, ...]) in
 * one call.  Each clause goes through sat_add_clause, so variables are
 * created and clauses simplified exactly as with one call per clause.
 * Like the reference's add_cnf, a clause that makes the solver
 * inconsistent does not stop the rest.  Returns 1 when every clause was
 * added cleanly, 0 when the solver became inconsistent, -1 on error. */
int sat_add_clauses(Solver *s, const int32_t *stream, int64_t len) {
    int ok = 1;
    int64_t start = 0;
    for (int64_t i = 0; i < len; i++) {
        if (stream[i]) continue;
        int rc = sat_add_clause(s, stream + start, (int32_t)(i - start));
        if (rc < 0) return -1;
        if (!rc) ok = 0;
        start = i + 1;
    }
    return ok;
}

/* ------------------------------------------------------------------ */
/* Search                                                              */
/* ------------------------------------------------------------------ */
static int32_t pick_branch(Solver *s) {
    int8_t *vals = s->vals;
    while (s->heap_len) {
        int32_t var = heap_pop(s);
        if (vals[var << 1] == -1)
            return (var << 1) | (s->phase[var] ^ 1);
    }
    return -1;
}

/* The CDCL search; same control flow as the reference's _solve.
 * conflict_limit < 0 means unlimited; time_expired (optional) is polled
 * every BUDGET_CHECK_INTERVAL propagations.  Writes the number of
 * conflicts consumed by this call to *conflicts_out. */
int sat_solve(Solver *s, const int32_t *assumptions_dimacs, int32_t n_assumptions,
              int64_t conflict_limit, time_expired_fn time_expired,
              int64_t *conflicts_out) {
    *conflicts_out = 0;
    if (!s->ok) return UNSAT_EARLY_RESULT;
    cancel_until(s, 0);
    if (propagate(s) >= 0) {
        s->ok = 0;
        return UNSAT_EARLY_RESULT;
    }

    for (int32_t i = 0; i < n_assumptions; i++) {
        int32_t var = assumptions_dimacs[i] < 0 ? -assumptions_dimacs[i]
                                                : assumptions_dimacs[i];
        if (!sat_ensure_vars(s, var)) return -1;
    }
    /* Assumption literals, internal encoding (var_cap is settled now). */
    veci assum = {0, 0, 0};
    for (int32_t i = 0; i < n_assumptions; i++) {
        int32_t lit = assumptions_dimacs[i];
        int32_t var = lit < 0 ? -lit : lit;
        veci_push(&assum, (var << 1) | (lit < 0 ? 1 : 0));
    }

    int64_t next_time_check =
        time_expired ? s->propagations + BUDGET_CHECK_INTERVAL : -1;
    int64_t conflicts_seen = 0;
    int64_t restart_budget = 64;
    int result = UNKNOWN_RESULT;

    for (;;) {
        int32_t conflict = propagate(s);
        if (next_time_check >= 0 && s->propagations >= next_time_check) {
            next_time_check = s->propagations + BUDGET_CHECK_INTERVAL;
            if (time_expired()) {
                result = UNKNOWN_RESULT;
                break;
            }
        }
        if (conflict >= 0) {
            conflicts_seen++;
            s->conflicts++;
            if ((int64_t)s->trail_lim.len <= (int64_t)n_assumptions) {
                result = UNSAT_RESULT;
                break;
            }
            int32_t back = analyze(s, conflict);
            int32_t *lits = s->learnt_buf.data;
            int64_t len = s->learnt_buf.len;
            if (!grow_lvl_stamp(s, (int64_t)s->trail_lim.len)) {
                free(assum.data);
                return -1;
            }
            int32_t lbd = compute_lbd(s, lits, len);
            cancel_until(s, back);
            if (len == 1) {
                if (!enqueue(s, lits[0], -1)) {
                    result = UNSAT_RESULT;
                    break;
                }
            } else {
                int32_t cref = attach_clause(s, lits, (int32_t)len, lbd);
                enqueue(s, lits[0], cref);
            }
            s->var_inc /= s->var_decay;
            if (conflict_limit >= 0 && conflicts_seen >= conflict_limit) {
                result = UNKNOWN_RESULT;
                break;
            }
            if (conflicts_seen >= restart_budget) {
                restart_budget = (int64_t)((double)restart_budget * 1.5);
                s->restarts++;
                cancel_until(s, 0);
                if (s->learnt_cref.len >= s->learnt_cap) reduce_learnts(s);
            }
            continue;
        }

        /* No conflict: extend assumptions, then decide. */
        int64_t depth = s->trail_lim.len;
        if (depth < (int64_t)n_assumptions) {
            int32_t ilit = assum.data[depth];
            int8_t value = s->vals[ilit];
            if (value == 0) {
                result = UNSAT_RESULT;
                break;
            }
            veci_push(&s->trail_lim, (int32_t)s->trail_len);
            if (value != 1) enqueue(s, ilit, -1);
            continue;
        }
        int32_t decision = pick_branch(s);
        if (decision == -1) {
            result = SAT_RESULT;
            break;
        }
        s->decisions++;
        veci_push(&s->trail_lim, (int32_t)s->trail_len);
        enqueue(s, decision, -1);
    }

    free(assum.data);
    *conflicts_out = conflicts_seen;
    if (result == SAT_RESULT) {
        for (int32_t var = 1; var <= s->num_vars; var++)
            s->model_vals[var] = s->vals[var << 1];
        s->model_valid = 1;
    } else {
        s->model_valid = 0;
    }
    cancel_until(s, 0);
    update_arena_hw(s);
    return result;
}

/* Copy the last model into out[0..num_vars]: per-var 1/0, -1 unassigned.
 * Returns 0 if the last solve was not SAT. */
int sat_get_model(Solver *s, int8_t *out, int32_t out_len) {
    if (!s->model_valid) return 0;
    int32_t n = s->num_vars + 1 < out_len ? s->num_vars + 1 : out_len;
    if (n > 0) {
        memcpy(out, s->model_vals, (size_t)n);
        out[0] = -1;
    }
    return 1;
}

int sat_model_valid(Solver *s) { return s->model_valid; }

/* Counters, fixed order (mirrored by the Python wrapper). */
void sat_get_stats(Solver *s, int64_t *out) {
    out[0] = s->decisions;
    out[1] = s->conflicts;
    out[2] = s->propagations;
    out[3] = s->restarts;
    out[4] = s->learnts_deleted;
    out[5] = s->reductions;
    out[6] = s->watchers_compacted;
    out[7] = s->arena_bytes;
    out[8] = s->arena_gcs;
    out[9] = s->arena_words_reclaimed;
}

/* ------------------------------------------------------------------ */
/* Cone encoder over a network's lowering                              */
/* ------------------------------------------------------------------ */
/* A C rendering of TseitinEncoder.encode_cone (src/repro/sat/tseitin.py)
 * over a network's lowering (repro/network/lowering.py).  Nodes are
 * numbered 0..n-1 in the network's topological order (the slots); per
 * slot the lowering gives its kind, its function id and its fanin slots
 * (the CSR fanin_off/fanins), and a function's rows, at
 * rows[3 * row_off[function]] up to rows[3 * row_off[function + 1]], are
 * the lowering's rows section:
 *
 *     per row: mask, values, output
 *
 * the ISOP cubes of the onset (output 1), then of the offset (output 0).
 * Each row of a gate is one clause: per bound fanin position i, in
 * ascending order, the fanin's variable negated when the row's value is
 * 1, then the gate's variable, negated when the output is 0.
 *
 * Encoding a root walks its not-yet-encoded cone, numbers the new nodes
 * in topological order and appends their clauses to a stream of
 * 0-terminated clauses that sat_add_clauses takes whole.  Variables,
 * clause order and literal order are those of the reference encoder. */

#define NODE_PI 0
#define NODE_FALSE 1
#define NODE_TRUE 2
#define NODE_GATE 3

typedef struct {
    const int32_t *kinds;
    const int32_t *funcs;
    const int32_t *fanin_off;
    const int32_t *fanins;
    const int32_t *row_off;
    const int32_t *rows;
    int32_t *node_var;  /* per node: its variable, 0 = not encoded */
    int32_t num_vars;
    veci stream;        /* every clause encoded since the last reset */
    veci encoded;       /* nodes encoded since the last reset, in order */
    veci stack;         /* cone walk scratch */
} Encoder;

/* The lowering's buffers and node_var (one zeroed int32 per node) stay
 * owned by the caller and must outlive the encoder. */
Encoder *enc_new(const int32_t *kinds, const int32_t *funcs,
                 const int32_t *fanin_off, const int32_t *fanins,
                 const int32_t *row_off, const int32_t *rows,
                 int32_t *node_var) {
    Encoder *e = (Encoder *)calloc(1, sizeof(Encoder));
    if (!e) return NULL;
    e->kinds = kinds;
    e->funcs = funcs;
    e->fanin_off = fanin_off;
    e->fanins = fanins;
    e->row_off = row_off;
    e->rows = rows;
    e->node_var = node_var;
    return e;
}

void enc_free(Encoder *e) {
    if (!e) return;
    free(e->stream.data);
    free(e->encoded.data);
    free(e->stack.data);
    free(e);
}

static int cmp_int32(const void *pa, const void *pb) {
    int32_t a = *(const int32_t *)pa;
    int32_t b = *(const int32_t *)pb;
    return (a > b) - (a < b);
}

/* Encode the cone of node `root`; returns its variable, -1 on allocation
 * failure.  The walk stops at encoded nodes (their cones are encoded
 * already); node_var marks a node of the cone under construction with -1
 * until its variable is assigned. */
int32_t enc_encode_cone(Encoder *e, int32_t root) {
    int32_t *node_var = e->node_var;
    if (node_var[root] > 0) return node_var[root];
    const int32_t *fanin_off = e->fanin_off;
    int64_t first = e->encoded.len;
    veci *stack = &e->stack;
    stack->len = 0;
    if (!veci_push(stack, root)) return -1;
    while (stack->len) {
        int32_t node = stack->data[--stack->len];
        if (node_var[node]) continue;
        node_var[node] = -1;
        if (!veci_push(&e->encoded, node)) return -1;
        int32_t fanins = fanin_off[node + 1] - fanin_off[node];
        if (!veci_reserve(stack, stack->len + fanins)) return -1;
        memcpy(stack->data + stack->len, e->fanins + fanin_off[node],
               (size_t)fanins * sizeof(int32_t));
        stack->len += fanins;
    }
    int32_t *fresh = e->encoded.data + first;
    int64_t count = e->encoded.len - first;
    qsort(fresh, (size_t)count, sizeof(int32_t), cmp_int32);
    veci *out = &e->stream;
    for (int64_t i = 0; i < count; i++) {
        int32_t node = fresh[i];
        int32_t var = ++e->num_vars;
        node_var[node] = var;
        int32_t kind = e->kinds[node];
        if (kind == NODE_PI) continue;
        if (kind != NODE_GATE) {
            if (!veci_push2(out, kind == NODE_TRUE ? var : -var, 0)) return -1;
            continue;
        }
        const int32_t *fanin = e->fanins + fanin_off[node];
        int32_t arity = fanin_off[node + 1] - fanin_off[node];
        int32_t f = e->funcs[node];
        const int32_t *row = e->rows + 3 * (int64_t)e->row_off[f];
        const int32_t *end = e->rows + 3 * (int64_t)e->row_off[f + 1];
        for (; row < end; row += 3) {
            uint32_t mask = (uint32_t)row[0], values = (uint32_t)row[1];
            if (!veci_reserve(out, out->len + arity + 2)) return -1;
            int32_t *dst = out->data + out->len;
            /* Every position up to the last bound one is written; only
             * a bound one is kept (the room reserved covers them all). */
            for (int32_t k = 0; mask; k++, mask >>= 1, values >>= 1) {
                int32_t v = node_var[fanin[k]];
                *dst = (values & 1) ? -v : v;
                dst += mask & 1;
            }
            *dst++ = row[2] ? var : -var;
            *dst++ = 0;
            out->len = dst - out->data;
        }
    }
    return node_var[root];
}

/* A variable no node owns (the incremental checker's miter selectors). */
int32_t enc_new_var(Encoder *e) { return ++e->num_vars; }

int32_t enc_num_vars(Encoder *e) { return e->num_vars; }

/* Forget every encoded node and clause: the state of a fresh encoder. */
static void enc_reset(Encoder *e) {
    for (int64_t i = 0; i < e->encoded.len; i++) e->node_var[e->encoded.data[i]] = 0;
    e->encoded.len = 0;
    e->stream.len = 0;
    e->num_vars = 0;
}

/* The query-pure instance of pair_miter: from a reset encoder, the cones
 * of a then b, then two clauses asserting they differ (or, with
 * `complement`, that they agree).  Returns 0, or -1 on allocation
 * failure. */
int enc_miter(Encoder *e, int32_t a, int32_t b, int complement) {
    enc_reset(e);
    int32_t var_a = enc_encode_cone(e, a);
    if (var_a < 0) return -1;
    int32_t var_b = enc_encode_cone(e, b);
    if (var_b < 0) return -1;
    int32_t sign = complement ? -1 : 1;
    if (!veci_push2(&e->stream, var_a, sign * var_b) || !veci_push(&e->stream, 0))
        return -1;
    if (!veci_push2(&e->stream, -var_a, -sign * var_b) || !veci_push(&e->stream, 0))
        return -1;
    return 0;
}

/* The clause stream and its length in int32 words (NULL while empty). */
const int32_t *enc_stream(Encoder *e, int64_t *len) {
    *len = e->stream.len;
    return e->stream.data;
}

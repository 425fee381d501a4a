/* mcmsat's compiled core, search unit: the bundled solver's search.
   Its search is a line-for-line port of RefSolver._solve_python and its
   helpers: the same conflict-driven search, with clauses watched by two
   literals and counters kept for the other rows, the same decision
   order, restarts and clause deletion, so verdicts, models and counters
   are identical to the Python path (cross-checked in the test suite).
   mcm_new starts a search on RefSolver's row store (Store, in core.h),
   whose counter rows it reads in place and whose clauses it copies;
   mcm_run searches in time slices of about native.SLICE seconds, and
   native.run asks the caller's stop predicate in between; mcm_stats
   reads the search's counters and mcm_free ends it.
   native.py compiles this unit and the arena unit, core_arena.c, at the
   same time, both at -O1, and links them into one library that it loads
   through ctypes.  The Python code stays the reference and the
   fallback. */

#include "core.h"

#define UNASSIGNED (-1)
#define DECAY 0.95
#define RESCALE 1e100
#define RESTART_UNIT 100
#define REDUCE_FIRST 2000
#define REDUCE_STEP 300
#define WIDX(l) (2 * VAR(l) + ((l) < 0))
#define IS_TRUE(s, l) ((s)->assigned[VAR(l)] == ((l) > 0))
#define IS_FALSE(s, l) ((s)->assigned[VAR(l)] == ((l) < 0))

typedef struct { const int32_t *ptr, *row, *coef; } Occ;

typedef struct {
    int32_t nvars, nrows;
    const int32_t *row_ptr, *row_coef, *row_lit, *bounds;
    Occ occ[2];  /* occ[1]: rows holding +v, occ[0]: rows holding -v */
    int32_t *maxposs, *satsum;
    int8_t *assigned;
    uint8_t *queued, *phase, *seen, *mark;
    int32_t *queue, queue_len, confl;
    int32_t *trail, trail_len, qhead, *trail_lim, nlevels;
    int32_t *level, *tpos, *reason, *learnt, nlearnt, *expl;
    double *act, inc;
    /* the decision heap: every unassigned variable and some assigned ones
       not yet popped, heap[0] first; hpos[v] is v's slot, -1 outside */
    int32_t *heap, *hpos, nheap;
    /* clause c is clits[cstart[c]:cstart[c + 1]], the original clauses
       first; watch slot 2c + j watches its literal j, linked from
       whead[WIDX] via wnext */
    int32_t *clits, *cstart, *clbd, *wnext, *whead, nclauses;
    int64_t nlits, lcap, ccap, since_restart, restarts, reductions, next_reduce;
    int64_t decisions, propagations, conflicts;
} Ctx;

static int grow(int32_t **a, int64_t n) {
    int32_t *p = (int32_t *)realloc(*a, sizeof(int32_t) * n);
    if (p) *a = p;
    return p != 0;
}

static void assign(Ctx *s, int32_t var, int32_t value, int32_t reason) {
    s->assigned[var] = (int8_t)value;
    s->level[var] = s->nlevels;
    s->tpos[var] = s->trail_len;
    s->reason[var] = reason;
    s->trail[s->trail_len++] = var;
    const Occ *g = &s->occ[value], *l = &s->occ[1 - value];
    for (int32_t i = g->ptr[var]; i < g->ptr[var + 1]; i++) s->satsum[g->row[i]] += g->coef[i];
    for (int32_t i = l->ptr[var]; i < l->ptr[var + 1]; i++) {
        int32_t r = l->row[i];
        if ((s->maxposs[r] -= l->coef[i]) < s->bounds[r]) s->confl = r;
        else if (s->satsum[r] < s->bounds[r] && !s->queued[r]) {
            s->queued[r] = 1;
            s->queue[s->queue_len++] = r;
        }
    }
}

/* VSIDS order: the higher activity first, ties to the lower index. */
static int before(const Ctx *s, int32_t a, int32_t b) {
    return s->act[a] > s->act[b] || (s->act[a] == s->act[b] && a < b);
}

static void sift_up(Ctx *s, int32_t i) {
    int32_t v = s->heap[i];
    for (; i > 0 && before(s, v, s->heap[(i - 1) / 2]); i = (i - 1) / 2)
        s->hpos[s->heap[i] = s->heap[(i - 1) / 2]] = i;
    s->hpos[s->heap[i] = v] = i;
}

static void sift_down(Ctx *s, int32_t i) {
    int32_t v = s->heap[i];
    for (int32_t c; (c = 2 * i + 1) < s->nheap; i = c) {
        if (c + 1 < s->nheap && before(s, s->heap[c + 1], s->heap[c])) c++;
        if (!before(s, s->heap[c], v)) break;
        s->hpos[s->heap[i] = s->heap[c]] = i;
    }
    s->hpos[s->heap[i] = v] = i;
}

static void backjump(Ctx *s, int32_t lvl) {
    if (s->nlevels > lvl) {
        int32_t height = s->trail_lim[lvl];
        s->nlevels = lvl;
        while (s->trail_len > height) {
            int32_t var = s->trail[--s->trail_len], value = s->assigned[var];
            const Occ *g = &s->occ[value], *l = &s->occ[1 - value];
            for (int32_t i = g->ptr[var]; i < g->ptr[var + 1]; i++) s->satsum[g->row[i]] -= g->coef[i];
            for (int32_t i = l->ptr[var]; i < l->ptr[var + 1]; i++) s->maxposs[l->row[i]] += l->coef[i];
            s->assigned[var] = UNASSIGNED;
            s->phase[var] = (uint8_t)value;
            if (s->hpos[var] < 0) {
                s->heap[s->nheap] = var;
                sift_up(s, s->nheap++);
            }
        }
    }
    s->qhead = s->trail_len;
    s->confl = -1;
}

static void add_watch(Ctx *s, int32_t slot) {
    int32_t w = WIDX(s->clits[s->cstart[slot >> 1] + (slot & 1)]);
    s->wnext[slot] = s->whead[w];
    s->whead[w] = slot;
}

/* Visit the learned clauses watching lit, which has just become false. */
static void watch(Ctx *s, int32_t lit) {
    int32_t *link = &s->whead[WIDX(lit)];
    while (*link >= 0) {
        int32_t slot = *link, c = slot >> 1, j = slot & 1, k = 2;
        int32_t *cl = s->clits + s->cstart[c], n = s->cstart[c + 1] - s->cstart[c];
        int32_t other = cl[1 - j];
        if (IS_TRUE(s, other)) { link = &s->wnext[slot]; continue; }
        while (k < n && IS_FALSE(s, cl[k])) k++;
        if (k < n) {  /* watch this non-false literal instead */
            cl[j] = cl[k];
            cl[k] = lit;
            *link = s->wnext[slot];
            add_watch(s, slot);
            continue;
        }
        if (IS_FALSE(s, other)) { s->confl = s->nrows + c; return; }
        s->propagations++;
        assign(s, VAR(other), other > 0, s->nrows + c);
        if (s->confl >= 0) return;
        link = &s->wnext[slot];
    }
}

/* The clauses to a fixpoint first, then one queued counter row at a time. */
static int32_t propagate(Ctx *s) {
    while (s->confl < 0) {
        if (s->qhead < s->trail_len) {
            int32_t var = s->trail[s->qhead++];
            watch(s, s->assigned[var] ? -var : var);
        } else if (s->queue_len > 0) {
            int32_t r = s->queue[--s->queue_len], bound = s->bounds[r];
            s->queued[r] = 0;
            if (s->satsum[r] >= bound) continue;
            int32_t slack = s->maxposs[r] - bound;
            for (int32_t i = s->row_ptr[r]; i < s->row_ptr[r + 1] && s->row_coef[i] > slack; i++) {
                int32_t lit = s->row_lit[i];
                if (s->assigned[VAR(lit)] != UNASSIGNED) continue;
                s->propagations++;
                assign(s, VAR(lit), lit > 0, r);
                if (s->confl >= 0 || s->satsum[r] >= bound) break;
            }
        } else return -1;
    }
    while (s->queue_len > 0) s->queued[s->queue[--s->queue_len]] = 0;
    return s->confl;
}

/* False literals by which row or clause r implied p (0: the conflict). */
static int32_t explain(Ctx *s, int32_t r, int32_t p) {
    int32_t n = 0;
    if (r < s->nrows) {
        int32_t limit = p ? s->tpos[VAR(p)] : s->trail_len;
        for (int32_t i = s->row_ptr[r]; i < s->row_ptr[r + 1]; i++) {
            int32_t lit = s->row_lit[i];
            if (IS_FALSE(s, lit) && s->tpos[VAR(lit)] < limit) s->expl[n++] = lit;
        }
    } else {
        for (int32_t i = s->cstart[r - s->nrows]; i < s->cstart[r - s->nrows + 1]; i++)
            if (s->clits[i] != p) s->expl[n++] = s->clits[i];
    }
    return n;
}

/* First-UIP clause of the conflict into learnt, minimized, the UIP
   first and a literal of the highest level below second; returns that
   level, the one to backjump to. */
static int32_t analyze(Ctx *s, int32_t confl) {
    int32_t pathc = 0, p = 0, idx = s->trail_len - 1, j = 1, back = 0, best = 1;
    s->nlearnt = 1;
    do {
        for (int32_t i = 0, n = explain(s, confl, p); i < n; i++) {
            int32_t v = VAR(s->expl[i]);
            if (s->seen[v] || s->level[v] == 0) continue;
            s->seen[v] = 1;
            if ((s->act[v] += s->inc) > RESCALE) {  /* rescaling may tie: rebuild the heap */
                for (int32_t u = 1; u <= s->nvars; u++) s->act[u] *= 1e-100;
                s->inc *= 1e-100;
                for (int32_t i = s->nheap / 2 - 1; i >= 0; i--) sift_down(s, i);
            } else if (s->hpos[v] >= 0) sift_up(s, s->hpos[v]);
            if (s->level[v] >= s->nlevels) pathc++;
            else s->learnt[s->nlearnt++] = s->expl[i];
        }
        while (!s->seen[s->trail[idx]]) idx--;
        int32_t v = s->trail[idx--];
        s->seen[v] = 0;
        p = s->assigned[v] ? v : -v;
        confl = s->reason[v];
    } while (--pathc > 0);
    s->learnt[0] = -p;
    /* Drop a literal whose reason's antecedents are all in the clause or
       at level 0; dropped ones move behind the kept. */
    for (int32_t i = 1; i < s->nlearnt; i++) {
        int32_t lit = s->learnt[i], r = s->reason[VAR(lit)], keep = r < 0;
        for (int32_t k = 0, n = keep ? 0 : explain(s, r, -lit); k < n && !keep; k++)
            keep = !s->seen[VAR(s->expl[k])] && s->level[VAR(s->expl[k])] > 0;
        if (keep) { s->learnt[i] = s->learnt[j]; s->learnt[j++] = lit; }
    }
    for (int32_t i = 1; i < s->nlearnt; i++) s->seen[VAR(s->learnt[i])] = 0;
    s->nlearnt = j;
    for (int32_t i = 1; i < j; i++)
        if (s->level[VAR(s->learnt[i])] > back) { back = s->level[VAR(s->learnt[i])]; best = i; }
    if (j > 1) { p = s->learnt[best]; s->learnt[best] = s->learnt[1]; s->learnt[1] = p; }
    return back;
}

static int learn(Ctx *s) {
    int32_t c = s->nclauses, lbd = 0;
    if (s->nlits + s->nlearnt > s->lcap) {
        s->lcap = 2 * (s->nlits + s->nlearnt);
        if (!grow(&s->clits, s->lcap)) return 0;
    }
    if (c + 1 >= s->ccap) {
        s->ccap = 2 * s->ccap + 64;
        if (!grow(&s->cstart, s->ccap + 1) || !grow(&s->clbd, s->ccap) || !grow(&s->wnext, 2 * s->ccap))
            return 0;
    }
    for (int32_t i = 0; i < s->nlearnt; i++) {
        int32_t l = s->level[VAR(s->learnt[i])];
        lbd += !s->mark[l];
        s->mark[l] = 1;
        s->clits[s->nlits++] = s->learnt[i];
    }
    for (int32_t i = 0; i < s->nlearnt; i++) s->mark[s->level[VAR(s->learnt[i])]] = 0;
    s->clbd[c] = lbd;
    s->cstart[++s->nclauses] = (int32_t)s->nlits;
    add_watch(s, 2 * c);
    add_watch(s, 2 * c + 1);
    return 1;
}

/* Delete the higher-LBD half of the clauses of LBD > 2 that are no
   reason, oldest first among equals; compact and rebuild the watches. */
static int reduce(Ctx *s) {
    int32_t n = s->nclauses, m = 0, kept = 0, at = 0;
    int64_t *key = (int64_t *)malloc(sizeof(int64_t) * (n + 1));
    int32_t *map = (int32_t *)calloc(n + 1, sizeof(int32_t));
    if (!key || !map) { free(key); free(map); return 0; }
    for (int32_t i = 0; i < s->trail_len; i++)
        if (s->reason[s->trail[i]] >= s->nrows) map[s->reason[s->trail[i]] - s->nrows] = 1;
    for (int32_t c = 0; c < n; c++)
        if (s->clbd[c] > 2 && !map[c]) key[m++] = ((int64_t)(INT32_MAX - s->clbd[c]) << 32) | c;
    qsort(key, m, sizeof *key, by_key);
    memset(map, 0, sizeof(int32_t) * (n + 1));
    for (int32_t i = 0; i < m / 2; i++) map[key[i] & 0xffffffff] = -1;
    for (int32_t c = 0; c < n; c++) {
        if (map[c] < 0) continue;
        int32_t lo = s->cstart[c], hi = s->cstart[c + 1];
        s->cstart[kept] = at;
        memmove(s->clits + at, s->clits + lo, sizeof(int32_t) * (hi - lo));
        at += hi - lo;
        s->clbd[kept] = s->clbd[c];
        map[c] = kept++;
    }
    s->cstart[kept] = at;
    s->nclauses = kept;
    s->nlits = at;
    for (int32_t i = 0; i < s->trail_len; i++) {
        int32_t v = s->trail[i];
        if (s->reason[v] >= s->nrows) s->reason[v] = s->nrows + map[s->reason[v] - s->nrows];
    }
    for (int32_t w = 0; w < 2 * s->nvars + 2; w++) s->whead[w] = -1;
    for (int32_t slot = 0; slot < 2 * kept; slot++) add_watch(s, slot);
    free(key);
    free(map);
    return 1;
}

static int64_t luby(int64_t i) {
    int64_t size = 1, seq = 0;
    while (size < i + 1) { seq++; size = 2 * size + 1; }
    while (size - 1 != i) { size = (size - 1) >> 1; seq--; i %= size; }
    return (int64_t)1 << seq;
}

void mcm_free(Ctx *s) {
    if (!s) return;
    free(s->queued); free(s->phase); free(s->seen); free(s->mark); free(s->queue);
    free(s->trail); free(s->trail_lim); free(s->level); free(s->tpos); free(s->reason);
    free(s->learnt); free(s->expl); free(s->act); free(s->heap); free(s->hpos);
    free(s->clits); free(s->cstart); free(s->clbd); free(s->wnext); free(s->whead);
    free(s);
}

void mcm_stats(Ctx *s, int64_t *out) {
    out[0] = s->decisions; out[1] = s->propagations; out[2] = s->conflicts;
}

/* Returns 0 budget spent, 1 SAT, 2 UNSAT, 3 out of memory.  Each step
   handles one conflict or makes one decision. */
int mcm_run(Ctx *s, int64_t budget) {
    while (budget-- > 0) {
        if (propagate(s) >= 0) {
            int32_t reason = -1;
            s->conflicts++;
            if (s->nlevels == 0) return 2;
            backjump(s, analyze(s, s->confl));
            if (s->nlearnt > 1) {
                if (!learn(s)) return 3;
                reason = s->nrows + s->nclauses - 1;
            }
            assign(s, VAR(s->learnt[0]), s->learnt[0] > 0, reason);
            s->inc /= DECAY;
            s->since_restart++;
            continue;
        }
        if (s->since_restart >= RESTART_UNIT * luby(s->restarts)) {
            s->restarts++;
            s->since_restart = 0;
            backjump(s, 0);
        }
        if (s->conflicts >= s->next_reduce) {
            if (!reduce(s)) return 3;
            s->next_reduce = s->conflicts + REDUCE_FIRST + REDUCE_STEP * ++s->reductions;
        }
        /* VSIDS: the first unassigned variable off the heap */
        int32_t var = 0;
        while (!var && s->nheap > 0) {
            int32_t v = s->heap[0];
            s->hpos[v] = -1;
            if (--s->nheap > 0) {
                s->heap[0] = s->heap[s->nheap];
                sift_down(s, 0);
            }
            if (s->assigned[v] == UNASSIGNED) var = v;
        }
        if (!var) return 1;
        s->decisions++;
        s->trail_lim[s->nlevels++] = s->trail_len;
        assign(s, var, s->phase[var], -1);
    }
    return 0;
}

Ctx *mcm_new(int32_t nvars, int32_t nrows, int32_t nclauses, const Store *st,
             const uint8_t *phases, int32_t *maxposs, int32_t *satsum, int8_t *assigned) {
    Ctx *s = (Ctx *)calloc(1, sizeof(Ctx));
    if (!s) return 0;
    int64_t nv = nvars + 2;
    s->nvars = nvars; s->nrows = nrows;
    s->nclauses = nclauses; s->nlits = st->clause_ptr[nclauses];
    s->lcap = s->nlits + 1024; s->ccap = nclauses + 64;
    s->row_ptr = st->row_ptr; s->row_coef = st->row_coef; s->row_lit = st->row_lit;
    s->bounds = st->bounds;
    s->occ[1] = (Occ){st->pos_ptr, st->pos_row, st->pos_coef};
    s->occ[0] = (Occ){st->neg_ptr, st->neg_row, st->neg_coef};
    s->maxposs = maxposs; s->satsum = satsum; s->assigned = assigned;
    s->queued = (uint8_t *)malloc(nrows + 1);
    s->phase = (uint8_t *)malloc(nv);
    s->seen = (uint8_t *)calloc(nv, 1);
    s->mark = (uint8_t *)calloc(nv, 1);
    s->act = (double *)calloc(nv, sizeof(double));
    int32_t **ints[] = {&s->trail, &s->trail_lim, &s->level, &s->tpos, &s->reason,
                        &s->learnt, &s->expl, &s->heap, &s->hpos};
    int ok = s->queued && s->phase && s->seen && s->mark && s->act;
    for (int i = 0; i < 9; i++) ok = grow(ints[i], nv) && ok;
    ok = grow(&s->queue, nrows + 1) && grow(&s->whead, 2 * nv) && grow(&s->clits, s->lcap)
         && grow(&s->cstart, s->ccap + 1) && grow(&s->clbd, s->ccap)
         && grow(&s->wnext, 2 * s->ccap) && ok;
    if (!ok) { mcm_free(s); return 0; }
    memcpy(s->phase, phases, nvars + 1);
    /* every variable, of activity 0: in index order, already a heap */
    for (int32_t v = 1; v <= nvars; v++) s->hpos[s->heap[v - 1] = v] = v - 1;
    s->nheap = nvars;
    for (int32_t w = 0; w < 2 * nv; w++) s->whead[w] = -1;
    /* the original clauses, copied: permanent (LBD 0) and watched */
    if (s->nlits) memcpy(s->clits, st->clause_lit, sizeof(int32_t) * s->nlits);
    memcpy(s->cstart, st->clause_ptr, sizeof(int32_t) * (nclauses + 1));
    memset(s->clbd, 0, sizeof(int32_t) * nclauses);
    for (int32_t slot = 0; slot < 2 * nclauses; slot++) add_watch(s, slot);
    s->inc = 1.0;
    s->next_reduce = REDUCE_FIRST;
    s->confl = -1;
    /* root propagation seeds, popped highest row first like the Python path */
    for (int32_t r = 0; r < nrows; r++) {
        s->queued[r] = 1;
        s->queue[s->queue_len++] = r;
    }
    return s;
}

/* mcmsat's compiled core, loaded by native.py through ctypes.  Its search
   is a line-for-line port of RefSolver._solve_python and its helpers:
   the same conflict-driven search, with clauses watched by two literals
   and counters kept for the other rows, the same decision order,
   restarts and clause deletion, so verdicts, models and counters are
   identical to the Python path (cross-checked in the test suite).  It
   also builds RefSolver's int32 row store (mcm_build, the port of
   RefSolver._build) from the PbFormula arena, into arrays that Python
   allocates at the lengths of a counting pass; one struct, Store, names
   them on both sides.  Its search reads the counter rows in place and
   copies the clauses, in time slices of about native.SLICE seconds,
   asking the caller's stop predicate in between.  It writes and reads
   OPB text for PbFormula.emit_opb and parse_opb (mcm_emit, mcm_parse):
   the writer sizes a new str by the digit counts of the rows' numbers,
   then writes the Python writer's bytes into it in one pass, and the
   reader reads the str's own buffer in one pass, with no call per
   token, but takes only a strict subset of what the Python reader
   takes.  mcm_check_block checks a block that PbFormula.add_rows has
   just appended, and mcm_check_model finds the first row a SAT model
   violates for solve._check_model, summing in 128 bits over the arena.
   The Python code stays the reference and the fallback of each, and
   words every error. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define UNASSIGNED (-1)
#define DECAY 0.95
#define RESCALE 1e100
#define RESTART_UNIT 100
#define REDUCE_FIRST 2000
#define REDUCE_STEP 300
#define VAR(l) ((l) > 0 ? (l) : -(l))
#define WIDX(l) (2 * VAR(l) + ((l) < 0))
#define IS_TRUE(s, l) ((s)->assigned[VAR(l)] == ((l) > 0))
#define IS_FALSE(s, l) ((s)->assigned[VAR(l)] == ((l) < 0))

typedef struct { const int32_t *ptr, *row, *coef; } Occ;

/* RefSolver's row store, after MiniSat+: the counter rows (row_ptr,
   row_coef, row_lit, bounds, maxposs), the occurrences of +v and -v in
   them (pos_* and neg_*, by variable) and the clauses (clause_*). */
typedef struct {
    int32_t *row_ptr, *row_coef, *row_lit, *bounds, *maxposs;
    int32_t *pos_ptr, *pos_row, *pos_coef, *neg_ptr, *neg_row, *neg_coef;
    int32_t *clause_ptr, *clause_lit;
} Store;

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

static int by_key(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
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

/* mcm_check_block, run on each block that PbFormula.add_rows appends:
   the first of m rows, row r being terms start[r] to start[r + 1] - 1
   of coefs and vars, with a zero coefficient, a variable outside
   1..nvars or a variable twice; m when there is none.  Repeats are
   found pairwise, so Python checks a block with a row of more than
   PAIRWISE_MAX terms itself. */
int64_t mcm_check_block(int64_t m, const int64_t *coefs, const int32_t *vars, const int64_t *start,
                        int64_t nvars) {
    for (int64_t r = 0; r < m; r++)
        for (int64_t p = start[r]; p < start[r + 1]; p++) {
            if (!coefs[p] || vars[p] < 1 || vars[p] > nvars) return r;
            for (int64_t q = start[r]; q < p; q++) if (vars[q] == vars[p]) return r;
        }
    return m;
}

/* Everything below runs once per formula or once per search, not once
   per step of a search, and is compiled unoptimized.  The core is
   compiled on its first use in a fresh cache; -O1 here would lengthen
   that compile by about two fifths, to take about a third off these
   functions' time on the widest formulas. */
#pragma GCC optimize ("O0")

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

/* RefSolver._build on the arena of n rows.  A kept row of bound 1 and
   two or more literals is a clause; the others are counter rows.
   Counting pass (st == 0): sizes = the length of each Store array, in
   field order, then the longest row and the root conflict.  Filling
   pass: st's arrays at those lengths, pos_ptr and neg_ptr zeroed.
   Returns 1 when a kept counter row sums beyond int32, -1 out of
   memory, else 0. */
int mcm_build(int64_t n, const int64_t *coefs, const int32_t *vars, const int64_t *ptr,
              const int64_t *rhs, const uint8_t *rel, int32_t nvars, int64_t *sizes, Store *st) {
    int64_t *key = st ? (int64_t *)malloc(sizeof(int64_t) * (sizes[13] + 1)) : 0;
    int32_t nr = 0, at = 0, nc = 0, cat = 0, npos = 0, longest = 0, conflict = 0;
    if (st && !key) return -1;
    for (int64_t i = 0; i < n; i++) {
        __int128 total = 0, net = 0;
        int32_t len = (int32_t)(ptr[i + 1] - ptr[i]);
        const int64_t *c = coefs + ptr[i];
        for (int32_t k = 0; k < len; k++) { total += c[k] < 0 ? -(__int128)c[k] : c[k]; net += c[k]; }
        for (int half = 0; half <= rel[i]; half++) {  /* half 1: the <= half, negated */
            __int128 bound = half ? (total + net) / 2 - rhs[i] : rhs[i] + (total - net) / 2;
            if (total < bound) conflict = 1;
            if (total < bound || bound <= 0) continue;
            int clause = bound == 1 && len > 1;
            if (!clause && total > INT32_MAX) { free(key); return 1; }
            for (int32_t k = 0; k < len; k++) {
                int32_t lit = (c[k] > 0) != half ? vars[ptr[i] + k] : -vars[ptr[i] + k];
                /* -|c|, which cannot overflow, clamped at -INT32_MAX: a
                   clause's coefficients only order its literals */
                int64_t neg = c[k] < 0 ? c[k] : -c[k];
                npos += !clause && lit > 0;
                if (st) key[k] = ((int64_t)(INT32_MAX + (neg < -INT32_MAX ? -INT32_MAX : neg)) << 32)
                                 | ((uint32_t)lit ^ 0x80000000u);
            }
            if (st) {  /* coefficient descending, then literal */
                int32_t *lits = clause ? st->clause_lit + cat : st->row_lit + at;
                if (len > 16) qsort(key, len, sizeof *key, by_key);
                else for (int32_t k = 1; k < len; k++) {  /* keys are distinct: a row repeats no variable */
                    int64_t x = key[k];
                    int32_t j = k;
                    for (; j > 0 && key[j - 1] > x; j--) key[j] = key[j - 1];
                    key[j] = x;
                }
                for (int32_t k = 0; k < len; k++) {
                    lits[k] = (int32_t)((uint32_t)key[k] ^ 0x80000000u);
                    if (!clause) st->row_coef[at + k] = INT32_MAX - (int32_t)(key[k] >> 32);
                }
                if (clause) st->clause_ptr[nc + 1] = cat + len;
                else {
                    st->row_ptr[nr + 1] = at + len;
                    st->bounds[nr] = (int32_t)bound;
                    st->maxposs[nr] = (int32_t)total;
                }
            } else if (len > longest) longest = len;
            if (clause) { nc++; cat += len; }
            else { nr++; at += len; }
        }
    }
    if (!st) {
        int64_t lengths[15] = {nr + 1, at, at, nr, nr, nvars + 2, npos, npos,
                               nvars + 2, at - npos, at - npos, nc + 1, cat, longest, conflict};
        memcpy(sizes, lengths, sizeof lengths);
        return 0;
    }
    free(key);
    /* Counting sort, rows ascending within a literal: each count becomes
       its end, and rows last to first take the slot before it. */
    for (int32_t k = 0; k < at; k++) (st->row_lit[k] > 0 ? st->pos_ptr : st->neg_ptr)[VAR(st->row_lit[k])]++;
    for (int32_t v = 1; v <= nvars + 1; v++) { st->pos_ptr[v] += st->pos_ptr[v - 1]; st->neg_ptr[v] += st->neg_ptr[v - 1]; }
    for (int32_t r = nr - 1; r >= 0; r--)
        for (int32_t k = st->row_ptr[r]; k < st->row_ptr[r + 1]; k++) {
            int32_t lit = st->row_lit[k], pos = lit > 0;
            int32_t slot = --(pos ? st->pos_ptr : st->neg_ptr)[VAR(lit)];
            (pos ? st->pos_row : st->neg_row)[slot] = r;
            (pos ? st->pos_coef : st->neg_coef)[slot] = st->row_coef[k];
        }
    return 0;
}

/* mcm_check_model: the first of the n rows that the values (0 false,
   else true) violate, each summed in 128 bits; n when there is none. */
int64_t mcm_check_model(int64_t n, const int64_t *coefs, const int32_t *vars, const int64_t *ptr,
                        const int64_t *rhs, const uint8_t *rel, const int8_t *values) {
    for (int64_t i = 0; i < n; i++) {
        __int128 lhs = 0;
        for (int64_t k = ptr[i]; k < ptr[i + 1]; k++) if (values[vars[k]]) lhs += coefs[k];
        if (lhs < rhs[i] || (rel[i] && lhs != rhs[i])) return i;
    }
    return n;
}

/* OPB text: mcm_emit writes it as PbFormula.emit_opb's Python writer
   does, and mcm_parse reads a strict subset of what parse_opb's Python
   reader reads.  MAG is |x| as unsigned, INT64_MIN included. */
#define MAG(x) ((x) < 0 ? 0 - (uint64_t)(x) : (uint64_t)(x))

/* The number of decimal digits of m. */
static int ndigits(uint64_t m) {
    int n = 1;
    for (uint64_t p = 10; n < 20 && m >= p; p *= 10) n++;
    return n;
}

/* m in decimal at o, in uint32 division once it fits; the end. */
static char *put_dec(char *o, uint64_t m) {
    char digit[20], *d = digit;
    for (; m > UINT32_MAX; m /= 10) *d++ = (char)('0' + m % 10);
    uint32_t u = (uint32_t)m;
    do *d++ = (char)('0' + u % 10); while (u /= 10);
    while (d > digit) *o++ = *--d;
    return o;
}

/* Rows lo to hi - 1 of the arena, each line ended by a newline; the
   number of bytes.  With out == 0 it only counts them, from the digits
   of each number: "+c xv " is 4 bytes and the digits of |c| and v, and
   ">= b ;\n" or "= b ;\n" is 6 or 5, a '-' for b < 0 and b's digits. */
int64_t mcm_emit(int64_t lo, int64_t hi, const int64_t *coefs, const int32_t *vars,
                 const int64_t *ptr, const int64_t *rhs, const uint8_t *rel, char *out) {
    if (!out) {
        int64_t n = 0;
        for (int64_t i = lo; i < hi; i++) {
            for (int64_t k = ptr[i]; k < ptr[i + 1]; k++)
                n += 4 + ndigits(MAG(coefs[k])) + ndigits((uint32_t)vars[k]);
            n += (rel[i] ? 5 : 6) + (rhs[i] < 0) + ndigits(MAG(rhs[i]));
        }
        return n;
    }
    char *o = out;
    for (int64_t i = lo; i < hi; i++) {
        for (int64_t k = ptr[i]; k < ptr[i + 1]; k++) {
            *o++ = coefs[k] < 0 ? '-' : '+';
            o = put_dec(o, MAG(coefs[k]));
            *o++ = ' ';
            *o++ = 'x';
            o = put_dec(o, (uint32_t)vars[k]);
            *o++ = ' ';
        }
        if (!rel[i]) *o++ = '>';
        *o++ = '=';
        *o++ = ' ';
        if (rhs[i] < 0) *o++ = '-';
        o = put_dec(o, MAG(rhs[i]));
        *o++ = ' ';
        *o++ = ';';
        *o++ = '\n';
    }
    return o - out;
}

/* The reader's tokens, at the local text pointer p before end: spaces
   and tabs; one or more decimal digits, their value m at most 10 * top
   + last, or else a refusal: the caller returns 1. */
#define SKIP_BLANKS() while (p < end && (*p == ' ' || *p == '\t')) p++
#define READ_DIGITS(m, top, last)                                      \
    do {                                                               \
        const char *first_ = p;                                        \
        for (m = 0; p < end && *p >= '0' && *p <= '9'; p++) {          \
            uint64_t d_ = (uint64_t)(*p - '0');                        \
            if (m > (top) || (m == (top) && d_ > (last))) return 1;    \
            m = 10 * m + d_;                                           \
        }                                                              \
        if (p == first_) return 1;                                     \
    } while (0)

/* The lines after the header: rows, comment lines and blank lines, into
   the arena's arrays, of room for sizes[1] rows and sizes[2] terms.
   stamp[v] is 1 + the last row that holds v, for v below cap; the stamp
   grows with the largest variable read, and *held keeps it for the
   caller to free.  A row is terms "[+-]coef xvar", each followed by a
   blank, then ">=" or "=", a bound and ";": the coefficients and the
   bound are read by one signed reader, in one loop over the row's
   numbers. */
static int read_rows(const char *p, const char *end, uint64_t nvars, int64_t **held, int64_t *sizes,
                     int64_t *coefs, int32_t *vars, int64_t *row_ptr, int64_t *bounds, uint8_t *rel) {
    int64_t row = 0, at = 0, *stamp = 0;
    uint64_t cap = 0, var_top = nvars / 10, var_last = nvars % 10;
    while (p < end) {  /* p at a newline: read the line after it */
        p++;
        SKIP_BLANKS();
        if (p < end && *p == '*') {
            for (; p < end && *p != '\n'; p++)
                if ((unsigned char)*p >= 127 || (*p < ' ' && *p != '\t')) return 1;
            continue;
        }
        if (p == end || *p == '\n') continue;
        int eq = -1;  /* the relation: -1 until it is read */
        int64_t value;
        for (;;) {
            if (p < end && (*p == '>' || *p == '=')) {
                eq = *p == '=';
                if (!eq && (++p == end || *p != '=')) return 1;
                p++;
                SKIP_BLANKS();
            }
            /* an optional sign, then digits, of a value within int64 */
            int neg = p < end && *p == '-';
            uint64_t m, var;
            if (p < end && (*p == '-' || *p == '+')) p++;
            READ_DIGITS(m, (uint64_t)INT64_MAX / 10, (uint64_t)INT64_MAX % 10 + neg);
            value = neg ? (int64_t)(0 - m) : (int64_t)m;
            if (eq >= 0) break;
            if (!value) return 1;
            SKIP_BLANKS();
            if (p == end || *p++ != 'x') return 1;
            READ_DIGITS(var, var_top, var_last);
            if (var >= cap && var) {
                /* A zeroed stamp of twice the entries, or var + 1, up to
                   nvars + 1; only this row's stamps are read again. */
                cap = 2 * cap > var ? 2 * cap : var + 1;
                if (cap > nvars + 1) cap = nvars + 1;
                free(*held);
                if (!(stamp = *held = (int64_t *)calloc(cap, sizeof(int64_t)))) return -1;
                for (int64_t k = row_ptr[row]; k < at; k++) stamp[vars[k]] = row + 1;
            }
            if (!var || stamp[var] == row + 1 || p == end || (*p != ' ' && *p != '\t')
                || at == sizes[2]) return 1;
            SKIP_BLANKS();
            stamp[var] = row + 1;
            coefs[at] = value;
            vars[at++] = (int32_t)var;
        }
        SKIP_BLANKS();
        if (p == end || *p++ != ';') return 1;
        SKIP_BLANKS();
        if ((p < end && *p != '\n') || row == sizes[1]) return 1;
        row_ptr[row + 1] = at;
        bounds[row] = value;
        rel[row++] = (uint8_t)eq;
    }
    sizes[1] = row;
    sizes[2] = at;
    return 0;
}

/* parse_opb on a text of len bytes, in one pass, or a refusal (nonzero)
   of any text outside a strict subset of what the Python reader takes:
   printable ASCII, tabs and "\n" line ends; spaces or tabs between
   tokens; no "<=", no value beyond int64, no zero coefficient, no
   repeated or out-of-range variable, and as many rows as the header
   declares.  The arena's arrays have room for sizes[1] rows and
   sizes[2] terms; a text that holds more is refused.  Then sizes =
   variables, rows, terms read.  Returns 0 read, 1 refused, -1 out of
   memory. */
int mcm_parse(const char *p, int64_t len, int64_t *sizes, int64_t *coefs, int32_t *vars,
              int64_t *row_ptr, int64_t *bounds, uint8_t *rel) {
    const char *end = p + len;
    uint64_t header[2];  /* the variables, then the rows declared */
    if (p == end || *p++ != '*') return 1;
    for (int f = 0; f < 2; f++) {
        uint64_t limit = f ? INT64_MAX : INT32_MAX;
        SKIP_BLANKS();
        for (const char *s = f ? "#constraint=" : "#variable="; *s; s++)
            if (p == end || *p++ != *s) return 1;
        SKIP_BLANKS();
        READ_DIGITS(header[f], limit / 10, limit % 10);
    }
    SKIP_BLANKS();
    if (p < end && *p != '\n') return 1;
    uint64_t nvars = header[0], declared = header[1];
    int64_t *stamp = 0;
    int rc = read_rows(p, end, nvars, &stamp, sizes, coefs, vars, row_ptr, bounds, rel);
    free(stamp);
    sizes[0] = (int64_t)nvars;
    return rc ? rc : (uint64_t)sizes[1] != declared;
}

"""Optional compiled core for the reference solver.

The C source below is a line-for-line port of RefSolver._solve_python
and its helpers: same decision order, same island reductions, so
verdicts and models are identical to the Python path (cross-checked in
the test suite).  It reads RefSolver's int32 row store in place, through
the addresses of its arrays, and searches in time slices of about
SLICE seconds, asking the caller's stop predicate in between.  It is compiled
on first use with whatever C compiler is around and cached under
`$XDG_CACHE_HOME/mcmsat` (by default `~/.cache/mcmsat`); when that
fails the Python implementation simply runs instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
import time
from array import array
from pathlib import Path

from .pb import SAT, UNKNOWN, UNSAT, Model
from .refsolver import UNASSIGNED

log = logging.getLogger(__name__)

RUNNING, C_SAT, C_UNSAT = 0, 1, 2
SLICE = 0.05  # seconds per mcm_run call: the stop predicate is asked in between

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define FORCED 0
#define OPEN 1
#define UNASSIGNED (-1)
#define ISLAND_LIMIT 96
#define ISLAND_ROW_GATE 64

typedef struct {
    int32_t nvars, nrows;
    const int32_t *row_ptr, *row_coef, *row_lit, *bounds;
    const int32_t *pos_ptr, *pos_row, *pos_coef;
    const int32_t *neg_ptr, *neg_row, *neg_coef;
    const uint8_t *phases;
    int32_t *maxposs, *satsum;
    uint8_t *queued;
    int8_t *assigned;
    int32_t *trail; uint8_t *kinds; int32_t trail_len;
    int32_t *queue; int32_t queue_len;
    int32_t head;
    uint8_t island_active; int32_t island_height;
    int32_t *island_vars; int32_t island_size;
    uint8_t *in_island;
    int32_t *stack;
    int64_t decisions, propagations, conflicts, islands;
} Ctx;

static int32_t assign(Ctx *s, int32_t var, int32_t value, uint8_t kind) {
    s->assigned[var] = (int8_t)value;
    s->trail[s->trail_len] = var;
    s->kinds[s->trail_len] = kind;
    s->trail_len++;
    const int32_t *gr, *gc, *lr, *lc;
    int32_t gn, ln;
    if (value == 1) {
        gr = s->pos_row + s->pos_ptr[var]; gc = s->pos_coef + s->pos_ptr[var];
        gn = s->pos_ptr[var + 1] - s->pos_ptr[var];
        lr = s->neg_row + s->neg_ptr[var]; lc = s->neg_coef + s->neg_ptr[var];
        ln = s->neg_ptr[var + 1] - s->neg_ptr[var];
    } else {
        gr = s->neg_row + s->neg_ptr[var]; gc = s->neg_coef + s->neg_ptr[var];
        gn = s->neg_ptr[var + 1] - s->neg_ptr[var];
        lr = s->pos_row + s->pos_ptr[var]; lc = s->pos_coef + s->pos_ptr[var];
        ln = s->pos_ptr[var + 1] - s->pos_ptr[var];
    }
    for (int32_t i = 0; i < gn; i++) s->satsum[gr[i]] += gc[i];
    int32_t conflict = -1;
    for (int32_t i = 0; i < ln; i++) {
        int32_t r = lr[i];
        int32_t mp = (s->maxposs[r] -= lc[i]);
        if (mp < s->bounds[r]) conflict = r;
        else if (s->satsum[r] < s->bounds[r] && !s->queued[r]) {
            s->queued[r] = 1;
            s->queue[s->queue_len++] = r;
        }
    }
    return conflict;
}

static int32_t unassign_to(Ctx *s, int32_t height) {
    int32_t lowest = s->nvars + 1;
    while (s->trail_len > height) {
        s->trail_len--;
        int32_t var = s->trail[s->trail_len];
        int32_t value = s->assigned[var];
        s->assigned[var] = UNASSIGNED;
        if (var < lowest) lowest = var;
        const int32_t *gr, *gc, *lr, *lc;
        int32_t gn, ln;
        if (value == 1) {
            gr = s->pos_row + s->pos_ptr[var]; gc = s->pos_coef + s->pos_ptr[var];
            gn = s->pos_ptr[var + 1] - s->pos_ptr[var];
            lr = s->neg_row + s->neg_ptr[var]; lc = s->neg_coef + s->neg_ptr[var];
            ln = s->neg_ptr[var + 1] - s->neg_ptr[var];
        } else {
            gr = s->neg_row + s->neg_ptr[var]; gc = s->neg_coef + s->neg_ptr[var];
            gn = s->neg_ptr[var + 1] - s->neg_ptr[var];
            lr = s->pos_row + s->pos_ptr[var]; lc = s->pos_coef + s->pos_ptr[var];
            ln = s->pos_ptr[var + 1] - s->pos_ptr[var];
        }
        for (int32_t i = 0; i < gn; i++) s->satsum[gr[i]] -= gc[i];
        for (int32_t i = 0; i < ln; i++) s->maxposs[lr[i]] += lc[i];
    }
    return lowest;
}

static int32_t flush_queue(Ctx *s, int32_t ridx) {
    while (s->queue_len > 0) s->queued[s->queue[--s->queue_len]] = 0;
    return ridx;
}

static int32_t propagate(Ctx *s) {
    while (s->queue_len > 0) {
        int32_t ridx = s->queue[--s->queue_len];
        s->queued[ridx] = 0;
        int32_t bound = s->bounds[ridx];
        if (s->satsum[ridx] >= bound) continue;
        int32_t slack = s->maxposs[ridx] - bound;
        if (slack < 0) return flush_queue(s, ridx);
        int32_t lo = s->row_ptr[ridx], hi = s->row_ptr[ridx + 1];
        for (int32_t i = lo; i < hi; i++) {
            int32_t a = s->row_coef[i];
            if (a <= slack) break;
            int32_t lit = s->row_lit[i];
            int32_t var = lit > 0 ? lit : -lit;
            if (s->assigned[var] == UNASSIGNED) {
                s->propagations++;
                int32_t conflict = assign(s, var, lit > 0 ? 1 : 0, FORCED);
                if (conflict >= 0) return flush_queue(s, conflict);
                if (s->satsum[ridx] >= bound) break;
                slack = s->maxposs[ridx] - bound;
                if (slack < 0) return flush_queue(s, ridx);
            }
        }
    }
    return -1;
}

static int backtrack(Ctx *s) {
    for (;;) {
        s->conflicts++;
        int32_t idx = s->trail_len - 1;
        while (idx >= 0 && s->kinds[idx] != OPEN) idx--;
        if (idx < 0) return 0;
        if (s->island_active && idx < s->island_height) {
            for (int32_t i = 0; i < s->island_size; i++)
                s->in_island[s->island_vars[i]] = 0;
            s->island_active = 0;
        }
        int32_t var = s->trail[idx];
        int32_t value = s->assigned[var];
        int32_t lowest = unassign_to(s, idx);
        if (lowest < s->head) s->head = lowest;
        int32_t conflict = assign(s, var, 1 - value, FORCED);
        if (conflict < 0 && propagate(s) < 0) return 1;
    }
}

static int decide(Ctx *s, int32_t var) {
    s->decisions++;
    int32_t conflict = assign(s, var, s->phases[var], OPEN);
    if (conflict >= 0 || propagate(s) >= 0) return backtrack(s);
    return 1;
}

static int32_t pending_rows(Ctx *s, int32_t var) {
    int32_t count = 0;
    for (int32_t i = s->pos_ptr[var]; i < s->pos_ptr[var + 1]; i++) {
        int32_t r = s->pos_row[i];
        if (s->satsum[r] < s->bounds[r] && ++count > ISLAND_ROW_GATE) return -1;
    }
    for (int32_t i = s->neg_ptr[var]; i < s->neg_ptr[var + 1]; i++) {
        int32_t r = s->neg_row[i];
        if (s->satsum[r] < s->bounds[r] && ++count > ISLAND_ROW_GATE) return -1;
    }
    return count;
}

/* Connected component of unsatisfied rows around start.  Rows are
 * stamped via queued values 2 (visited) during the flood and reset
 * afterwards; returns 1 and fills island_vars on success. */
static int flood_island(Ctx *s, int32_t start) {
    int32_t nseen = 0, sp = 0, nrows_seen = 0;
    static const int MAXR = 1 << 14;
    int32_t rows_seen[1 << 14];
    s->stack[sp++] = start;
    s->island_vars[nseen++] = start;
    s->in_island[start] = 1;
    int ok = 1;
    while (sp > 0 && ok) {
        int32_t var = s->stack[--sp];
        for (int pass = 0; pass < 2 && ok; pass++) {
            const int32_t *occ_row = pass ? s->neg_row : s->pos_row;
            const int32_t *ptr = pass ? s->neg_ptr : s->pos_ptr;
            for (int32_t i = ptr[var]; i < ptr[var + 1]; i++) {
                int32_t ridx = occ_row[i];
                if (s->queued[ridx] & 2) continue;
                if (s->satsum[ridx] >= s->bounds[ridx]) continue;
                if (nrows_seen >= MAXR) { ok = 0; break; }
                s->queued[ridx] |= 2;
                rows_seen[nrows_seen++] = ridx;
                for (int32_t j = s->row_ptr[ridx]; j < s->row_ptr[ridx + 1]; j++) {
                    int32_t lit = s->row_lit[j];
                    int32_t v = lit > 0 ? lit : -lit;
                    if (s->assigned[v] == UNASSIGNED && !s->in_island[v]) {
                        if (nseen >= ISLAND_LIMIT) { ok = 0; break; }
                        s->in_island[v] = 1;
                        s->island_vars[nseen++] = v;
                        s->stack[sp++] = v;
                    }
                }
                if (!ok) break;
            }
        }
    }
    for (int32_t i = 0; i < nrows_seen; i++) s->queued[rows_seen[i]] &= 1;
    if (!ok) {
        for (int32_t i = 0; i < nseen; i++) s->in_island[s->island_vars[i]] = 0;
        return 0;
    }
    s->island_size = nseen;
    return 1;
}

Ctx *mcm_new(int32_t nvars, int32_t nrows,
             const int32_t *row_ptr, const int32_t *row_coef,
             const int32_t *row_lit, const int32_t *bounds,
             const int32_t *pos_ptr, const int32_t *pos_row, const int32_t *pos_coef,
             const int32_t *neg_ptr, const int32_t *neg_row, const int32_t *neg_coef,
             const uint8_t *phases,
             int32_t *maxposs, int32_t *satsum, int8_t *assigned) {
    Ctx *s = (Ctx *)calloc(1, sizeof(Ctx));
    if (!s) return 0;
    s->nvars = nvars; s->nrows = nrows;
    s->row_ptr = row_ptr; s->row_coef = row_coef; s->row_lit = row_lit;
    s->bounds = bounds;
    s->pos_ptr = pos_ptr; s->pos_row = pos_row; s->pos_coef = pos_coef;
    s->neg_ptr = neg_ptr; s->neg_row = neg_row; s->neg_coef = neg_coef;
    s->phases = phases;
    s->maxposs = maxposs; s->satsum = satsum; s->assigned = assigned;
    s->queued = (uint8_t *)calloc(nrows + 1, 1);
    s->trail = (int32_t *)malloc(sizeof(int32_t) * (nvars + 2));
    s->kinds = (uint8_t *)malloc(nvars + 2);
    s->queue = (int32_t *)malloc(sizeof(int32_t) * (nrows + 2));
    s->island_vars = (int32_t *)malloc(sizeof(int32_t) * (ISLAND_LIMIT + 2));
    s->in_island = (uint8_t *)calloc(nvars + 2, 1);
    s->stack = (int32_t *)malloc(sizeof(int32_t) * (ISLAND_LIMIT + 2));
    s->head = 1;
    /* root propagation seeds, popped highest row first like the Python path */
    for (int32_t r = 0; r < nrows; r++) {
        s->queued[r] = 1;
        s->queue[s->queue_len++] = r;
    }
    return s;
}

void mcm_free(Ctx *s) {
    if (!s) return;
    free(s->queued); free(s->trail); free(s->kinds); free(s->queue);
    free(s->island_vars); free(s->in_island); free(s->stack);
    free(s);
}

void mcm_stats(Ctx *s, int64_t *out) {
    out[0] = s->decisions; out[1] = s->propagations;
    out[2] = s->conflicts; out[3] = s->islands;
}

/* Returns 0 budget-exhausted, 1 SAT, 2 UNSAT.  First call performs root
 * propagation (the queue is pre-seeded by mcm_new). */
int mcm_run(Ctx *s, int64_t budget) {
    if (s->queue_len > 0 && propagate(s) >= 0) return 2;
    while (budget-- > 0) {
        if (s->island_active) {
            if (s->trail_len < s->island_height) {
                for (int32_t i = 0; i < s->island_size; i++)
                    s->in_island[s->island_vars[i]] = 0;
                s->island_active = 0;
            } else {
                int32_t var = 0;
                for (int32_t i = 0; i < s->island_size; i++) {
                    int32_t v = s->island_vars[i];
                    if (s->assigned[v] == UNASSIGNED && (var == 0 || v < var))
                        var = v;
                }
                if (var == 0) {
                    for (int32_t i = s->island_height; i < s->trail_len; i++)
                        if (s->in_island[s->trail[i]]) s->kinds[i] = FORCED;
                    for (int32_t i = 0; i < s->island_size; i++)
                        s->in_island[s->island_vars[i]] = 0;
                    s->island_active = 0;
                    s->islands++;
                } else {
                    if (!decide(s, var)) return 2;
                    continue;
                }
            }
        }
        int32_t head = s->head;
        while (head <= s->nvars && s->assigned[head] != UNASSIGNED) head++;
        s->head = head;
        if (head > s->nvars) return 1;
        int32_t pending = pending_rows(s, head);
        if (pending == 0) {
            assign(s, head, 0, FORCED);
            continue;
        }
        if (pending > 0 && flood_island(s, head)) {
            s->island_active = 1;
            s->island_height = s->trail_len;
            continue;
        }
        if (!decide(s, head)) return 2;
    }
    return 0;
}
"""


_core = None
_core_failed = False


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "mcmsat"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _compile() -> Path | None:
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    so_path = _cache_dir() / f"mcmcore_{digest}.so"
    if so_path.exists():
        return so_path
    for compiler in ("cc", "gcc", "clang"):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "mcmcore.c"
            src.write_text(C_SOURCE)
            out = Path(tmp) / "mcmcore.so"
            try:
                proc = subprocess.run(
                    [compiler, "-O2", "-shared", "-fPIC", str(src), "-o", str(out)],
                    capture_output=True,
                    timeout=120,
                )
            except (FileNotFoundError, subprocess.TimeoutExpired):
                continue
            if proc.returncode == 0:
                out.replace(so_path)
                return so_path
    return None


def load():
    """Compiled core handle, or None when unavailable."""
    global _core, _core_failed
    if _core is not None:
        return _core
    if _core_failed or os.environ.get("MCMSAT_NO_NATIVE"):
        return None
    try:
        so_path = _compile()
        if so_path is None:
            _core_failed = True
            log.info("no C compiler found; using the Python solver")
            return None
        lib = ctypes.CDLL(str(so_path))
        lib.mcm_new.restype = ctypes.c_void_p
        lib.mcm_new.argtypes = [ctypes.c_int32, ctypes.c_int32] + [
            ctypes.c_void_p
        ] * 14
        lib.mcm_run.restype = ctypes.c_int
        lib.mcm_run.argtypes = [ctypes.c_void_p, ctypes.c_int64]
        lib.mcm_free.argtypes = [ctypes.c_void_p]
        lib.mcm_stats.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        _core = lib
        return _core
    except Exception as exc:  # pragma: no cover - environment specific
        _core_failed = True
        log.info("compiled solver core unavailable (%s); using Python", exc)
        return None


def run(lib, solver, stop):
    """Search the solver's row store on the compiled core, in time slices.

    Returns UNKNOWN once `stop()` (asked after each slice) is True.
    """
    nv, nr = solver.nvars, solver.nrows
    # The search state is copied; the row store is read in place.
    maxposs = array("i", solver.maxposs)
    satsum = array("i", [0]) * nr
    assigned = array("b", [UNASSIGNED]) * (nv + 1)
    store = (
        solver.row_ptr, solver.row_coef, solver.row_lit, solver.bounds,
        solver.pos_ptr, solver.pos_row, solver.pos_coef,
        solver.neg_ptr, solver.neg_row, solver.neg_coef,
        solver.phases, maxposs, satsum, assigned,
    )
    # An empty array's address is 0, which the core never reads.
    ctx = lib.mcm_new(nv, nr, *(a.buffer_info()[0] for a in store))
    if not ctx:
        return solver._solve_python(stop)
    stats = (ctypes.c_int64 * 4)()
    budget = 1000
    try:
        while True:
            start = time.perf_counter()
            rc = lib.mcm_run(ctx, budget)
            elapsed = time.perf_counter() - start
            lib.mcm_stats(ctx, stats)
            solver.decisions, solver.propagations, solver.conflicts, solver.islands = stats
            if rc == C_SAT:
                return SAT, Model((0,) + tuple(assigned[1:]))
            if rc == C_UNSAT:
                return UNSAT, None
            if stop is not None and stop():
                return UNKNOWN, None
            # Aim the next call at SLICE seconds from this call's step rate,
            # growing at most tenfold since step costs drift during a search.
            budget = max(1, int(budget * min(10.0, SLICE / max(elapsed, 1e-9))))
    finally:
        lib.mcm_free(ctx)

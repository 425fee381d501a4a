/* What the two units of mcmsat's compiled core share, core_search.c and
   core_arena.c: the includes, the variable of a literal, the longest row
   checked for repeats pairwise, RefSolver's row store and the order of
   the int64 sort keys. */
#ifndef MCMSAT_CORE_H
#define MCMSAT_CORE_H

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PAIRWISE_MAX 64  /* pb.PAIRWISE_MAX */
#define VAR(l) ((l) > 0 ? (l) : -(l))

/* RefSolver's row store, after MiniSat+: the counter rows (row_ptr,
   row_coef, row_lit, bounds, maxposs), the occurrences of +v and -v in
   them (pos_* and neg_*, by variable) and the clauses (clause_*).
   mcm_build fills it and mcm_new searches it; native.Store names the
   same fields in Python. */
typedef struct {
    int32_t *row_ptr, *row_coef, *row_lit, *bounds, *maxposs;
    int32_t *pos_ptr, *pos_row, *pos_coef, *neg_ptr, *neg_row, *neg_coef;
    int32_t *clause_ptr, *clause_lit;
} Store;

/* qsort's order of int64 keys, ascending. */
static int by_key(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

#endif

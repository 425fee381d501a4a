/* mcmsat's compiled core, arena unit: the passes over a PbFormula's
   arena, each run once per formula or once per appended block.
   mcm_build builds RefSolver's int32 row store (the port of
   RefSolver._build) from the arena, into arrays that Python allocates at
   the lengths of a counting pass; one struct, Store (core.h), names them
   on both sides.  It writes and reads OPB text for PbFormula.emit_opb
   and parse_opb (mcm_emit, mcm_parse): the writer sizes a new str by the
   digit counts of the rows' numbers, then writes the Python writer's
   bytes into it in one pass, and the reader reads the str's own buffer
   in one pass, with no call per token, but takes only a strict subset of
   what the Python reader takes.  mcm_check_block checks a block that
   PbFormula._append has just appended, in one pass that also sums its
   row lengths into row starts and puts a gadget replay's variables in
   place of the recording's placeholders, and mcm_check_model finds the
   first row a SAT model violates for solve._check_model, summing in 128
   bits over the arena.
   native.py compiles this unit and the search unit, core_search.c, at
   the same time, both at -O1, and links them into one library that it
   loads through ctypes.  The Python code stays the reference and the
   fallback of each, and words every error. */

#include "core.h"

/* 1 when one of the k variables at v repeats, found pairwise. */
static int repeats_pairwise(const int32_t *v, int64_t k) {
    for (int64_t p = 1; p < k; p++)
        for (int64_t q = 0; q < p; q++) if (v[q] == v[p]) return 1;
    return 0;
}

/* mcm_check_block, run on each block that PbFormula._append appends:
   the first of m rows, row r being terms start[r] to start[r + 1] - 1
   of coefs and vars, with a zero coefficient, a variable outside
   1..nvars or a variable twice; m when there is none.  start[r + 1]
   arrives as row r's length and is summed here into its end, from
   start[0], the block's first term.  Unless vals is 0, each variable v
   of the block is a placeholder, replaced by vals[v] before its row is
   checked, and a v outside 0..nvals - 1 refuses its row.  Repeats are
   found pairwise, so Python checks a block with a row of more than
   PAIRWISE_MAX terms itself. */
int64_t mcm_check_block(int64_t m, const int64_t *coefs, int32_t *vars, int64_t *start,
                        int64_t nvars, const int32_t *vals, int64_t nvals) {
    for (int64_t r = 0; r < m; r++) {
        start[r + 1] += start[r];
        for (int64_t p = start[r]; p < start[r + 1]; p++) {
            if (vals && (vars[p] < 0 || vars[p] >= nvals)) return r;
            if (vals) vars[p] = vals[vars[p]];
            if (!coefs[p] || vars[p] < 1 || vars[p] > nvars) return r;
        }
        if (repeats_pairwise(vars + start[r], start[r + 1] - start[r])) return r;
    }
    return m;
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

static int by_var(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* 1 when one of the k variables at v repeats: pairwise up to
   PAIRWISE_MAX of them, as mcm_check_block finds them, else in a sorted
   copy at *held, grown to the longest such row and kept for the caller
   to free; -1 out of memory.  The memory is the row's, whatever the
   variables' indices. */
static int repeats(const int32_t *v, int64_t k, int32_t **held, int64_t *cap) {
    if (k <= PAIRWISE_MAX) return repeats_pairwise(v, k);
    if (k > *cap) {
        free(*held);
        if (!(*held = (int32_t *)malloc(sizeof(int32_t) * k))) return -1;
        *cap = k;
    }
    memcpy(*held, v, sizeof(int32_t) * k);
    qsort(*held, k, sizeof(int32_t), by_var);
    for (int64_t i = 1; i < k; i++) if ((*held)[i] == (*held)[i - 1]) return 1;
    return 0;
}

/* The lines after the header: rows, comment lines and blank lines, into
   the arena's arrays, of room for sizes[1] rows and sizes[2] terms.
   *held is repeats' sorted copy, for the caller to free.  A row is terms
   "[+-]coef xvar", each followed by a blank, then ">=" or "=", a bound
   and ";": the coefficients and the bound are read by one signed
   reader, in one loop over the row's numbers. */
static int read_rows(const char *p, const char *end, uint64_t nvars, int32_t **held, int64_t *sizes,
                     int64_t *coefs, int32_t *vars, int64_t *row_ptr, int64_t *bounds, uint8_t *rel) {
    int64_t row = 0, at = 0, cap = 0;
    uint64_t var_top = nvars / 10, var_last = nvars % 10;
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
            if (!var || p == end || (*p != ' ' && *p != '\t') || at == sizes[2]) return 1;
            SKIP_BLANKS();
            coefs[at] = value;
            vars[at++] = (int32_t)var;
        }
        SKIP_BLANKS();
        if (p == end || *p++ != ';') return 1;
        SKIP_BLANKS();
        if ((p < end && *p != '\n') || row == sizes[1]) return 1;
        int rc = repeats(vars + row_ptr[row], at - row_ptr[row], held, &cap);
        if (rc) return rc;
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
    int32_t *held = 0;
    int rc = read_rows(p, end, nvars, &held, sizes, coefs, vars, row_ptr, bounds, rel);
    free(held);
    sizes[0] = (int64_t)nvars;
    return rc ? rc : (uint64_t)sizes[1] != declared;
}

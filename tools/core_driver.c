/* Runs one row store that tools/dump_store.py wrote through the compiled
   core's search, without Python, and prints the verdict, the decisions,
   propagations and conflicts, and the seconds of mcm_new and mcm_run:

       cc -O1 -o core_driver tools/core_driver.c && ./core_driver < 821.store */
#include <stdio.h>
#include <time.h>

#include "../src/mcmsat/core.c"

/* One array: its int64 length n, then n elements of the given size. */
static void *read_array(size_t size, int64_t *n) {
    void *a = 0;
    if (fread(n, sizeof *n, 1, stdin) != 1 || *n < 0 || !(a = malloc(size * (*n + 1)))
        || fread(a, size, *n, stdin) != (size_t)*n) {
        fputs("core_driver: not a row store from dump_store.py\n", stderr);
        exit(2);
    }
    return a;
}

int main(void) {
    static const char *verdict[] = {"UNKNOWN", "SAT", "UNSAT", "OUT-OF-MEMORY"};
    int32_t *arrays[13];
    int64_t len[13], nphases, stats[3] = {0, 0, 0};
    Store st;
    _Static_assert(sizeof st == sizeof arrays, "Store is 13 int32 arrays");
    for (int i = 0; i < 13; i++) arrays[i] = read_array(sizeof(int32_t), &len[i]);
    memcpy(&st, arrays, sizeof st);
    uint8_t *phases = read_array(1, &nphases);
    int32_t nvars = (int32_t)nphases - 1, nrows = (int32_t)len[3];
    int32_t *satsum = calloc(nrows + 1, sizeof *satsum);
    int8_t *assigned = malloc(nvars + 1);
    memset(assigned, UNASSIGNED, nvars + 1);
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    Ctx *s = mcm_new(nvars, nrows, (int32_t)len[11] - 1, &st, phases, st.maxposs, satsum, assigned);
    int rc = s ? mcm_run(s, INT64_MAX) : 3;
    clock_gettime(CLOCK_MONOTONIC, &t1);
    if (s) mcm_stats(s, stats);
    printf("%s decisions=%lld propagations=%lld conflicts=%lld seconds=%.3f\n", verdict[rc],
           (long long)stats[0], (long long)stats[1], (long long)stats[2],
           (double)(t1.tv_sec - t0.tv_sec) + 1e-9 * (double)(t1.tv_nsec - t0.tv_nsec));
    mcm_free(s);
    return 0;
}

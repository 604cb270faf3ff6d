/* Row-wise masked sparse accumulator for the multpath / centpath products,
 * and the key merge SpMat.combine / align_values locate with (at the end).
 *
 * One call reduces one expansion chunk — A's entries [lo, hi), whole rows
 * of A (the caller never cuts a row, so each output row is reduced here in
 * one piece), each joined against its row of B — to what
 * MinWeightTieSumMonoid.tie_sum returns for it: the output coordinates in
 * key order, each run's best weight, and per payload field each run's tie
 * sum; it also adds each row's surviving pairs to the caller's row_ops.
 * (Built by repro.sparse._native with -ffp-contract=off and no
 * -ffast-math: every floating-point operation here is one IEEE add, the
 * add numpy makes.)
 *
 * Per row of A, a masked product first stamps the row's mask columns and
 * lists the row's surviving pairs (join order, no branch on the mask: a
 * partly masked row would mispredict it on every pair, in both passes).
 * The stamp is a byte per column, or under a tie mask the mask entry's
 * weight (NaN off the mask): a pair then survives iff its weight equals
 * its column's stamp, which no weight does where the stamp is NaN.  Under
 * a bound mask the stamp is the mask entry's weight too, and off the mask
 * the infinity every weight beats (+inf when the smaller weight wins,
 * -inf when the larger does): a pair survives iff its weight does not
 * lose to the stamp, and a NaN weight or stamp never survives.  Each rule
 * lists its survivors in a loop of its own.
 * Pass 1 forms each surviving pair's weight and keeps per output column the
 * run length and the best weight as first achieved; the touched columns are
 * then ordered (a bitmap scan) and each run given `run length` slots of a
 * per-row scratch; pass 2 recomputes the weights and copies the tied pairs'
 * payloads to the front of their run; each run is then summed by run_sum.
 *
 * run_sum is the C twin of tie_sum's np.add.reduceat over the layout "the
 * run's tied payloads in join order, then +0.0 up to the run length": the
 * first tie plus numpy's pairwise sum of the rest (pairwise below).  The
 * padding zeros are never stored.  That grouping is numpy's, not a
 * contract, so repro.sparse._native probes run_sums against np.add.reduceat
 * once per process and withholds this kernel on any mismatch.  int64
 * fields add with wrapping, in any order: integer addition is associative.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { PATHSUM_OK = 0, PATHSUM_NAN = 1, PATHSUM_NOMEM = 2 };
enum { MAX_SUM = 2 };
enum { RULE_KEEP = 0, RULE_COMPLEMENT = 1, RULE_TIE = 2, RULE_BOUND = 3 }; /* MatMulSpec.mask_rule */

/* one 8-byte payload item: a float64 or an int64 field's */
typedef union {
    double d;
    uint64_t u;
} payload;

typedef struct {
    /* A, canonical (row-major) order; the chunk is entries [lo, hi), whole rows */
    const int64_t *a_rows, *a_cols;
    const double *a_w;
    int64_t lo, hi;
    /* B by rows: b_ptr is its row pointer; ncols its (and C's) width */
    const int64_t *b_ptr, *b_cols;
    const double *b_w;
    int64_t ncols;
    /* sorted linear keys row * ncols + col of the mask; NULL = unmasked */
    const int64_t *mask_keys;
    int64_t n_mask;
    const double *mask_w; /* with RULE_TIE / RULE_BOUND: the weights of the mask's entries */
    int32_t rule;       /* keep a pair iff in the mask, iff not, iff its weight is the entry's,
                           iff its weight does not lose to the entry's (any weight off the mask) */
    int32_t negate;     /* weight is aw - bw (Brandes), else aw + bw */
    int32_t select_max; /* larger weight wins (centpath), else smaller */
    int32_t n_sum;      /* payload fields, each an 8-byte column of A */
    int32_t sum_int[MAX_SUM]; /* 1: an int64 field, 0: a float64 one */
    const payload *sum_in[MAX_SUM];
    /* one slot per run (<= joined pairs) */
    payload *sum_out[MAX_SUM];
    int64_t *out_rows, *out_cols;
    double *out_w;
    int64_t *row_ops; /* one per row of A: += the row's surviving pairs */
    int64_t n_runs;   /* written on return */
} pathsum_args;

typedef struct {
    double best;
    int64_t count; /* surviving pairs on this column; 0 = untouched */
    int64_t slot;  /* next free scratch slot of the run during pass 2 */
} accum;

/* numpy's pairwise summation (pairwise_sum_DOUBLE, numpy 2.x) of the n
 * items whose first k are t[0 .. k) and the rest +0.0.  Below 8 items: left
 * to right from -0.0; up to 128: eight lanes seeded with items 0..7, folded
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the n % 8 tail; above: split at
 * n/2 rounded down to a multiple of 8.  Adding +0.0 to a sum twice is adding
 * it once, so a run of zeros costs one add per lane and nothing is stored.
 * n >= 1: run_sum never asks for the sum of nothing. */
static double pairwise(const payload *t, int64_t k, int64_t n)
{
    if (k == 0) /* n >= 1 zeros */
        return 0.0;
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < k; i++)
            res += t[i].d;
        return k < n ? res + 0.0 : res;
    }
    if (n <= 128) {
        const int64_t body = n - n % 8;
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = j < k ? t[j].d : 0.0;
        for (i = 8; i < body && i < k; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += i + j < k ? t[i + j].d : 0.0;
        if (i < body) /* zeros alone from here to the tail */
            for (int j = 0; j < 8; j++)
                r[j] += 0.0;
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (i = body; i < n; i++)
            res += i < k ? t[i].d : 0.0;
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(t, k < n2 ? k : n2, n2) + pairwise(t + n2, k > n2 ? k - n2 : 0, n - n2);
}

/* np.add.reduceat's value for one run of `len` items, the k >= 1 ties t
 * first: the first item, then the pairwise sum of the rest added to it. */
static double run_sum(const payload *t, int64_t k, int64_t len)
{
    return len == 1 ? t[0].d : t[0].d + pairwise(t + 1, k - 1, len - 1);
}

/* np.add.reduceat(layout, starts) as pathsum_chunk computes it, for a
 * layout of `size` items whose run r (from starts[r] to the next start) is
 * counts[r] >= 1 ties, then zeros — which are never read.  The probe's
 * entry point. */
void run_sums(const payload *layout, int64_t size, const int64_t *starts, const int64_t *counts,
              int64_t n, double *out)
{
    for (int64_t r = 0; r < n; r++) {
        const int64_t end = r + 1 < n ? starts[r + 1] : size;
        out[r] = run_sum(layout + starts[r], counts[r], end - starts[r]);
    }
}

/* Sort the nt distinct column indices in `touched`, all below n, through
 * the (all-zero, and left all-zero) bitmap `bits`: nt + n/64 steps. */
static void order_columns(int64_t *touched, int64_t nt, uint64_t *bits, int64_t n)
{
    const int64_t n_words = (n + 63) / 64;
    for (int64_t t = 0; t < nt; t++)
        bits[touched[t] >> 6] |= (uint64_t)1 << (touched[t] & 63);
    nt = 0;
    for (int64_t v = 0; v < n_words; v++) {
        for (uint64_t word = bits[v]; word; word &= word - 1)
            touched[nt++] = (v << 6) + __builtin_ctzll(word);
        bits[v] = 0;
    }
}

static const int64_t *lower_bound(const int64_t *lo, const int64_t *hi, int64_t key)
{
    while (lo < hi) {
        const int64_t *mid = lo + (hi - lo) / 2;
        if (*mid < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The statements for every surviving pair (q, r) — A's entry q, B's entry
 * r — of the row [p, pe), in join order, with aw = A's weight of q: the
 * listed survivors of a masked row, the whole join of an unmasked one. */
#define FOR_EACH_PAIR(...)                                                      \
    for (int64_t q = p, s = 0; q < pe; q++) {                                   \
        const int64_t k = g->a_cols[q];                                         \
        const double aw = g->a_w[q];                                            \
        if (masked) {                                                           \
            for (const int64_t s_end = kept_end[q - p]; s < s_end; s++) {       \
                const int64_t r = kept[s];                                      \
                __VA_ARGS__                                                     \
            }                                                                   \
        } else {                                                                \
            for (int64_t r = g->b_ptr[k]; r < g->b_ptr[k + 1]; r++) {           \
                __VA_ARGS__                                                     \
            }                                                                   \
        }                                                                       \
    }

int pathsum_chunk(pathsum_args *g)
{
    const int64_t n = g->ncols;
    const int masked = g->mask_keys != NULL;
    const int tie = masked && g->rule == RULE_TIE;
    const int bound = masked && g->rule == RULE_BOUND;
    const unsigned char absent = g->rule == RULE_COMPLEMENT; /* stamp of a column off the mask */
    /* a weight stamp's column off the mask: no weight ties NaN, every
     * weight but NaN is within the losing infinity */
    const double off = tie ? NAN : g->select_max ? -INFINITY : INFINITY;
    const int64_t *mask = g->mask_keys, *mask_end = mask + g->n_mask;
    int64_t n_runs = 0, cap = 0;
    int status = PATHSUM_OK;

    accum *acc = calloc((size_t)n, sizeof *acc);
    int64_t *touched = malloc((size_t)n * sizeof *touched);
    uint64_t *bits = calloc((size_t)(n + 63) / 64, sizeof *bits);
    unsigned char *keep = masked && !tie && !bound ? malloc((size_t)n) : NULL;
    double *stamp = tie || bound ? malloc((size_t)n * sizeof *stamp) : NULL;
    payload *scratch[MAX_SUM] = {NULL}; /* per field: one row's runs, ties first */
    /* a masked row's surviving B entries, and where each A entry's survivors end */
    int64_t *kept = NULL, *kept_end = NULL, kept_cap = 0, ends_cap = 0;
    if (!acc || !touched || !bits || (masked && !keep && !stamp)) {
        status = PATHSUM_NOMEM;
        goto done;
    }
    if (keep)
        memset(keep, absent, (size_t)n);
    for (int64_t j = 0; stamp && j < n; j++)
        stamp[j] = off;

    for (int64_t p = g->lo, pe; p < g->hi; p = pe) {
        const int64_t i = g->a_rows[p];
        for (pe = p + 1; pe < g->hi && g->a_rows[pe] == i; pe++)
            ;
        const int64_t *m0 = mask, *m1 = mask;
        if (masked) { /* rows ascend, so the mask is consumed left to right */
            m0 = lower_bound(mask, mask_end, i * n);
            for (m1 = m0; m1 < mask_end && *m1 < (i + 1) * n; m1++) {
                if (stamp)
                    stamp[*m1 - i * n] = g->mask_w[m1 - g->mask_keys];
                else
                    keep[*m1 - i * n] = !absent;
            }
            mask = m1;

            int64_t joined = 0;
            for (int64_t q = p; q < pe; q++)
                joined += g->b_ptr[g->a_cols[q] + 1] - g->b_ptr[g->a_cols[q]];
            if (joined > kept_cap) {
                kept_cap = joined > 2 * kept_cap ? joined : 2 * kept_cap;
                int64_t *grown = realloc(kept, (size_t)kept_cap * sizeof *grown);
                if (!grown) {
                    status = PATHSUM_NOMEM;
                    goto done;
                }
                kept = grown;
            }
            if (pe - p > ends_cap) {
                ends_cap = pe - p > 2 * ends_cap ? pe - p : 2 * ends_cap;
                int64_t *grown = realloc(kept_end, (size_t)ends_cap * sizeof *grown);
                if (!grown) {
                    status = PATHSUM_NOMEM;
                    goto done;
                }
                kept_end = grown;
            }
            int64_t ns = 0;
            if (bound) {
                for (int64_t q = p; q < pe; q++) {
                    const double aw = g->a_w[q];
                    for (int64_t r = g->b_ptr[g->a_cols[q]]; r < g->b_ptr[g->a_cols[q] + 1]; r++) {
                        kept[ns] = r;
                        const double w = g->negate ? aw - g->b_w[r] : aw + g->b_w[r];
                        const double at = stamp[g->b_cols[r]];
                        ns += g->select_max ? w >= at : w <= at;
                    }
                    kept_end[q - p] = ns;
                }
            } else {
                for (int64_t q = p; q < pe; q++) {
                    const double aw = g->a_w[q];
                    for (int64_t r = g->b_ptr[g->a_cols[q]]; r < g->b_ptr[g->a_cols[q] + 1]; r++) {
                        kept[ns] = r;
                        if (tie) {
                            const double w = g->negate ? aw - g->b_w[r] : aw + g->b_w[r];
                            ns += w == stamp[g->b_cols[r]];
                        } else {
                            ns += keep[g->b_cols[r]];
                        }
                    }
                    kept_end[q - p] = ns;
                }
            }
        }

        int64_t nt = 0;
        FOR_EACH_PAIR(
            const int64_t j = g->b_cols[r];
            const double w = g->negate ? aw - g->b_w[r] : aw + g->b_w[r];
            if (w != w) {
                status = PATHSUM_NAN;
                goto done;
            }
            accum *c = &acc[j];
            if (c->count++ == 0) {
                touched[nt++] = j;
                c->best = w;
            } else if (g->select_max ? w > c->best : w < c->best) {
                c->best = w; /* strict: an equal weight keeps the first one's bits */
            }
        )

        order_columns(touched, nt, bits, n);
        int64_t pairs = 0;
        for (int64_t t = 0; t < nt; t++) {
            acc[touched[t]].slot = pairs;
            pairs += acc[touched[t]].count;
        }
        if (pairs > cap) {
            cap = pairs > 2 * cap ? pairs : 2 * cap;
            for (int f = 0; f < g->n_sum; f++) {
                payload *grown = realloc(scratch[f], (size_t)cap * sizeof *grown);
                if (!grown) {
                    status = PATHSUM_NOMEM;
                    goto done;
                }
                scratch[f] = grown;
            }
        }

        FOR_EACH_PAIR(
            const int64_t j = g->b_cols[r];
            const double w = g->negate ? aw - g->b_w[r] : aw + g->b_w[r];
            if (w == acc[j].best) {
                const int64_t slot = acc[j].slot++;
                for (int f = 0; f < g->n_sum; f++)
                    scratch[f][slot] = g->sum_in[f][q];
            }
        )

        /* run t holds slots [start, start + count): its ties, then losers */
        for (int64_t t = 0, start = 0; t < nt; t++) {
            accum *c = &acc[touched[t]];
            const int64_t ties = c->slot - start;
            g->out_rows[n_runs] = i;
            g->out_cols[n_runs] = touched[t];
            g->out_w[n_runs] = c->best;
            for (int f = 0; f < g->n_sum; f++) {
                const payload *run = scratch[f] + start;
                payload *out = &g->sum_out[f][n_runs];
                if (g->sum_int[f]) {
                    uint64_t sum = 0;
                    for (int64_t s = 0; s < ties; s++)
                        sum += run[s].u;
                    out->u = sum;
                } else {
                    out->d = run_sum(run, ties, c->count);
                }
            }
            n_runs++;
            start += c->count;
            c->count = 0;
        }
        g->row_ops[i] += pairs;

        for (const int64_t *m = m0; m < m1; m++) {
            if (stamp)
                stamp[*m - i * n] = off;
            else
                keep[*m - i * n] = absent;
        }
    }

done:
    free(acc);
    free(touched);
    free(bits);
    free(keep);
    free(stamp);
    free(kept);
    free(kept_end);
    for (int f = 0; f < MAX_SUM; f++)
        free(scratch[f]);
    g->n_runs = n_runs;
    return status;
}

/* For each of the n ascending `needles`, its lower-bound position in the m
 * ascending keys of `hay` (np.searchsorted's integer) and whether it is
 * there.  One merge from left to right: a needle gallops from the previous
 * one's position (1, 2, 4, ... keys ahead) and binary-searches the last
 * step, so the n needles cost O(n log(m/n) + n) comparisons, never more
 * than the n log m of a search per needle. */
void merge_locate(const int64_t *hay, int64_t m, const int64_t *needles, int64_t n,
                  int64_t *pos, uint8_t *hit)
{
    int64_t at = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t key = needles[i];
        if (at < m && hay[at] < key) {
            int64_t below = at, step = 1; /* hay[below] < key */
            while (below + step < m && hay[below + step] < key) {
                below += step;
                step <<= 1;
            }
            const int64_t end = below + step < m ? below + step : m;
            at = lower_bound(hay + below + 1, hay + end, key) - hay;
        }
        pos[i] = at;
        hit[i] = at < m && hay[at] == key;
    }
}

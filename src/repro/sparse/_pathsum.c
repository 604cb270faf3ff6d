/* Row-wise masked sparse accumulator for the multpath / centpath products,
 * and the key merge SpMat.combine / align_values locate with (at the end).
 *
 * One call reduces one expansion chunk — A's entries [lo, hi), each joined
 * against its row of B — to the exact inputs of the numpy reduction in
 * MinWeightTieSumMonoid.tie_sum: the output coordinates in key order, each
 * run's weight, each run's start, and per payload field the `col` array
 * (a run's tied entries first, in join order, zeros behind).  It never adds
 * two payloads: np.add.reduceat does every sum, on the same layout, so the
 * result cannot differ from the generic kernel's by a bit.  (Built by
 * repro.sparse._native with -ffp-contract=off and no -ffast-math: the one
 * floating-point operation here is the IEEE add that forms a pair's weight.)
 *
 * Per row of A, pass 1 stamps the row's mask columns, forms each surviving
 * pair's weight and keeps per output column the run length and the best
 * weight as first achieved; the touched columns are then ordered (a bitmap
 * scan) and each run given `run length` slots; pass 2 recomputes the weights
 * and copies the tied pairs' payload words to the front of their run.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { PATHSUM_OK = 0, PATHSUM_NAN = 1, PATHSUM_NOMEM = 2 };
enum { MAX_SUM = 2 };

typedef struct {
    /* A, canonical (row-major) order; the chunk is entries [lo, hi) */
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
    int32_t complement; /* keep a pair iff in_mask != complement */
    int32_t negate;     /* weight is aw - bw (Brandes), else aw + bw */
    int32_t select_max; /* larger weight wins (centpath), else smaller */
    int32_t n_sum;      /* payload fields, each an 8-byte column of A */
    const uint64_t *sum_in[MAX_SUM];
    uint64_t *sum_out[MAX_SUM]; /* zero-filled, one slot per joined pair */
    /* one slot per run (<= joined pairs) */
    int64_t *out_rows, *out_cols, *out_starts;
    double *out_w;
    int64_t n_runs, n_pairs; /* written on return */
} pathsum_args;

typedef struct {
    double best;
    int64_t count; /* surviving pairs on this column; 0 = untouched */
    int64_t slot;  /* next free slot of the run during pass 2 */
} accum;

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

int pathsum_chunk(pathsum_args *g)
{
    const int64_t n = g->ncols;
    const int masked = g->mask_keys != NULL;
    const unsigned char absent = g->complement != 0; /* stamp of a column outside the mask */
    const int64_t *mask = g->mask_keys, *mask_end = mask + g->n_mask;
    int64_t n_runs = 0, n_pairs = 0;
    int status = PATHSUM_OK;

    accum *acc = calloc((size_t)n, sizeof *acc);
    int64_t *touched = malloc((size_t)n * sizeof *touched);
    uint64_t *bits = calloc((size_t)(n + 63) / 64, sizeof *bits);
    unsigned char *keep = masked ? malloc((size_t)n) : NULL;
    if (!acc || !touched || !bits || (masked && !keep)) {
        status = PATHSUM_NOMEM;
        goto done;
    }
    if (masked)
        memset(keep, absent, (size_t)n);

    for (int64_t p = g->lo, pe; p < g->hi; p = pe) {
        const int64_t i = g->a_rows[p];
        for (pe = p + 1; pe < g->hi && g->a_rows[pe] == i; pe++)
            ;
        const int64_t *m0 = mask, *m1 = mask;
        if (masked) { /* rows ascend, so the mask is consumed left to right */
            m0 = lower_bound(mask, mask_end, i * n);
            for (m1 = m0; m1 < mask_end && *m1 < (i + 1) * n; m1++)
                keep[*m1 - i * n] = !absent;
            mask = m1;
        }

        int64_t nt = 0;
        for (int64_t q = p; q < pe; q++) {
            const int64_t k = g->a_cols[q];
            const double aw = g->a_w[q];
            for (int64_t r = g->b_ptr[k]; r < g->b_ptr[k + 1]; r++) {
                const int64_t j = g->b_cols[r];
                if (masked && !keep[j])
                    continue;
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
            }
        }

        order_columns(touched, nt, bits, n);
        for (int64_t t = 0; t < nt; t++) {
            accum *c = &acc[touched[t]];
            g->out_rows[n_runs] = i;
            g->out_cols[n_runs] = touched[t];
            g->out_w[n_runs] = c->best;
            g->out_starts[n_runs] = n_pairs;
            c->slot = n_pairs;
            n_pairs += c->count;
            n_runs++;
        }

        for (int64_t q = p; q < pe; q++) {
            const int64_t k = g->a_cols[q];
            const double aw = g->a_w[q];
            for (int64_t r = g->b_ptr[k]; r < g->b_ptr[k + 1]; r++) {
                const int64_t j = g->b_cols[r];
                if (masked && !keep[j])
                    continue;
                const double w = g->negate ? aw - g->b_w[r] : aw + g->b_w[r];
                if (w == acc[j].best) {
                    const int64_t s = acc[j].slot++;
                    for (int f = 0; f < g->n_sum; f++)
                        g->sum_out[f][s] = g->sum_in[f][q];
                }
            }
        }

        for (int64_t t = 0; t < nt; t++)
            acc[touched[t]].count = 0;
        for (const int64_t *m = m0; m < m1; m++)
            keep[*m - i * n] = absent;
    }

done:
    free(acc);
    free(touched);
    free(bits);
    free(keep);
    g->n_runs = n_runs;
    g->n_pairs = n_pairs;
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

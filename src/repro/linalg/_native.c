/*
 * Native one-pass reductions over a GEMM block, for repro.linalg.
 *
 * Each kernel is bitwise equal to the numpy code it replaces (named
 * beside it).  That holds because the source is compiled without
 * fast-math and with -ffp-contract=off: every +, -, * and sqrt below
 * rounds once, in the same dtype and the same operand order as the
 * numpy ufunc it mirrors, and no multiply-add is fused.  Loaded through
 * ctypes by repro/linalg/native.py; the numpy code stays the fallback
 * and the test oracle.
 *
 * Type names: each kernel comes in one variant per (GEMM dtype,
 * expansion dtype) pair numpy can produce -- f32/f32, f32/f64, f64/f64
 * -- where the expansion dtype is np.result_type of the block and the
 * norms.  Norm arrays are passed already converted to the expansion
 * dtype (an exact widening, as numpy's own casts are).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

/* np.maximum(v, 0.0): NaN propagates; -0.0, +0.0 and negatives give +0.0. */
#define CLAMP0(v) ((v) <= 0 ? 0 : (v))

/* expand_gemm on one entry: ``G *= -2; G += xn; G += cn; max(G, 0)``. */
#define EXPAND(ET, g, x, c) CLAMP0(((ET)(g) * (ET)-2 + (x)) + (c))

/*
 * Dense cost fold -- distances.update_min_sq_dists_argmin's chunk
 * body: expand the row, take numpy's argmin (first strict minimum; the
 * first NaN wins and ends the scan), and on strict improvement of
 * ``cur`` store the minimum and ``offset + argmin``.
 */
#define DEF_FOLD(NAME, GT, ET)                                              \
    void NAME(const GT *G, i64 m, i64 k, const ET *xn, const ET *cn,        \
              double *cur, i64 *near, i64 offset)                           \
    {                                                                       \
        for (i64 i = 0; i < m; i++) {                                       \
            const GT *g = G + i * k;                                        \
            const ET x = xn[i];                                             \
            ET best = EXPAND(ET, g[0], x, cn[0]);                           \
            i64 bi = 0;                                                     \
            if (best == best) {                                             \
                for (i64 j = 1; j < k; j++) {                               \
                    ET v = EXPAND(ET, g[j], x, cn[j]);                      \
                    if (!(v >= best)) {                                     \
                        best = v;                                           \
                        bi = j;                                             \
                        if (v != v)                                         \
                            break;                                          \
                    }                                                       \
                }                                                           \
            }                                                               \
            if ((double)best < cur[i]) {                                    \
                cur[i] = (double)best;                                      \
                near[i] = bi + offset;                                      \
            }                                                               \
        }                                                                   \
    }

DEF_FOLD(fold_min_f32_f32, float, float)
DEF_FOLD(fold_min_f32_f64, float, double)
DEF_FOLD(fold_min_f64_f64, double, double)

/* Row threshold of the triangle pruning: prune candidate c of a row
 * whose reference is a iff lower[a, c] >= 4 (d2 + slack) (1 + hair). */
static inline double prune_threshold(double d2, double slack, double hair)
{
    return 4.0 * (d2 + slack) * (1.0 + hair);
}

/*
 * The pruned fold's per-reference tables.  ``lower`` (n_ref x k) holds
 * the padded-down squared distances from each earlier candidate a to the
 * k new ones.  A row keeps the candidates whose bound is below its own
 * threshold; ``prune_prepare`` lists, per reference, the candidates below
 * the largest threshold among its rows, sorted by bound, so each row
 * keeps a prefix of its reference's list:
 *
 *   sorted[a * k + p], order[a * k + p]   bound and index, p < len[a]
 *
 * A row whose nearest lies outside [0, n_ref) has no reference and
 * keeps all k.  Returns the sum over rows of their list's length: an
 * upper bound on the pairs the rows keep.
 */
typedef struct {
    double v;
    i64 j;
} bound_entry;

static int by_bound(const void *pa, const void *pb)
{
    const bound_entry *a = pa, *b = pb;
    return (a->v > b->v) - (a->v < b->v);
}

i64 prune_prepare(const double *cur, const i64 *near, i64 n, i64 n_ref,
                  i64 k, const double *lower, double slack, double hair,
                  double *reach, i64 *rows, double *sorted, i64 *order,
                  i64 *len, bound_entry *scratch)
{
    i64 listed = 0;
    for (i64 a = 0; a < n_ref; a++) {
        reach[a] = -INFINITY;
        rows[a] = 0;
    }
    for (i64 i = 0; i < n; i++) {
        const i64 a = near[i];
        if (a < 0 || a >= n_ref) {
            listed += k;
            continue;
        }
        const double t = prune_threshold(cur[i], slack, hair);
        if (t > reach[a])
            reach[a] = t;
        rows[a]++;
    }
    for (i64 a = 0; a < n_ref; a++) {
        const double *low = lower + a * k;
        i64 m = 0;
        for (i64 j = 0; j < k; j++) {
            if (low[j] < reach[a]) {
                scratch[m].v = low[j];
                scratch[m].j = j;
                m++;
            }
        }
        qsort(scratch, (size_t)m, sizeof(bound_entry), by_bound);
        for (i64 p = 0; p < m; p++) {
            sorted[a * k + p] = scratch[p].v;
            order[a * k + p] = scratch[p].j;
        }
        len[a] = m;
        listed += rows[a] * m;
    }
    return listed;
}

static inline i64 kept_prefix(const double *low, i64 len, double t)
{
    i64 p = 0;
    while (p < len && low[p] < t)
        p++;
    return p;
}

/*
 * Pruned cost fold (float64, finite operands -- the caller checks) over
 * the tables of prune_prepare, for rows whose cur/near it saw.  A
 * candidate outside a row's kept prefix provably expands to >= cur[i],
 * so it can neither improve the row nor be its first minimum; the kept
 * ones are visited out of index order, so ties go to the lower index,
 * which is numpy's first-index argmin.  Entries read the full-chunk
 * GEMM, so they carry the dense fold's bits.  Returns the pairs
 * expanded.
 */
i64 fold_pruned_f64(const double *G, i64 m, i64 k, const double *xn,
                    const double *cn, double *cur, i64 *near, i64 offset,
                    i64 n_ref, const double *sorted, const i64 *order,
                    const i64 *len, double slack, double hair)
{
    i64 formed = 0;
    for (i64 i = 0; i < m; i++) {
        const i64 a = near[i];
        const int ref = a >= 0 && a < n_ref;
        const double *g = G + i * k;
        const double x = xn[i];
        const i64 *od = ref ? order + a * k : 0;
        const i64 kept = ref ? kept_prefix(sorted + a * k, len[a],
                                           prune_threshold(cur[i], slack, hair))
                             : k;
        double best = 0.0;
        i64 bi = -1;
        for (i64 p = 0; p < kept; p++) {
            const i64 j = ref ? od[p] : p;
            const double v = EXPAND(double, g[j], x, cn[j]);
            if (bi < 0 || v < best || (v == best && j < bi)) {
                best = v;
                bi = j;
            }
        }
        formed += kept;
        if (bi >= 0 && best < cur[i]) {
            cur[i] = best;
            near[i] = bi + offset;
        }
    }
    return formed;
}

/*
 * Top-2 pass -- bounds._fill_rows, with bounds._near_ties fused in
 * when ``close`` is given.  With ``xn``/``cn`` given, ``G`` is a raw
 * GEMM block expanded here exactly as expand_gemm does; without them it
 * is an already expanded distance block of the expansion dtype.
 *
 *   labels[i] = argmin;  ub[i] = sqrt(d2[argmin] + slack)
 *   lb[i] = sqrt(max(min_{j != argmin} d2[j] - slack, 0))   (inf if k < 2)
 *   best[i] = d2[argmin]
 *   close[i] = any_j (gap_j <= u2 * ((2 xn[i] + cn[argmin]) + cn[j]))
 *
 * with gap_j = d2[j] - d2[argmin] and gap_argmin = inf, all in the
 * expansion dtype; ``ub``, ``lb`` and ``best`` are the rows of
 * ``bounds``.  Returns -1 if the row buffer cannot be allocated, else 0.
 */
#define DEF_TOP2(NAME, GT, ET, SQRT)                                        \
    int NAME(const GT *G, i64 m, i64 k, const ET *xn, const ET *cn,         \
             double slack, double u2, i64 *labels, double *bounds,          \
             uint8_t *close)                                                \
    {                                                                       \
        ET *buf = malloc((size_t)(k > 0 ? k : 1) * sizeof(ET));             \
        if (!buf)                                                           \
            return -1;                                                      \
        double *ub = bounds, *lb = bounds + m, *bv = bounds + 2 * m;        \
        const ET s = (ET)slack;                                             \
        const ET u = (ET)u2;                                                \
        for (i64 i = 0; i < m; i++) {                                       \
            const GT *g = G + i * k;                                        \
            if (xn) {                                                       \
                const ET x = xn[i];                                         \
                for (i64 j = 0; j < k; j++)                                 \
                    buf[j] = EXPAND(ET, g[j], x, cn[j]);                    \
            } else {                                                        \
                for (i64 j = 0; j < k; j++)                                 \
                    buf[j] = (ET)g[j];                                      \
            }                                                               \
            ET best = buf[0];                                               \
            i64 bi = 0;                                                     \
            if (best == best) {                                             \
                for (i64 j = 1; j < k; j++) {                               \
                    if (!(buf[j] >= best)) {                                \
                        best = buf[j];                                      \
                        bi = j;                                             \
                        if (best != best)                                   \
                            break;                                          \
                    }                                                       \
                }                                                           \
            }                                                               \
            labels[i] = bi;                                                 \
            bv[i] = (double)best;                                           \
            ub[i] = (double)SQRT(best + s);                                 \
            if (k < 2) {                                                    \
                lb[i] = INFINITY;                                           \
            } else {                                                        \
                ET second = INFINITY;                                       \
                for (i64 j = 0; j < k; j++) {                               \
                    if (j == bi)                                            \
                        continue;                                           \
                    if (buf[j] != buf[j]) {                                 \
                        second = buf[j];                                    \
                        break;                                              \
                    }                                                       \
                    if (buf[j] < second)                                    \
                        second = buf[j];                                    \
                }                                                           \
                ET r = second - s;                                          \
                r = CLAMP0(r);                                              \
                lb[i] = (double)SQRT(r);                                    \
            }                                                               \
            if (close) {                                                    \
                const ET base = (xn[i] + xn[i]) + cn[bi];                   \
                uint8_t flag = 0;                                           \
                for (i64 j = 0; j < k; j++) {                               \
                    const ET gap = j == bi ? (ET)INFINITY : buf[j] - best;  \
                    const ET allow = u * (base + cn[j]);                    \
                    if (gap <= allow) {                                     \
                        flag = 1;                                           \
                        break;                                              \
                    }                                                       \
                }                                                           \
                close[i] = flag;                                            \
            }                                                               \
        }                                                                   \
        free(buf);                                                          \
        return 0;                                                           \
    }

DEF_TOP2(top2_f32_f32, float, float, sqrtf)
DEF_TOP2(top2_f32_f64, float, double, sqrt)
DEF_TOP2(top2_f64_f64, double, double, sqrt)

/*
 * Row-order scatter-add -- centroids.cluster_sums' chunk body, the
 * flattened-index np.bincount: ``out[labels[i] * d + j] += v[i, j]`` in
 * row-major order, v = x (unweighted) or x * w[i] formed in the product
 * dtype PT and then widened to float64.
 */
#define DEF_SUMS(NAME, XT, PT)                                              \
    void NAME(const XT *X, i64 n, i64 d, const PT *w, const i64 *labels,    \
              double *out)                                                  \
    {                                                                       \
        for (i64 i = 0; i < n; i++) {                                       \
            const XT *x = X + i * d;                                        \
            double *o = out + labels[i] * d;                                \
            if (w) {                                                        \
                const PT wi = w[i];                                         \
                for (i64 j = 0; j < d; j++)                                 \
                    o[j] += (double)((PT)x[j] * wi);                        \
            } else {                                                        \
                for (i64 j = 0; j < d; j++)                                 \
                    o[j] += (double)x[j];                                   \
            }                                                               \
        }                                                                   \
    }

DEF_SUMS(sums_f32_f32, float, float)
DEF_SUMS(sums_f32_f64, float, double)
DEF_SUMS(sums_f64_f64, double, double)

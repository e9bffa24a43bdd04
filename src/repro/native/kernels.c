/* The compiled tier's kernels (see repro/native/__init__.py).
 *
 * Every float64 operation here is one the pure-Python reference also
 * performs, in the same order, so values match bit for bit: the module
 * is built with -O2 -ffp-contract=off (no fused multiply-add) and never
 * with -ffast-math.
 *
 * - kpj_eq1_source / kpj_eq2_target: the landmark bounds of one node,
 *   read from one column of the |L| x n distance matrix (stride n).
 * - kpj_spt_*: Alg. 7's settle loop (FlatIncrementalSPT) over the base
 *   graph's CSR export, the overlay's virtual rows and a binary min-heap
 *   ordered on (key, node) exactly as heapq orders those tuples.
 */

#include <math.h>
#include <stdint.h>

/* cdef-begin: the declarations cffi binds (repro/native/build.py). */
typedef struct {
    double key;
    int64_t node;
} kpj_entry;

typedef struct {
    const int64_t *indptr;
    const int64_t *indices;
    const double *weights;
    int64_t n;
    const int64_t *vptr;
    const int64_t *vidx;
    const double *vw;
    const uint8_t *dest;
    double *tb;
    const double *lm;
    const double *dmin;
    int64_t nlm;
    double *dist;
    int64_t *stamp;
    int64_t *parent;
    double *h;
    int64_t *order;
    int64_t count;
    int64_t *dest_nodes;
    double *dest_dists;
    int64_t dest_count;
    kpj_entry *heap;
    int64_t heap_len;
    int64_t heap_cap;
    int64_t gen;
    int64_t target;
    int64_t settled;
    int64_t relaxed;
    int64_t pops;
    int64_t peak;
} kpj_spt;

double kpj_eq1_source(const double *lm, const double *dmax, int64_t nlm,
                      int64_t n, int64_t u);
double kpj_eq2_target(const double *lm, const double *dmin, int64_t nlm,
                      int64_t n, int64_t v);
int64_t kpj_spt_begin(kpj_spt *s, int64_t source);
int64_t kpj_spt_settle(kpj_spt *s, int64_t goal, double tau);
void kpj_spt_release(kpj_spt *s);
/* cdef-end */

#define KPJ_NONE (-1)
#define KPJ_FULL (-2)
#define KPJ_IDLE (-3)

/* Eq. (1) toward the source set: max_w (δ(w, u) - dmax[w]) floored at 0;
 * a landmark with both terms inf gives -inf, as the numpy mask does. */
double kpj_eq1_source(const double *lm, const double *dmax, int64_t nlm,
                      int64_t n, int64_t u)
{
    double best = -INFINITY;
    for (int64_t w = 0; w < nlm; w++) {
        double c = lm[w * n + u];
        double d = dmax[w];
        double x = (isinf(c) && isinf(d)) ? -INFINITY : c - d;
        if (x > best)
            best = x;
    }
    return best < 0.0 ? 0.0 : best;
}

/* Eq. (2) toward the destination set: max_w (dmin[w] - δ(w, v)) floored
 * at 0, skipping a landmark that cannot reach v (δ(w, v) = inf). */
double kpj_eq2_target(const double *lm, const double *dmin, int64_t nlm,
                      int64_t n, int64_t v)
{
    double best = -INFINITY;
    for (int64_t w = 0; w < nlm; w++) {
        double d = lm[w * n + v];
        if (isinf(d))
            continue;
        double x = dmin[w] - d;
        if (x > best)
            best = x;
    }
    return best > 0.0 ? best : 0.0;
}

/* lb(v, V_T) from the memo, computed on first touch (NaN = not yet). */
static inline double lb_target(kpj_spt *s, int64_t v)
{
    double b = s->tb[v];
    if (b != b && s->lm != NULL) {
        b = kpj_eq2_target(s->lm, s->dmin, s->nlm, s->n, v);
        s->tb[v] = b;
    }
    return b;
}

static inline int before(const kpj_entry *a, const kpj_entry *b)
{
    return a->key < b->key || (a->key == b->key && a->node < b->node);
}

static inline int push(kpj_spt *s, double key, int64_t node)
{
    if (s->heap_len >= s->heap_cap)
        return -1;
    kpj_entry *heap = s->heap;
    kpj_entry e = {key, node};
    int64_t i = s->heap_len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!before(&e, &heap[p]))
            break;
        heap[i] = heap[p];
        i = p;
    }
    heap[i] = e;
    return 0;
}

static inline void pop(kpj_spt *s)
{
    kpj_entry *heap = s->heap;
    int64_t len = --s->heap_len;
    if (len == 0)
        return;
    kpj_entry e = heap[len];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= len)
            break;
        if (c + 1 < len && before(&heap[c + 1], &heap[c]))
            c++;
        if (!before(&heap[c], &e))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = e;
}

/* Start a tree at `source`: a fresh generation and one queue entry. */
int64_t kpj_spt_begin(kpj_spt *s, int64_t source)
{
    s->gen += 1;
    s->count = 0;
    s->dest_count = 0;
    s->heap_len = 0;
    s->peak = 1;
    s->settled = s->relaxed = s->pops = 0;
    s->dist[source] = 0.0;
    s->stamp[source] = s->gen;
    return push(s, s->tb != NULL ? 0.0 + lb_target(s, source) : 0.0, source);
}

/* Pop and settle until `goal` is settled (returned) or every key left
 * is over `tau` (KPJ_NONE).  KPJ_IDLE: nothing to pop at all.
 * KPJ_FULL: a push found the heap at capacity. */
int64_t kpj_spt_settle(kpj_spt *s, int64_t goal, double tau)
{
    s->settled = s->relaxed = s->pops = 0;
    if (s->heap_len == 0 || s->heap[0].key > tau)
        return KPJ_IDLE;
    const int64_t *indptr = s->indptr, *indices = s->indices;
    const double *weights = s->weights;
    const int64_t n = s->n, gen = s->gen, settled_tag = -s->gen, t = s->target;
    const uint8_t *dest = s->dest;
    const int tb = s->tb != NULL;
    double *dist = s->dist, *h = s->h;
    int64_t *stamp = s->stamp, *parent = s->parent;
    int64_t settled = 0, relaxed = 0, pops = 0, found = KPJ_NONE;
    while (s->heap_len > 0) {
        const int64_t u = s->heap[0].node;
        if (s->heap[0].key > tau)
            break;
        pop(s);
        pops++;
        if (stamp[u] == settled_tag)
            continue;
        const double du = dist[u];
        stamp[u] = settled_tag;
        h[u] = du;
        s->order[s->count++] = u;
        settled++;
        const int64_t *idx;
        const double *wt;
        int64_t lo, hi;
        if (u < n) {
            idx = indices;
            wt = weights;
            lo = indptr[u];
            hi = indptr[u + 1];
        } else {
            idx = s->vidx;
            wt = s->vw;
            lo = s->vptr[u - n];
            hi = s->vptr[u - n + 1];
        }
        for (int64_t e = lo; e < hi; e++) {
            const int64_t v = idx[e];
            const int64_t st = stamp[v];
            if (st == settled_tag)
                continue;
            const double nd = du + wt[e];
            if (st != gen || nd < dist[v]) {
                dist[v] = nd;
                parent[v] = u;
                stamp[v] = gen;
                if (push(s, tb ? nd + lb_target(s, v) : nd, v))
                    goto full;
                relaxed++;
            }
        }
        if (dest[u]) {
            s->dest_nodes[s->dest_count] = u;
            s->dest_dists[s->dest_count] = du;
            s->dest_count++;
            /* G_Q's zero-weight edge u -> t; lb(t, V_T) is 0. */
            const int64_t st = stamp[t];
            if (st != settled_tag && (st != gen || du < dist[t])) {
                dist[t] = du;
                parent[t] = u;
                stamp[t] = gen;
                if (push(s, du, t))
                    goto full;
                relaxed++;
            }
        }
        if (u == goal) {
            found = u;
            break;
        }
    }
    if (s->heap_len > s->peak)
        s->peak = s->heap_len;
    s->settled = settled;
    s->relaxed = relaxed;
    s->pops = pops;
    return found;
full:
    s->settled = settled;
    s->relaxed = relaxed;
    s->pops = pops;
    return KPJ_FULL;
}

/* Restore the all-inf invariant of `h` and drop the per-query inputs. */
void kpj_spt_release(kpj_spt *s)
{
    for (int64_t i = 0; i < s->count; i++)
        s->h[s->order[i]] = INFINITY;
    s->count = 0;
    s->dest_count = 0;
    s->heap_len = 0;
    s->vptr = NULL;
    s->vidx = NULL;
    s->vw = NULL;
    s->dest = NULL;
    s->tb = NULL;
    s->lm = NULL;
    s->dmin = NULL;
}

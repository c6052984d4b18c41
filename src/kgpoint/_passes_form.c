/* The energy form behind every observer: a run's sample, and a state's metric on a scan's windows and its phase fit
 * to a candidate wave.
 *
 * The energy form sums in one fixed order of its own, written out below at
 * form_sums, on gcc's and clang's vector extensions (no intrinsics), so its
 * bits depend on neither the CPU nor a BLAS.  Its whole groups of entries are
 * one body built at each vector width of the stepping loop's builds (FORM):
 * two lanes plain, four for AVX2 and eight for AVX-512F, each holding a sum's
 * eight accumulator lanes in as few vectors.  They run the build picked with
 * the stepping loop's (picked, _passes_step.c), and every build keeps the
 * same bits.
 */
#include <math.h>
#include <string.h>

#include "_passes.h"

enum { PI, PSI, CELLS, SUMS }; /* the energy form's three sums */
enum { SET = 8 };              /* one sum's accumulators: four of two lanes, accumulator k in doubles 2k and 2k + 1 */
enum { NORM, CHARGE, FIT };    /* the sums of a state with itself, also with its charge, and of two states */

/* every sum's accumulators, Re and Im */
struct form_acc {
    double re[SUMS][SET], im[SUMS][SET];
};

/* The entries of lanes [0, w) from double j on into s, each lane into its own accumulator lane: the node products,
 * and the cell products of lanes [0, cells); with FIT, also the products with b's lanes swapped, (Re_a Im_b,
 * Im_a Re_b); with CHARGE, conj(p_a) q_a's. */
ALWAYS_INLINE void form_lanes(struct form_acc *s, const double *ap, const double *aq, const double *bp,
                              const double *bq, ptrdiff_t j, ptrdiff_t w, ptrdiff_t cells, const int kind)
{
    for (ptrdiff_t l = 0; l < w; l++) {
        const ptrdiff_t i = j + l, k = i ^ 1; /* k: i's lane swapped */
        s->re[PI][l] = s->re[PI][l] + aq[i] * bq[i];
        s->re[PSI][l] = s->re[PSI][l] + ap[i] * bp[i];
        if (l < cells)
            s->re[CELLS][l] = s->re[CELLS][l] + (ap[i + 2] - ap[i]) * (bp[i + 2] - bp[i]);
        if (kind == FIT) {
            s->im[PI][l] = s->im[PI][l] + aq[i] * bq[k];
            s->im[PSI][l] = s->im[PSI][l] + ap[i] * bp[k];
            if (l < cells)
                s->im[CELLS][l] = s->im[CELLS][l] + (ap[i + 2] - ap[i]) * (bp[k + 2] - bp[k]);
        }
        if (kind == CHARGE)
            s->im[PI][l] = s->im[PI][l] + ap[i] * aq[k];
    }
}

/* the vector of type at x, and the vector v of type with each entry's two lanes swapped */
#define LOAD(type, x) ({ type v_; memcpy(&v_, (x), sizeof v_); v_; })
#define SWAPPED(type, v)                                                                                               \
    ({                                                                                                                 \
        type w_;                                                                                                       \
        for (unsigned l_ = 0; l_ < sizeof w_ / sizeof w_[0]; l_++)                                                     \
            w_[l_] = (v)[l_ ^ 1];                                                                                      \
        w_;                                                                                                            \
    })

/* The build name of the form's whole groups, at lanes doubles a vector: the entries of the groups of four nodes in
 * [0, end / 2) into s, as form_lanes adds them, the SET lanes of each accumulator set as SET / lanes vectors.  Vector
 * v of a group from double j holds the lanes [v lanes, (v + 1) lanes), whose products are those of the doubles from
 * j + v lanes on.  Each width is its own type: one wider type, lowered by the compiler at a narrower target, runs
 * slower than the narrower body. */
#define FORM(name, lanes, ...)                                                                                         \
    typedef double name##_vec __attribute__((vector_size(8 * (lanes))));                                               \
    __VA_ARGS__ ALWAYS_INLINE void name##_groups(struct form_acc *s, const double *ap, const double *aq,               \
                                                 const double *bp, const double *bq, ptrdiff_t end, const int kind)    \
    {                                                                                                                  \
        name##_vec re[SUMS][SET / (lanes)], im[SUMS][SET / (lanes)];                                                   \
        memcpy(re, s->re, sizeof re);                                                                                  \
        memcpy(im, s->im, sizeof im);                                                                                  \
        for (ptrdiff_t j = 0; j < end; j += SET)                                                                       \
            for (int v = 0; v < SET / (lanes); v++) {                                                                  \
                const ptrdiff_t i = j + v * (lanes);                                                                   \
                const name##_vec pa = LOAD(name##_vec, ap + i), qa = LOAD(name##_vec, aq + i);                         \
                const name##_vec pb = LOAD(name##_vec, bp + i), qb = LOAD(name##_vec, bq + i);                         \
                const name##_vec da = LOAD(name##_vec, ap + i + 2) - pa, db = LOAD(name##_vec, bp + i + 2) - pb;       \
                re[PI][v] = re[PI][v] + qa * qb;                                                                       \
                re[PSI][v] = re[PSI][v] + pa * pb;                                                                     \
                re[CELLS][v] = re[CELLS][v] + da * db;                                                                 \
                if (kind == FIT) {                                                                                     \
                    im[PI][v] = im[PI][v] + qa * SWAPPED(name##_vec, qb);                                              \
                    im[PSI][v] = im[PSI][v] + pa * SWAPPED(name##_vec, pb);                                            \
                    im[CELLS][v] = im[CELLS][v] + da * SWAPPED(name##_vec, db);                                        \
                }                                                                                                      \
                if (kind == CHARGE)                                                                                    \
                    im[PI][v] = im[PI][v] + pa * SWAPPED(name##_vec, qa);                                              \
            }                                                                                                          \
        memcpy(s->re, re, sizeof re);                                                                                  \
        memcpy(s->im, im, sizeof im);                                                                                  \
    }                                                                                                                  \
    static __VA_ARGS__ __attribute__((noinline)) void name(struct form_acc *s, const double *ap, const double *aq,     \
                                                           const double *bp, const double *bq, ptrdiff_t end,          \
                                                           int kind)                                                   \
    {                                                                                                                  \
        if (kind == FIT)                                                                                               \
            name##_groups(s, ap, aq, bp, bq, end, FIT);                                                                \
        else if (kind == CHARGE)                                                                                       \
            name##_groups(s, ap, aq, bp, bq, end, CHARGE);                                                             \
        else                                                                                                           \
            name##_groups(s, ap, aq, bp, bq, end, NORM);                                                               \
    }

FORM(form_plain, 2)
#if defined(__x86_64__)
FORM(form_avx2, 4, __attribute__((target("avx2"))))
FORM(form_avx512f, 8, __attribute__((target("avx512f"))))
#endif

typedef __typeof__(form_plain) form_fn;

static form_fn *const forms[BUILDS] = {
    [PLAIN] = form_plain,
#if defined(__x86_64__)
    [AVX2] = form_avx2,
    [AVX512F] = form_avx512f,
#endif
};

/* The sums of the energy form of two states a and b on the same len nodes, (p, q) = (psi, pi) as
 * interleaved complex, by the build groups of forms: over the nodes i in [0, len) conj(q_a) q_b and
 * conj(p_a) p_b, and over the cells i in [0, len - 1) conj(dp_a) dp_b, dp_i = p_{i+1} - p_i taken here,
 * lane by lane.
 *
 * The one fixed order: each sum has four accumulators of two lanes, each
 * from 0.0; entry i adds its lane products (Re_a Re_b, Im_a Im_b) into
 * accumulator i mod 4, in the order of i; the accumulators combine as
 * ((s0 + s1) + (s2 + s3)), and re[t] is lane 0 + lane 1, Re conj(a) b.
 * With FIT, b's lanes are also taken swapped, (Re_a Im_b, Im_a Re_b), and
 * im[t] is lane 0 - lane 1, Im conj(a) b; with CHARGE, im[PI] is instead
 * that of conj(p_a) q_a.  The entries of whole groups of four, before the
 * group that holds the last node, whose cell lies outside, run at the
 * build's vector width; the rest lane by lane.  A window [s, e) of a larger
 * state is the state from node s on, with len = e - s, so its sums do not
 * depend on where it lies.
 */
ALWAYS_INLINE void form_sums(int build, const double *ap, const double *aq, const double *bp, const double *bq,
                             ptrdiff_t len, const int kind, double re[SUMS], double imag[SUMS])
{
    struct form_acc s = {0};
    const ptrdiff_t whole = len > 0 ? (len - 1) / 4 * 4 : 0, j = 2 * whole;
    forms[build](&s, ap, aq, bp, bq, j, kind);
    form_lanes(&s, ap, aq, bp, bq, j, 2 * (len - whole), 2 * (len - whole - 1), kind);
    for (int t = 0; t < SUMS; t++) { /* lanes 0 and 1 of ((s0 + s1) + (s2 + s3)) */
        const double *r = s.re[t], *u = s.im[t];
        re[t] = ((r[0] + r[2]) + (r[4] + r[6])) + ((r[1] + r[3]) + (r[5] + r[7]));
        imag[t] = ((u[0] + u[2]) + (u[4] + u[6])) - ((u[1] + u[3]) + (u[5] + u[7]));
    }
}

/* the form dx (pi + m2 psi) + cells / dx of the sums' Re or Im parts */
static inline double form_value(const double sum[SUMS], double m2, double dx)
{
    return dx * (sum[PI] + m2 * sum[PSI]) + sum[CELLS] / dx;
}

/* sqrt of the form of a state with itself on the len nodes from p and q on */
static inline double seminorm(const double *p, const double *q, ptrdiff_t len, double m2, double dx)
{
    double re[SUMS], im[SUMS];
    form_sums(picked, p, q, p, q, len, NORM, re, im);
    return sqrt(form_value(re, m2, dx));
}

/* Sample r's state at step k into row k / every: t, H, Q, the energy norm, each window's seminorm and the
 * traces, m2 the form's.  H is half the form plus the potentials, each model._at_node's (pow of hypot, Horner from
 * 0.0), summed left to right from 0.0; Q = -dx Im sum conj(psi) pi.  Returns the squared energy norm, finite only
 * if the whole state is. */
double sample(const struct kgp_run *r, double m2, ptrdiff_t k)
{
    const struct kgp_model *m = r->model;
    const ptrdiff_t row = k / r->every, rows = r->rows;
    double *column = r->series + row, *trace_p = r->traces + 2 * row * m->n;
    double *trace_q = trace_p + 2 * rows * m->n;
    double re[SUMS], im[SUMS];
    form_sums(picked, r->p, r->q, r->p, r->q, r->n, CHARGE, re, im);
    const double norm2 = form_value(re, m2, r->dx);
    double u = 0.0;
    const double *coef = m->coef;
    for (ptrdiff_t i = 0; i < m->n; i++) {
        const ptrdiff_t j = 2 * r->sites[i];
        u = u + horner(coef, m->ncoef[i], libm_pow(hypot(r->p[j], r->p[j + 1]), 2.0));
        coef += m->ncoef[i];
        memcpy(trace_p + 2 * i, r->p + j, 2 * sizeof(double));
        memcpy(trace_q + 2 * i, r->q + j, 2 * sizeof(double));
    }
    column[0] = r->t0 + (double)k * r->dt;
    column[rows] = 0.5 * norm2 + u;
    column[2 * rows] = -r->dx * im[PI];
    column[3 * rows] = sqrt(norm2);
    for (ptrdiff_t w = 0; w < r->nwindows; w++) {
        const ptrdiff_t start = r->windows[2 * w];
        column[(4 + w) * rows] = seminorm(r->p + 2 * start, r->q + 2 * start, r->windows[2 * w + 1] - start, m2,
                                          r->dx);
    }
    return norm2;
}

/* sum 2^-R |(p, q)|_{E,R} over the windows R = 1 ... r_max of scan s, left to right from 0.0 */
static double metric(const struct kgp_scan *s, double m2, const double *p, const double *q)
{
    double total = 0.0, weight = 1.0;
    for (ptrdiff_t r = 0; r < s->r_max; r++) {
        const ptrdiff_t start = s->windows[2 * r];
        weight = weight * 0.5;
        total = total + weight * seminorm(p + 2 * start, q + 2 * start, s->windows[2 * r + 1] - start, m2, s->dx);
    }
    return total;
}

/* The metric of the state (p, q) on the nodes of scan s: its distance to the zero wave */
double metric_sum(const struct kgp_scan *s, const double *p, const double *q)
{
    return metric(s, form_m2(s->model), p, q);
}

/* The metric distance from m's state u to the closest phase of the wave (wp, wq) on the same nodes.
 *
 * The phase is the unit e = conj(z) / |z| of the form z = <u, w> (1 where z
 * is 0), |z| hypot's; each entry of the difference is u - w e in the complex
 * product (wr er - wi ei, wr ei + wi er), and its metric is metric's.
 */
double fit_dist(const struct metric_view *m, const double *wp, const double *wq)
{
    const struct kgp_scan *s = m->s;
    const double m2 = form_m2(s->model);
    double re[SUMS], im[SUMS];
    form_sums(picked, m->p, m->q, wp, wq, s->nodes, FIT, re, im);
    const double zr = form_value(re, m2, s->dx), zi = form_value(im, m2, s->dx), r = hypot(zr, zi);
    double er = 1.0, ei = 0.0;
    if (r != 0.0) {
        er = zr / r;
        ei = -zi / r;
    }
    for (ptrdiff_t j = 0; j < 2 * s->nodes; j += 2) {
        m->dp[j] = m->p[j] - (wp[j] * er - wp[j + 1] * ei);
        m->dp[j + 1] = m->p[j + 1] - (wp[j] * ei + wp[j + 1] * er);
        m->dq[j] = m->q[j] - (wq[j] * er - wq[j + 1] * ei);
        m->dq[j + 1] = m->q[j + 1] - (wq[j] * ei + wq[j + 1] * er);
    }
    return metric(s, m2, m->dp, m->dq);
}

/* The energy form behind every observer: a run's sample, and a state's metric and its phase fit to a candidate
 * wave.
 *
 * The energy form sums in one fixed order of its own, written out below at
 * form_sums, with two-lane vectors of gcc's and clang's vector extensions (no
 * intrinsics, no -march), so its bits depend on neither the CPU nor a BLAS.
 */
#include <math.h>
#include <string.h>

#include "_passes.h"

/* Two doubles as one value, lane by lane (gcc's and clang's vector extension) */
typedef double v2 __attribute__((vector_size(16)));

/* the complex entry at x as the lanes (Re, Im), and swapped as (Im, Re) */
static inline v2 load(const double *x)
{
    v2 v;
    memcpy(&v, x, sizeof v);
    return v;
}

static inline v2 load_swapped(const double *x)
{
    return (v2){x[1], x[0]};
}

enum { PI, PSI, CELLS, SUMS }; /* the energy form's three sums */

/* every sum's four accumulators */
struct form_acc {
    v2 re[SUMS][4], im[SUMS][4];
};

/* Entry i of the sums into accumulator k: the node products at node i, and the cell product at cell i
 * when cell; with im, also the products with b's lanes swapped; with charge, conj(p_a) q_a's. */
static inline __attribute__((always_inline)) void form_entry(struct form_acc *s, const double *ap, const double *aq,
                                                             const double *bp, const double *bq, ptrdiff_t i,
                                                             const int k, const int cell, const int im,
                                                             const int charge)
{
    const ptrdiff_t j = 2 * i;
    const v2 pa = load(ap + j), qa = load(aq + j);
    s->re[PI][k] = s->re[PI][k] + qa * load(bq + j);
    s->re[PSI][k] = s->re[PSI][k] + pa * load(bp + j);
    if (cell)
        s->re[CELLS][k] = s->re[CELLS][k] + (load(ap + j + 2) - pa) * (load(bp + j + 2) - load(bp + j));
    if (im) {
        s->im[PI][k] = s->im[PI][k] + qa * load_swapped(bq + j);
        s->im[PSI][k] = s->im[PSI][k] + pa * load_swapped(bp + j);
        if (cell)
            s->im[CELLS][k] =
                s->im[CELLS][k] + (load(ap + j + 2) - pa) * (load_swapped(bp + j + 2) - load_swapped(bp + j));
    }
    if (charge)
        s->im[PI][k] = s->im[PI][k] + pa * load_swapped(aq + j);
}

/* The sums of the energy form of two states a and b on the same len nodes, (p, q) = (psi, pi) as
 * interleaved complex: over the nodes i in [0, len) conj(q_a) q_b and conj(p_a) p_b, and over the cells
 * i in [0, len - 1) conj(dp_a) dp_b, dp_i = p_{i+1} - p_i taken here, lane by lane.
 *
 * The one fixed order: each sum has four accumulators of two lanes, each
 * from 0.0; entry i adds its lane products (Re_a Re_b, Im_a Im_b) into
 * accumulator i mod 4, in the order of i; the accumulators combine as
 * ((s0 + s1) + (s2 + s3)), and re[t] is lane 0 + lane 1, Re conj(a) b.
 * With im, b's lanes are also taken swapped, (Re_a Im_b, Im_a Re_b), and
 * im[t] is lane 0 - lane 1, Im conj(a) b; with charge, im[PI] is instead
 * that of conj(p_a) q_a.  A window [s, e) of a larger state is the state
 * from node s on, with len = e - s, so its sums do not depend on where it lies.
 */
static inline __attribute__((always_inline)) void form_sums(const double *ap, const double *aq, const double *bp,
                                                            const double *bq, ptrdiff_t len, const int im,
                                                            const int charge, double re[SUMS], double imag[SUMS])
{
    struct form_acc s = {0};
    ptrdiff_t i = 0;
    for (; i + 4 < len; i += 4) { /* entries whose cells all lie inside */
        form_entry(&s, ap, aq, bp, bq, i, 0, 1, im, charge);
        form_entry(&s, ap, aq, bp, bq, i + 1, 1, 1, im, charge);
        form_entry(&s, ap, aq, bp, bq, i + 2, 2, 1, im, charge);
        form_entry(&s, ap, aq, bp, bq, i + 3, 3, 1, im, charge);
    }
    if (i < len)
        form_entry(&s, ap, aq, bp, bq, i, 0, i + 1 < len, im, charge);
    if (i + 1 < len)
        form_entry(&s, ap, aq, bp, bq, i + 1, 1, i + 2 < len, im, charge);
    if (i + 2 < len)
        form_entry(&s, ap, aq, bp, bq, i + 2, 2, i + 3 < len, im, charge);
    if (i + 3 < len)
        form_entry(&s, ap, aq, bp, bq, i + 3, 3, 0, im, charge);
    for (int t = 0; t < SUMS; t++) {
        const v2 r = (s.re[t][0] + s.re[t][1]) + (s.re[t][2] + s.re[t][3]);
        const v2 u = (s.im[t][0] + s.im[t][1]) + (s.im[t][2] + s.im[t][3]);
        re[t] = r[0] + r[1];
        imag[t] = u[0] - u[1];
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
    form_sums(p, q, p, q, len, 0, 0, re, im);
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
    form_sums(r->p, r->q, r->p, r->q, r->n, 0, 1, re, im);
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

/* sum 2^-R |(p, q)|_{E,R} over R = 1 ... r_max, left to right from 0.0 */
static double metric(const struct kgp_metric *m, const double *p, const double *q)
{
    double total = 0.0, weight = 1.0;
    for (ptrdiff_t r = 0; r < m->r_max; r++) {
        const ptrdiff_t start = m->windows[2 * r];
        weight = weight * 0.5;
        total = total + weight * seminorm(p + 2 * start, q + 2 * start, m->windows[2 * r + 1] - start, m->m2, m->dx);
    }
    return total;
}

/* The metric of m's state u itself: its distance to the zero wave */
double kgp_metric_sum(const struct kgp_metric *m)
{
    return metric(m, m->p, m->q);
}

/* The metric distance from m's state u to the closest phase of the wave w.
 *
 * The phase is the unit e = conj(z) / |z| of the form z = <u, w> (1 where z
 * is 0), |z| hypot's; each entry of the difference is u - w e in the complex
 * product (wr er - wi ei, wr ei + wi er), and its metric is metric's.
 */
double fit_dist(const struct kgp_metric *m, const struct kgp_wave *w)
{
    double re[SUMS], im[SUMS];
    form_sums(m->p, m->q, w->p, w->q, m->n, 1, 0, re, im);
    const double zr = form_value(re, m->m2, m->dx), zi = form_value(im, m->m2, m->dx), r = hypot(zr, zi);
    double er = 1.0, ei = 0.0;
    if (r != 0.0) {
        er = zr / r;
        ei = -zi / r;
    }
    for (ptrdiff_t j = 0; j < 2 * m->n; j += 2) {
        m->dp[j] = m->p[j] - (w->p[j] * er - w->p[j + 1] * ei);
        m->dp[j + 1] = m->p[j + 1] - (w->p[j] * ei + w->p[j + 1] * er);
        m->dq[j] = m->q[j] - (w->q[j] * er - w->q[j + 1] * ei);
        m->dq[j + 1] = m->q[j + 1] - (w->q[j] * ei + w->q[j + 1] * er);
    }
    return metric(m, m->dp, m->dq);
}
